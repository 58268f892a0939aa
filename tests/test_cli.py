import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ggm.cli as cli_module
import ggm.twirl as twirl_module
from ggm.cli import (
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERIFICATION,
    main,
    parse_family_spec,
    parse_group_spec,
    parse_state_spec,
)



def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def ghz5_spec(tmp_path):
    return write_json(tmp_path / "ghz5.json",
                      {"constructor": "ghz", "args": {"n_parties": 5}})


@pytest.fixture
def rank2_family_spec(tmp_path):
    return write_json(tmp_path / "fam.json",
                      {"family": "rank2_symmetric", "args": {"n_parties": 3}})


def parity_family_doc(basis):
    return {"group": {"kind": "parity", "dims": [2, 2, 2]}, "basis": basis,
            "weights": [0.5, 0.5]}


PARITY_SECTORS = [
    {"constructor": "uniform_sector", "args": {"dims": [2, 2, 2], "modulus": 2, "k": k}}
    for k in (0, 1)
]


class TestParseSpecs:
    def test_constructor_state(self):
        psi = parse_state_spec({"constructor": "dicke",
                                "args": {"n_parties": 3, "k": 1}})
        assert abs(np.linalg.norm(psi.amplitudes) - 1) < 1e-12

    def test_raw_amplitudes(self):
        h = 1 / math.sqrt(2)
        psi = parse_state_spec({"shape": [2, 2],
                                "amplitudes": [[h, 0], [0, 0], [0, 0], [h, 0]]})
        assert np.isclose(psi.amplitudes[3], h)

    def test_nested_superpose(self):
        psi = parse_state_spec({
            "constructor": "superpose",
            "args": {
                "basis": [
                    {"constructor": "ghz", "args": {"n_parties": 3}},
                    {"constructor": "dicke", "args": {"n_parties": 3, "k": 1}},
                ],
                "weights": [0.5, 0.5],
                "phases": [0.0, 1.0],
            },
        })
        assert abs(np.linalg.norm(psi.amplitudes) - 1) < 1e-12

    def test_unknown_constructor_named_in_error(self):
        with pytest.raises(ValueError, match="frobnicate"):
            parse_state_spec({"constructor": "frobnicate", "args": {}})

    def test_missing_field_named_in_error(self):
        with pytest.raises(ValueError, match="amplitudes|shape"):
            parse_state_spec({"amplitudes": [[1, 0]]})

    def test_group_kinds(self):
        group = parse_group_spec({"kind": "omega", "dims": [2, 2, 2]})
        assert group.order == 3
        group = parse_group_spec({"kind": "zeta"})
        assert group.order == 4

    def test_explicit_group_elements(self):
        eye = [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]
        sz = [[[1, 0], [0, 0]], [[0, 0], [-1, 0]]]
        group = parse_group_spec({"elements": [[eye, eye], [sz, sz]]})
        assert group.order == 2

    def test_builtin_family(self):
        fam = parse_family_spec({"family": "rank3_ghz_w"})
        assert fam.free_phases == 2


class TestPureCommand:
    def test_ghz5(self, ghz5_spec, capsys):
        assert main(["pure", ghz5_spec]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert abs(doc["value"] - 0.5) < 1e-9
        assert len(doc["per_cut"]) == 15

    def test_output_file(self, ghz5_spec, tmp_path):
        out = tmp_path / "report.json"
        assert main(["pure", ghz5_spec, "--out", str(out)]) == EXIT_OK
        assert abs(json.loads(out.read_text())["value"] - 0.5) < 1e-9

    def test_parse_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        assert main(["pure", str(bad)]) == EXIT_USAGE
        assert "error" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["pure", "/nonexistent/state.json"]) == EXIT_USAGE


class TestMixedCommand:
    def test_writes_surface_csv(self, rank2_family_spec, tmp_path):
        out = tmp_path / "surface.csv"
        assert main(["mixed", rank2_family_spec, "--grid", "21",
                     "--out", str(out)]) == EXIT_OK
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "x,raw,envelope,hessian_min_eig,phase_1,phase_2"
        assert len(lines) == 22

    def test_grid_minimum_enforced(self, rank2_family_spec, capsys):
        assert main(["mixed", rank2_family_spec, "--grid", "5"]) == EXIT_USAGE

    def test_group_not_fixing_custom_mixture_exits_2(self, tmp_path, capsys):
        # parity maps GHZ to its sign-flipped partner, so it does not fix GHZ/W
        spec = write_json(tmp_path / "fam.json", parity_family_doc([
            {"constructor": "ghz", "args": {"n_parties": 3}},
            {"constructor": "dicke", "args": {"n_parties": 3, "k": 1}},
        ]))
        assert main(["mixed", spec, "--grid", "11"]) == EXIT_VERIFICATION
        assert "verification failed" in capsys.readouterr().err

    def test_custom_family_verified_once(self, tmp_path, monkeypatch, capsys):
        # Both checks of a family read one set of moved basis rows, so one
        # verification is one _moved call.
        calls = []
        original = twirl_module._moved

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(twirl_module, "_moved", counting)
        spec = write_json(tmp_path / "fam.json",
                          parity_family_doc(PARITY_SECTORS))
        assert main(["mixed", spec, "--grid", "11", "--out",
                     str(tmp_path / "surface.csv")]) == EXIT_OK
        assert len(calls) == 1


class TestVerifyGroupCommand:
    def test_builtin_passes(self, tmp_path, capsys):
        spec = write_json(tmp_path / "grp.json", {"kind": "parity", "dims": [2, 2, 2]})
        assert main(["verify-group", spec]) == EXIT_OK
        assert "pass" in capsys.readouterr().out

    def test_family_invariance_checked(self, tmp_path, rank2_family_spec, capsys):
        spec = write_json(tmp_path / "grp.json", {"kind": "parity", "dims": [2, 2, 2]})
        assert main(["verify-group", spec, "--family", rank2_family_spec]) == EXIT_OK

    @pytest.mark.parametrize("group_kind, code", [("parity", EXIT_OK),
                                                  ("omega", EXIT_VERIFICATION)])
    def test_family_checks_move_the_basis_once(self, group_kind, code, tmp_path,
                                               rank2_family_spec, monkeypatch, capsys):
        # The family's construction moves its basis once; the invariance and
        # preimage checks against the spec's group share one more _moved call,
        # and report what the two public checks report at --tol and --seed.
        calls, after_parse = [], []
        moved, parse = twirl_module._moved, cli_module.parse_family_spec

        def counting(*args, **kwargs):
            calls.append(1)
            return moved(*args, **kwargs)

        def parsing(doc):
            family = parse(doc)
            after_parse.append(len(calls))
            return family

        monkeypatch.setattr(twirl_module, "_moved", counting)
        monkeypatch.setattr(cli_module, "parse_family_spec", parsing)
        spec = write_json(tmp_path / "grp.json", {"kind": group_kind, "dims": [2, 2, 2]})
        assert main(["verify-group", spec, "--family", rank2_family_spec,
                     "--tol", "1e-8", "--seed", "7"]) == code
        assert after_parse == [1]
        assert len(calls) == 2
        group = parse_group_spec({"kind": group_kind, "dims": [2, 2, 2]})
        family = parse({"family": "rank2_symmetric", "args": {"n_parties": 3}})
        inv = twirl_module.verify_mixture_invariance(group, family.basis, family.weights,
                                                     tol=1e-8)
        pre = twirl_module.verify_preimage(group, family.basis, family.weights,
                                           tol=1e-8, seed=7)
        assert capsys.readouterr().out.splitlines()[2:] == [
            f"invariance of family target: {'pass' if inv.ok else 'FAIL'} "
            f"(max deviation {inv.max_deviation:.3e}, tol 1e-08)",
            f"preimage property: {'pass' if pre.ok else 'FAIL'} "
            f"(max deviation {pre.max_deviation:.3e}, tol 1e-08)"]

    def test_wrong_group_fails_with_exit_2(self, tmp_path, rank2_family_spec, capsys):
        # the omega(3) twirl does not fix the parity mixture
        spec = write_json(tmp_path / "grp.json", {"kind": "omega", "dims": [2, 2, 2]})
        assert main(["verify-group", spec,
                     "--family", rank2_family_spec]) == EXIT_VERIFICATION

    def test_non_closed_elements_fail(self, tmp_path, capsys):
        c, s = math.cos(0.4), math.sin(0.4)
        eye = [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]
        rot = [[[c, 0], [-s, 0]], [[s, 0], [c, 0]]]
        spec = write_json(tmp_path / "grp.json", {"elements": [[eye, eye], [rot, rot]]})
        assert main(["verify-group", spec]) == EXIT_VERIFICATION


class TestFigureCommand:
    def test_figure1_default_is_201_rows_matching_closed_form(self, tmp_path, capsys):
        out = tmp_path / "fig1.csv"
        assert main(["figure", "1", "--out", str(out)]) == EXIT_OK
        rows = out.read_text().strip().split("\n")[1:]
        assert len(rows) == 201
        for row in rows:
            x, _raw, env = (float(v) for v in row.split(",")[:3])
            assert abs(env - 0.5 * (1 - 2 * math.sqrt(x * (1 - x)))) < 2e-4

    def test_figure4_slices(self, tmp_path, capsys):
        out = tmp_path / "fig4.csv"
        assert main(["figure", "4", "--grid", "41", "--r", "0.96",
                     "--out", str(out)]) == EXIT_OK
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "r,x1,raw,envelope"
        assert len(lines) == 42

    def test_figure_index_validated(self, capsys):
        assert main(["figure", "9"]) == EXIT_USAGE

    @pytest.mark.parametrize("argv, option", [
        (["figure", "1", "--alpha", "0.3"], "--alpha"),
        (["figure", "3", "--r", "0.9"], "--r"),
    ])
    def test_option_of_another_figure_rejected(self, argv, option, tmp_path, capsys):
        assert main(argv + ["--out", str(tmp_path / "f.csv")]) == EXIT_USAGE
        assert option in capsys.readouterr().err
        assert not (tmp_path / "f.csv").exists()

    @pytest.mark.parametrize("index, pinned", [
        ("3", ["--alpha", "0.55"]),
        ("4", ["--alpha", "0.55", "--r", "0.96,0.98"]),
    ])
    def test_defaults_are_the_pinned_values(self, index, pinned, tmp_path, capsys):
        # the values the options defaulted to when they were parsed for
        # every figure
        default, explicit = tmp_path / "default.csv", tmp_path / "explicit.csv"
        assert main(["figure", index, "--grid", "21", "--out", str(default)]) == EXIT_OK
        assert main(["figure", index, "--grid", "21", *pinned,
                     "--out", str(explicit)]) == EXIT_OK
        assert default.read_bytes() == explicit.read_bytes()

    def test_byte_identical_reruns(self, tmp_path, capsys):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["figure", "1", "--grid", "31", "--out", str(out1)])
        main(["figure", "1", "--grid", "31", "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()


def _run_python(*args):
    # the package is importable from src/ without an install
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})


def _run_module(*args):
    return _run_python("-m", "ggm.cli", *args)


# Runs in a fresh interpreter, because this process has imported scipy already.
COLD_START = """
import sys

import ggm
import ggm.cli

pure, group, family, surface = sys.argv[1:]
for argv in (["pure", pure], ["verify-group", group, "--family", family],
             ["mixed", family, "--grid", "11", "--out", surface]):
    assert ggm.cli.main(argv) == 0, argv
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
assert not loaded, loaded
grid = ggm.simplex_grid(5, 2)
ggm.convex_envelope_2d(grid, (grid ** 2).sum(axis=1))
assert "scipy.spatial" in sys.modules
"""


class TestConsoleScript:
    def test_entry_point_runs(self, ghz5_spec):
        proc = _run_module("pure", ghz5_spec)
        assert proc.returncode == 0
        assert abs(json.loads(proc.stdout)["value"] - 0.5) < 1e-9

    def test_usage_error_is_exit_1(self):
        proc = _run_module("pure")
        assert proc.returncode == 1
        assert "usage:" in proc.stderr

    def test_scipy_loaded_only_for_a_2d_hull(self, tmp_path, ghz5_spec, rank2_family_spec):
        group = write_json(tmp_path / "grp.json", {"kind": "parity", "dims": [2, 2, 2]})
        proc = _run_python("-c", COLD_START, ghz5_spec, group, rank2_family_spec,
                           str(tmp_path / "surface.csv"))
        assert proc.returncode == 0, proc.stderr
