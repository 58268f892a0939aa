"""Command-line front end.

Four subcommands: ``pure`` evaluates the measure of a pure state given as
a JSON spec, ``mixed`` runs the full pipeline for a family spec and writes
the surface CSV, ``verify-group`` checks a group spec (and optionally a
family against it), ``figure`` regenerates the dataset behind one of the
eight reference plots.

Exit codes: 0 success, 1 usage or parse error, 2 verification failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

import numpy as np

from .families import FAMILY_BUILDERS, rank2_symmetric, rank3_gghz, rank3_ghz_dicke, \
    rank3_ghz_w, rank5_five_qubit, qutrit_sector_family, zeta_slice_family
from .hilbert import PureState, SystemShape
from .pure import ggm_pure
from .roof import (
    TwirledFamily,
    convex_envelope_1d,
    ggm_mixed,
    min_phase_ggm_many,
)
from .states import (
    dicke,
    generalized_dicke,
    gghz,
    ghz,
    sector_state,
    superpose,
    uniform_sector_state,
    zeta,
)
from .twirl import (
    GROUP_KINDS,
    GROUP_TOL,
    LocalUnitaryElement,
    UnitaryGroup,
    VerificationError,
    _verify_family,
    builtin_group,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFICATION = 2


class SpecError(ValueError):
    """Malformed input file or option; maps to exit code 1."""


# ---------------------------------------------------------------------------
# spec parsing


def _require(mapping, key, context):
    if key not in mapping:
        raise SpecError(f"{context}: missing required field {key!r}")
    return mapping[key]


def _reject_unknown(mapping, fields, context):
    """Raise ``SpecError`` naming every key of ``mapping`` outside ``fields``:
    a field that would be parsed and ignored."""
    if unknown := sorted(set(mapping) - set(fields)):
        raise SpecError(f"{context}: unexpected field(s) {', '.join(map(repr, unknown))}")


def _complex_array(values, context):
    try:
        arr = np.asarray(values, dtype=float)
    except (TypeError, ValueError) as exc:
        raise SpecError(f"{context}: expected nested [re, im] pairs ({exc})") from exc
    if arr.shape[-1] != 2:
        raise SpecError(f"{context}: innermost entries must be [re, im] pairs")
    return arr[..., 0] + 1j * arr[..., 1]


def parse_state_spec(spec, context="state") -> PureState:
    """Build a pure state from a JSON document.

    Either ``{"constructor": name, "args": {...}}`` or a raw
    ``{"shape": [d1..dN], "amplitudes": [[re, im], ...]}`` listing in
    row-major order with party 0 most significant.
    """
    if not isinstance(spec, dict):
        raise SpecError(f"{context}: expected a JSON object")
    if "amplitudes" in spec:
        _reject_unknown(spec, ("shape", "amplitudes"), context)
        shape = SystemShape(tuple(_require(spec, "shape", context)))
        amps = _complex_array(spec["amplitudes"], f"{context}.amplitudes")
        try:
            return PureState(shape, amps)
        except ValueError as exc:
            raise SpecError(f"{context}: {exc}") from exc
    _reject_unknown(spec, ("constructor", "args"), context)
    name = _require(spec, "constructor", context)
    args = spec.get("args", {})
    if not isinstance(args, dict):
        raise SpecError(f"{context}.args: expected a JSON object")
    try:
        return _build_state(name, args, context)
    except SpecError:
        raise
    except (TypeError, ValueError, KeyError) as exc:
        raise SpecError(f"{context}: constructor {name!r} failed: {exc}") from exc


def _build_state(name, args, context) -> PureState:
    def reads(*fields):
        _reject_unknown(args, fields, f"{context}.args")

    if name == "ghz":
        reads("n_parties", "d", "sign")
        return ghz(args["n_parties"], args.get("d", 2), args.get("sign", 1))
    if name == "gghz":
        reads("n_parties", "alpha")
        return gghz(args["n_parties"], args["alpha"])
    if name == "dicke":
        reads("n_parties", "k")
        return dicke(args["n_parties"], args["k"])
    if name == "generalized_dicke":
        reads("n_parties", "k", "b")
        b = _complex_array(args["b"], f"{context}.args.b")
        return generalized_dicke(args["n_parties"], args["k"], b)
    if name == "zeta":
        reads("i")
        return zeta(args["i"])
    if name == "uniform_sector":
        reads("dims", "modulus", "k")
        shape = SystemShape(tuple(args["dims"]))
        return uniform_sector_state(shape, args["modulus"], args["k"])
    if name == "sector":
        reads("dims", "modulus", "k", "q")
        shape = SystemShape(tuple(args["dims"]))
        q = _complex_array(args["q"], f"{context}.args.q")
        return sector_state(shape, args["modulus"], args["k"], q)
    if name == "superpose":
        reads("basis", "weights", "phases")
        basis = [parse_state_spec(s, f"{context}.basis[{i}]")
                 for i, s in enumerate(args["basis"])]
        phases = args.get("phases")
        return superpose(basis, args["weights"], phases)
    raise SpecError(f"{context}: unknown constructor {name!r}")


def parse_group_spec(spec, context="group") -> UnitaryGroup:
    """Build a unitary group from ``{"kind": ...}`` or explicit elements."""
    if not isinstance(spec, dict):
        raise SpecError(f"{context}: expected a JSON object")
    if "kind" in spec:
        _reject_unknown(spec, ("kind", "dims"), context)
        kind = spec["kind"]
        if kind not in GROUP_KINDS:
            raise SpecError(f"{context}.kind: {kind!r} is not one of {GROUP_KINDS}")
        dims = spec.get("dims", [2, 2, 2] if kind == "zeta" else None)
        if dims is None:
            raise SpecError(f"{context}: field 'dims' is required for kind {kind!r}")
        try:
            return builtin_group(kind, SystemShape(tuple(dims)))
        except ValueError as exc:
            raise SpecError(f"{context}: {exc}") from exc
    _reject_unknown(spec, ("elements",), context)
    elements_spec = _require(spec, "elements", context)
    elements = []
    shape = None
    for i, factors_spec in enumerate(elements_spec):
        factors = tuple(
            _complex_array(f, f"{context}.elements[{i}][{j}]")
            for j, f in enumerate(factors_spec))
        if shape is None:
            shape = SystemShape(tuple(f.shape[0] for f in factors))
        try:
            elements.append(LocalUnitaryElement(shape, factors))
        except ValueError as exc:
            raise SpecError(f"{context}.elements[{i}]: {exc}") from exc
    try:
        return UnitaryGroup(shape, tuple(elements))
    except VerificationError as exc:
        raise VerificationError(f"{context}: {exc}") from exc
    except ValueError as exc:
        raise SpecError(f"{context}: {exc}") from exc


def parse_family_spec(spec, context="family") -> TwirledFamily:
    """Build a twirled family from a builtin name or explicit components."""
    if not isinstance(spec, dict):
        raise SpecError(f"{context}: expected a JSON object")
    if "family" in spec:
        _reject_unknown(spec, ("family", "args"), context)
        name = spec["family"]
        if name not in FAMILY_BUILDERS:
            raise SpecError(
                f"{context}.family: {name!r} is not one of {sorted(FAMILY_BUILDERS)}")
        try:
            return FAMILY_BUILDERS[name](**spec.get("args", {}))
        except VerificationError as exc:
            raise VerificationError(f"{context}: {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise SpecError(f"{context}.args: {exc}") from exc
    _reject_unknown(spec, ("group", "basis", "param_names", "name"), context)
    group = parse_group_spec(_require(spec, "group", context), f"{context}.group")
    basis = [parse_state_spec(s, f"{context}.basis[{i}]")
             for i, s in enumerate(_require(spec, "basis", context))]
    names = tuple(spec.get("param_names", ()))
    try:
        return TwirledFamily(group=group, basis=tuple(basis),
                             name=spec.get("name", "custom"), param_names=names)
    except VerificationError as exc:
        raise VerificationError(f"{context}: {exc}") from exc
    except ValueError as exc:
        raise SpecError(f"{context}: {exc}") from exc


def _load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise SpecError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SpecError(f"{path} is not valid JSON: {exc}") from exc


# ---------------------------------------------------------------------------
# output helpers


def _atomic_write(path, text):
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".ggm-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(text, out_path):
    if out_path is None:
        sys.stdout.write(text)
    else:
        _atomic_write(out_path, text)


def _report_json(report) -> str:
    doc = {
        "value": report.value,
        "lambda_sq_max": report.lambda_sq_max,
        "maximizing_cuts": [list(c.side_I) for c in report.maximizing_cuts],
        "per_cut": [
            {"side_I": list(c.side_I), "lambda_sq_max": v}
            for c, v in report.per_cut.items()
        ],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# commands


def _cmd_pure(args) -> int:
    state = parse_state_spec(_load_json(args.state))
    _emit(_report_json(ggm_pure(state)), args.out)
    return EXIT_OK


def _cmd_mixed(args) -> int:
    family = parse_family_spec(_load_json(args.family))
    surface = ggm_mixed(family, grid_resolution=args.grid)
    _emit(surface.to_csv_text(), args.out)
    return EXIT_OK


def _cmd_verify_group(args) -> int:
    if not (np.isfinite(args.tol) and args.tol >= 0.0):
        raise SpecError(f"--tol must be a finite nonnegative number, got {args.tol}")
    lines = []
    group = parse_group_spec(_load_json(args.group))
    lines.append(f"group ok: {group.order} elements on dims {group.shape.dims}")
    lines.append("closure/identity/inverse: pass (up to global phase)")
    failed = False
    if args.family is not None:
        family = parse_family_spec(_load_json(args.family))
        # Both checks read the group's characters on the basis, moved once;
        # a failing check names its culprit.
        inv, pre, culprits = _verify_family(group, family.basis, tol=args.tol)
        for label, result, culprit in zip(
                ("invariance of family target", "preimage property"), (inv, pre), culprits):
            line = (f"{label}: {'pass' if result.ok else 'FAIL'} "
                    f"(max deviation {result.max_deviation:.3e}, tol {args.tol:g})")
            lines.append(line if result.ok else f"{line}: {culprit}")
        failed = not (inv.ok and pre.ok)
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_VERIFICATION if failed else EXIT_OK


# Family builder (given the gGHZ alpha) and default grid behind each
# reference dataset. Grid choices at or above the plotting resolution are
# artifact choices; alpha and the r slices are pinned by the source plots.
# The builders are looked up by name at call time, so a rebinding of this
# module's names takes effect.
DEFAULT_ALPHA = 0.55
DEFAULT_R = "0.96,0.98"
FIGURES = {
    1: (lambda alpha: rank2_symmetric(3), 201),
    2: (lambda alpha: rank3_ghz_w(), 101),
    3: (lambda alpha: rank3_gghz(alpha), 101),
    4: (lambda alpha: rank3_gghz(alpha), 201),
    5: (lambda alpha: rank3_ghz_dicke(5), 101),
    6: (lambda alpha: rank5_five_qubit(), 51),
    7: (lambda alpha: zeta_slice_family(), 101),
    8: (lambda alpha: qutrit_sector_family(), 101),
}


def _r_values(text) -> tuple[float, ...]:
    try:
        values = tuple(float(v) for v in text.split(","))
    except ValueError as exc:
        raise SpecError(f"--r: expected comma-separated floats: {exc}") from exc
    for r in values:
        if not 0.0 <= r <= 1.0:
            raise SpecError(f"--r values must lie in [0, 1], got {r}")
    return values


def _cmd_figure(args) -> int:
    if args.index not in FIGURES:
        raise SpecError(f"figure index must be 1..8, got {args.index}")
    if args.alpha is not None and args.index not in (3, 4):
        raise SpecError(f"--alpha applies to figures 3 and 4 only, not figure {args.index}")
    if args.r is not None and args.index != 4:
        raise SpecError(f"--r applies to figure 4 only, not figure {args.index}")
    alpha = DEFAULT_ALPHA if args.alpha is None else args.alpha
    if not 0.0 <= alpha <= 1.0:
        raise SpecError(f"--alpha must lie in [0, 1], got {alpha}")
    build, default_grid = FIGURES[args.index]
    grid = args.grid if args.grid is not None else default_grid
    family = build(alpha)
    out = args.out if args.out is not None else f"figure_{args.index}.csv"

    if args.index == 4:
        xs = np.linspace(0.0, 1.0, grid)
        rows = ["r,x1,raw,envelope"]
        for r in _r_values(DEFAULT_R if args.r is None else args.r):
            params = np.column_stack([xs, r * (1.0 - xs)])
            raw, _ = min_phase_ggm_many(family, params)
            env = convex_envelope_1d(xs, raw)
            for x, rv, ev in zip(xs, raw, env):
                rows.append(f"{r:.12g},{x:.12g},{rv:.12g},{ev:.12g}")
        _atomic_write(out, "\n".join(rows) + "\n")
    else:
        surface = ggm_mixed(family, grid_resolution=grid)
        _atomic_write(out, surface.to_csv_text())
    sys.stdout.write(f"wrote {out}\n")
    return EXIT_OK


COMMANDS = {
    "pure": _cmd_pure,
    "mixed": _cmd_mixed,
    "verify-group": _cmd_verify_group,
    "figure": _cmd_figure,
}


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    # exit code 1 for usage errors (argparse defaults to 2, which this CLI
    # reserves for verification failures)
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(EXIT_USAGE)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ggm",
        description="Genuine multiparty entanglement for pure states and "
                    "symmetric mixed-state families.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_pure = sub.add_parser("pure", help="measure of a pure state spec")
    p_pure.add_argument("state", help="path to a JSON state spec")
    p_pure.add_argument("--out", default=None, help="output path (default stdout)")

    p_mixed = sub.add_parser("mixed", help="mixed pipeline over a family spec")
    p_mixed.add_argument("family", help="path to a JSON family spec")
    p_mixed.add_argument("--grid", type=int, default=None,
                         help="grid resolution per axis (>= 11)")
    p_mixed.add_argument("--out", default=None, help="output CSV path (default stdout)")

    p_ver = sub.add_parser("verify-group", help="check a group spec")
    p_ver.add_argument("group", help="path to a JSON group spec")
    p_ver.add_argument("--family", default=None,
                       help="optional family spec to test invariance/preimage")
    p_ver.add_argument("--tol", type=float, default=GROUP_TOL)
    p_ver.add_argument("--seed", type=int, default=None,
                       help="accepted for compatibility and ignored: the preimage "
                            "check is exact and draws no phases")
    p_ver.add_argument("--out", default=None)

    p_fig = sub.add_parser("figure", help="write the dataset behind figure 1..8")
    p_fig.add_argument("index", type=int, help="figure number (1..8)")
    p_fig.add_argument("--grid", type=int, default=None,
                       help="override the per-figure grid resolution")
    p_fig.add_argument("--alpha", type=float, default=None,
                       help=f"gGHZ amplitude, figures 3 and 4 only (default {DEFAULT_ALPHA})")
    p_fig.add_argument("--r", default=None,
                       help=f"comma-separated slice ratios, figure 4 only (default {DEFAULT_R})")
    p_fig.add_argument("--out", default=None,
                       help="output CSV path (default figure_<k>.csv)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        grid = getattr(args, "grid", None)
        if grid is not None and grid < 11:
            raise SpecError(f"--grid must be at least 11, got {grid}")
        return COMMANDS[args.command](args)
    except SpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except VerificationError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
