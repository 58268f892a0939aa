"""Print the sha256 of each reference figure's CSV, one ``sha256  argv`` line a run,
then of ``ggm verify-group`` reports, decomposition-sampler bounds and
pure-state values.

Run it on two checkouts and ``diff`` the outputs to show that a change keeps
every figure, every group verification, every sampler bound and every pure
value byte-identical:

    python3 tools/figure_digests.py > digests.txt
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # as the benchmark runs BLAS
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
import ggm  # noqa: E402
from ggm.cli import main  # noqa: E402

# Reduced grids, then the default grids of the surface figures (about 5 s on
# a 2-core host): a tied argmin can switch branch at a default-grid point
# that no reduced grid samples.
RUNS = ("1", "4", "2 --grid 41", "3 --grid 61", "5 --grid 31", "6 --grid 21",
        "7 --grid 41", "8 --grid 41", "2", "3", "5", "6", "7", "8")

# verify-group runs: each built-in group kind against a family it fixes.
VERIFY_RUNS = {
    "parity rank2_symmetric": ({"kind": "parity", "dims": [2] * 3},
                               {"family": "rank2_symmetric"}),
    **{f"omega rank3_ghz_dicke({n})": ({"kind": "omega", "dims": [2] * n},
                                       {"family": "rank3_ghz_dicke",
                                        "args": {"n_parties": n}})
       for n in (5, 6, 7)},
    "zeta zeta_family": ({"kind": "zeta", "dims": [2] * 3}, {"family": "zeta_family"}),
    "qudit qutrit_sector_family": ({"kind": "qudit", "dims": [3] * 3},
                                   {"family": "qutrit_sector_family"}),
}

# hjw_upper_bound targets: the benchmark's two, whose eigenbases have no
# party swaps, and rank3_ghz_dicke(5), whose eigenbases often have some, so
# the sampler evaluates one cut per orbit there.
BOUND_TARGETS = {"rank5": ggm.rank5_five_qubit, "qutrit": ggm.qutrit_sector_family,
                 "rank3_ghz_dicke5": lambda: ggm.rank3_ghz_dicke(5)}
BOUND_POINTS, BOUND_SAMPLES = 10, 300

# ggm_pure shapes: Grams of more than 3 rows, mostly skipped by the bound;
# 2x3x4x5 traces a side over the party of smallest dimension among several,
# and 10 qubits traces the longest chain (5 party sides down to 1).
PURE_SHAPES = {"8 qubits": (2,) * 8, "6 qutrits": (3,) * 6, "2x3x4x5": (2, 3, 4, 5),
               "10 qubits": (2,) * 10}
PURE_STATES = 40


def digest(values):
    return hashlib.sha256("".join(map(repr, values)).encode()).hexdigest()


with tempfile.TemporaryDirectory() as tmp:
    for run in RUNS:
        out = os.path.join(tmp, "figure.csv")
        with contextlib.redirect_stdout(io.StringIO()):
            if main(["figure", *run.split(), "--out", out]) != 0:
                sys.exit(f"figure {run} failed")
        sha = hashlib.sha256(Path(out).read_bytes()).hexdigest()
        print(f"{sha}  figure {run}", flush=True)

    for name, docs in VERIFY_RUNS.items():
        group, family, out = (os.path.join(tmp, f) for f in ("group.json", "family.json",
                                                              "verify.txt"))
        for path, doc in zip((group, family), docs):
            Path(path).write_text(json.dumps(doc))
        if main(["verify-group", group, "--family", family, "--out", out]) != 0:
            sys.exit(f"verify-group {name} failed")
        sha = hashlib.sha256(Path(out).read_bytes()).hexdigest()
        print(f"{sha}  verify-group {name}", flush=True)

for seed, (name, build) in enumerate(BOUND_TARGETS.items()):
    family = build()
    rng = np.random.default_rng([seed, 15])
    bounds = []
    for params in rng.dirichlet(np.ones(3), size=BOUND_POINTS)[:, :2]:
        rho = family.target_at(family.params_to_weights(params))
        bounds.append(ggm.hjw_upper_bound(rho, rho.rank() + 2, BOUND_SAMPLES,
                                          int(rng.integers(1 << 31))))
    print(f"{digest(bounds)}  hjw_upper_bound {name}", flush=True)

for seed, (name, dims) in enumerate(PURE_SHAPES.items()):
    rng = np.random.default_rng([seed, 16])
    dim = int(np.prod(dims))
    values = []
    for _ in range(PURE_STATES):
        amps = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        state = ggm.PureState(ggm.SystemShape(dims), amps / np.linalg.norm(amps))
        values.append(ggm.ggm_pure(state).value)
    print(f"{digest(values)}  ggm_pure {name}", flush=True)
