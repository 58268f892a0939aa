"""Print the sha256 of each reference figure's CSV, one ``sha256  argv`` line a run,
then of ``ggm verify-group`` reports, one ``ggm mixed`` surface of a custom
family, decomposition-sampler bounds, pure-state values and raw phase
minima of the built-in families with more than 2 parameters.

Run it on two checkouts and ``diff`` the outputs to show that a change keeps
every figure, every group verification, the custom surface, every sampler
bound, every pure value and every raw minimum byte-identical:

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

# as the benchmark runs BLAS; OpenBLAS reads it when numpy is first imported
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
import numpy as np  # noqa: E402
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
import ggm  # noqa: E402
from ggm.cli import main  # noqa: E402

# Reduced grids, then the default grids of the surface figures (about 5 s on
# a 2-core host): a tied argmin can switch branch at a default-grid point
# that no reduced grid samples.
RUNS = ("1", "4", "2 --grid 41", "3 --grid 61", "5 --grid 31", "6 --grid 21",
        "7 --grid 41", "8 --grid 41", "2", "3", "5", "6", "7", "8")

# ggm mixed run: an omega(3) family of the three charge sectors of 3 qubits,
# each a seeded complex superposition written with the "sector" constructor.
# Its minimizing phases move with the weights, so its raw values depend on
# where the optimizer's cycles stop, and its Hessian column on the warm start
# of the stencil's minimizations, which no built-in figure's does: of the
# lines printed here, this is the one that a change to the optimizer's search
# moves while every figure keeps its bits.
MIXED_SEED, MIXED_GRID = 5, 31


def seeded_sector_family(seed):
    rng = np.random.default_rng(seed)
    basis = []
    for k, size in enumerate((2, 3, 3)):
        q = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        q /= np.linalg.norm(q)
        basis.append({"constructor": "sector",
                      "args": {"dims": [2, 2, 2], "modulus": 3, "k": k,
                               "q": [[z.real, z.imag] for z in q.tolist()]}})
    return {"group": {"kind": "omega", "dims": [2, 2, 2]}, "basis": basis}


# verify-group runs: each built-in group kind against a family it fixes, then
# omega(3) against the seeded sector family as a spec with its own group.
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
    f"omega sector family (seed {MIXED_SEED})": ({"kind": "omega", "dims": [2] * 3},
                                                 seeded_sector_family(MIXED_SEED)),
}

BOUND_POINTS, BOUND_SAMPLES = 10, 300


def family_targets(build):
    """``BOUND_POINTS`` targets of ``build()``'s family at random simplex points."""
    def draw(rng):
        family = build()
        return [family.target_at(family.params_to_weights(params))
                for params in rng.dirichlet(np.ones(3), size=BOUND_POINTS)[:, :2]]
    return draw


def random_rank_targets(dims, rank):
    """``BOUND_POINTS`` states G G^dag / tr(G G^dag) on ``dims``, each G a
    complex Gaussian (D, ``rank``) matrix."""
    def draw(rng):
        dim = int(np.prod(dims))
        targets = []
        for _ in range(BOUND_POINTS):
            gauss = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
            rho = gauss @ gauss.conj().T
            rho = 0.5 * (rho + rho.conj().T)
            targets.append(ggm.DensityMatrix(ggm.SystemShape(dims), rho / np.trace(rho).real))
        return targets
    return draw


# hjw_upper_bound targets: the benchmark's two, whose eigenbases have no
# party swaps; rank3_ghz_dicke(5), whose eigenbases often have some, so the
# sampler evaluates one cut per orbit there; and rank-12 states, above
# _batch._TABLE_MAX_BASIS, so the sampler reads their members' amplitudes by
# the pure kernel (pure.ggm_values) rather than by the Gram tables.
BOUND_TARGETS = {"rank5": family_targets(ggm.rank5_five_qubit),
                 "qutrit": family_targets(ggm.qutrit_sector_family),
                 "rank3_ghz_dicke5": family_targets(lambda: ggm.rank3_ghz_dicke(5)),
                 "rank12_4qubit": random_rank_targets((2,) * 4, 12)}

# ggm_pure shapes: Grams of more than 3 rows, mostly skipped by the bound;
# 2x3x4x5 traces a side over the party of smallest dimension among several,
# and 10 qubits traces the longest chain (5 party sides down to 1).
PURE_SHAPES = {"8 qubits": (2,) * 8, "6 qutrits": (3,) * 6, "2x3x4x5": (2, 3, 4, 5),
               "10 qubits": (2,) * 10}
PURE_STATES = 40

# min_phase_ggm_many at seeded interior points of the built-in families no
# figure runs, with 4 and 3 free phases, so the seed lattice is a joint one.
MANY_FAMILIES = {"ghz_dicke_mixture(5)": lambda: ggm.ghz_dicke_mixture(5),
                 "zeta_family": ggm.zeta_family}
MANY_POINTS = 200


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

    family, out = os.path.join(tmp, "family.json"), os.path.join(tmp, "surface.csv")
    Path(family).write_text(json.dumps(seeded_sector_family(MIXED_SEED)))
    if main(["mixed", family, "--grid", str(MIXED_GRID), "--out", out]) != 0:
        sys.exit("mixed seeded sector family failed")
    sha = hashlib.sha256(Path(out).read_bytes()).hexdigest()
    print(f"{sha}  mixed sector family (seed {MIXED_SEED}) --grid {MIXED_GRID}", flush=True)

for seed, (name, draw) in enumerate(BOUND_TARGETS.items()):
    rng = np.random.default_rng([seed, 15])
    bounds = [ggm.hjw_upper_bound(rho, rho.rank() + 2, BOUND_SAMPLES, int(rng.integers(1 << 31)))
              for rho in draw(rng)]
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

for seed, (name, build) in enumerate(MANY_FAMILIES.items()):
    family = build()
    rng = np.random.default_rng([seed, 17])
    params = rng.dirichlet(np.ones(len(family.param_names) + 1), size=MANY_POINTS)[:, :-1]
    values, phases = ggm.min_phase_ggm_many(family, params)
    print(f"{digest([*values.tolist(), *phases.ravel().tolist()])}  min_phase_ggm_many {name}",
          flush=True)
