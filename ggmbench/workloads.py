"""The three benchmark workloads: inputs from a seed, one repetition, checks.

A repetition calls ggm only through its public entry points, and always by
attribute (``ggm.cli.main``, ``ggm.ggm_pure``) so that the tracer's patched
bindings are the ones called.  Each operation (one CLI call, one surface,
one pure state, one bound) is checked against tolerances taken from the
acceptance suite; an exception, a nonzero exit code or a failed check makes
it a failed operation.

Call :func:`common.prepare` before importing this module.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

from common import import_ggm

ggm = import_ggm()
import ggm.cli  # noqa: E402  (the CLI module; ``ggm.cli`` is not re-exported)

# ggm_pure latency is taken on the 8-qubit states only, so that its
# percentiles never straddle two shape classes; 120 calls per repetition
# leave at least 12 samples beyond p90.
LATENCY_SHAPE = (2,) * 8

GENERIC_SHAPES = {
    (2,) * 6: 40,
    LATENCY_SHAPE: 120,
    (2,) * 10: 8,
    (3,) * 4: 40,
    (3,) * 6: 40,
    (2, 3, 4, 5): 40,
}
REFERENCE_PARTIES = range(3, 9)
HJW_SAMPLES = 2000

# Sizes keep one repetition near a second, so a run holds a dozen or more
# and their mean covers the whole run (see run.py).  The
# surface keeps its per-point work and loses only grid points: grid 61 is
# the coarsest gGHZ grid that still resolves the nonconvex corner of
# criterion 4.  N = 8 alone takes ~3 s and N = 9 ~18 s.
GGHZ3_ARGV = ["figure", "3", "--grid", "61"]
VERIFY_PARTIES = (6, 7)

# Tolerances of the acceptance suite (criteria 1, 4 and 9).
PURE_TOL = 1e-9
NONCONVEX_TOL = 1e-6
GAP_TOL = 1e-4


@dataclass
class Rep:
    """Outcome of one repetition: operations, output digest, call latencies."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    digest: Any = field(default_factory=hashlib.sha256)
    latencies_ms: list[float] = field(default_factory=list)

    def op(self, label: str, check: Callable[[], str | None]) -> None:
        """Run one operation; ``check`` returns an error text or None."""
        self.attempted += 1
        try:
            problem = check()
        except Exception as exc:  # an operation that raises counts as failed
            problem = f"{type(exc).__name__}: {exc}"
        if problem:
            self.failures.append(f"{label}: {problem}")


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[int, Path], dict]
    rep: Callable[[dict], Rep]


def _random_states(rng, shape, count):
    dim = int(np.prod(shape))
    states = []
    for _ in range(count):
        amps = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        states.append(ggm.PureState(ggm.SystemShape(shape), amps / np.linalg.norm(amps)))
    return states


def _interior_point(rng, margin=0.05):
    while True:
        w = rng.dirichlet(np.ones(3))
        if w.min() >= margin:
            return w


# ---------------------------------------------------------------------------
# surfaces: `ggm figure K` in process


def _run_cli(argv) -> int:
    """``ggm.cli.main`` with its "wrote ..." line kept off the benchmark's stdout."""
    with contextlib.redirect_stdout(io.StringIO()):
        return ggm.cli.main(argv)


def _surface_setup(seed, workdir):
    return {"csv": str(workdir / "surface.csv")}


def _read_surface(text):
    rows = list(csv.DictReader(io.StringIO(text)))
    col = lambda key: np.array([float(r[key]) for r in rows])  # noqa: E731
    return col("x1"), col("x2"), col("raw"), col("envelope"), col("hessian_min_eig")


def _surface_rep(argv, check_surface):
    def rep_fn(inputs):
        rep = Rep()

        def op():
            code = _run_cli(argv + ["--out", inputs["csv"]])
            if code != 0:
                return f"exit code {code}"
            text = Path(inputs["csv"]).read_bytes()
            rep.digest.update(text)
            return check_surface(*_read_surface(text.decode()))
        rep.op(" ".join(argv), op)
        return rep
    return rep_fn


def _check_gghz3(x1, x2, raw, env, hess):
    if not (env <= raw).all():
        return "envelope exceeds raw"
    corner = (x1 > 0.8) & (x2 < 0.1) & (hess < -NONCONVEX_TOL) & (raw - env > GAP_TOL)
    return None if corner.any() else "no convexified nonconvex point in x1 > 0.8, x2 < 0.1"


# ---------------------------------------------------------------------------
# verify_large_n: `ggm verify-group` on N = 6, 7, then one min_phase_ggm point


def _verify_setup(seed, workdir):
    rng = np.random.default_rng([seed, 9])
    cases = []
    for n in VERIFY_PARTIES:
        group, family = workdir / f"group{n}.json", workdir / f"family{n}.json"
        group.write_text(json.dumps({"kind": "omega", "dims": [2] * n}))
        family.write_text(json.dumps({"family": "rank3_ghz_dicke", "args": {"n_parties": n}}))
        cases.append({"n": n, "group": str(group), "family": str(family),
                      "out": str(workdir / f"verify{n}.txt"),
                      "weights": _interior_point(rng)})
    return {"cases": cases, "seed": seed}


def _verify_rep(inputs):
    rep = Rep()
    for case in inputs["cases"]:
        def verify():
            code = _run_cli(["verify-group", case["group"], "--family", case["family"],
                                "--seed", str(inputs["seed"]), "--out", case["out"]])
            if code != 0:
                return f"exit code {code}"
            text = Path(case["out"]).read_text()
            rep.digest.update(text.encode())
            if "invariance of family target: pass" not in text \
                    or "preimage property: pass" not in text:
                return "a verification check did not pass"
            return None

        def min_phase():
            family = ggm.rank3_ghz_dicke(case["n"])
            value, phases = ggm.min_phase_ggm(family, case["weights"])
            rep.digest.update(repr((value, phases.tolist())).encode())
            member = ggm.superpose(family.basis, case["weights"], phases)
            direct = ggm.ggm_pure(member).value
            if abs(value - direct) > PURE_TOL:
                return f"batched {value!r} and per-cut {direct!r} disagree"
            return None

        rep.op(f"verify-group N={case['n']}", verify)
        rep.op(f"min_phase_ggm N={case['n']}", min_phase)
    return rep


# ---------------------------------------------------------------------------
# generic_states: ggm_pure on unstructured states, then two HJW bounds


def _generic_setup(seed, workdir):
    rng = np.random.default_rng([seed, 4])
    randoms = [(shape, _random_states(rng, shape, count))
               for shape, count in GENERIC_SHAPES.items()]
    references = [(ggm.ghz(n), 0.5) for n in REFERENCE_PARTIES] \
        + [(ggm.dicke(n, 1), 1.0 / n) for n in REFERENCE_PARTIES]
    bounds = []
    for family, form in ((ggm.rank5_five_qubit(), "rank5_5qubit"),
                         (ggm.qutrit_sector_family(), "qutrit")):
        params = _interior_point(rng)[:2]
        rho = family.target_at(family.params_to_weights(params))
        bounds.append({"form": form, "rho": rho, "m": rho.rank() + 2,
                       "seed": int(rng.integers(1 << 31)),
                       "closed": ggm.closed_form(form, params)})
    return {"randoms": randoms, "references": references, "bounds": bounds}


def _generic_rep(inputs):
    rep = Rep()
    for shape, states in inputs["randoms"]:
        ceiling = 1.0 - 1.0 / min(shape)
        for state in states:
            def check():
                start = time.perf_counter()
                value = ggm.ggm_pure(state).value
                if shape == LATENCY_SHAPE:
                    rep.latencies_ms.append((time.perf_counter() - start) * 1e3)
                rep.digest.update(repr(value).encode())
                return None if 0.0 <= value <= ceiling else \
                    f"value {value} outside [0, {ceiling}]"
            rep.op(f"random state {shape}", check)
    for state, expected in inputs["references"]:
        def reference():
            value = ggm.ggm_pure(state).value
            rep.digest.update(repr(value).encode())
            return None if abs(value - expected) <= PURE_TOL else \
                f"value {value!r}, expected {expected!r}"
        rep.op(f"reference {state.shape.dims}", reference)
    for bound in inputs["bounds"]:
        def hjw():
            value = ggm.hjw_upper_bound(bound["rho"], bound["m"], HJW_SAMPLES, bound["seed"])
            rep.digest.update(repr(value).encode())
            return None if value >= bound["closed"] - PURE_TOL else \
                f"bound {value!r} below the closed form {bound['closed']!r}"
        rep.op(f"hjw_upper_bound {bound['form']}", hjw)
    return rep


WORKLOADS = {
    w.name: w for w in (
        Workload("surface_gghz3", _surface_setup,
                 _surface_rep(GGHZ3_ARGV, _check_gghz3)),
        Workload("verify_large_n", _verify_setup, _verify_rep),
        Workload("generic_states", _generic_setup, _generic_rep),
    )
}


def setup(name: str, seed: int, workdir: Path) -> dict:
    """Generate a workload's inputs from its seed."""
    workdir.mkdir(parents=True, exist_ok=True)
    return WORKLOADS[name].setup(seed, workdir)
