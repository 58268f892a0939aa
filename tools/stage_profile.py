"""Objective rows, seconds and page faults per phase-optimizer stage of a figure.

    python3 tools/stage_profile.py FIGURE [--grid G] [--repeat R]

Runs ``ggm figure FIGURE`` in process (output discarded) ``R`` times (default
2) and prints the last run. Functions of ``ggm._batch`` and ``ggm.roof`` are
wrapped from outside the package; the package itself is not changed. A
stage holds the time and the minor page faults (``ru_minflt`` of
``resource.getrusage``) of its outermost calls, and every objective row
evaluated inside it: a one-phase probe counts one row per pencil row and
angle, so a probe of K rows at angles (K,) counts K, at (K, m) or at the
shared (1, m) K * m.

- ``joint seed``: ``_apply_joint_seeds`` of the cold (raw-surface) start;
- ``pencil``: ``PhaseObjective.pencil`` builds of the cold start;
- ``bracket``: the three-point bracket tests (``_bracketed``) of the cold
  start, K * 3 rows a probe;
- ``golden``: ``_golden_refine`` of the cold start;
- ``cycle-end values``: the other ``values`` calls of the cold start (the
  starting values and each cycle's end);
- ``stencil``: the warm-started Hessian stencil, ``roof._hessian_min_eig``;
- ``envelope``: ``convex_envelope_1d`` and ``convex_envelope_2d``.

``other`` is the rest of the figure command: family construction, the
optimizer's own bookkeeping and the CSV. Two last lines give the
row-coordinates (a row and one of its free phases) that were bracket-tested
and that entered golden section, in the cold start and in the stencil. A
probe outside the joint seed, the bracket tests, the golden refinement and
the stencil belongs to no stage and raises. It runs on any checkout of the
package whose optimizer probes only in those stages (``--src`` points at
its ``src``), so two trees can be compared.
"""

import argparse
import contextlib
import io
import math
import os
import resource
import sys
import time
from pathlib import Path

# as the benchmark runs BLAS; OpenBLAS reads it when numpy is first imported
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
import numpy as np  # noqa: E402

STAGES = ("joint seed", "pencil", "bracket", "golden", "cycle-end values", "stencil",
          "envelope")


class StageProfile:
    """Wrap the optimizer's stages and count rows and seconds per stage."""

    def __init__(self, batch, roof, cli):
        self.batch, self.roof, self.cli = batch, roof, cli
        self.rows = dict.fromkeys(STAGES, 0)
        self.seconds = dict.fromkeys(STAGES, 0.0)
        self.faults = dict.fromkeys(STAGES, 0)
        # row-coordinates bracket-tested and refined by golden section
        self.tested = {"cold": 0, "stencil": 0}
        self.entered = {"cold": 0, "stencil": 0}
        self.active = None
        self.undo = []

    def _set(self, owner, name, value):
        self.undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def _timed(self, stage, fn, *args, **kwargs):
        if self.active is not None:
            return fn(*args, **kwargs)
        self.active = stage
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.seconds[stage] += time.perf_counter() - start
            self.faults[stage] += resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
            self.active = None

    def _stage(self, stage, fn, counts=None, rows_at=None):
        def staged(*args, **kwargs):
            if counts is not None:
                counts["stencil" if self.active == "stencil" else "cold"] += len(args[rows_at])
            return self._timed(stage, fn, *args, **kwargs)
        return staged

    def __enter__(self):
        batch, roof, cli = self.batch, self.roof, self.cli
        self._set(batch, "_apply_joint_seeds",
                  self._stage("joint seed", batch._apply_joint_seeds))
        # _bracketed(probe, theta, delta) and _golden_refine(probe, phases, coord, rows);
        # a checkout without bracket tests refines every row-coordinate
        if hasattr(batch, "_bracketed"):
            self._set(batch, "_bracketed",
                      self._stage("bracket", batch._bracketed, self.tested, rows_at=1))
        self._set(batch, "_golden_refine",
                  self._stage("golden", batch._golden_refine, self.entered, rows_at=3))
        self._set(roof, "_hessian_min_eig", self._stage("stencil", roof._hessian_min_eig))
        for name in ("convex_envelope_1d", "convex_envelope_2d"):
            self._set(roof, name, self._stage("envelope", getattr(roof, name)))
        # figure 4 calls convex_envelope_1d through its own binding
        self._set(cli, "convex_envelope_1d", roof.convex_envelope_1d)

        objective = batch.PhaseObjective
        values = objective.values

        def counted_values(obj, roots, phases):
            stage = self.active or "cycle-end values"
            self.rows[stage] += len(roots)
            return self._timed(stage, values, obj, roots, phases)

        self._set(objective, "values", counted_values)
        pencil = objective.pencil

        def counted_pencil(obj, roots, phases, coord):
            probe = self._timed("pencil", pencil, obj, roots, phases, coord)

            def counted_probe(angles):
                stage = self.active
                if stage is None:
                    raise RuntimeError("a pencil probe outside every profiled stage")
                self.rows[stage] += len(roots) * math.prod(np.shape(angles)[1:])
                return self._timed(stage, probe, angles)
            return counted_probe

        self._set(objective, "pencil", counted_pencil)
        return self

    def __exit__(self, *exc):
        for owner, name, value in reversed(self.undo):
            setattr(owner, name, value)
        return False


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("figure", type=int)
    parser.add_argument("--grid", type=int, default=None)
    parser.add_argument("--repeat", type=int, default=2)
    parser.add_argument("--src", default=str(Path(__file__).resolve().parents[1] / "src"))
    args = parser.parse_args()
    sys.path.insert(0, args.src)
    from ggm import _batch, cli, roof

    argv = ["figure", str(args.figure), "--out", os.devnull]
    if args.grid is not None:
        argv[2:2] = ["--grid", str(args.grid)]
    for _ in range(args.repeat):
        with StageProfile(_batch, roof, cli) as profile, contextlib.redirect_stdout(io.StringIO()):
            faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            start = time.perf_counter()
            if cli.main(argv) != 0:
                sys.exit(f"ggm {' '.join(argv)} failed")
            total = time.perf_counter() - start
            faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    print(f"ggm {' '.join(argv[:-2])}: {total:.3f} s")
    print(f"{'stage':>18} {'rows':>10} {'seconds':>9} {'faults':>8}")
    for stage in STAGES:
        print(f"{stage:>18} {profile.rows[stage]:>10} {profile.seconds[stage]:>9.4f}"
              f" {profile.faults[stage]:>8}")
    print(f"{'other':>18} {'':>10} {total - sum(profile.seconds.values()):>9.4f}"
          f" {faults - sum(profile.faults.values()):>8}")
    print(f"{'total':>18} {sum(profile.rows.values()):>10} {total:>9.4f} {faults:>8}")
    for label, counts in (("bracket-tested", profile.tested),
                          ("into golden section", profile.entered)):
        print(f"row-coordinates {label}: cold {counts['cold']}, stencil {counts['stencil']}")


if __name__ == "__main__":
    main()
