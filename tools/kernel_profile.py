"""Counts and seconds per Gram size of the Schmidt kernel on generic states.

    python3 tools/kernel_profile.py [--seed S] [--repeat R] [--src SRC] [--sampler]

Reads ``ggm_pure(state).value`` for every random state of the benchmark's
``generic_states`` workload at seed ``S`` (default 1; the same shapes,
counts and draws), ``R`` times (default 2), and prints the last pass. For
each state shape and each Gram size (``rows``, the dimension of a cut's
smaller side) it prints

- ``roots``: sides gathered from the amplitudes (``_root_grams``);
- ``traced``: sides traced from a larger side's Gram (``_traced_grams``);
- ``top``: Grams sent to the top-eigenvalue step (``_eigmax_herm``), the
  rest being skipped by the Frobenius bound;
- ``gather``, ``gram``, ``trace``, ``top_s``: seconds in gathering the
  roots' matricizations, in forming their Grams (``_gram``), in the
  partial traces and in the top eigenvalues.

``other`` is the rest of the ``ggm_pure`` calls: the plan lookup, the
bound, the clip and the report. Functions of ``ggm._batch`` are wrapped
from outside the package, which is not changed; ``--src`` points at the
``src`` of the checkout to profile, which must have the reduced-state
kernel (``_batch._reduced_plan``).

With ``--sampler`` it profiles the workload's two ``hjw_upper_bound``
targets instead (rank-5 five-qubit and qutrit, at the points and seeds
the workload draws at seed ``S``, 2,000 samples each). Both ranks lie at or
below ``_batch._TABLE_MAX_BASIS``, so the sampler reads their members by a
``PhaseObjective``. Per target it prints ``rows``, the coefficient rows
measured, and the seconds spent forming their Grams: ``outer`` (the
outer-product reals, ``_outer_reals``) and ``combine`` (their products with
the Gram tables, ``_combine``), with ``form`` their sum. Then per Gram size
it prints ``top`` and ``top_s``, the Grams sent to the top eigenvalue and
the seconds there, and ``other`` and ``total`` for the rest of the bound
and its whole time. Rows are counted at ``PhaseObjective._grams``, the one
place ``measure`` turns coefficient rows into Grams, so with ``--sampler``
the profiled tree must have that method.

The wrappers time every root chunk and every group on its own, and their
overhead grows with the number of calls, so the seconds (``total``
included) are not the kernel's unwrapped time. Across trees only the
counts compare; time whole ``ggm_pure`` calls without the wrappers, or run
the benchmark, to compare speed.
"""

import argparse
import math
import os
import sys
import time
from pathlib import Path

# as the benchmark runs BLAS; OpenBLAS reads it when numpy is first imported
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
import numpy as np  # noqa: E402

# The benchmark's generic_states shapes and counts, drawn in this order.
GENERIC_SHAPES = {(2,) * 6: 40, (2,) * 8: 120, (2,) * 10: 8, (3,) * 4: 40, (3,) * 6: 40,
                  (2, 3, 4, 5): 40}
FIELDS = ("roots", "traced", "top", "gather", "gram", "trace", "top_s")
# The workload's sampler targets, drawn after the states, and its sample count.
SAMPLER_TARGETS = ("rank5_5qubit", "qutrit")
HJW_SAMPLES = 2000
FORM_FIELDS = ("outer", "combine")


def gram_rows(gram):
    """Rows of each Gram of a stack, from its length (see ``_batch._gram``)."""
    size = gram.shape[-1]
    return math.isqrt(size) if size <= 9 else math.isqrt(size // 2)


class KernelProfile:
    """Wrap the kernel's root Grams, traces and top eigenvalue; count per Gram size."""

    def __init__(self, batch):
        self.batch = batch
        self.dims = None
        self.stats = {}
        self.undo = []

    def _add(self, rows, **counts):
        entry = self.stats.setdefault((self.dims, rows), dict.fromkeys(FIELDS, 0))
        for name, value in counts.items():
            entry[name] += value

    def __enter__(self):
        batch = self.batch
        root_grams, gram, traced_grams, eigmax = (
            batch._root_grams, batch._gram, batch._traced_grams, batch._eigmax_herm)

        def profiled_root_grams(block, index):
            rows = index.shape[1]
            before = self.stats.get((self.dims, rows), {}).get("gram", 0.0)
            start = time.perf_counter()
            out = root_grams(block, index)
            # _gram's own time, added by its wrapper in the meantime, is not gather
            formed = self.stats[(self.dims, rows)]["gram"] - before
            self._add(rows, gather=time.perf_counter() - start - formed,
                      roots=block.shape[0] * index.shape[0])
            return out

        def profiled_gram(mats):
            start = time.perf_counter()
            out = gram(mats)
            self._add(mats.shape[-2], gram=time.perf_counter() - start)
            return out

        def profiled_traced_grams(parent, index, rows):
            start = time.perf_counter()
            out = traced_grams(parent, index, rows)
            self._add(rows, trace=time.perf_counter() - start,
                      traced=parent.shape[0] * index.shape[1])
            return out

        def profiled_eigmax(grams):
            start = time.perf_counter()
            out = eigmax(grams)
            # every Gram is one real vector, so one entry per matrix
            self._add(gram_rows(grams), top_s=time.perf_counter() - start, top=out.size)
            return out

        for name, value in (("_root_grams", profiled_root_grams), ("_gram", profiled_gram),
                            ("_traced_grams", profiled_traced_grams),
                            ("_eigmax_herm", profiled_eigmax)):
            self.undo.append((name, getattr(batch, name)))
            setattr(batch, name, value)
        return self

    def __exit__(self, *exc):
        for name, value in reversed(self.undo):
            setattr(self.batch, name, value)
        return False


class SamplerProfile:
    """Wrap the coefficient-row kernel's Gram forming and top eigenvalue."""

    def __init__(self, batch):
        self.batch = batch
        self.rows = 0
        self.form = dict.fromkeys(FORM_FIELDS, 0.0)
        self.tops = {}
        self.undo = []

    def __enter__(self):
        batch = self.batch

        def timed(name, function):
            def wrapper(*args, **kwargs):
                start = time.perf_counter()
                out = function(*args, **kwargs)
                self.form[name] += time.perf_counter() - start
                return out
            return wrapper

        def profiled_grams(objective, block):
            self.rows += block.shape[0]
            return grams(objective, block)

        def profiled_eigmax(grams):
            start = time.perf_counter()
            out = eigmax(grams)
            entry = self.tops.setdefault(gram_rows(grams), [0, 0.0])
            entry[0] += out.size
            entry[1] += time.perf_counter() - start
            return out

        grams, eigmax = batch.PhaseObjective._grams, batch._eigmax_herm
        wrappers = {(batch.PhaseObjective, "_grams"): profiled_grams,
                    (batch, "_eigmax_herm"): profiled_eigmax,
                    (batch, "_combine"): timed("combine", batch._combine),
                    (batch, "_outer_reals"): timed("outer", batch._outer_reals)}
        for (owner, name), value in wrappers.items():
            self.undo.append((owner, name, getattr(owner, name)))
            setattr(owner, name, value)
        return self

    def __exit__(self, *exc):
        for owner, name, value in reversed(self.undo):
            setattr(owner, name, value)
        return False


def profile_sampler(ggm, batch, rng, repeat):
    """Print the Gram-forming and top-eigenvalue layers of the workload's
    sampler bounds, drawn from ``rng`` as the workload draws them."""
    def interior_point():
        while True:
            w = rng.dirichlet(np.ones(3))
            if w.min() >= 0.05:
                return w

    bounds = {}
    for family, name in zip((ggm.rank5_five_qubit(), ggm.qutrit_sector_family()),
                            SAMPLER_TARGETS):
        params = interior_point()[:2]
        rho = family.target_at(family.params_to_weights(params))
        bounds[name] = (rho, rho.rank() + 2, int(rng.integers(1 << 31)))

    print(f"{'target':>14} {'rows':>6} " + " ".join(f"{f:>8}" for f in FORM_FIELDS + ("form",)))
    lines = []
    for name, (rho, m, seed) in bounds.items():
        for _ in range(repeat):
            with SamplerProfile(batch) as profile:
                start = time.perf_counter()
                ggm.hjw_upper_bound(rho, m, HJW_SAMPLES, seed)
                total = time.perf_counter() - start
        form = sum(profile.form.values())
        print(f"{name:>14} {profile.rows:>6} "
              + " ".join(f"{profile.form[f]:>8.4f}" for f in FORM_FIELDS) + f" {form:>8.4f}")
        top_s = sum(entry[1] for entry in profile.tops.values())
        lines += [(name, rows, str(count), seconds)
                  for rows, (count, seconds) in sorted(profile.tops.items())]
        lines += [(name, "other", "", total - form - top_s), (name, "total", "", total)]
    print(f"{'target':>14} {'rows':>6} {'top':>8} {'top_s':>8}")
    for name, rows, count, seconds in lines:
        print(f"{name:>14} {rows:>6} {count:>8} {seconds:>8.4f}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeat", type=int, default=2)
    parser.add_argument("--src", default=str(Path(__file__).resolve().parents[1] / "src"))
    parser.add_argument("--sampler", action="store_true",
                        help="profile the workload's hjw_upper_bound targets instead")
    args = parser.parse_args()
    sys.path.insert(0, args.src)
    import ggm
    from ggm import _batch

    rng = np.random.default_rng([args.seed, 4])  # as the workload draws them
    states = {}
    for dims, count in GENERIC_SHAPES.items():
        dim = math.prod(dims)
        rows = []
        for _ in range(count):
            amps = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            rows.append(ggm.PureState(ggm.SystemShape(dims), amps / np.linalg.norm(amps)))
        states[dims] = rows
    if args.sampler:
        profile_sampler(ggm, _batch, rng, args.repeat)
        return

    for _ in range(args.repeat):
        totals = {}
        with KernelProfile(_batch) as profile:
            for dims, rows in states.items():
                profile.dims = dims
                start = time.perf_counter()
                for state in rows:
                    ggm.ggm_pure(state).value
                totals[dims] = time.perf_counter() - start

    print(f"{'state':>14} {'rows':>5} " + " ".join(f"{name:>8}" for name in FIELDS))
    for dims, total in totals.items():
        name = f"{len(dims)}x{dims[0]}" if len(set(dims)) == 1 else "x".join(map(str, dims))
        kernel = 0.0
        for (key, rows), entry in sorted(profile.stats.items(), key=lambda item: item[0][1]):
            if key != dims:
                continue
            kernel += sum(entry[field] for field in FIELDS[3:])
            print(f"{name:>14} {rows:>5} "
                  + " ".join(f"{entry[field]:>8}" for field in FIELDS[:3]) + " "
                  + " ".join(f"{entry[field]:>8.4f}" for field in FIELDS[3:]))
        print(f"{name:>14} {'other':>5} {'':>26} {total - kernel:>8.4f}")
        print(f"{name:>14} {'total':>5} {'':>26} {total:>8.4f}")


if __name__ == "__main__":
    main()
