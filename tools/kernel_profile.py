"""Counts and seconds per Gram size of the pure-state Schmidt kernel on generic states.

    python3 tools/kernel_profile.py [--seed S] [--repeat R] [--src SRC]

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

import numpy as np

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # as the benchmark runs BLAS

# The benchmark's generic_states shapes and counts, drawn in this order.
GENERIC_SHAPES = {(2,) * 6: 40, (2,) * 8: 120, (2,) * 10: 8, (3,) * 4: 40, (3,) * 6: 40,
                  (2, 3, 4, 5): 40}
FIELDS = ("roots", "traced", "top", "gather", "gram", "trace", "top_s")


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


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeat", type=int, default=2)
    parser.add_argument("--src", default=str(Path(__file__).resolve().parents[1] / "src"))
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
