"""Matrices and seconds per cut shape of the Schmidt kernel on generic states.

    python3 tools/kernel_profile.py [--seed S] [--repeat R] [--src SRC]

Reads ``ggm_pure(state).value`` for every random state of the benchmark's
``generic_states`` workload at seed ``S`` (default 1; the same shapes,
counts and draws), ``R`` times (default 2), and prints the last pass. For
each state shape and each matricization shape (rows x columns, so the
Gram has ``rows`` rows) it prints

- ``formed``: matrices whose Gram was formed;
- ``top``: matrices sent to the top-eigenvalue step (``_eigmax_herm``);
- ``gather``, ``gram``, ``top_s``: seconds in gathering the
  matricizations, in ``_gram`` and in ``_eigmax_herm``.

``other`` is the rest of the ``ggm_pure`` calls: the kernel's own loop,
the clip and the report. Functions of ``ggm._batch`` are wrapped from
outside the package, which is not changed, so it runs on any checkout of
the package (``--src`` points at its ``src``) and two trees can be
compared.

The wrappers time every chunk of the cut table on its own, and their
overhead grows with the number of chunks, so the seconds (``total``
included) are not the kernel's unwrapped time. Across trees only the
``formed`` and ``top`` counts compare; time whole ``ggm_pure`` calls
without the wrappers, or run the benchmark, to compare speed.
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


class KernelProfile:
    """Wrap the kernel's gather, Gram and top eigenvalue; count per cut shape."""

    def __init__(self, batch):
        self.batch = batch
        self.dims = self.shape = None
        self.stats = {}
        self.undo = []

    def _add(self, **counts):
        entry = self.stats.setdefault((self.dims, self.shape),
                                      dict.fromkeys(("formed", "top", "gather", "gram",
                                                     "top_s"), 0))
        for name, value in counts.items():
            entry[name] += value

    def __enter__(self):
        batch = self.batch
        top_squares, gram, eigmax = batch._top_squares, batch._gram, batch._eigmax_herm

        def timed_gather(matrices):
            def gather(block, index):
                self.shape = index.shape[1:]
                start = time.perf_counter()
                mats = matrices(block, index)
                self._add(gather=time.perf_counter() - start)
                return mats
            return gather

        def profiled_top_squares(rows, groups, matrices, **kwargs):
            return top_squares(rows, groups, timed_gather(matrices), **kwargs)

        def profiled_gram(mats):
            start = time.perf_counter()
            out = gram(mats)
            self._add(gram=time.perf_counter() - start,
                      formed=math.prod(mats.shape[:-2]))
            return out

        def profiled_eigmax(mats):
            start = time.perf_counter()
            out = eigmax(mats)
            # every Gram is one real vector, so one entry per matrix
            self._add(top_s=time.perf_counter() - start, top=out.size)
            return out

        for name, value in (("_top_squares", profiled_top_squares), ("_gram", profiled_gram),
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

    print(f"{'state':>14} {'cut':>8} {'formed':>8} {'top':>8} {'gather':>8} {'gram':>8} "
          f"{'top_s':>8}")
    for dims, total in totals.items():
        name = f"{len(dims)}x{dims[0]}" if len(set(dims)) == 1 else "x".join(map(str, dims))
        kernel = 0.0
        for (key, shape), entry in profile.stats.items():
            if key != dims:
                continue
            kernel += entry["gather"] + entry["gram"] + entry["top_s"]
            print(f"{name:>14} {'x'.join(map(str, shape)):>8} {entry['formed']:>8} "
                  f"{entry['top']:>8} {entry['gather']:>8.4f} {entry['gram']:>8.4f} "
                  f"{entry['top_s']:>8.4f}")
        print(f"{name:>14} {'other':>8} {'':>8} {'':>8} {total - kernel:>8.4f}")
        print(f"{name:>14} {'total':>8} {'':>8} {'':>8} {total:>8.4f}")


if __name__ == "__main__":
    main()
