"""Compare two figure CSVs of the same grid: ``figure_diff.py A.csv B.csv``.

Prints the largest |B - A| of every column (``inf`` where only one side is
``nan``) with the number of rows that differ there and, for surfaces, how
many points change their nonconvexity flag ``hessian_min_eig <
-NONCONVEX_TOL`` between the two files, then one line per flipped point:
its parameters, its ``hessian_min_eig`` and its phases in A and in B.
Exits with status 1 when a flag flips or ``raw`` or ``envelope`` moves by
more than ``FIGURE_TOL`` (1e-10), and 0 otherwise, so it is the figure gate.

    python3 tools/figure_diff.py before.csv after.csv
"""

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
from ggm.roof import NONCONVEX_TOL  # noqa: E402

FIGURE_TOL = 1e-10

if len(sys.argv) != 3:
    sys.exit(__doc__.splitlines()[0])
header_a, header_b = (Path(p).read_text().split("\n", 1)[0] for p in sys.argv[1:])
if header_a != header_b:
    sys.exit(f"columns differ:\n  {header_a}\n  {header_b}")
a, b = (np.atleast_2d(np.loadtxt(p, delimiter=",", skiprows=1)) for p in sys.argv[1:])
names = header_a.split(",")
grid = names.index("raw")
if a.shape != b.shape or not np.array_equal(a[:, :grid], b[:, :grid]):
    sys.exit("the files hold different grids")
one_nan = np.isnan(a) != np.isnan(b)
delta = np.where(one_nan, np.inf, np.nan_to_num(np.abs(b - a), nan=0.0))
worst = dict(zip(names, delta.max(axis=0)))
for name, changed in zip(names, np.sum(delta > 0, axis=0)):
    print(f"{name:>16}  max |delta| {worst[name]:.3g} in {changed} of {len(a)} rows")
failures = [f"{name} moved by {worst[name]:.3g}"
            for name in ("raw", "envelope") if worst[name] > FIGURE_TOL]
if "hessian_min_eig" in names:
    column = names.index("hessian_min_eig")
    flags_a, flags_b = (m[:, column] < -NONCONVEX_TOL for m in (a, b))
    flipped = np.flatnonzero(flags_a != flags_b)
    print(f"flags {int(flags_a.sum())} -> {int(flags_b.sum())}, {flipped.size} flipped")
    phases = slice(column + 1, None)
    for row in flipped:
        params = ", ".join(f"{n}={v:.6g}" for n, v in zip(names[:grid], a[row, :grid]))
        print(f"  {params}: hessian_min_eig {a[row, column]:.6g} -> {b[row, column]:.6g}, "
              f"phases {np.array2string(a[row, phases], precision=6)} -> "
              f"{np.array2string(b[row, phases], precision=6)}")
    if flipped.size:
        failures.append(f"{flipped.size} flags flipped")
if failures:
    sys.exit(f"figure gate failed (tolerance {FIGURE_TOL:g}): " + "; ".join(failures))
