"""Print the sha256 of each reference figure's CSV, one ``sha256  argv`` line a run.

Run it on two checkouts and ``diff`` the outputs to show that a change keeps
every figure byte-identical:

    python3 tools/figure_digests.py > digests.txt
"""

import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # as the benchmark runs BLAS
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
from ggm.cli import main  # noqa: E402

# Reduced grids, then the default grids of the surface figures (about 5 s on
# a 2-core host): a tied argmin can switch branch at a default-grid point
# that no reduced grid samples.
RUNS = ("1", "4", "2 --grid 41", "3 --grid 61", "5 --grid 31", "6 --grid 21",
        "7 --grid 41", "8 --grid 41", "2", "3", "5", "6", "7", "8")

with tempfile.TemporaryDirectory() as tmp:
    for run in RUNS:
        out = os.path.join(tmp, "figure.csv")
        with contextlib.redirect_stdout(io.StringIO()):
            if main(["figure", *run.split(), "--out", out]) != 0:
                sys.exit(f"figure {run} failed")
        digest = hashlib.sha256(Path(out).read_bytes()).hexdigest()
        print(f"{digest}  figure {run}", flush=True)
