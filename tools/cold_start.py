"""Time fresh ``python -m ggm.cli`` processes and say which ones load scipy.spatial.

Each command runs in five fresh processes, timed from start to exit; the
median is printed with whether the command imported ``scipy.spatial``,
read from one more run under ``python -X importtime``. Run it on two
checkouts to compare their cold starts:

    python3 tools/cold_start.py
"""

import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

RUNS = 5
SRC = Path(__file__).resolve().parents[1] / "src"
# BLAS on one thread, as the benchmark runs it
ENV = {**os.environ, "PYTHONPATH": str(SRC),
       "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def run(args, cwd, *flags):
    return subprocess.run([sys.executable, *flags, "-m", "ggm.cli", *args], cwd=cwd,
                          env=ENV, capture_output=True, text=True, check=True)


def loads_spatial(args, cwd) -> bool:
    stderr = run(args, cwd, "-X", "importtime").stderr
    return any(line.rsplit("|", 1)[-1].strip() == "scipy.spatial"
               for line in stderr.splitlines())


with tempfile.TemporaryDirectory() as tmp:
    specs = {"state": {"constructor": "ghz", "args": {"n_parties": 5}},
             "group": {"kind": "omega", "dims": [2] * 6},
             "family": {"family": "rank3_ghz_dicke", "args": {"n_parties": 6}}}
    for name, doc in specs.items():
        Path(tmp, f"{name}.json").write_text(json.dumps(doc))
    commands = (["pure", "state.json", "--out", "report.json"],
                ["verify-group", "group.json", "--family", "family.json", "--out", "verify.txt"],
                ["figure", "1", "--out", "figure.csv"],
                ["figure", "3", "--grid", "11", "--out", "figure.csv"])
    print(f"{'command':<46} {'median_s':>8}  scipy.spatial")
    for args in commands:
        walls = []
        for _ in range(RUNS):
            start = time.perf_counter()
            run(args, tmp)
            walls.append(time.perf_counter() - start)
        loaded = "loaded" if loads_spatial(args, tmp) else "not loaded"
        shown = " ".join(args[:-2])  # without --out
        print(f"{shown:<46} {statistics.median(walls):8.3f}  {loaded}", flush=True)
