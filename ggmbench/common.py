"""Paths and process environment shared by the benchmark's entry points.

Importing this module imports neither numpy nor ggm: :func:`prepare` must
pin the BLAS thread count before numpy is first imported, because the
thread count moves the group-verification timings by ~15%.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


class MissingProgram(RuntimeError):
    """The checkout holds no ggm sources to benchmark."""


def prepare() -> None:
    """Pin BLAS threads and put the checkout's ``src`` first on the path."""
    if not (SRC / "ggm" / "__init__.py").is_file():
        raise MissingProgram(f"no ggm package under {SRC}")
    os.environ.update(THREAD_ENV)
    sys.path.insert(0, str(SRC))


def import_ggm():
    """Import ggm and make sure it is the checkout's copy, not an installed one."""
    import ggm

    if Path(ggm.__file__).resolve().parent != (SRC / "ggm").resolve():
        raise MissingProgram(f"imported ggm from {ggm.__file__}, not from {SRC}")
    return ggm
