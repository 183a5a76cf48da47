"""Interpreter set-up shared by the benchmark's entry points.

``pin()`` must run before numpy is imported: OpenBLAS reads its thread count
once, when it loads.
"""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin():
    """One BLAS thread, and ``bleto`` imported from this checkout's sources."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "bleto" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no bleto sources under {SRC}")
    sys.path.insert(0, str(SRC))
