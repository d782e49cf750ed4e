"""Make the benchmark's modules and the hpheat sources importable."""

import os
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent
ROOT = PERFBENCH.parent

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, "1")
for path in (PERFBENCH, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
