"""Import-path setup shared by the benchmark's scripts.

The benchmark runs from a source checkout without installing the
package, so the repository's ``src/`` directory goes on ``sys.path``.
A checkout without it (the benchmark's files alone) cannot run the
program; importing this module then fails with a clear error.
"""

from __future__ import annotations

import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
SRC_DIR = REPO_ROOT / "src"
#: inputs, spill directories and span files, inside the checkout
WORK_DIR = REPO_ROOT / ".e2ebench_work"

if not (SRC_DIR / "repro" / "__init__.py").is_file():
    raise ImportError(f"no repro package under {SRC_DIR}; run from a source checkout")
if str(SRC_DIR) not in sys.path:
    sys.path.insert(0, str(SRC_DIR))
