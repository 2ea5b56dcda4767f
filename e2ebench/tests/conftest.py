"""Puts the benchmark's modules (and through them the repo's src/) on
the import path: ``python3 -m pytest e2ebench/tests``."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import paths  # noqa: E402,F401
