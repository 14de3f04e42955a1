"""Benchmark self-tests: ``python3 -m pytest perfbench/tests`` from the
repo root.  They import the benchmark package and ``repro`` from source."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
