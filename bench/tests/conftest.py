"""Run with ``python -m pytest bench/tests`` from the checkout's root;
tier-1's ``testpaths`` does not collect this directory."""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))
