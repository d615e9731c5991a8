import sys
from pathlib import Path

# tests/ for the shared test modules, bench/ for fixtures, run and trace_cli
TESTS = Path(__file__).resolve().parent
sys.path[:0] = [str(TESTS), str(TESTS.parent / "bench")]
