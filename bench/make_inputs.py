"""Generate a workload's seeded inputs into a new directory, in one process.

    PYTHONPATH=src python3 bench/make_inputs.py WORKLOAD SEED DIRECTORY

run.py times this process, from launch to exit, as the benchmark's set-up.
"""

import sys
from pathlib import Path

import run

if __name__ == "__main__":
    workload, seed, directory = sys.argv[1:]
    run.setup(workload, int(seed), Path(directory))
