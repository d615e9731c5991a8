"""Rewrite the per-request pins in pins.json from the current program.

    python3 bench/pin.py

Runs every request of every workload once at the default seed and records
its exit code, the basis-free view of its output and the sha256 of its
bytes. The "algebras" section (dimensions cross-checked against the sympy
oracle by selftest.py) is kept as it is. Re-pinning is only right when an
output change is intended; review the diff of pins.json.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import sys

import run

sys.path.insert(0, str(run.SRC))


def main() -> int:
    pins = json.loads(run.PINS.read_text())
    seed = pins["default_seed"]
    env = run.request_env()
    requests = {}
    for workload in run.PASS_S:
        workdir = run.BENCH / ".work" / f"pin-{workload}"
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            run.setup(workload, seed, workdir)
            for req in run.workload_requests(workload):
                _, proc = run.invoke(req, workdir, env, run.REQUEST_LIMIT_S[workload])
                requests[req.id] = {
                    "exit": proc.returncode,
                    "view": run.view(req.command, json.loads(proc.stdout)),
                    "sha256": hashlib.sha256(proc.stdout).hexdigest(),
                }
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    pins["requests"] = requests
    run.PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
