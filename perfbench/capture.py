"""Capture every task's canonical answer into ``perfbench/expected/``.

Usage: python3 perfbench/capture.py [WORKLOAD ...]

Runs each task once, cold, and writes ``expected/<workload>.json`` mapping
task id to its answer. The benchmark then requires every later version of
the program to reproduce these answers byte for byte, so capture only at a
commit whose answers are known good; a task that raises or fails one of the
program's own checks is reported and not captured.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import expflag.cli  # noqa: E402,F401

from perfbench.isolate import run_cold  # noqa: E402
from perfbench.workloads import WORKLOADS, tasks_for  # noqa: E402


def main(names):
    status = 0
    for workload in names or WORKLOADS:
        captured = {}
        for task in tasks_for(workload, seed=0):
            rec = run_cold(task)
            bad = rec.get("error") or "; ".join(rec.get("check_failures", []))
            if bad:
                print(f"{task.id}: {bad}", file=sys.stderr)
                status = 1
                continue
            captured[task.id] = rec["output"]
            print(f"{task.id}: {rec['seconds']:.2f} s", file=sys.stderr)
        path = ROOT / "perfbench" / "expected" / f"{workload}.json"
        path.write_text(json.dumps(captured, indent=1, sort_keys=True) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
