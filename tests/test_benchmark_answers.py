"""The benchmark's captured answers, replayed in process.

``perfbench/workloads.py`` lists the benchmark's tasks and
``perfbench/expected/<workload>.json`` holds each task's answer byte for
byte. Running all three workloads here, each in a fraction of a second
per cycle, means a change to any byte of an answer (a JSON field, a key
order, a flag) or a failed check of the program's own fails the test
suite before it fails a benchmark run. This test only reads
``perfbench/``.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", PERFBENCH / "workloads.py")
    mod = importlib.util.module_from_spec(spec)
    # the module's dataclasses look themselves up in sys.modules
    sys.modules[spec.name] = mod
    spec.loader.exec_module(mod)
    return mod


WORKLOADS = _workloads()


@pytest.mark.parametrize("workload", ["generic_rank2", "oracle_chain", "oracle_verify"])
def test_benchmark_answers_match_their_captures(workload):
    expected = json.loads((PERFBENCH / "expected" / f"{workload}.json").read_text())
    tasks = WORKLOADS.tasks_for(workload, 0)
    assert sorted(t.id for t in tasks) == sorted(expected)
    for task in tasks:
        res = task()
        assert res.output == expected[task.id], task.id
        assert res.check_failures == [], task.id
