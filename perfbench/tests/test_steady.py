"""Self-checks of the benchmark: the traced counts repeat exactly.

Run from the root of a checkout with

    python3 -m pytest perfbench/tests -q

The program is deterministic, so every call count of a traced task must
repeat. Each task runs twice from one parent process, the second time
after every task of its workload has run, so a warm cache that leaked
from one task into the next would show as a changed count.
"""

import json
import random
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import expflag.cli  # noqa: E402,F401  (imported before any task forks)

from perfbench import run, tracing  # noqa: E402
from perfbench.isolate import run_cold  # noqa: E402
from perfbench.workloads import WORKLOADS, ORACLE_CHAIN, tasks_for  # noqa: E402


def _traced_calls(task):
    rec = run_cold(task, traced=True)
    assert "error" not in rec, rec["error"]
    assert rec["check_failures"] == []
    return rec["trace"]["calls"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_calls_repeat_across_tasks(workload):
    tasks = tasks_for(workload, seed=1)
    first = [_traced_calls(t) for t in tasks]
    second = [_traced_calls(t) for t in tasks]
    for task, a, b in zip(tasks, first, second):
        assert a == b, task.id
        assert sum(a.values()) > 0, task.id


def test_same_task_twice_gives_same_counts():
    task = ORACLE_CHAIN[0]
    assert _traced_calls(task) == _traced_calls(task)


def test_traced_run_reports_every_per_layer_metric():
    tally = run.Tally({})
    metrics = run.measure_traced(ORACLE_CHAIN[:1], random.Random(1), tally,
                                 "oracle_chain", 1)
    assert tally.attempted == 2
    names = tracing.metric_names() + ["trace.overhead_ratio",
                                      "trace.peak_alloc_blocks"]
    assert list(metrics) == names
    assert metrics["fq_oracle.act.calls"][0] > 0


def test_benchmark_json_lists_the_traced_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = tracing.metric_names() + ["trace.overhead_ratio",
                                      "trace.peak_alloc_blocks"]
    assert [m["name"] for m in spec["per_layer"]] == names
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
