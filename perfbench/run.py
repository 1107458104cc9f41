"""Benchmark of the expflag engine: one workload, one run.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads are listed in ``perfbench/workloads.py`` and explained in
``perfbench/README.md``. One client runs one task at a time in a closed
loop; each task runs cold, in a child forked from this process, which
imports expflag but computes nothing (see ``isolate.py``). A cycle runs
the workload's fixed task list once, in an order drawn from the seed.

``--trace 0`` runs whole cycles for about ``--seconds`` (it starts a cycle
when that would end at most half a cycle late) and reports the end-to-end
metrics: ``cycle_s`` (the sum of each task's median seconds), ``task_s.p50``
(median seconds per task), ``setup_s`` (median of the cold set-ups timed,
each in a fresh process, between tasks) and ``peak_rss_mb`` (largest peak
resident memory of a task process).

``--trace 1`` runs one cycle plain and one traced (``tracing.py``),
reports the per-layer metrics and writes the spans to ``.perfbench-out/``.

Every task's answer is compared with its capture in
``perfbench/expected/``; a task fails if it raises, exits abnormally,
answers differently or fails one of the program's own checks. The last
line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; a summary with quartiles goes to stderr.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# A set-up probe runs after a task whenever this many seconds have passed
# since the last one, so the probes sample the whole run, not one moment
# of the host's speed; a run makes at least SETUP_PROBES of them.
PROBE_EVERY_S = 4.0
SETUP_PROBES = 9
OUT_DIR = ROOT / ".perfbench-out"


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _setup_probe(workload):
    """Seconds of one cold set-up, timed in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "setup_probe.py"), workload],
        cwd=ROOT, capture_output=True, text=True, timeout=60, check=True)
    return json.loads(done.stdout.splitlines()[-1])["setup_s"]


class Tally:
    """Attempted and failed tasks, with the reason for each failure."""

    def __init__(self, expected):
        self.expected = expected
        self.attempted = 0
        self.failures = []

    def add(self, rec):
        self.attempted += 1
        tid = rec["id"]
        if "error" in rec:
            why = rec["error"].strip().splitlines()[-1]
        elif rec["check_failures"]:
            why = "; ".join(rec["check_failures"])
        elif rec["output"] != self.expected.get(tid):
            why = "output differs from its capture"
        else:
            return
        self.failures.append(f"{tid}: {why}")


def _cycle(tasks, rng, tally, traced=False, after_task=None):
    from perfbench.isolate import run_cold

    order = list(tasks)
    rng.shuffle(order)
    recs = []
    for t in order:
        recs.append(run_cold(t, traced))
        tally.add(recs[-1])
        if after_task is not None:
            after_task()
    return recs


def _quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4)
    return q[0], q[2]


def measure(tasks, rng, tally, seconds, workload):
    """Whole cycles for about ``seconds``; the end-to-end metrics.

    ``cycle_s`` is the sum over the task list of each task's median time
    in the run: the cycle as it goes at every task's typical speed. With a
    handful of cycles per run this is steadier than the median of the
    cycles' sums, where one slow moment moves a whole cycle. ``setup_s``
    is the median of the set-up probes made between tasks.
    """
    from perfbench.isolate import run_cold

    run_cold(tasks[0])  # warm-up, a small task in every workload; not counted
    start = last_probe = time.perf_counter()
    probes = []

    def probe_if_due():
        nonlocal last_probe
        if time.perf_counter() - last_probe >= PROBE_EVERY_S:
            probes.append(_setup_probe(workload))
            last_probe = time.perf_counter()

    walls, per_task, rss = [], {t.id: [] for t in tasks}, []
    while True:
        c0 = time.perf_counter()
        recs = _cycle(tasks, rng, tally, after_task=probe_if_due)
        walls.append(time.perf_counter() - c0)
        for r in recs:
            per_task[r["id"]].append(r["seconds"])
            rss.append(r["maxrss_kb"])
        # stop when the next cycle would end more than half a cycle late,
        # so that a run lasts `seconds` on average
        if time.perf_counter() - start + statistics.median(walls) / 2 > seconds:
            break
    while len(probes) < SETUP_PROBES:
        probes.append(_setup_probe(workload))
    cycles = list(zip(*per_task.values()))  # one task time each, per cycle
    sums = [sum(c) for c in cycles]
    task_s = [x for xs in per_task.values() for x in xs]
    cycle_s = sum(statistics.median(xs) for xs in per_task.values())
    for name, xs in (("cycle sums", sums), ("task_s", task_s),
                     ("setup_s", probes)):
        lo, hi = _quartiles(xs)
        print(f"{name}: median {statistics.median(xs):.4f} s, quartiles "
              f"{lo:.4f}..{hi:.4f} s, n={len(xs)}", file=sys.stderr)
    print(f"cycle_s: {cycle_s:.4f} s (sum of per-task medians)", file=sys.stderr)
    return {
        "cycle_s": (cycle_s, "s"),
        "task_s.p50": (statistics.median(task_s), "s"),
        "setup_s": (statistics.median(probes), "s"),
        "peak_rss_mb": (max(rss) / 1024, "MB"),
    }


def measure_traced(tasks, rng, tally, workload, seed):
    """One plain and one traced cycle; the per-layer metrics."""
    from perfbench import tracing

    plain = _cycle(tasks, rng, tally)
    traced = _cycle(tasks, rng, tally, traced=True)
    calls, self_s, distinct, sizes = {}, {}, {}, {}
    spans = []
    for rec in traced:
        tr = rec.get("trace")
        if tr is None:
            continue
        for acc, part in ((calls, "calls"), (self_s, "self_s"),
                          (distinct, "distinct"), (sizes, "sizes")):
            for k, v in tr[part].items():
                acc[k] = acc.get(k, 0) + v
        spans += tr["spans"]
    metrics = {}
    for prefix, _mod, _attr, kind, extra in tracing.LAYERS:
        n = calls.get(prefix, 0)
        metrics[f"{prefix}.calls"] = (n, "count")
        if kind != "count":
            metrics[f"{prefix}.self_s"] = (self_s.get(prefix, 0.0), "s")
        if extra == "distinct":
            metrics[f"{prefix}.distinct_ratio"] = (
                distinct.get(prefix, 0) / n if n else 0.0, "ratio")
        elif extra is not None:
            metrics[f"{prefix}.{extra[0]}"] = (
                sizes.get(prefix, 0) / n if n else 0.0, "count")
    plain_s = sum(r["seconds"] for r in plain)
    traced_s = sum(r["seconds"] for r in traced)
    metrics["trace.overhead_ratio"] = (traced_s / plain_s, "ratio")
    metrics["trace.peak_alloc_blocks"] = (
        max((r["trace"]["peak_blocks"] for r in traced if "trace" in r),
            default=0), "count")
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{workload}-seed{seed}.json"
    path.write_text(json.dumps({
        "workload": workload, "seed": seed,
        "span_fields": ["name", "start", "end", "parent", "task"],
        "spans": spans,
        "tasks": {r["id"]: {k: v for k, v in r["trace"].items() if k != "spans"}
                  for r in traced if "trace" in r},
    }))
    print(f"plain cycle {plain_s:.4f} s, traced cycle {traced_s:.4f} s; "
          f"{len(spans)} spans in {path.relative_to(ROOT)}", file=sys.stderr)
    return metrics


def main(argv=None):
    args = _parse(argv)
    if not (ROOT / "src" / "expflag" / "__init__.py").is_file():
        print(f"no expflag sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    expected = json.loads(
        (ROOT / "perfbench" / "expected" / f"{args.workload}.json").read_text())

    import expflag.cli  # noqa: F401  (the task processes inherit the import)

    tasks = workloads.tasks_for(args.workload, args.seed)
    rng = random.Random(args.seed)
    tally = Tally(expected)
    gc.collect()
    gc.freeze()
    sys.stdout.flush()
    if args.trace:
        metrics = measure_traced(tasks, rng, tally, args.workload, args.seed)
    else:
        metrics = measure(tasks, rng, tally, args.seconds, args.workload)
    for line in tally.failures:
        print(f"FAILED {line}", file=sys.stderr)
    print(json.dumps({
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
