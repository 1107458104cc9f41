"""Run one task cold, in a child forked from a process that computed nothing.

The parent imports expflag but calls none of it, so the child starts with
every module-level cache (``fq_oracle._partition_cache``, the ``gf``
``lru_cache``) and every object cache empty, whatever state a later version
of the program keeps. Each ``expflag`` command a user runs starts the same
way, in a fresh process. The child times the task, checks nothing itself,
and sends a JSON record back through a pipe before it exits.
"""

from __future__ import annotations

import json
import os
import resource
import signal
import time
import traceback

TASK_TIMEOUT_S = 150


def _child(task, traced):
    rec = {"id": task.id}
    tracer = None
    if traced:
        from perfbench import tracing

        tracer = tracing.install(task.id)
    t0 = time.perf_counter()
    try:
        res = task()
    except Exception:
        rec["error"] = traceback.format_exc(limit=5)
    else:
        rec.update(output=res.output, checks=res.checks,
                   check_failures=res.check_failures)
    rec["seconds"] = time.perf_counter() - t0
    if tracer is not None:
        tracer.finish()
        rec["trace"] = tracer.record()
    rec["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return rec


def run_cold(task, traced=False):
    """Run ``task`` in a forked child and return the child's record.

    The record has ``seconds``, ``maxrss_kb`` and either ``output``,
    ``checks`` and ``check_failures`` or ``error``; with ``traced`` also
    ``trace``.
    """
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(r)
            signal.alarm(TASK_TIMEOUT_S)
            data = json.dumps(_child(task, traced)).encode()
            with os.fdopen(w, "wb") as out:
                out.write(data)
            status = 0
        finally:
            os._exit(status)
    os.close(w)
    with os.fdopen(r, "rb") as inp:
        data = inp.read()
    _, wstatus = os.waitpid(pid, 0)
    code = os.waitstatus_to_exitcode(wstatus)
    if code != 0 or not data:
        return {"id": task.id, "error": f"task process ended with status {code}",
                "seconds": 0.0, "maxrss_kb": 0}
    return json.loads(data)
