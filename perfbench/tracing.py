"""Per-layer tracing installed from outside the program.

``install()`` wraps the public functions listed in ``LAYERS``. Each name is
patched wherever it is looked up: a module-level function in every expflag
module that imported it by name, a method under every class attribute that
holds it (``__radd__ = __add__``). A wrapper keeps, per layer, the call
count and the self time (its duration minus that of the wrapped calls it
made). Some layers also keep the distinct argument keys, to give the share
of calls a memo could not have saved, or the size of each result. Coarse
layers also record a span: name, start, end, parent span and task id.
Leaves called millions of times are only counted. Whenever a timed
wrapper returns it also samples ``sys.getallocatedblocks()``, giving the
task's peak number of live allocated blocks above its start.

Tracing lives in the process that runs one task and is never removed; the
process exits after the task.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time


def _support_len(vec):
    return len(vec.support)


# (metric prefix, module, attribute path, kind, extra)
# kind: "span" keeps spans and times, "time" only times, "count" only counts.
# extra: None, "distinct" (distinct_ratio), or (size metric, size function).
LAYERS = [
    ("root_datum.w_mul", "root_datum", "RootDatum.w_mul", "time", None),
    ("root_datum.w_inverse", "root_datum", "RootDatum.w_inverse", "time", None),
    ("root_datum.pair_fractional", "root_datum", "RootDatum.pair_fractional", "time", None),
    ("affine_weyl.mul", "affine_weyl", "AffineWeyl.mul", "time", None),
    ("affine_weyl.length", "affine_weyl", "AffineWeyl.length", "time", "distinct"),
    ("affine_weyl.is_left_w0_maximal", "affine_weyl", "AffineWeyl.is_left_w0_maximal", "time", "distinct"),
    ("affine_weyl.sign_on_alcove", "affine_weyl", "AffineWeyl.sign_on_alcove", "time", None),
    ("affine_weyl.reduced_word", "affine_weyl", "AffineWeyl.reduced_word", "time", None),
    ("affine_weyl.right_minimal", "affine_weyl", "AffineWeyl.right_minimal", "time", None),
    ("strata.double_coset_elements", "strata", "double_coset_elements", "span", ("out_size", len)),
    ("exp_module.ts_action", "exp_module", "ts_action", "time", ("labels_out", _support_len)),
    ("exp_module.case_analysis", "exp_module", "case_analysis", "time", None),
    ("exp_module.phi_element", "exp_module", "phi_element", "time", None),
    ("exp_module.ExpModule.spherical_action_basis", "exp_module", "ExpModule.spherical_action_basis", "span", "distinct"),
    ("exp_module.ExpModule.verify_rank_one", "exp_module", "ExpModule.verify_rank_one", "span", None),
    ("hecke.hecke_mul", "hecke", "hecke_mul", "time", None),
    ("hecke.t_simple_mul", "hecke", "t_simple_mul", "time", None),
    ("spherical.spherical_mul", "spherical", "spherical_mul", "span", None),
    ("spherical.hecke_to_spherical", "spherical", "hecke_to_spherical", "span", None),
    ("coefficients.QPoly.mul", "coefficients", "QPoly.__mul__", "time", None),
    ("coefficients.QPoly.add", "coefficients", "QPoly.__add__", "time", None),
    ("coefficients.qpoly_exact_div", "coefficients", "qpoly_exact_div", "time", None),
    ("coefficients.GF.mul", "coefficients", "GF.mul", "count", None),
    ("coefficients.GF.inv", "coefficients", "GF.inv", "time", None),
    ("coefficients.CycNum.mul", "coefficients", "CycNum.__mul__", "time", None),
    ("coefficients.CycNum.add", "coefficients", "CycNum.__add__", "time", None),
    ("fq_oracle.act", "fq_oracle", "act", "time", "distinct"),
    ("fq_oracle.orbit_closure", "fq_oracle", "orbit_closure", "span", ("points", len)),
    ("fq_oracle.orbit_partition", "fq_oracle", "orbit_partition", "span", "distinct"),
    ("fq_oracle.character_labeling", "fq_oracle", "character_labeling", "span", None),
    ("fq_oracle.baby_averaging", "fq_oracle", "baby_averaging", "span", None),
    ("fq_oracle.gm_averaging", "fq_oracle", "gm_averaging", "span", None),
    ("fq_oracle.hecke_operator", "fq_oracle", "hecke_operator", "span", None),
    ("fq_oracle.translate", "fq_oracle", "translate", "time", None),
    ("fq_oracle.whittaker_action", "fq_oracle", "whittaker_action", "span", None),
    ("fq_oracle.coset_reps", "fq_oracle", "coset_reps", "span", None),
    ("cli.main", "cli", "main.main", "span", None),
]


def metric_names():
    """Every per-layer metric the traced run reports, in table order."""
    names = []
    for prefix, _mod, _attr, kind, extra in LAYERS:
        names.append(f"{prefix}.calls")
        if kind != "count":
            names.append(f"{prefix}.self_s")
        if extra == "distinct":
            names.append(f"{prefix}.distinct_ratio")
        elif extra is not None:
            names.append(f"{prefix}.{extra[0]}")
    return names


def _freeze(x):
    """A hashable stand-in for an argument, for distinct-key counting."""
    try:
        hash(x)
        return x
    except TypeError:
        pass
    if isinstance(x, dict):
        return tuple(sorted((k, _freeze(v)) for k, v in x.items()))
    if isinstance(x, (list, tuple)):
        return tuple(_freeze(v) for v in x)
    return repr(x)


class Tracer:
    """Per-layer counters and spans of one task."""

    def __init__(self, task_id):
        self.task_id = task_id
        self.calls = {}
        self.self_s = {}
        self.keys = {}
        self.sizes = {}
        self.spans = []
        # frame: [start, seconds spent in wrapped calls it made]
        self._stack = [[time.perf_counter(), 0.0]]
        self.spans.append([f"task:{task_id}", self._stack[0][0], None, None, task_id])
        self._span_parent = [0]
        # live allocated blocks, sampled whenever a timed wrapper returns
        self._blocks = [sys.getallocatedblocks(), 0]

    def finish(self):
        self.spans[0][2] = time.perf_counter()

    def wrap(self, prefix, fn, kind, extra, is_method):
        calls, self_s, keys, sizes = self.calls, self.self_s, self.keys, self.sizes
        calls[prefix] = 0
        if kind == "count":

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                calls[prefix] += 1
                return fn(*args, **kwargs)

            return counted

        self_s[prefix] = 0.0
        if extra == "distinct":
            keys[prefix] = set()
        elif extra is not None:
            sizes[prefix] = 0
        stack, spans, span_parent = self._stack, self.spans, self._span_parent
        task_id = self.task_id
        clock = time.perf_counter
        blocks, live_blocks = self._blocks, sys.getallocatedblocks

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            calls[prefix] += 1
            if extra == "distinct":
                head = (id(args[0]),) if is_method else ()
                rest = args[1:] if is_method else args
                keys[prefix].add(hash(head + _freeze((rest, kwargs))))
            span = None
            if kind == "span":
                span = len(spans)
                spans.append([prefix, None, None, span_parent[-1], task_id])
                span_parent.append(span)
            frame = [clock(), 0.0]
            stack.append(frame)
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[0]
                self_s[prefix] += dur - frame[1]
                stack[-1][1] += dur
                if span is not None:
                    spans[span][1] = frame[0]
                    spans[span][2] = end
                    span_parent.pop()
                blocks[1] = max(blocks[1], live_blocks())
            if extra is not None and extra != "distinct":
                sizes[prefix] += extra[1](out)
            return out

        return timed

    def record(self):
        """Counters and spans as plain data, to send to the parent."""
        return {
            "calls": self.calls,
            "self_s": self.self_s,
            "distinct": {k: len(v) for k, v in self.keys.items()},
            "sizes": self.sizes,
            "peak_blocks": max(self._blocks[1] - self._blocks[0], 0),
            "spans": self.spans,
        }


def install(task_id):
    """Wrap every layer of ``LAYERS`` and return the task's Tracer."""
    tracer = Tracer(task_id)
    modules = {mod: importlib.import_module(f"expflag.{mod}")
               for _prefix, mod, _attr, _kind, _extra in LAYERS}
    for prefix, mod, attr, kind, extra in LAYERS:
        *owner_path, name = attr.split(".")
        owner = modules[mod]
        for part in owner_path:
            owner = getattr(owner, part)
        is_method = isinstance(owner, type)
        original = getattr(owner, name)
        wrapped = tracer.wrap(prefix, original, kind, extra, is_method)
        if is_method:
            # every alias of the method in the class body, e.g. __radd__
            for key, value in list(vars(owner).items()):
                if value is original:
                    setattr(owner, key, wrapped)
        elif owner_path:
            setattr(owner, name, wrapped)
        else:
            # every module that imported the function by name
            for m in modules.values():
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapped)
    return tracer
