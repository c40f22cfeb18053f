"""Span recorder for the traced benchmark run.

The recorder wraps public names of the ``rsri`` package from outside: each
wrapper records (id, name, parent, thread, start, end, info) in memory.
Parents come from a thread-local stack, because the harness runs trials
on pool threads; a span opened on a pool thread has no parent.  Only
public names are patched, and every module binding of the same function
object is replaced, so renaming a private helper or moving an import
does not break the trace.  Counts that need a little work (the preserved
mass of a split) are taken in a ``trace.bookkeeping`` child span, which
self times then exclude.
"""
from __future__ import annotations

import importlib
import itertools
import json
import statistics
import sys
import threading
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

BOOKKEEPING = "trace.bookkeeping"


def _sparsify_info(args, kwargs, result):
    v, m = args[0], args[1]
    return (v.nnz, m)


def _split_info(args, kwargs, result):
    v = args[0]
    a = np.abs(v.values)
    exact = a[np.searchsorted(v.indices, result.exact_indices)]
    return (result.q, float(exact.sum()) / float(a.sum()))


# (module, public function, span name, info) -- info runs after the call
FUNCTIONS = [
    ("rsri.pagerank", "load_edge_list", "pagerank.load_edge_list", None),
    ("rsri.pagerank", "build_problem", "pagerank.build_problem", None),
    ("rsri.operators", "load_matrix_market", "operators.load_matrix_market", None),
    ("rsri.operators", "apply", "operators.apply", None),
    ("rsri.solvers", "reference_solve", "solvers.reference_solve", None),
    ("rsri.solvers", "rsri", "solvers.rsri", None),
    ("rsri.sparsify", "sparsify", "sparsify.sparsify", _sparsify_info),
    ("rsri.sparsify", "preservation_split", "sparsify.preservation_split", _split_info),
    ("rsri.vectors", "coalesce", "vectors.coalesce", None),
    ("rsri.baselines", "mc_surfer", "baselines.mc_surfer", None),
    ("rsri.harness", "estimate_rmse", "harness.estimate_rmse", None),
    ("rsri.harness", "run_sweep", "harness.run_sweep", None),
]


class SpanRecorder:
    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, info=None):
        spans, ids, stack_of = self.spans, self._ids, self._stack

        def traced(*args, **kwargs):
            stack = stack_of()
            sid = next(ids)
            parent = stack[-1] if stack else 0
            thread = threading.get_ident()
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans.append((sid, name, parent, thread, start, perf_counter(), None))
                raise
            finally:
                end = perf_counter()
                stack.pop()
            if info is None:
                spans.append((sid, name, parent, thread, start, end, None))
                return result
            data = info(args, kwargs, result)
            # list.append is atomic, so each thread appends whole spans
            spans.append((sid, name, parent, thread, start, end, data))
            spans.append((next(ids), BOOKKEEPING, parent, thread, end, perf_counter(), None))
            return result

        traced.__wrapped__ = fn
        return traced

    def take(self) -> list:
        """Spans recorded since the last call (call only between jobs)."""
        out = list(self.spans)
        self.spans.clear()
        return out


class Patched:
    """Context manager that routes the public rsri names through a recorder."""

    def __init__(self, recorder: SpanRecorder):
        self.recorder = recorder
        self._undo: list[tuple] = []

    def __enter__(self):
        modules = [m for name, m in list(sys.modules.items())
                   if name == "rsri" or name.startswith("rsri.")]
        for mod_name, attr, span, info in FUNCTIONS:
            original = getattr(importlib.import_module(mod_name), attr, None)
            if original is None:
                print(f"trace: {mod_name}.{attr} not found; {span} stays empty", file=sys.stderr)
                continue
            wrapper = self.recorder.wrap(span, original, info)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, key, value))
                        setattr(mod, key, wrapper)
        ops = importlib.import_module("rsri.operators")
        self._patch_method(ops.CscMatrix, "gather", "operators.gather")
        for name in ops.__all__:
            cls = getattr(ops, name)
            if isinstance(cls, type) and issubclass(cls, ops.ColumnMatrix) and "column" in vars(cls):
                self._patch_method(cls, "column", "operators.column")
        return self.recorder

    def _patch_method(self, cls, attr, span):
        original = vars(cls).get(attr)
        if original is None:
            print(f"trace: {cls.__name__}.{attr} not found; {span} stays empty", file=sys.stderr)
            return
        self._undo.append((cls, attr, original))
        setattr(cls, attr, self.recorder.wrap(span, original))

    def __exit__(self, *exc):
        for owner, key, value in reversed(self._undo):
            setattr(owner, key, value)
        self._undo.clear()
        return False


def by_name(spans: list) -> tuple[Counter, dict, dict]:
    """Calls, total time and self time per span name.

    A span's self time is its duration minus the durations of its
    children.  Spans of concurrent pool threads each count their own
    wall time, GIL waits included, so sums can exceed elapsed time.
    """
    child_time = defaultdict(float)
    for sid, name, parent, thread, start, end, info in spans:
        child_time[parent] += end - start
    calls, total, self_t = Counter(), defaultdict(float), defaultdict(float)
    for sid, name, parent, thread, start, end, info in spans:
        calls[name] += 1
        total[name] += end - start
        self_t[name] += end - start - child_time[sid]
    return calls, total, self_t


def layer_metrics(spans: list, solve_s: float) -> dict:
    """Per-layer figures of one traced job, from its spans."""
    calls, total, self_t = by_name(spans)
    name_of = {s[0]: s[1] for s in spans}
    sparsify_info = [s[6] for s in spans if s[1] == "sparsify.sparsify"]
    split_info = [s[6] for s in spans if s[1] == "sparsify.preservation_split"]
    steps = len(sparsify_info)
    rsri_total = total["solvers.rsri"] - total[BOOKKEEPING]
    ref_iters = sum(1 for s in spans
                    if s[1] == "operators.apply" and name_of.get(s[2]) == "solvers.reference_solve")
    threads = {s[3] for s in spans if s[1] == "solvers.rsri"}
    return {
        "pagerank.load_edge_list_s": self_t["pagerank.load_edge_list"],
        "pagerank.build_problem_s": self_t["pagerank.build_problem"],
        "operators.load_matrix_market_s": self_t["operators.load_matrix_market"],
        "solvers.reference_solve_s": total["solvers.reference_solve"],
        "solvers.reference_iters": ref_iters,
        "sparsify.split_s": self_t["sparsify.preservation_split"],
        "sampling.draw_s": self_t["sparsify.sparsify"],
        "sparsify.calls": steps,
        "sparsify.bypass_frac": (sum(1 for n, m in sparsify_info if n <= m) / steps
                                 if steps else 0.0),
        "sparsify.nnz_in_mean": (statistics.fmean(n for n, m in sparsify_info)
                                 if steps else 0.0),
        "sparsify.q_mean": statistics.fmean(q for q, f in split_info) if split_info else 0.0,
        "sparsify.exact_mass_frac": (statistics.fmean(f for q, f in split_info)
                                     if split_info else 0.0),
        "operators.gather_s": self_t["operators.gather"],
        "vectors.coalesce_s": self_t["vectors.coalesce"],
        "operators.column_s": self_t["operators.column"],
        "operators.column_calls": calls["operators.column"],
        "solvers.loop_self_s": self_t["solvers.rsri"],
        "solvers.step_us": rsri_total / steps * 1e6 if steps else 0.0,
        "harness.trial_overlap": total["solvers.rsri"] / solve_s,
        "harness.pool_threads": len(threads),
        "baselines.mc_surfer_s": total["baselines.mc_surfer"],
        "trace.bookkeeping_s": total[BOOKKEEPING],
        "trace.spans": len(spans),
    }


def span_table(spans: list) -> list[tuple]:
    """(name, calls, total s, self s) per span name, by descending self time."""
    calls, total, self_t = by_name(spans)
    return sorted(((n, calls[n], total[n], self_t[n]) for n in calls), key=lambda r: -r[3])


def write_spans(path, spans: list):
    """JSON lines, one span each."""
    with open(path, "w") as fh:
        for sid, name, parent, thread, start, end, info in spans:
            fh.write(json.dumps({"id": sid, "name": name, "parent": parent, "thread": thread,
                                 "start": start, "end": end, "info": info}) + "\n")
