"""Thread-aware span tracer for the rpmelab package, installed from outside.

``Tracer.install`` replaces the public functions of the traced modules with
timing wrappers, in every ``rpmelab`` module namespace that binds them (``cli``
binds ``simulate_path`` through ``from .simulate import``, so patching
``simulate`` alone would miss that call site).

Each thread keeps its own stack.  A span records its thread and the span that
caused it; work submitted to a ``ThreadPoolExecutor`` inherits the submitting
thread's current span as its parent, so chunks run by worker threads are
attributed to the ensemble call that spawned them.  Self time is a span's
duration minus the time of its direct children on the same thread.

The per-step functions in ``HOT`` run tens of thousands of times per run; they
get no span each.  Their calls, inclusive time, self time and node count are
added to counters keyed by (parent span, function), which keeps the tracing
overhead small enough to leave the proportions intact.
"""
from __future__ import annotations

import concurrent.futures
import functools
import inspect
import itertools
import os
import sys
import threading
import time

TRACED_MODULES = ("cli", "simulate", "grid", "malliavin", "analysis", "pathfile")
HOT = ("simulate.step", "simulate.apply_bc", "grid.laplacian_core", "malliavin.step_malliavin")


# node count of one call: every node of the (batched) state array ``c``
NODE_COUNTS = {
    "simulate.step": lambda a, k: (a[0] if a else k["c"]).size,
    "malliavin.step_malliavin": lambda a, k: (a[1] if len(a) > 1 else k["c"]).size,
}
# bytes produced by one call, measured after it returns
BYTE_COUNTS = {
    "pathfile.write_record": lambda a, k: os.path.getsize(a[0] if a else k["path"]),
}


class _ThreadState:
    __slots__ = ("stack", "span", "table")

    def __init__(self):
        # frames are lists whose item 0 accumulates the time of direct children
        self.stack: list[list] = []
        self.span = 0  # id of the innermost open span (0: none)
        self.table: dict[tuple[int, str], list] = {}


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._tables: list[tuple[int, dict]] = []
        self.spans: list[dict] = []

    def _state(self) -> _ThreadState:
        try:
            return self._local.st
        except AttributeError:
            st = self._local.st = _ThreadState()
            with self._lock:
                self._tables.append((threading.get_ident(), st.table))
            return st

    # -- wrappers ---------------------------------------------------------

    def _span_wrapper(self, name: str, fn):
        perf = time.perf_counter
        spans = self.spans
        ids = self._ids
        measure = BYTE_COUNTS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = self._state()
            frame = [0.0]
            sid = next(ids)
            parent = st.span
            st.span = sid
            st.stack.append(frame)
            done = False
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
                done = True
                return result
            finally:
                t1 = perf()
                st.stack.pop()
                st.span = parent
                dur = t1 - t0
                if st.stack:
                    st.stack[-1][0] += dur
                rec = {
                    "id": sid,
                    "name": name,
                    "thread": threading.get_ident(),
                    "parent": parent,
                    "start": t0,
                    "end": t1,
                    "self_s": dur - frame[0],
                }
                if measure is not None and done:
                    rec["bytes"] = measure(args, kwargs)
                spans.append(rec)

        return wrapper

    def _hot_wrapper(self, name: str, fn):
        perf = time.perf_counter
        local = self._local
        new_state = self._state
        count = NODE_COUNTS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                st = local.st
            except AttributeError:
                st = new_state()
            stack = st.stack
            frame = [0.0]
            stack.append(frame)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dur
                key = (st.span, name)
                c = st.table.get(key)
                if c is None:
                    c = st.table[key] = [0, 0.0, 0.0, 0]
                c[0] += 1
                c[1] += dur
                c[2] += dur - frame[0]
                if count is not None:
                    c[3] += count(args, kwargs)

        return wrapper

    def _bind(self, fn):
        """Run ``fn`` in another thread as a child of the current span."""
        parent = self._state().span

        def run(*args, **kwargs):
            st = self._state()
            saved = st.span
            st.span = parent
            try:
                return fn(*args, **kwargs)
            finally:
                st.span = saved

        return run

    # -- installation -----------------------------------------------------

    def install(self, package) -> None:
        """Wrap the public functions of the traced submodules of ``package``
        (already imported) and rebind them in every submodule namespace."""
        prefix = package.__name__
        replaced: dict[int, object] = {}
        names = []
        for short in TRACED_MODULES:
            mod = sys.modules[f"{prefix}.{short}"]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                name = f"{short}.{attr}"
                wrap = self._hot_wrapper if name in HOT else self._span_wrapper
                replaced[id(obj)] = wrap(name, obj)
                names.append(name)
        missing = [n for n in HOT if n not in names]
        if missing:
            raise RuntimeError(f"hot functions not found: {missing}")
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == prefix or mod_name.startswith(prefix + ".")):
                continue
            for attr, obj in list(vars(mod).items()):
                new = replaced.get(id(obj))
                if new is not None:
                    setattr(mod, attr, new)

        orig_submit = concurrent.futures.ThreadPoolExecutor.submit
        tracer = self

        def submit(pool, fn, /, *args, **kwargs):
            return orig_submit(pool, tracer._bind(fn), *args, **kwargs)

        concurrent.futures.ThreadPoolExecutor.submit = submit

    # -- results ----------------------------------------------------------

    def counters(self) -> list[dict]:
        with self._lock:
            tables = list(self._tables)
        out = []
        for thread, table in tables:
            for (span, name), (calls, total, self_s, nodes) in table.items():
                out.append(
                    {
                        "span": span,
                        "name": name,
                        "thread": thread,
                        "calls": calls,
                        "total_s": total,
                        "self_s": self_s,
                        "nodes": nodes,
                    }
                )
        return out

    def summary(self) -> dict[str, dict]:
        """Per-function totals over spans and hot counters, plus the
        ensemble parallelism (step busy time summed over threads divided by
        the ensemble wall time)."""
        out: dict[str, dict] = {}

        def entry(name):
            return out.setdefault(
                name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "nodes": 0, "bytes": 0}
            )

        span_name = {}
        for s in self.spans:
            span_name[s["id"]] = s["name"]
            e = entry(s["name"])
            e["calls"] += 1
            e["total_s"] += s["end"] - s["start"]
            e["self_s"] += s["self_s"]
            e["bytes"] += s.get("bytes", 0)
        ens_busy = 0.0
        for c in self.counters():
            e = entry(c["name"])
            e["calls"] += c["calls"]
            e["total_s"] += c["total_s"]
            e["self_s"] += c["self_s"]
            e["nodes"] += c["nodes"]
            if c["name"] == "simulate.step" and span_name.get(c["span"]) == "simulate.simulate_ensemble":
                ens_busy += c["total_s"]
        ens = out.get("simulate.simulate_ensemble")
        if ens is not None and ens["total_s"] > 0.0:
            ens["parallelism"] = ens_busy / ens["total_s"]
        return out
