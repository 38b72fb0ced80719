"""Tracing harness: wraps library functions where their callers look them up.

`from .quantale import q_tensor` binds a separate name in each importing
module, so a function is wrapped once per consuming module (the table
below), never in the module that only defines it.  Entry points record one
span per call; leaf functions, called millions of times, record aggregated
call counts and time per enclosing span kind.  Every wrapped frame charges
its duration to its parent, so a layer's self time is the time spent in its
frames minus the time spent in wrapped children.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict

LAYERS = ("frontend", "narrow", "unify", "term", "quantale", "rewrite", "oracle")

# name -> (defining module, modules where callers look the name up)
SPANS = {
    "parse": ("frontend", ("frontend",)),
    "solve": ("narrow", ("narrow",)),
    "verify_solution": ("oracle", ("oracle",)),
    "best_conversion_degree": ("oracle", ("oracle",)),
    "joinable": ("rewrite", ("rewrite",)),
    "rewrite_search": ("rewrite", ("rewrite",)),
}
LEAVES = {
    "mgu": ("unify", ("narrow",)),
    "unifiable": ("unify", ("narrow",)),
    "match": ("unify", ("rewrite",)),
    "fresh_variant": ("term", ("narrow", "rewrite")),
    "replace_at": ("term", ("narrow", "rewrite", "oracle")),
    "q_tensor": ("quantale", ("narrow", "rewrite", "oracle")),
    "cbe_apply": ("quantale", ("narrow", "rewrite", "oracle")),
    "cbe_compose": ("quantale", ("narrow", "oracle", "term")),
    # called from rewrite_search; it calls match, fresh_variant, replace_at
    # and cbe_apply itself, which the frame stack subtracts
    "rewrite_steps": ("rewrite", ("rewrite",)),
}


class TracingError(RuntimeError):
    pass


def _module(layer: str):
    return importlib.import_module(f"qnarrow.{layer}")


def check_lookup_sites() -> None:
    """Fail unless every wrapped name exists where the table says it is
    looked up, and no measured module looks it up anywhere else."""
    problems = []
    for name, (home, sites) in {**SPANS, **LEAVES}.items():
        original = getattr(_module(home), name, None)
        if original is None:
            problems.append(f"qnarrow.{home}.{name} is gone")
            continue
        for layer in sites:
            if getattr(_module(layer), name, None) is not original:
                problems.append(f"qnarrow.{layer} no longer looks up {home}.{name}")
        for layer in LAYERS:
            if layer != home and layer not in sites and \
                    getattr(_module(layer), name, None) is original:
                problems.append(f"qnarrow.{layer} looks up {home}.{name} unwrapped")
    if problems:
        raise TracingError("tracing table is stale: " + "; ".join(problems))


class _Frame:
    __slots__ = ("kind", "span_id", "child")

    def __init__(self, kind, span_id):
        self.kind = kind
        self.span_id = span_id
        self.child = 0.0


class Tracer:
    """Installs the wrappers for the lifetime of a `with` block."""

    def __init__(self):
        self.spans: list[tuple] = []  # (request, span, parent, kind, start, end, self)
        self.leaf_calls: dict[tuple[str, str], int] = defaultdict(int)
        self.leaf_time: dict[tuple[str, str], float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.observed: dict[str, float] = defaultdict(float)
        self.cache_start: dict[str, tuple[int, int]] = {}
        self.cache_ratio: dict[str, float] = {}
        self._stack: list[_Frame] = []
        self._next_span = 0
        self._request = 0
        self._saved: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def __enter__(self):
        check_lookup_sites()
        for name, (home, sites) in SPANS.items():
            self._install(name, home, sites, self._span_wrapper)
        for name, (home, sites) in LEAVES.items():
            self._install(name, home, sites, self._leaf_wrapper)
        quantale = _module("quantale")
        for name in ("cbe_compose", "cbe_normalize"):
            info = getattr(quantale, name).cache_info()
            self.cache_start[name] = (info.hits, info.misses)
        return self

    def __exit__(self, *exc):
        quantale = _module("quantale")
        for name, (hits0, misses0) in self.cache_start.items():
            info = getattr(quantale, name).cache_info()
            hits, misses = info.hits - hits0, info.misses - misses0
            self.cache_ratio[name] = hits / (hits + misses) if hits + misses else 0.0
        for module, name, original in reversed(self._saved):
            setattr(module, name, original)
        self._saved.clear()
        return False

    def _install(self, name, home, sites, make):
        original = getattr(_module(home), name)
        wrapped = make(f"{home}.{name}", home, original)
        for layer in sites:
            module = _module(layer)
            self._saved.append((module, name, getattr(module, name)))
            setattr(module, name, wrapped)

    # -- requests and frames -----------------------------------------------

    def request(self, fn, *args):
        """Run one request under a root span of kind `request`."""
        self._request += 1
        return self._span_wrapper("request", "request", fn)(*args)

    def _span_wrapper(self, kind, layer, fn):
        stack = self._stack
        perf = time.perf_counter
        observe = _OBSERVERS.get(kind)

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            self._next_span += 1
            frame = _Frame(kind, self._next_span)
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                elapsed = end - start
                if parent is not None:
                    parent.child += elapsed
                own = elapsed - frame.child
                self.self_time[layer] += own
                self.spans.append((self._request, frame.span_id,
                                   parent.span_id if parent else None,
                                   kind, start, end, own))
            if observe is not None:
                observe(self.observed, args, result)
            return result

        return wrapper

    def _leaf_wrapper(self, kind, layer, fn):
        stack = self._stack
        perf = time.perf_counter
        calls = self.leaf_calls
        spent = self.leaf_time
        self_time = self.self_time
        observe = _OBSERVERS.get(kind)

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = _Frame(parent.kind, None)
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf() - start
                stack.pop()
                parent.child += elapsed
                key = (kind, parent.kind)
                calls[key] += 1
                spent[key] += elapsed
                self_time[layer] += elapsed - frame.child
            if observe is not None:
                observe(self.observed, args, result)
            return result

        return wrapper

    # -- summaries ---------------------------------------------------------

    def span_count(self, kind: str) -> int:
        return sum(1 for span in self.spans if span[3] == kind)

    def span_time(self, kind: str) -> float:
        return sum(span[5] - span[4] for span in self.spans if span[3] == kind)

    def leaf_total(self, kind: str) -> tuple[int, float]:
        calls = sum(n for (k, _), n in self.leaf_calls.items() if k == kind)
        spent = sum(t for (k, _), t in self.leaf_time.items() if k == kind)
        return calls, spent


def _observe_parse(acc, args, result):
    acc["parse_bytes"] += len(args[0].encode("utf-8"))


def _observe_solve(acc, args, result):
    acc["configs_expanded"] += result.configs_expanded
    acc["solutions"] += len(result.solutions)


def _observe_mgu(acc, args, result):
    acc["mgu_unified"] += not hasattr(result, "reason")


def _observe_conversion(acc, args, result):
    acc["conversion_optimal"] += result.optimal
    acc["conversion_capped"] += result.capped


def _observe_search(acc, args, result):
    acc["terms_reached"] += len(result)


_OBSERVERS = {
    "frontend.parse": _observe_parse,
    "narrow.solve": _observe_solve,
    "unify.mgu": _observe_mgu,
    "oracle.best_conversion_degree": _observe_conversion,
    "rewrite.rewrite_search": _observe_search,
}
