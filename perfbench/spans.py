"""Per-op spans recorded around the program's public layer functions.

The benchmark instruments the program from the outside: :func:`install`
replaces each layer's public function, at the name its caller looks it
up by, with a wrapper that records a span (name, start, end, parent,
op id).  Spans stay in memory and are written out once, when the run
ends.  A layer's *self time* is its span's duration minus the part of
that interval its child spans cover; the op's own self time is the
share no layer accounts for ("unattributed").

Only traced runs install the wrappers; end-to-end numbers always come
from untraced runs.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

#: Span names of the layers, in the order the self-time table lists them.
LAYER_SPANS = (
    "api.spec.parse",
    "api.session.model",
    "api.session.profile",
    "api.session.kernel",
    "api.session.search",
    "api.session.sweep",
    "core.validity",
    "core.projection",
    "search.engine",
    "search.expansion",
    "search.pruning",
    "search.ranking",
    "cache.load",
    "cache.get",
    "cache.put",
    "cache.save",
    "sweep.engine_for",
    "dist.connect",
    "dist.run",
    "api.render",
)


class Recorder:
    """In-memory span log; one instance per traced process."""

    def __init__(self) -> None:
        # Each span: [name, start, end, parent_id, op_id, span_id].
        self.spans: List[list] = []
        self.counts: Dict[Tuple[int, str], float] = defaultdict(float)
        self.op: Optional[int] = None
        self._ids = itertools.count()
        self._tls = threading.local()
        self._undo: List[Callable[[], None]] = []

    # ------------------------------------------------------------- recording
    def _stack(self) -> list:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def enter(self, name: str) -> list:
        stack = self._stack()
        rec = [name, time.perf_counter(), 0.0,
               stack[-1][5] if stack else None, self.op, next(self._ids)]
        stack.append(rec)
        return rec

    def exit(self, rec: list) -> None:
        rec[2] = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is rec:
            stack.pop()
        self.spans.append(rec)

    def span(self, name: str) -> "_Span":
        return _Span(self, name)

    def count(self, key: str, amount: float = 1.0) -> None:
        self.counts[(self.op, key)] += amount

    # ------------------------------------------------------------- wrapping
    def wrap_call(self, owner, attr: str, name: str,
                  after: Optional[Callable] = None) -> None:
        """Wrap ``owner.attr`` (function, method, classmethod or
        staticmethod); ``after(result, args, kwargs)`` counts work."""
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(
            owner, attr)
        kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) \
            else None
        fn = raw.__func__ if kind is not None else raw
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = rec.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.exit(span)
            if after is not None:
                after(result, args, kwargs)
            return result

        self._patch(owner, attr, raw, kind(wrapper) if kind else wrapper)

    def wrap_property(self, owner: type, attr: str, name: str) -> None:
        raw = owner.__dict__[attr]
        fget = raw.fget
        rec = self

        @functools.wraps(fget)
        def getter(obj):
            span = rec.enter(name)
            try:
                return fget(obj)
            finally:
                rec.exit(span)

        self._patch(owner, attr, raw, property(getter, raw.fset, raw.fdel))

    def wrap_generator(self, owner, attr: str, name: str,
                       per_item: Optional[Callable] = None) -> None:
        """Wrap a generator function: one span per ``next()`` call, so
        the consumer's loop body is not charged to the layer."""
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(
            owner, attr)
        rec = self

        @functools.wraps(raw)
        def wrapper(*args, **kwargs):
            inner = raw(*args, **kwargs)
            while True:
                span = rec.enter(name)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    rec.exit(span)
                if per_item is not None:
                    per_item(item)
                yield item

        self._patch(owner, attr, raw, wrapper)

    def wrap_eager_iterator(self, owner, attr: str, name: str,
                            counter: str) -> None:
        """Wrap a lazily-expanding iterator method: expand it inside the
        span and hand back an iterator over the materialized list (the
        caller lists it straight away, so nothing changes for it)."""
        raw = owner.__dict__[attr]
        rec = self

        @functools.wraps(raw)
        def wrapper(*args, **kwargs):
            span = rec.enter(name)
            try:
                items = list(raw(*args, **kwargs))
            finally:
                rec.exit(span)
            rec.count(counter, len(items))
            return iter(items)

        self._patch(owner, attr, raw, wrapper)

    def _patch(self, owner, attr: str, raw, replacement) -> None:
        setattr(owner, attr, replacement)
        self._undo.append(lambda: setattr(owner, attr, raw))

    def restore(self) -> None:
        while self._undo:
            self._undo.pop()()

    # ------------------------------------------------------------ reporting
    def write(self, path: str) -> None:
        """Write every span as one JSON line (at the end of the run)."""
        with open(path, "w") as fh:
            for name, start, end, parent, op, sid in self.spans:
                fh.write(json.dumps({
                    "name": name, "start": start, "end": end,
                    "parent": parent, "op": op, "id": sid}) + "\n")

    def self_times(self) -> Dict[int, Dict[str, float]]:
        """``{op: {span name: self seconds}}``; the op's root span is
        named ``op`` and its self time is the unattributed remainder."""
        children: Dict[int, List[list]] = defaultdict(list)
        for span in self.spans:
            if span[3] is not None:
                children[span[3]].append(span)
        out: Dict[int, Dict[str, float]] = defaultdict(
            lambda: defaultdict(float))
        for name, start, end, _, op, sid in self.spans:
            covered = _union_length(
                [(max(c[1], start), min(c[2], end))
                 for c in children.get(sid, ())])
            out[op][name] += (end - start) - covered
        return out

    def per_op(self, n_ops: int) -> Dict[str, dict]:
        """JSON-ready summary of ops ``0..n_ops-1``: self time per span
        name, counts, wall time, and the inclusive time of engine runs
        and of sweep engine builds."""
        self_times = self.self_times()
        wall = self.inclusive("op")
        engine = self.inclusive("search.engine")
        build = self.inclusive("sweep.engine_for")
        counts: Dict[int, Dict[str, float]] = defaultdict(dict)
        for (op, key), value in self.counts.items():
            counts[op][key] = value
        return {
            str(i): {
                "self": dict(self_times.get(i, {})),
                "counts": dict(counts.get(i, {})),
                "wall_s": wall.get(i, 0.0),
                "engine_s": engine.get(i, 0.0),
                "engine_for_s": build.get(i, 0.0),
            }
            for i in range(n_ops)
        }

    def inclusive(self, name: str) -> Dict[int, float]:
        """``{op: summed duration of outermost spans called name}``."""
        by_id = {span[5]: span for span in self.spans}
        out: Dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span[0] != name:
                continue
            parent = by_id.get(span[3])
            nested = False
            while parent is not None:
                if parent[0] == name:
                    nested = True
                    break
                parent = by_id.get(parent[3])
            if not nested:
                out[span[4]] += span[2] - span[1]
        return out


class _Span:
    __slots__ = ("_rec", "_name", "_span")

    def __init__(self, rec: Recorder, name: str) -> None:
        self._rec = rec
        self._name = name

    def __enter__(self):
        self._span = self._rec.enter(self._name)
        return self._span

    def __exit__(self, *exc) -> bool:
        self._rec.exit(self._span)
        return False


def _union_length(intervals) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(i for i in intervals if i[1] > i[0]):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


# ---------------------------------------------------------------------------
# The layer map: which public functions are wrapped, under which names.
# ---------------------------------------------------------------------------

class CommTally:
    """Sums ``CommModel.stats`` over the instances made since the last
    :meth:`take` (each op builds its own session, hence its own
    models)."""

    def __init__(self) -> None:
        self.models: list = []

    def take(self) -> Dict[str, float]:
        out: Dict[str, float] = defaultdict(float)
        for model in self.models:
            for key, value in model.stats.items():
                out[key] += value
        self.models = []
        return out


def install(rec: Recorder) -> CommTally:
    """Wrap the program's layer functions; returns the comm tally."""
    from repro.api.session import Session
    from repro.api.spec import ScenarioSpec
    from repro.collectives.selector import CommModel
    from repro.core import strategies
    from repro.core.analytical import AnalyticalModel
    from repro.core.oracle import ParaDL
    from repro.dist.coordinator import RemoteCoordinator
    from repro.search import engine as search_engine
    from repro.search.cache import ProjectionCache
    from repro.search.engine import SearchEngine
    from repro.search.space import SearchSpace
    from repro.search.sweep import SweepRunner

    rec.wrap_call(ScenarioSpec, "from_dict", "api.spec.parse")
    for attr in ("model", "profile", "kernel"):
        rec.wrap_property(Session, attr, f"api.session.{attr}")
    # Engines reach the kernel through the oracle, not the session: the
    # compile itself happens at this property's first touch.
    rec.wrap_property(AnalyticalModel, "kernel", "api.session.kernel")
    rec.wrap_call(Session, "search", "api.session.search")
    rec.wrap_call(Session, "sweep", "api.session.sweep")

    seen = set()
    pending = [strategies.Strategy]
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if "check" in cls.__dict__ and cls not in seen:
            seen.add(cls)
            rec.wrap_call(cls, "check", "core.validity")

    def count_one(result, args, kwargs):
        rec.count("core.projections")

    def count_batch(result, args, kwargs):
        rec.count("core.projections", len(result))
        rec.count("core.vectorized", len(result))

    rec.wrap_call(ParaDL, "project", "core.projection", after=count_one)
    rec.wrap_call(ParaDL, "project_batch", "core.projection",
                  after=count_batch)

    tally = CommTally()
    comm_init = CommModel.__dict__["__init__"]

    @functools.wraps(comm_init)
    def comm_init_tracked(self, *args, **kwargs):
        comm_init(self, *args, **kwargs)
        tally.models.append(self)

    rec._patch(CommModel, "__init__", comm_init, comm_init_tracked)

    rec.wrap_call(SearchEngine, "search", "search.engine",
                  after=lambda *_: rec.count("search.engines"))
    rec.wrap_eager_iterator(SearchSpace, "candidates", "search.expansion",
                            "search.candidates")

    def count_pruned(result, args, kwargs):
        rec.count("search.pruned", sum(1 for r in result if r is not None))
        rec.count("search.pruning_inputs", len(result))

    rec.wrap_call(search_engine, "apply_pruners_batch", "search.pruning",
                  after=count_pruned)
    rec.wrap_call(search_engine, "pareto_frontier", "search.ranking")
    rec.wrap_call(search_engine, "scalarized_best", "search.ranking")

    def count_get(result, args, kwargs):
        rec.count("cache.hits" if result is not None else "cache.misses")

    def count_save(result, args, kwargs):
        if result:
            rec.count("cache.file_bytes", os.path.getsize(result))

    rec.wrap_call(ProjectionCache, "_load", "cache.load")
    rec.wrap_call(ProjectionCache, "get", "cache.get", after=count_get)
    rec.wrap_call(ProjectionCache, "put", "cache.put")
    rec.wrap_call(ProjectionCache, "put_many", "cache.put")
    rec.wrap_call(ProjectionCache, "save", "cache.save", after=count_save)

    rec.wrap_call(SweepRunner, "engine_for", "sweep.engine_for",
                  after=lambda *_: rec.count("sweep.cells"))

    rec.wrap_call(RemoteCoordinator, "connect", "dist.connect")

    def count_remote(fields):
        rec.count("dist.remote_evaluations",
                  len(fields.get("evaluations") or ()))

    rec.wrap_generator(RemoteCoordinator, "run", "dist.run",
                       per_item=count_remote)
    return tally
