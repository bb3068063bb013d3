"""Outside-in tracing: wrap the public functions of ``repro`` modules in spans.

Nothing under ``src/`` knows about this module.  :meth:`Tracer.install`
replaces each function named in :data:`LAYER_TARGETS` — on its class, or
in every loaded ``repro`` module that imported it by name — with a wrapper
that records one span per call, and :meth:`Tracer.uninstall` puts the
originals back.

A span is recorded only inside a request: a benchmark operation opened
with :meth:`Tracer.root`, a TCP request (the server's ``_run_request``
coroutine, keyed by ``(session id, frame request id)``), or the
``execute_request`` call that the server runs on its worker threads for
such a request.  Set-up, maintenance and recovery work therefore never
produce spans.  The current request travels in a :class:`ContextVar`, so
concurrent asyncio tasks and worker threads keep separate span stacks.

Spans stay in memory as tuples (see :data:`SPAN_FIELDS`) and are written
out once, at the end, with :func:`dump_spans`.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
from contextvars import ContextVar
from time import perf_counter

__all__ = [
    "LAYER_TARGETS", "SPAN_FIELDS", "OP_COUNTERS", "Tracer", "dump_spans", "load_spans",
]

#: Field order of one span tuple.
SPAN_FIELDS = ("id", "parent", "req", "layer", "name", "t0", "t1", "size", "attrs")

#: Registry counters whose per-operation deltas an operation's root span
#: records (so a count can be charged to the operation type that caused it).
OP_COUNTERS = (
    "ertree.shift.nodes",
    "taglist.entries_scanned",
    "index.records_read",
)


def _text_size(args, kwargs, result):
    text = args[0] if args else kwargs.get("text", "")
    return len(text) if isinstance(text, str) else None


def _result_size(args, kwargs, result):
    return len(result) if result is not None else None


#: ``(layer, module, qualified name, size extractor)`` per wrapped function.
#: Layers are named after the module they live in.
LAYER_TARGETS = (
    ("xml", "repro.xml.parser", "parse", _text_size),
    ("xml", "repro.xml.parser", "parse_fragment", _text_size),
    ("xml", "repro.xml.parser", "is_well_formed", _text_size),
    ("core.database", "repro.core.database", "LazyXMLDatabase.insert", None),
    ("core.database", "repro.core.database", "LazyXMLDatabase.remove", None),
    ("core.database", "repro.core.database", "LazyXMLDatabase.structural_join", _result_size),
    ("core.database", "repro.core.database", "LazyXMLDatabase.path_query", _result_size),
    ("core.database", "repro.core.database", "LazyXMLDatabase.twig_query", _result_size),
    ("core.update_log", "repro.core.update_log", "UpdateLog.insert_segment", None),
    ("core.update_log", "repro.core.update_log", "UpdateLog.remove_span", None),
    ("core.update_log", "repro.core.update_log", "UpdateLog.apply_removal_counts", None),
    ("core.element_index", "repro.core.element_index", "ElementIndex.insert_segment", None),
    ("core.element_index", "repro.core.element_index", "ElementIndex.remove_segment", None),
    ("core.element_index", "repro.core.element_index", "ElementIndex.remove_local_range", None),
    ("core.element_index", "repro.core.element_index", "ElementIndex.tag_columns", None),
    ("core.readpath", "repro.core.readpath", "ReadPathCache.bulk_elements", None),
    ("core.readpath", "repro.core.readpath", "ReadPathCache.warm_tag", None),
    ("core.join", "repro.core.join", "LazyJoiner.join", _result_size),
    ("joins", "repro.joins.stack_tree", "stack_tree_desc", _result_size),
    ("core.query", "repro.core.query", "evaluate_path", _result_size),
    ("twig", "repro.twig.evaluate", "evaluate_twig", _result_size),
    ("twig", "repro.twig.plan", "plan_twig", None),
    ("durability", "repro.durability.database", "DurableDatabase._commit", None),
    ("durability", "repro.durability.wal", "Journal.append", None),
    ("service", "repro.service.server", "DatabaseService.read", None),
    ("service", "repro.service.server", "DatabaseService.join", None),
    ("service", "repro.service.server", "DatabaseService.insert", None),
    ("service", "repro.service.server", "DatabaseService.remove_segment", None),
    ("service", "repro.service.snapshot", "EpochManager.publish", None),
    ("net", "repro.net.server", "TcpServer._run_request", None),
    ("net", "repro.net.protocol", "execute_request", None),
    ("net", "repro.net.protocol", "encode_payload", None),
    ("net", "repro.net.protocol", "decode_payload", None),
    ("shard", "repro.shard.database", "ShardedDatabase.insert", None),
    ("shard", "repro.shard.database", "ShardedDatabase.remove_segment", None),
    ("shard", "repro.shard.database", "ShardedDatabase.structural_join", _result_size),
    ("shard", "repro.shard.database", "ShardedDatabase.path_query", _result_size),
    ("shard", "repro.shard.database", "ShardedDatabase.twig_query", _result_size),
    ("shard", "repro.shard.executor", "ProcessExecutor.scatter", None),
)

#: The wrapped function that names a TCP request's worker-thread entry.
_REQUEST_ENTRY = ("repro.net.protocol", "execute_request")

_CURRENT: ContextVar = ContextVar("perfbench_current_span", default=None)


def _counter_values(names) -> dict:
    """Current totals of registry counters (a histogram's running sum)."""
    from repro.obs.metrics import METRICS

    out = {}
    for name in names:
        instrument = METRICS.get(name)
        if instrument is None:
            out[name] = 0
        else:
            out[name] = getattr(instrument, "total", None) or getattr(
                instrument, "value", 0
            )
    return out


class _Root:
    """Context manager for one benchmark operation's root span."""

    __slots__ = ("_tracer", "op", "req", "rows", "_id", "_token", "_t0", "_before")

    def __init__(self, tracer: "Tracer", op: str, req):
        self._tracer = tracer
        self.op = op
        self.req = req
        self.rows = None

    def __enter__(self) -> "_Root":
        self._id = next(self._tracer._ids)
        self._before = _counter_values(OP_COUNTERS)
        self._token = _CURRENT.set((self.req, self._id))
        self._t0 = perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        t1 = perf_counter()
        _CURRENT.reset(self._token)
        after = _counter_values(OP_COUNTERS)
        attrs = {
            "op": self.op,
            "rows": self.rows,
            "failed": exc_type is not None,
            "counters": {k: after[k] - self._before[k] for k in after},
        }
        self._tracer.spans.append(
            (self._id, None, self.req, "bench", f"bench.{self.op}",
             self._t0, t1, None, attrs)
        )


class Tracer:
    """Span recorder plus the patching that feeds it."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._patched: list[tuple] = []
        self._roots_by_req: dict = {}

    # ------------------------------------------------------------------
    # spans

    def root(self, op: str, req) -> _Root:
        """Open the root span of one benchmark operation."""
        return _Root(self, op, req)

    def record(self, layer: str, name: str, t0: float, t1: float, req,
               attrs: dict | None = None) -> int:
        """Record an already-timed root span (the asynchronous TCP client)."""
        span_id = next(self._ids)
        self.spans.append((span_id, None, req, layer, name, t0, t1, None, attrs))
        return span_id

    # ------------------------------------------------------------------
    # wrappers

    def _wrap(self, fn, layer: str, name: str, size, entry: bool):
        spans = self.spans
        ids = self._ids
        roots = self._roots_by_req

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            current = _CURRENT.get()
            attrs = None
            if current is None:
                if not entry:
                    return fn(*args, **kwargs)
                # execute_request(service, session, request, ctx) on a
                # server worker thread: the frame request id is the key
                # under which the session registered this context.
                session, request, ctx = args[1], args[2], args[3]
                rid = next(
                    (k for k, v in list(session.inflight.items()) if v is ctx),
                    None,
                )
                req = (session.session_id, rid)
                current = (req, roots.get(req))
                attrs = {"op": request.get("cmd")}
                before = _counter_values(OP_COUNTERS)
            req, parent = current
            span_id = next(ids)
            token = _CURRENT.set((req, span_id))
            t0 = perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = perf_counter()
                _CURRENT.reset(token)
                if attrs is not None:
                    after = _counter_values(OP_COUNTERS)
                    attrs["counters"] = {k: after[k] - before[k] for k in after}
                spans.append((
                    span_id, parent, req, layer, name, t0, t1,
                    size(args, kwargs, result) if size is not None else None,
                    attrs,
                ))

        return wrapper

    def _wrap_request_root(self, fn, layer: str, name: str):
        """``TcpServer._run_request(self, conn, frame)``: a request's root."""
        spans = self.spans
        ids = self._ids
        roots = self._roots_by_req

        @functools.wraps(fn)
        async def wrapper(server, conn, frame, *args, **kwargs):
            req = (conn.session.session_id, frame.request_id)
            span_id = next(ids)
            roots[req] = span_id
            token = _CURRENT.set((req, span_id))
            t0 = perf_counter()
            try:
                return await fn(server, conn, frame, *args, **kwargs)
            finally:
                t1 = perf_counter()
                _CURRENT.reset(token)
                roots.pop(req, None)
                spans.append((span_id, None, req, layer, name, t0, t1, None, None))

        return wrapper

    # ------------------------------------------------------------------
    # patching

    def install(self, targets=LAYER_TARGETS) -> None:
        """Wrap every target function; idempotent only via :meth:`uninstall`."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        for layer, module_name, qualname, size in targets:
            module = importlib.import_module(module_name)
            owner_name, _, attr = qualname.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                original = owner.__dict__[attr]
                if qualname == "TcpServer._run_request":
                    wrapper = self._wrap_request_root(original, layer, qualname)
                else:
                    wrapper = self._wrap(original, layer, qualname, size, False)
                self._patch(owner, attr, wrapper)
                continue
            original = getattr(module, attr)
            entry = (module_name, attr) == _REQUEST_ENTRY
            wrapper = self._wrap(original, layer, f"{module_name}.{attr}", size, entry)
            # Patch the home module and every module that imported the
            # function by name (``from repro.xml.parser import parse``).
            for loaded in list(sys.modules.values()):
                if getattr(loaded, "__name__", "").startswith("repro") and (
                    vars(loaded).get(attr) is original
                ):
                    self._patch(loaded, attr, wrapper)

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        """Restore every patched function."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


def dump_spans(spans: list, path) -> None:
    """Write spans as JSON (lists in :data:`SPAN_FIELDS` order)."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump([list(span) for span in spans], handle)


def load_spans(path) -> list[tuple]:
    """Read spans written by :meth:`Tracer.dump` (``req`` back to a tuple)."""
    with open(path, encoding="utf-8") as handle:
        raw = json.load(handle)
    spans = []
    for row in raw:
        req = tuple(row[2]) if isinstance(row[2], list) else row[2]
        spans.append(tuple(row[:2]) + (req,) + tuple(row[3:]))
    return spans
