"""Per-layer metrics from a traced run's spans and registry deltas.

Inputs are the span tuples of :mod:`perfbench.tracer` (one list, all
processes merged with :func:`merge_remote`), the change in the ``repro``
metrics registry over the traced phase (:func:`registry_delta`), the
completed operation counts, and a few workload-level extras.  Self time
of a span is its duration minus the durations of its child spans;
children of one request run one after another, so they never overlap.
"""

from __future__ import annotations

from perfbench.catalog import LAYERS, OPS, PER_LAYER, READ_OPS, WRITE_OPS

__all__ = ["registry_delta", "merge_remote", "layer_metrics", "TCP_OPS"]

#: TCP command → operation type.
TCP_OPS = {
    "join": "join",
    "query": "path",
    "twig": "twig",
    "insert": "insert",
    "remove_segment": "remove",
}

_COMPILE = frozenset({
    "ReadPathCache.bulk_elements",
    "ReadPathCache.warm_tag",
    "ElementIndex.tag_columns",
})
_XML = frozenset({
    "repro.xml.parser.parse",
    "repro.xml.parser.parse_fragment",
    "repro.xml.parser.is_well_formed",
})
_UPDATE_LOG_INSERT = frozenset({"UpdateLog.insert_segment"})
_UPDATE_LOG_REMOVE = frozenset({"UpdateLog.remove_span", "UpdateLog.apply_removal_counts"})
_INDEX_WRITE = frozenset({
    "ElementIndex.insert_segment",
    "ElementIndex.remove_segment",
    "ElementIndex.remove_local_range",
})
_JOIN = frozenset({"LazyJoiner.join"})
_KERNEL = frozenset({"repro.joins.stack_tree.stack_tree_desc"})
_SCATTER = frozenset({"ProcessExecutor.scatter"})

#: Offset added to the span ids of another process before merging.
REMOTE_ID_OFFSET = 1 << 40


def registry_delta(before: dict, after: dict) -> dict:
    """Per-instrument change between two ``METRICS.snapshot()`` dicts.

    Counters and gauges map to a number (gauges to their final value);
    histograms to ``{"count": .., "sum": ..}``.
    """
    out = {}
    for name, now in after.items():
        old = before.get(name, {})
        if now["type"] == "histogram":
            out[name] = {
                "count": now["count"] - old.get("count", 0),
                "sum": now["sum"] - old.get("sum", 0.0),
            }
        elif now["type"] == "gauge":
            out[name] = now["value"]
        else:
            out[name] = now["value"] - old.get("value", 0)
    return out


def merge_remote(local: list, remote: list) -> list:
    """Merge another process's spans; its request roots join local roots.

    Remote ids are shifted by :data:`REMOTE_ID_OFFSET`; a remote span
    without a parent gets the local root span of the same request id (the
    ``(session, frame request id)`` pair) as parent.  Remote requests with
    no local root (set-up, ``stats`` and the post-run answer check) are
    not measured operations and are dropped.
    """
    local_roots = {span[2]: span[0] for span in local if span[1] is None}
    merged = list(local)
    for span in remote:
        if span[2] not in local_roots:
            continue
        span_id = span[0] + REMOTE_ID_OFFSET
        if span[1] is not None:
            parent = span[1] + REMOTE_ID_OFFSET
        else:
            parent = local_roots.get(span[2])
        merged.append((span_id, parent) + tuple(span[2:]))
    return merged


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class _SpanIndex:
    """Parent links, operation types and self times of a span list."""

    def __init__(self, spans: list):
        self.spans = spans
        self.by_id = {span[0]: span for span in spans}
        child_time: dict = {}
        for span in spans:
            parent = span[1]
            if parent is not None and parent in self.by_id:
                child_time[parent] = child_time.get(parent, 0.0) + (span[6] - span[5])
        self.self_time = {
            span[0]: max(0.0, (span[6] - span[5]) - child_time.get(span[0], 0.0))
            for span in spans
        }
        self._op: dict = {}

    def op_of(self, span) -> str | None:
        """The operation type of the request ``span`` belongs to."""
        chain = []
        op = None
        node = span
        while node is not None:
            known = self._op.get(node[0])
            if known is not None:
                op = known
                break
            chain.append(node[0])
            attrs = node[8]
            if attrs and attrs.get("op"):
                op = TCP_OPS.get(attrs["op"], attrs["op"])
                break
            node = self.by_id.get(node[1])
        for span_id in chain:
            self._op[span_id] = op
        return op

    def outermost(self, names: frozenset, ops) -> list:
        """Spans named in ``names``, under ``ops``, with no such ancestor."""
        out = []
        for span in self.spans:
            if span[4] not in names or self.op_of(span) not in ops:
                continue
            node = self.by_id.get(span[1])
            nested = False
            while node is not None:
                if node[4] in names:
                    nested = True
                    break
                node = self.by_id.get(node[1])
            if not nested:
                out.append(span)
        return out

    def total_ms(self, names: frozenset, ops) -> float:
        return sum(s[6] - s[5] for s in self.outermost(names, ops)) * 1e3

    def layer_self_ms(self, layer: str, ops) -> float:
        return sum(
            self.self_time[s[0]]
            for s in self.spans
            if s[3] == layer and self.op_of(s) in ops
        ) * 1e3

    def op_counter(self, name: str, ops) -> float:
        """Sum of a per-operation counter delta over operation roots."""
        total = 0.0
        for span in self.spans:
            attrs = span[8]
            if attrs and "counters" in attrs and self.op_of(span) in ops:
                total += attrs["counters"].get(name, 0)
        return total

    def rows(self, ops) -> int:
        return sum(
            (s[8] or {}).get("rows") or 0
            for s in self.spans
            if s[3] == "bench" and self.op_of(s) in ops
        )


def _hist(delta: dict, name: str) -> tuple[int, float]:
    value = delta.get(name) or {"count": 0, "sum": 0.0}
    return value["count"], value["sum"]


def _hit_ratio(delta: dict, prefix: str) -> float:
    hits = delta.get(f"{prefix}.hits", 0)
    return _ratio(hits, hits + delta.get(f"{prefix}.misses", 0))


def layer_metrics(spans: list, delta: dict, ops: dict, extras: dict) -> dict:
    """Every per-layer metric of :data:`~perfbench.catalog.PER_LAYER`.

    ``ops`` maps each operation type to its completed count in the traced
    phase.  ``extras`` supplies ``log_kb``, ``user_bytes`` (insert
    fragment characters written), ``generator_lag_ms``,
    ``overhead_ratio`` and, for TCP, ``client_ms_per_request``.
    """
    index = _SpanIndex(spans)
    n = {op: ops.get(op, 0) for op in OPS}
    reads = sum(n[op] for op in READ_OPS)
    writes = sum(n[op] for op in WRITE_OPS)
    total = reads + writes
    read_set, write_set = set(READ_OPS), set(WRITE_OPS)

    xml_remove = index.outermost(_XML, {"remove"})
    joins = [s for s in spans if s[4] in _JOIN]
    kernels = [s for s in spans if s[4] in _KERNEL]
    skipped = delta.get("join.lazy.segments_skipped", 0)
    pushed = delta.get("join.lazy.segments_pushed", 0)
    plan_twig = delta.get("twig.plan.twig", 0)
    plans = plan_twig + delta.get("twig.plan.pairwise", 0) + delta.get("twig.plan.pruned", 0)
    fsync_count, fsync_sum = _hist(delta, "wal.fsync.seconds")
    wait_count, wait_sum = _hist(delta, "service.admission.wait_seconds")
    admitted = delta.get("service.admission.admitted", 0)
    rejected = delta.get("service.admission.rejected", 0)
    req_count, req_sum = _hist(delta, "net.request.seconds")
    server_ms = _ratio(req_sum * 1e3, req_count)
    _, fanout_sum = _hist(delta, "shard.scatter.fanout")
    client_ms = extras.get("client_ms_per_request")
    roots = [s for s in spans if s[3] == "bench"]
    root_ms = sum(s[6] - s[5] for s in roots)

    values = {
        "xml.parse_ms_per_remove": _ratio(
            sum(s[6] - s[5] for s in xml_remove) * 1e3, n["remove"]
        ),
        "xml.chars_parsed_per_remove": _ratio(
            sum(s[7] or 0 for s in xml_remove), n["remove"]
        ),
        "core.update_log.ms_per_insert": _ratio(
            index.total_ms(_UPDATE_LOG_INSERT, {"insert"}), n["insert"]
        ),
        "core.update_log.ms_per_remove": _ratio(
            index.total_ms(_UPDATE_LOG_REMOVE, {"remove"}), n["remove"]
        ),
        "core.update_log.shift_nodes_per_insert": _ratio(
            index.op_counter("ertree.shift.nodes", {"insert"}), n["insert"]
        ),
        "core.update_log.taglist_scanned_per_op": _ratio(
            index.op_counter("taglist.entries_scanned", set(OPS)), total
        ),
        "core.update_log.log_kb": extras.get("log_kb", 0.0),
        "core.element_index.ms_per_write": _ratio(
            index.total_ms(_INDEX_WRITE, write_set), writes
        ),
        "core.element_index.records_read_per_row": _ratio(
            index.op_counter("index.records_read", read_set), index.rows(read_set)
        ),
        "core.readpath.elements_hit_ratio": _hit_ratio(delta, "readpath.elements"),
        "core.readpath.segments_hit_ratio": _hit_ratio(delta, "readpath.segments"),
        "core.readpath.push_hit_ratio": _hit_ratio(delta, "readpath.push"),
        "core.readpath.lattices_hit_ratio": _hit_ratio(delta, "readpath.lattices"),
        "core.readpath.joins_hit_ratio": _hit_ratio(delta, "readpath.joins"),
        "core.readpath.invalidations_per_write": _ratio(
            delta.get("readpath.invalidations", 0), writes
        ),
        "core.readpath.compile_ms_per_read": _ratio(
            index.total_ms(_COMPILE, read_set), reads
        ),
        "core.join.ms_per_call": _ratio(
            sum(s[6] - s[5] for s in joins) * 1e3, len(joins)
        ),
        "core.join.pairs_per_call": _ratio(sum(s[7] or 0 for s in joins), len(joins)),
        "core.join.segments_skipped_ratio": _ratio(skipped, skipped + pushed),
        "joins.kernel_ms_per_call": _ratio(
            sum(s[6] - s[5] for s in kernels) * 1e3, len(kernels)
        ),
        "core.query.self_ms_per_path": _ratio(
            index.layer_self_ms("core.query", {"path"}), n["path"]
        ),
        "twig.self_ms_per_query": _ratio(
            index.layer_self_ms("twig", {"twig"}), n["twig"]
        ),
        "twig.summary_hit_ratio": _hit_ratio(delta, "twig.summary"),
        "twig.plan_twig_share": _ratio(plan_twig, plans),
        "durability.fsyncs_per_write": _ratio(delta.get("wal.fsyncs", 0), writes),
        "durability.fsync_ms_per_write": _ratio(fsync_sum * 1e3, writes),
        "durability.wal_bytes_per_user_byte": _ratio(
            delta.get("wal.bytes_written", 0), extras.get("user_bytes", 0)
        ),
        "service.admission_wait_ms": _ratio(wait_sum * 1e3, wait_count),
        "service.publishes_per_write": _ratio(
            delta.get("service.epoch.publishes", 0), writes
        ),
        "service.self_ms_per_write": _ratio(
            index.layer_self_ms("service", write_set), writes
        ),
        "service.shed_ratio": _ratio(rejected, admitted + rejected),
        "net.server_ms_per_request": server_ms,
        "net.outside_server_ms_per_request": (
            max(0.0, client_ms - server_ms) if client_ms is not None else 0.0
        ),
        "net.bytes_out_per_request": _ratio(
            delta.get("net.bytes.out", 0), delta.get("net.requests", 0)
        ),
        "net.sheds": float(delta.get("net.sheds", 0)),
        "shard.fanout_per_query": _ratio(fanout_sum, reads),
        "shard.scatter_cache_hit_ratio": _ratio(
            delta.get("shard.scatter.cache_hits", 0),
            delta.get("shard.scatter.queries", 0),
        ),
        "shard.worker_roundtrip_ms_per_query": _ratio(
            index.total_ms(_SCATTER, read_set), reads
        ),
        "bench.generator_lag_ms": extras.get("generator_lag_ms", 0.0),
        "trace.overhead_ratio": extras.get("overhead_ratio", 0.0),
        "trace.unattributed_share": _ratio(
            sum(index.self_time[s[0]] for s in roots), root_ms
        ),
    }
    for layer in LAYERS:
        values[f"layer.{layer}.self_ms_per_op"] = _ratio(
            index.layer_self_ms(layer, set(OPS)), total
        )
    missing = {name for name, _ in PER_LAYER} - set(values)
    if missing:
        raise AssertionError(f"per-layer metrics not computed: {sorted(missing)}")
    return values
