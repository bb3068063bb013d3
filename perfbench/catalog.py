"""Metric catalogue: every metric the benchmark prints, with its unit.

``BENCHMARK.json`` at the repository root lists the same names; the
benchmark's own tests check that the two agree.
"""

from __future__ import annotations

__all__ = [
    "OPS", "READ_OPS", "WRITE_OPS", "LAYERS", "END_TO_END", "PER_LAYER", "MOVES",
]

#: Operation types, in report order.
READ_OPS = ("join", "path", "twig")
WRITE_OPS = ("insert", "remove")
OPS = READ_OPS + WRITE_OPS

#: Layers, named after the ``repro`` modules their spans wrap.
LAYERS = (
    "xml",
    "core.database",
    "core.update_log",
    "core.element_index",
    "core.readpath",
    "core.join",
    "joins",
    "core.query",
    "twig",
    "durability",
    "service",
    "net",
    "shard",
)

#: ``(name, unit)`` of every end-to-end metric (``--trace 0``).
END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    *[
        (f"{op}_{kind}_ms", "ms")
        for op in OPS
        for kind in ("p50", "tail")
    ],
    ("peak_rss_mb", "MB"),
)

#: ``(name, unit)`` of every per-layer metric (``--trace 1``).
PER_LAYER = (
    ("xml.parse_ms_per_remove", "ms"),
    ("xml.chars_parsed_per_remove", "chars"),
    ("core.update_log.ms_per_insert", "ms"),
    ("core.update_log.ms_per_remove", "ms"),
    ("core.update_log.shift_nodes_per_insert", "nodes"),
    ("core.update_log.taglist_scanned_per_op", "entries"),
    ("core.update_log.log_kb", "kB"),
    ("core.element_index.ms_per_write", "ms"),
    ("core.element_index.records_read_per_row", "records"),
    ("core.readpath.elements_hit_ratio", "ratio"),
    ("core.readpath.segments_hit_ratio", "ratio"),
    ("core.readpath.push_hit_ratio", "ratio"),
    ("core.readpath.lattices_hit_ratio", "ratio"),
    ("core.readpath.joins_hit_ratio", "ratio"),
    ("core.readpath.invalidations_per_write", "count"),
    ("core.readpath.compile_ms_per_read", "ms"),
    ("core.join.ms_per_call", "ms"),
    ("core.join.pairs_per_call", "pairs"),
    ("core.join.segments_skipped_ratio", "ratio"),
    ("joins.kernel_ms_per_call", "ms"),
    ("core.query.self_ms_per_path", "ms"),
    ("twig.self_ms_per_query", "ms"),
    ("twig.summary_hit_ratio", "ratio"),
    ("twig.plan_twig_share", "ratio"),
    ("durability.fsyncs_per_write", "count"),
    ("durability.fsync_ms_per_write", "ms"),
    ("durability.wal_bytes_per_user_byte", "ratio"),
    ("service.admission_wait_ms", "ms"),
    ("service.publishes_per_write", "count"),
    ("service.self_ms_per_write", "ms"),
    ("service.shed_ratio", "ratio"),
    ("net.server_ms_per_request", "ms"),
    ("net.outside_server_ms_per_request", "ms"),
    ("net.bytes_out_per_request", "bytes"),
    ("net.sheds", "count"),
    ("shard.fanout_per_query", "shards"),
    ("shard.scatter_cache_hit_ratio", "ratio"),
    ("shard.worker_roundtrip_ms_per_query", "ms"),
    *[(f"layer.{layer}.self_ms_per_op", "ms") for layer in LAYERS],
    ("bench.generator_lag_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.unattributed_share", "ratio"),
)

#: Written down before measuring: the end-to-end metric (and workload) each
#: group of per-layer metrics should move.  Traced runs print it with the
#: per-layer values.
MOVES = {
    "xml.": "remove_p50_ms on xmark_update (about no effect on registration_shard)",
    "core.update_log.ms_per_": "insert_p50_ms and remove_p50_ms on xmark_update",
    "core.update_log.": "insert_p50_ms on xmark_update; log_kb also peak_rss_mb",
    "core.element_index.ms_per_write": "insert_p50_ms and remove_p50_ms on xmark_update",
    "core.element_index.records_read_per_row": "path_p50_ms on xmark_read and registration_tcp",
    "core.readpath.compile_ms_per_read": "join_tail_ms on xmark_update",
    "core.readpath.": "read tails on xmark_update (ratios near 1 on xmark_read)",
    "core.join.": "join_p50_ms on xmark_update and registration_shard (not xmark_read)",
    "joins.": "join_p50_ms on xmark_update and registration_shard (not xmark_read)",
    "core.query.": "path_p50_ms on xmark_read and registration_tcp",
    "twig.": "twig_p50_ms on xmark_read",
    "durability.": "insert_p50_ms and remove_p50_ms on registration_tcp",
    "service.": "insert_tail_ms and ops_per_s on registration_tcp",
    "net.": "read p50s on registration_tcp",
    "shard.": "read tails and ops_per_s on registration_shard",
    "layer.": "the p50 of the op types whose requests cross that layer",
    "bench.": "none: checks that the open-loop generator kept its schedule",
    "trace.": "none: checks that the traced run can be trusted",
}
