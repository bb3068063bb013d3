"""The named workloads: name → factory, with the fixed tail percentile.

The tail percentile of each workload is the highest of p99/p95/p90 that
leaves at least ten samples beyond it for the op type with the fewest
samples in a typical run (``perfbench.stats.supported_tail``); it is fixed
here, and stated in ``BENCHMARK.json``, so it never changes between
commits.  A run in which some op type has too few samples for its tail
fails its output checks.
"""

from __future__ import annotations

from perfbench.shard import ShardWorkload
from perfbench.tcp import TcpWorkload
from perfbench.xmark import XMarkWorkload

__all__ = ["WORKLOADS", "TAILS"]

#: Fixed tail percentile per workload.
TAILS = {
    "xmark_read": 90,
    "xmark_update": 90,
    "registration_tcp": 90,
    "registration_shard": 90,
}


def _xmark(name: str):
    return lambda: XMarkWorkload(name, TAILS[name])


WORKLOADS = {
    "xmark_read": _xmark("xmark_read"),
    "xmark_update": _xmark("xmark_update"),
    "registration_tcp": lambda: TcpWorkload(TAILS["registration_tcp"]),
    "registration_shard": lambda: ShardWorkload(TAILS["registration_shard"]),
}
