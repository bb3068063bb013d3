"""``registration_shard``: scatter-gather over two process-backed shards.

Set-up loads ≈800 registration-form documents into
``ShardedDatabase(2, executor="process")``.  One caller then runs a
closed loop of cycles of three reads, one append and one removal of the
oldest document, so the database keeps its size.  Each write bumps one shard's op token, so the next reads
re-scatter to that shard's worker (which first applies the forwarded
ops) while the other shard's rows come from the coordinator's scatter
cache.

The output check replays the acknowledged ops on a single
``LazyXMLDatabase`` and compares sampled read answers (taken about once a
second during the run), the final text and every read shape with it.
"""

from __future__ import annotations

import multiprocessing
import os
from collections import deque
from time import perf_counter

from perfbench.common import Op, Recorder, closed_loop, peak_rss_mb, read
from perfbench.tcp import JOINS, PATHS, TWIGS, initial_documents, op_stream

__all__ = ["ShardWorkload"]

_SHAPES = {"join": JOINS, "path": PATHS, "twig": TWIGS}
#: One cycle of the op mix: three reads, one append, one remove.  Every
#: read follows a write, so it re-scatters to at least one worker.
_CYCLE = ("join", "path", "twig", "insert", "remove")


def _read(db, op: Op):
    return read(db, _SHAPES, op)


def _single_answer(db, op: Op) -> list:
    span = db.global_span
    result = _read(db, op)
    if op.kind == "join":
        return sorted((span(a), span(d)) for a, d in result)
    return sorted(span(r) for r in result)


def _sharded_answer(db, op: Op) -> list:
    result = _read(db, op)
    if op.kind == "join":
        return sorted((a.gspan, d.gspan) for a, d in result)
    return sorted(r.gspan for r in result)


class ShardSession:
    """The sharded database plus the op record its replay check needs."""

    def __init__(self, workload: "ShardWorkload", seed: int):
        from repro.shard.database import ShardedDatabase

        self.workload = workload
        self.seed = seed
        self._cpus = os.sched_getaffinity(0)
        self.texts = initial_documents(seed, workload.documents)
        self.db = ShardedDatabase(workload.shards, executor="process")
        self.initial_sids = [self.db.insert(t).sid for t in self.texts]
        self.removable: deque = deque(self.initial_sids)
        self.log: list = []  # ("ins", sid, text) / ("rem", sid)
        self.samples: list = []  # (len(log), op, answer)
        self._next_sample = 0.0

    def prepare(self, op: Op):
        """``(call, finish)`` for :func:`~perfbench.common.closed_loop`."""
        db = self.db
        if op.kind == "insert":
            def inserted(receipt):
                self.removable.append(receipt.sid)
                self.log.append(("ins", receipt.sid, op.arg))

            return (lambda: db.insert(op.arg)), inserted
        if op.kind == "remove":
            sid = self.removable.popleft()
            return (lambda: db.remove_segment(sid)), (
                lambda outcome: self.log.append(("rem", sid))
            )
        return (lambda: _read(db, op)), None

    def sample(self, op: Op) -> None:
        if op.kind in ("insert", "remove"):
            return
        now = perf_counter()
        if now >= self._next_sample:
            self._next_sample = now + 1.0
            self.samples.append((len(self.log), op, _sharded_answer(self.db, op)))

    def warm(self) -> None:
        """Pin the processes; let the workers catch up with every read shape.

        Fixed placement: worker i on core i, the caller with worker 0 (it
        waits while the workers run).  Left to the scheduler, the three
        processes land differently in every run and move the read
        latencies by 20-40% between runs.
        """
        cpus = sorted(self._cpus)
        workers = sorted(multiprocessing.active_children(), key=lambda p: p.name)
        for i, worker in enumerate(workers):
            os.sched_setaffinity(worker.pid, {cpus[i % len(cpus)]})
        os.sched_setaffinity(0, {cpus[0]})
        for kind, shapes in _SHAPES.items():
            for i in range(len(shapes)):
                _read(self.db, Op(kind, i))

    def measure(self, seconds: float, recorder: Recorder, tracer=None) -> None:
        closed_loop(op_stream(self.seed, _CYCLE), self.prepare, seconds,
                    recorder, tracer=tracer, after=self.sample)

    def registry(self) -> dict:
        from repro.obs.metrics import METRICS

        return METRICS.snapshot()

    def extras(self) -> dict:
        return {"log_kb": self.db.stats().total_bytes / 1024.0}

    def peak_rss_mb(self) -> float:
        """Coordinator plus every shard worker process."""
        workers = multiprocessing.active_children()
        return peak_rss_mb() + sum(peak_rss_mb(p.pid) for p in workers)

    def start_trace(self, tracer) -> None:
        tracer.install()

    def stop_trace(self, tracer) -> list:
        tracer.uninstall()
        return tracer.spans

    def check(self) -> list[str]:
        """Replay the acknowledged ops on one database and compare."""
        from repro.core.database import LazyXMLDatabase

        problems = []
        single = LazyXMLDatabase()
        sids = {}
        for sid, text in zip(self.initial_sids, self.texts):
            sids[sid] = single.insert(text).sid
        samples = iter(self.samples)
        pending = next(samples, None)
        for index in range(len(self.log) + 1):
            while pending is not None and pending[0] == index:
                _, op, answer = pending
                if answer != _single_answer(single, op):
                    problems.append(
                        f"{op.kind} {_SHAPES[op.kind][op.arg]!r} after {index} "
                        "ops differs from the single-database replay"
                    )
                pending = next(samples, None)
            if index < len(self.log):
                entry = self.log[index]
                if entry[0] == "ins":
                    sids[entry[1]] = single.insert(entry[2]).sid
                else:
                    single.remove_segment(sids.pop(entry[1]))
        if self.db.text != single.text:
            problems.append("final sharded text differs from the replay")
            return problems
        for kind, shapes in _SHAPES.items():
            for i in range(len(shapes)):
                op = Op(kind, i)
                if _sharded_answer(self.db, op) != _single_answer(single, op):
                    problems.append(f"final {kind} {shapes[i]!r} differs from replay")
        try:
            self.db.check_invariants()
        except AssertionError as exc:
            problems.append(f"check_invariants: {exc}")
        return problems

    def close(self) -> None:
        os.sched_setaffinity(0, self._cpus)
        if self.db is not None:
            self.db.close()
            self.db = None


class ShardWorkload:
    """Parameters of ``registration_shard``."""

    name = "registration_shard"

    def __init__(self, tail: int):
        self.tail = tail
        self.documents = 800
        self.shards = 2

    def params(self) -> dict:
        return {
            "documents": self.documents,
            "shards": self.shards,
            "executor": "process",
            "mode": "LD",
            "callers": 1,
            "loop": "closed",
            "cycle": list(_CYCLE),
            "joins": [f"{a}//{d}" for a, d in JOINS],
            "paths": list(PATHS),
            "twigs": list(TWIGS),
        }

    def setup(self, seed: int, traced: bool = False) -> ShardSession:
        return ShardSession(self, seed)
