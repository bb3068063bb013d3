"""Shared pieces of the workloads: op records, the closed loop, provenance."""

from __future__ import annotations

import os
import platform
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from perfbench.catalog import OPS, READ_OPS

__all__ = [
    "ROOT",
    "WORK",
    "Op",
    "Recorder",
    "closed_loop",
    "read",
    "peak_rss_mb",
    "provenance",
]

#: The checkout the benchmark runs from (the parent of ``perfbench/``).
ROOT = Path(__file__).resolve().parent.parent
#: Scratch space for durable directories, server logs and result files.
WORK = ROOT / ".bench_build" / "perfbench"


@dataclass(frozen=True)
class Op:
    """One operation of a workload's op stream.

    ``kind`` is an operation type of :data:`~perfbench.catalog.OPS`;
    ``arg`` is the seeded choice the workload resolves at execution time
    (a query shape index, a target person, a fragment).
    """

    kind: str
    arg: object = None


@dataclass
class Recorder:
    """Latency samples and failures per operation type."""

    latencies: dict = field(default_factory=lambda: {op: [] for op in OPS})
    attempted: Counter = field(default_factory=Counter)
    failures: Counter = field(default_factory=Counter)
    elapsed: float = 0.0
    #: Completed operations timed outside :attr:`elapsed` (see :meth:`absorb`).
    untimed: int = 0

    def ok(self, kind: str, seconds: float) -> None:
        self.latencies[kind].append(seconds)

    def fail(self, kind: str, exc: BaseException) -> None:
        self.failures[(kind, type(exc).__name__)] += 1

    @property
    def completed(self) -> int:
        return sum(len(v) for v in self.latencies.values())

    @property
    def ops_per_s(self) -> float:
        """Operations completed per second of :attr:`elapsed`."""
        return (self.completed - self.untimed) / self.elapsed

    def absorb(self, other: "Recorder", *, timed: bool = False) -> None:
        """Add ``other``'s samples, attempts and failures to this record.

        With ``timed`` its elapsed time and operations count towards
        :attr:`ops_per_s`; without, its latencies count only in the
        per-op-type metrics.
        """
        self.attempted.update(other.attempted)
        self.failures.update(other.failures)
        for op in OPS:
            self.latencies[op].extend(other.latencies[op])
        if timed:
            self.elapsed += other.elapsed
            self.untimed += other.untimed
        else:
            self.untimed += other.completed

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    def counts(self) -> dict:
        return {op: len(self.latencies[op]) for op in OPS}

    def failures_by_op(self) -> dict:
        out: dict = {}
        for (kind, error), count in sorted(self.failures.items()):
            out.setdefault(kind, {})[error] = count
        return out


def closed_loop(stream, prepare, seconds: float, recorder: Recorder, *,
                tracer=None, after=None) -> None:
    """One caller: run each op of ``stream`` for ``seconds`` (or until the
    stream ends), one at a time.

    ``prepare(op)`` returns ``(call, finish)``: only ``call()`` is timed
    (and traced); ``finish(result)``, if given, records what a write did.
    A typed :class:`~repro.errors.ReproError` from ``call`` counts as a
    failure of that op type; anything else is a defect and propagates.
    ``after(op)`` runs outside the timed region (output sampling); its
    time is excluded from :attr:`Recorder.elapsed`.
    """
    from repro.errors import ReproError

    start = perf_counter()
    deadline = start + seconds
    excluded = 0.0
    index = 0
    while perf_counter() < deadline + excluded:
        op = next(stream, None)
        if op is None:
            break
        recorder.attempted[op.kind] += 1
        index += 1
        a0 = perf_counter()
        call, finish = prepare(op)
        excluded += perf_counter() - a0
        try:
            if tracer is None:
                t0 = perf_counter()
                result = call()
                t1 = perf_counter()
            else:
                with tracer.root(op.kind, index) as root:
                    t0 = perf_counter()
                    result = call()
                    t1 = perf_counter()
                    root.rows = len(result) if op.kind in READ_OPS else None
        except ReproError as exc:
            recorder.fail(op.kind, exc)
            continue
        recorder.ok(op.kind, t1 - t0)
        a0 = perf_counter()
        if finish is not None:
            finish(result)
        if after is not None:
            after(op)
        excluded += perf_counter() - a0
    recorder.elapsed += perf_counter() - start - excluded


def read(db, shapes: dict, op: Op):
    """Run a read op on ``db``: ``shapes[kind][op.arg]`` is its join pair or
    path/twig expression."""
    shape = shapes[op.kind][op.arg]
    if op.kind == "join":
        return db.structural_join(*shape)
    if op.kind == "path":
        return db.path_query(shape)
    return db.twig_query(shape)


def peak_rss_mb(pid: int | None = None) -> float:
    """Peak resident set size (``VmHWM``) of a process, in MB."""
    status = Path(f"/proc/{pid or os.getpid()}/status")
    for line in status.read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in {status}")


def _git(*args: str) -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), *args],
            capture_output=True, text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def provenance(workload: str, seed: int, seconds: float, trace: bool,
               params: dict) -> dict:
    """Where a result came from: code, interpreter, machine and inputs."""
    from repro.joins import kernels

    commit = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain")
    return {
        "commit": commit or "unknown (not a git checkout)",
        "dirty": None if status is None else bool(status),
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "join_backend": kernels.current_backend(),
        "compile_backend": kernels.current_compile_backend(),
        "numpy": kernels.numpy_available(),
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "params": params,
    }
