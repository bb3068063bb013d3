"""``xmark_read`` and ``xmark_update``: one XMark site in a ``LazyXMLDatabase``.

Both build the same database: a fixed XMark-like site (one large
document) chopped into balanced segments, in LD mode, mirroring its text;
the seed picks the inserted fragments and the persons they go into.

- ``xmark_read`` is a read-only closed loop on warm read-path memos: the
  memo answers the joins while path and twig queries still run their
  evaluators.  Every end-to-end metric is reported on every workload, so
  after the loop (and outside ``ops_per_s``) an untraced run times a
  fixed write probe: ``probe_pairs`` inserts into persons, each removed
  again at once — enough samples for the insert and remove tails.
- ``xmark_update`` keeps a window of nested inserts live and runs cycles
  of *insert, three reads, remove the oldest insert, three reads*, so each
  write invalidates the read path and reads take the cold compile and
  Lazy-Join path over nested segments.  Every insert is later removed, so
  the database keeps its size.

Output checks replay the executed writes as string splices on the
original text (:class:`tests.oracle.ReferenceDatabase`) and compare
sampled read answers, the final text and every read shape with re-parse
answers (:mod:`perfbench.oracle`), then run ``check_invariants()``.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import deque
from time import perf_counter

from perfbench.common import Op, Recorder, closed_loop, peak_rss_mb, read
from perfbench.oracle import ReferenceDatabase, pattern

__all__ = ["XMarkWorkload", "JOINS", "PATHS", "TWIGS"]

#: Fig. 14 joins (ancestor, descendant).
JOINS = (
    ("person", "phone"),
    ("profile", "interest"),
    ("watches", "watch"),
    ("person", "watch"),
    ("person", "interest"),
)
PATHS = (
    "person/profile/interest",
    "people/person/watches/watch",
    "person/address/city",
    "open_auction/bidder/increase",
    "item/description/text",
)
TWIGS = (
    "person[phone]//interest",
    "person[profile/interest]/name",
    "person[watches/watch]/address/city",
    "open_auction[bidder]/initial",
    "item[payment]/location",
)
_SHAPES = {"join": JOINS, "path": PATHS, "twig": TWIGS}
_READ_CYCLE = ("join", "path", "twig")


def _fragment(rng: random.Random) -> str:
    """A small ``watches`` or ``profile`` fragment for a person."""
    if rng.random() < 0.5:
        return (
            f'<watches><watch open_auction="open_auction{rng.randint(0, 9999)}"/>'
            "</watches>"
        )
    return (
        f'<profile income="{rng.randint(10000, 200000)}">'
        f'<interest category="category{rng.randint(0, 99)}"/></profile>'
    )


def _insert_op(rng: random.Random) -> Op:
    return Op("insert", (rng.randrange(1 << 30), _fragment(rng)))


class _Reads:
    """Reads in a fixed order: join, path, twig in turn, each type cycling
    through its (odd number of) shapes, so every shape is timed equally
    often and a median falls inside one shape's distribution."""

    def __init__(self):
        self._kinds = itertools.cycle(_READ_CYCLE)
        self._next = {kind: itertools.cycle(range(len(s))) for kind, s in _SHAPES.items()}

    def take(self, count: int):
        for _ in range(count):
            kind = next(self._kinds)
            yield Op(kind, next(self._next[kind]))


def update_stream(seed: int):
    """``xmark_update``'s op stream: insert, 3 reads, remove, 3 reads, ..."""
    rng = random.Random(seed)
    reads = _Reads()
    while True:
        yield _insert_op(rng)
        yield from reads.take(3)
        yield Op("remove")
        yield from reads.take(3)


def write_stream(seed: int):
    """``xmark_read``'s write probe: insert into a person, remove it again."""
    rng = random.Random(seed)
    while True:
        yield _insert_op(rng)
        yield Op("remove")


def read_stream():
    """``xmark_read``'s read loop (the same for every seed; the seed picks
    the data)."""
    reads = _Reads()
    while True:
        yield from reads.take(3)


class XMarkSession:
    """One built database plus the records its output checks need."""

    def __init__(self, workload: "XMarkWorkload", seed: int):
        from repro.core.database import LazyXMLDatabase
        from repro.workloads.chopper import chop_text
        from repro.workloads.xmark import XMarkConfig, generate_site

        self.workload = workload
        self.seed = seed
        self.text0 = generate_site(
            XMarkConfig(scale=workload.scale, seed=workload.site_seed)
        ).to_xml()
        self.db, _ = chop_text(
            self.text0, workload.segments, "balanced", db=LazyXMLDatabase()
        )
        self.live: deque = deque()
        self.log: list = []  # executed writes: ("ins", pos, text) / ("rem", pos, len)
        self.samples: list = []  # (len(log), op, answer)
        self._next_sample = 0.0

    # ------------------------------------------------------------------
    # execution

    def prepare(self, op: Op):
        """``(call, finish)`` for :func:`~perfbench.common.closed_loop`."""
        db = self.db
        if op.kind == "insert":
            choice, fragment = op.arg
            persons = db.global_elements("person")
            position = persons[choice % len(persons)].end - len("</person>")

            def inserted(receipt):
                self.live.append(receipt.sid)
                self.log.append(("ins", position, fragment))

            return (lambda: db.insert(fragment, position)), inserted
        if op.kind == "remove":
            sid = self.live.popleft()
            node = db.log.node(sid)
            span = (node.gp, node.length)

            def removed(outcome):
                self.log.append(("rem", *span))

            return (lambda: db.remove_segment(sid)), removed
        return (lambda: self._read(op)), None

    def execute(self, op: Op) -> None:
        """Run one write untimed (warm-up)."""
        call, finish = self.prepare(op)
        finish(call())

    def _read(self, op: Op):
        return read(self.db, _SHAPES, op)

    def answer(self, op: Op) -> list:
        """The engine's answer to a read, as sorted global spans."""
        span = self.db.global_span
        result = self._read(op)
        if op.kind == "join":
            return sorted((span(a), span(d)) for a, d in result)
        return sorted(span(r) for r in result)

    def sample(self, op: Op) -> None:
        """Keep about one read answer per second for the output check."""
        if op.kind in ("insert", "remove"):
            return
        now = perf_counter()
        if now >= self._next_sample:
            self._next_sample = now + 1.0
            self.samples.append((len(self.log), op, self.answer(op)))

    # ------------------------------------------------------------------
    # the runs

    def warm(self) -> None:
        """Unmeasured: fill ``xmark_update``'s insert window, warm every read."""
        if not self.workload.read_only:
            rng = random.Random(self.seed ^ 0x5EED)
            for _ in range(self.workload.window):
                self.execute(_insert_op(rng))
        for kind, shapes in _SHAPES.items():
            for i in range(len(shapes)):
                self._read(Op(kind, i))

    def measure(self, seconds: float, recorder: Recorder, tracer=None) -> None:
        w = self.workload
        if not w.read_only:
            closed_loop(update_stream(self.seed), self.prepare, seconds, recorder,
                        tracer=tracer, after=self.sample)
            return
        closed_loop(read_stream(), self.prepare, seconds, recorder,
                    tracer=tracer, after=self.sample)
        if tracer is None:  # traced runs report the read loop's layers alone
            probe = Recorder()
            writes = itertools.islice(write_stream(self.seed), 2 * w.probe_pairs)
            closed_loop(writes, self.prepare, math.inf, probe)
            recorder.absorb(probe)

    def registry(self) -> dict:
        from repro.obs.metrics import METRICS

        return METRICS.snapshot()

    def extras(self) -> dict:
        return {"log_kb": self.db.stats().total_bytes / 1024.0}

    def peak_rss_mb(self) -> float:
        return peak_rss_mb()

    def check(self) -> list[str]:
        """Compare sampled and final answers with the re-parse reference."""
        problems = []
        reference = ReferenceDatabase()
        reference.insert(self.text0)
        samples = iter(self.samples)
        pending = next(samples, None)
        for index in range(len(self.log) + 1):
            while pending is not None and pending[0] == index:
                _, op, answer = pending
                expected = _reference_answer(reference, op)
                if answer != expected:
                    problems.append(
                        f"{op.kind} {_SHAPES[op.kind][op.arg]!r} after "
                        f"{index} writes: {len(answer)} answers, "
                        f"reference has {len(expected)}"
                    )
                pending = next(samples, None)
            if index < len(self.log):
                kind, position, value = self.log[index]
                if kind == "ins":
                    reference.insert(value, position)
                else:
                    reference.remove(position, value)
        if self.db.text != reference.text:
            problems.append("final text differs from the replayed writes")
            return problems
        for kind, shapes in _SHAPES.items():
            for i in range(len(shapes)):
                op = Op(kind, i)
                if self.answer(op) != _reference_answer(reference, op):
                    problems.append(f"final {kind} {shapes[i]!r} differs from reference")
        try:
            self.db.check_invariants()
        except AssertionError as exc:
            problems.append(f"check_invariants: {exc}")
        return problems

    def start_trace(self, tracer) -> None:
        tracer.install()

    def stop_trace(self, tracer) -> list:
        tracer.uninstall()
        return tracer.spans

    def close(self) -> None:
        self.db = None


def _reference_answer(reference: ReferenceDatabase, op: Op) -> list:
    shape = _SHAPES[op.kind][op.arg]
    if op.kind == "join":
        return reference.join(*shape)
    return pattern(reference.text, shape)


class XMarkWorkload:
    """Parameters of the two XMark workloads (one database shape)."""

    def __init__(self, name: str, tail: int):
        self.name = name
        self.tail = tail
        self.read_only = name == "xmark_read"
        self.scale = 0.05
        # One fixed site (the generator's default seed): every --seed runs
        # the same document and segmentation, so seeds vary only the
        # inserted fragments and their target persons.  Different sites
        # differ by 10-20% in twig and write cost, which would swamp the
        # run-to-run spread the bounds are set against.
        self.site_seed = 7
        self.segments = 200
        self.window = 8
        # 100 samples leave 10 beyond p90, the workload's fixed tail.
        self.probe_pairs = 100

    def params(self) -> dict:
        params = {
            "scale": self.scale,
            "site_seed": self.site_seed,
            "segments": self.segments,
            "chop": "balanced",
            "mode": "LD",
            "callers": 1,
            "loop": "closed",
            "joins": [f"{a}//{d}" for a, d in JOINS],
            "paths": list(PATHS),
            "twigs": list(TWIGS),
        }
        if self.read_only:
            params["cycle"] = "join, path, twig (read-only)"
            params["write_probe"] = (
                f"after the loop, untraced runs only: {self.probe_pairs} x "
                "(insert into a person, remove it), outside ops_per_s"
            )
        else:
            params["window"] = self.window
            params["cycle"] = "insert, 3 reads, remove oldest, 3 reads"
        return params

    def setup(self, seed: int, traced: bool = False) -> XMarkSession:
        return XMarkSession(self, seed)
