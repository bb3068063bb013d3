"""``registration_tcp``: an open loop of small requests against a durable TCP server.

Set-up writes ≈100 registration-form documents into a durable directory
and starts ``python -m repro --durable DIR serve --tcp`` as a subprocess
(through :mod:`perfbench.server`, which adds the span wrappers on traced
runs).  One generator process then sends requests at a fixed offered rate
over two connections, whatever the server's progress: reads with
``limit`` (``query``/``twig``) and ``join``, plus appends and
``remove_segment`` of the oldest document, so the database stays the same
size.  Latency runs from each request's scheduled send time.

Failures are counted, never retried, and nothing is serialized to avoid
them: typed sheds (``Busy``, ``Overloaded``) and the append race —
``DatabaseService.insert`` reads the document length before it takes the
writer lock, so an append racing a remove lands outside the shrunken
document (``InvalidSegmentError``) — count against the op type that
suffered them.  With two appends and a remove interleaved, the same race
can place an acknowledged append *inside* another document; no typed
error reports that, and the output check fails the run.

The output check shuts the server down, reopens the durable directory
and compares its documents with the client's record of acknowledged
ops, then compares the answers the server gave to every read shape after
the run with re-parse answers over the reopened text
(:mod:`perfbench.oracle`).
"""

from __future__ import annotations

import asyncio
import itertools
import os
import random
import shutil
import subprocess
import sys
from collections import deque
from time import perf_counter, sleep

from perfbench.common import ROOT, WORK, Op, Recorder, peak_rss_mb
from perfbench.oracle import ReferenceDatabase, pattern
from perfbench.stats import percentile

__all__ = ["TcpWorkload", "JOINS", "PATHS", "TWIGS", "op_stream"]

JOINS = (("registration", "interest"), ("contact", "phone"), ("user", "first"))
PATHS = (
    "registration/contact/address/city",
    "registration//interest",
    "user/name/last",
)
TWIGS = (
    "registration[contact/phone]//interest",
    "registration[preferences/newsletter]/user/name",
    "contact[phone]/email",
)
_SHAPES = {"join": JOINS, "path": PATHS, "twig": TWIGS}
#: One cycle of the op mix: six reads, one append, one remove.
_CYCLE = ("join", "path", "twig", "insert", "join", "path", "twig", "remove")
_LIMIT = 10
_CONNECTIONS = 2


def op_stream(seed: int, cycle: tuple = _CYCLE):
    """A seeded registration op stream repeating the op types of ``cycle``.

    Each read type cycles through its shapes in a fixed order; the seed
    picks the appended documents (and, through set-up, the initial ones).
    """
    from repro.workloads.scenarios import registration_form

    rng = random.Random(seed)
    shapes = {kind: itertools.cycle(range(len(s))) for kind, s in _SHAPES.items()}
    index = 0
    while True:
        for kind in cycle:
            if kind == "insert":
                index += 1
                yield Op("insert", registration_form(rng, 1_000_000 + index))
            elif kind == "remove":
                yield Op("remove")
            else:
                yield Op(kind, next(shapes[kind]))


def initial_documents(seed: int, count: int) -> list[str]:
    from repro.workloads.scenarios import registration_stream

    return list(registration_stream(count, seed=seed))


def read_request(op: Op) -> tuple[str, dict]:
    """The TCP command and arguments of a read op."""
    shape = _SHAPES[op.kind][op.arg]
    if op.kind == "join":
        return "join", {"ancestor": shape[0], "descendant": shape[1]}
    cmd = "query" if op.kind == "path" else "twig"
    return cmd, {"expr": shape, "limit": _LIMIT}


class TcpSession:
    """A running server, two connections and the record of acknowledged ops."""

    def __init__(self, workload: "TcpWorkload", seed: int, traced: bool):
        from repro.durability.database import DurableDatabase

        self.workload = workload
        self.seed = seed
        self._cpus = os.sched_getaffinity(0)
        self.loop = asyncio.new_event_loop()
        self.clients: list = []
        self.process = None
        WORK.mkdir(parents=True, exist_ok=True)
        self.directory = WORK / f"tcp-{os.getpid()}-{id(self)}"
        shutil.rmtree(self.directory, ignore_errors=True)
        self.directory.mkdir(parents=True)
        self.span_file = self.directory.with_suffix(".spans.json") if traced else None
        self.documents: dict[int, str] = {}  # live acknowledged sid -> text
        durable = DurableDatabase(self.directory)
        try:
            texts = initial_documents(seed, workload.documents)
            receipts = durable.apply_batch(
                [{"op": "insert", "fragment": t, "position": None} for t in texts]
            )
            durable.checkpoint()
        finally:
            durable.close()
        for receipt, text in zip(receipts, texts):
            self.documents[receipt.sid] = text
        self.removable: deque = deque(self.documents)
        self.user_bytes = 0
        self.lags: list[float] = []
        self.rtts: list[float] = []
        self.answers: dict = {}
        self._ids = [0] * _CONNECTIONS
        self._stream = op_stream(seed)
        self._start_server()
        self.loop.run_until_complete(self._connect())

    # ------------------------------------------------------------------
    # server lifecycle

    def _start_server(self) -> None:
        command = [sys.executable, str(ROOT / "perfbench" / "server.py")]
        if self.span_file is not None:
            command += ["--trace-out", str(self.span_file)]
        command += ["--durable", str(self.directory), "serve", "--tcp", "127.0.0.1:0"]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]))
        self.log_path = self.directory.with_suffix(".log")
        with open(self.log_path, "w") as log:
            self.process = subprocess.Popen(
                command, stdin=subprocess.DEVNULL, stdout=log, stderr=log,
                env=env, cwd=str(ROOT),
            )
        deadline = perf_counter() + 60.0
        while perf_counter() < deadline:
            for line in self.log_path.read_text().splitlines():
                if line.startswith("listening on "):
                    self.port = int(line.split()[2].rpartition(":")[2])
                    return
            if self.process.poll() is not None:
                break
            sleep(0.01)
        self._stop_server()
        raise RuntimeError(f"server did not start: {self.log_path.read_text()[-2000:]}")

    async def _connect(self) -> None:
        from repro.net.client import connect

        for _ in range(_CONNECTIONS):
            self.clients.append(await connect("127.0.0.1", self.port))

    def _stop_server(self) -> None:
        """Drain the server through a ``shutdown`` request; wait for exit."""
        from repro.errors import ReproError

        if self.process is None:
            return
        if self.clients and self.process.poll() is None:
            try:
                self.loop.run_until_complete(
                    self.clients[0].request("shutdown", timeout=10.0)
                )
            except (ReproError, OSError):
                self.process.terminate()
        for client in self.clients:
            try:
                self.loop.run_until_complete(client.close(goodbye=False))
            except (ReproError, OSError):
                pass  # the server is going away
        self.clients = []
        try:
            self.process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait(timeout=30)
        self.exit_code = self.process.returncode
        self.process = None

    # ------------------------------------------------------------------
    # requests

    def _request(self, conn: int, cmd: str, **args):
        """Issue one request; return ``(coroutine, (session, request id))``.

        The client numbers frames 1 (handshake), 2, 3, ... per connection
        in the order requests are issued, so counting issues here gives
        the frame request id the server's spans carry.
        """
        client = self.clients[conn]
        self._ids[conn] += 1
        req = (client.session_id, self._ids[conn] + 1)
        return client.request(cmd, timeout=60.0, **args), req

    async def _send(self, conn: int, cmd: str, args: dict):
        coroutine, req = self._request(conn, cmd, **args)
        sent = perf_counter()
        return sent, req, await coroutine

    async def _issue(self, conn, op, due, recorder, tracer) -> None:
        from repro.errors import ReproError

        if op.kind == "insert":
            cmd, args = "insert", {"fragment": op.arg}
        elif op.kind == "remove":
            sid = self.removable.popleft()
            cmd, args = "remove_segment", {"sid": sid}
        else:
            cmd, args = read_request(op)
        try:
            sent, req, response = await self._send(conn, cmd, args)
        except ReproError as exc:
            recorder.fail(op.kind, exc)
            return
        done = perf_counter()
        recorder.ok(op.kind, done - due)
        self.rtts.append(done - sent)
        rows = None
        if op.kind == "insert":
            self.documents[response["sid"]] = op.arg
            self.removable.append(response["sid"])
            self.user_bytes += len(op.arg)
        elif op.kind == "remove":
            self.documents.pop(sid)
        else:
            rows = response["pairs"] if op.kind == "join" else response["count"]
        if tracer is not None:
            tracer.record("bench", f"bench.{op.kind}", sent, done, req,
                          {"op": op.kind, "rows": rows})

    async def _open_loop(self, seconds, recorder, tracer) -> None:
        rate = self.workload.rate
        stream = self._stream
        count = max(1, int(seconds * rate))
        tasks = []
        start = perf_counter() + 0.01
        for i in range(count):
            op = next(stream)
            recorder.attempted[op.kind] += 1
            due = start + i / rate
            delay = due - perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            self.lags.append(max(0.0, perf_counter() - due))
            tasks.append(asyncio.ensure_future(
                self._issue(i % _CONNECTIONS, op, due, recorder, tracer)
            ))
        await asyncio.gather(*tasks)
        recorder.elapsed += perf_counter() - start

    async def _final_answers(self) -> None:
        for kind, shapes in _SHAPES.items():
            for i in range(len(shapes)):
                cmd, args = read_request(Op(kind, i))
                args.pop("limit", None)
                coroutine, _ = self._request(0, cmd, **args)
                self.answers[(kind, i)] = await coroutine

    def warm(self) -> None:
        """Pin the processes, then run the open loop unmeasured for a while.

        The generator and every server thread share one core.  Spread over
        two, each request needs several cross-core wake-ups, and on a
        shared 2-vCPU host their delays move p90 latency by up to 2x from
        run to run; on one core it moves by about 10%.  At the offered
        rate the two processes use well under one core.  A fresh server
        answers its first requests several times slower (first-use
        allocation and caches), so those are not measured.
        """
        core = {max(self._cpus)}
        for tid in os.listdir(f"/proc/{self.process.pid}/task"):
            os.sched_setaffinity(int(tid), core)
        os.sched_setaffinity(0, core)
        self.loop.run_until_complete(
            self._open_loop(self.workload.warmup, Recorder(), None)
        )
        self.lags.clear()
        self.rtts.clear()

    def measure(self, seconds: float, recorder: Recorder, tracer=None) -> None:
        self.loop.run_until_complete(self._open_loop(seconds, recorder, tracer))
        self.loop.run_until_complete(self._final_answers())

    # ------------------------------------------------------------------
    # reporting and checks

    def registry(self) -> dict:
        coroutine, _ = self._request(0, "stats")
        return self.loop.run_until_complete(coroutine)["metrics"]

    def extras(self) -> dict:
        coroutine, _ = self._request(0, "health")
        health = self.loop.run_until_complete(coroutine)
        return {
            "log_kb": health["log_bytes"] / 1024.0,
            "user_bytes": self.user_bytes,
            "generator_lag_ms": percentile(self.lags, 99) * 1e3,
            "client_ms_per_request": sum(self.rtts) / len(self.rtts) * 1e3,
        }

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.process.pid)

    def start_trace(self, tracer) -> None:
        """The server was launched with its wrappers; the client records roots."""

    def stop_trace(self, tracer) -> list:
        from perfbench.layers import merge_remote
        from perfbench.tracer import load_spans

        self._stop_server()
        return merge_remote(tracer.spans, load_spans(self.span_file))

    def check(self) -> list[str]:
        from repro.durability.database import DurableDatabase

        self._stop_server()
        problems = []
        if self.exit_code != 0:
            problems.append(f"server exited with code {self.exit_code}")
        durable = DurableDatabase(self.directory)
        try:
            db = durable.db
            text = db.text
            found = sorted(
                text[top.gp : top.end] for top in db.log.ertree.root.children
            )
            if found != sorted(self.documents.values()):
                problems.append(
                    f"reopened directory holds {len(found)} documents; the "
                    f"acknowledged ops leave {len(self.documents)}"
                )
            try:
                db.check_invariants()
            except AssertionError as exc:
                problems.append(f"check_invariants after reopen: {exc}")
        finally:
            durable.close()
        reference = ReferenceDatabase()
        reference.insert(text)
        for (kind, i), response in self.answers.items():
            shape = _SHAPES[kind][i]
            if kind == "join":
                if response["pairs"] != len(reference.join(*shape)):
                    problems.append(f"join {shape} count differs from reference")
                continue
            spans = sorted((s[0], s[1]) for s in response["spans"])
            if spans != pattern(text, shape) or response["count"] != len(spans):
                problems.append(f"{kind} {shape!r} answer differs from reference")
        return problems

    def close(self) -> None:
        try:
            self._stop_server()
        finally:
            os.sched_setaffinity(0, self._cpus)
            self.loop.close()
            shutil.rmtree(self.directory, ignore_errors=True)
            for suffix in (".log", ".spans.json"):
                self.directory.with_suffix(suffix).unlink(missing_ok=True)


class TcpWorkload:
    """Parameters of ``registration_tcp``."""

    name = "registration_tcp"

    def __init__(self, tail: int):
        self.tail = tail
        self.documents = 100
        self.rate = 80.0
        self.warmup = 1.0

    def params(self) -> dict:
        return {
            "documents": self.documents,
            "mode": "LD",
            "durable": True,
            "loop": "open",
            "offered_rate_per_s": self.rate,
            "warmup_s": self.warmup,
            "connections": _CONNECTIONS,
            "cpus": "server and generator pinned to one core",
            "limit": _LIMIT,
            "cycle": list(_CYCLE),
            "joins": [f"{a}//{d}" for a, d in JOINS],
            "paths": list(PATHS),
            "twigs": list(TWIGS),
        }

    def setup(self, seed: int, traced: bool = False) -> TcpSession:
        return TcpSession(self, seed, traced)
