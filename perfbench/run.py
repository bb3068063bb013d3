"""Run one named benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload xmark_update --seed 1 --seconds 15 --trace 0

``--trace 0`` builds the workload five times (``setup_s`` is the median),
warms the last build (unmeasured), measures it for ``--seconds`` seconds
and prints every end-to-end metric.  ``--trace 1`` measures half the time untraced and half with
every layer wrapped in spans, and prints every per-layer metric.  The
output checks run in both modes; a failed check exits with code 1.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line before
it (``{"detail": ...}``) carries the provenance, per-metric sample counts
and spreads, and the failures by op type and error class; the same
detail is written to ``.bench_build/perfbench/results/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.catalog import END_TO_END, MOVES, OPS, PER_LAYER  # noqa: E402
from perfbench.common import WORK, Recorder, provenance  # noqa: E402
from perfbench.stats import (  # noqa: E402
    MIN_BEYOND, percentile, spread, summarize, supported_tail,
)

#: Workload names (``perfbench.workloads`` imports the engine, so it is
#: loaded only after the sources are known to be present).
WORKLOAD_NAMES = ("xmark_read", "xmark_update", "registration_tcp", "registration_shard")

#: How many times a ``--trace 0`` run builds its workload; ``setup_s`` is
#: the median, and the last build is the one measured.
SETUP_REPEATS = 5


def _setup(workload, seed: int, **kwargs):
    """Build once; return ``(session, seconds)``."""
    gc.collect()
    t0 = perf_counter()
    session = workload.setup(seed, **kwargs)
    return session, perf_counter() - t0


def run_untraced(workload, seed: int, seconds: float) -> dict:
    setups = []
    session = None
    for _ in range(SETUP_REPEATS):
        if session is not None:
            session.close()
        session, took = _setup(workload, seed)
        setups.append(took)
    recorder = Recorder()
    try:
        session.warm()
        session.measure(seconds, recorder)
        rss = session.peak_rss_mb()
        problems = session.check()
    finally:
        session.close()
    tail = workload.tail
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": recorder.ops_per_s,
        "peak_rss_mb": rss,
    }
    samples = {"setup_s": len(setups), "ops_per_s": recorder.completed,
               "peak_rss_mb": 1}
    latency = {}
    for op in OPS:
        values = [v * 1e3 for v in recorder.latencies[op]]
        supported = supported_tail(len(values))
        if supported is None or supported < tail:
            problems.append(
                f"{len(values)} completed {op} operations leave fewer than "
                f"{MIN_BEYOND} samples beyond p{tail}"
            )
        if not values:
            values = [float("nan")]
        metrics[f"{op}_p50_ms"] = percentile(values, 50)
        metrics[f"{op}_tail_ms"] = percentile(values, tail)
        samples[f"{op}_p50_ms"] = samples[f"{op}_tail_ms"] = len(values)
        latency[op] = summarize(values, tail)
    return {
        "metrics": metrics,
        "units": dict(END_TO_END),
        "samples": samples,
        "recorder": recorder,
        "problems": problems,
        "detail": {
            "setup_s": spread(setups),
            "latency_ms": latency,
            "tail_percentile": tail,
            "elapsed_s": recorder.elapsed,
        },
    }


def run_traced(workload, seed: int, seconds: float) -> dict:
    from perfbench.layers import layer_metrics, registry_delta
    from perfbench.tracer import Tracer, dump_spans

    half = seconds / 2.0
    untraced = Recorder()
    session, _ = _setup(workload, seed)
    try:
        session.warm()
        session.measure(half, untraced)
        problems = session.check()
    finally:
        session.close()

    tracer = Tracer()
    traced = Recorder()
    session, _ = _setup(workload, seed, traced=True)
    try:
        session.warm()
        before = session.registry()
        session.start_trace(tracer)
        try:
            session.measure(half, traced, tracer)
            delta = registry_delta(before, session.registry())
            extras = session.extras()
        finally:
            spans = session.stop_trace(tracer)
        problems += session.check()
    finally:
        session.close()
    untraced_rate = untraced.ops_per_s
    traced_rate = traced.ops_per_s
    extras["overhead_ratio"] = traced_rate / untraced_rate
    metrics = layer_metrics(spans, delta, traced.counts(), extras)
    WORK.mkdir(parents=True, exist_ok=True)
    span_file = WORK / f"spans-{workload.name}-{seed}.json"
    dump_spans(spans, span_file)
    recorder = Recorder()
    for part in (untraced, traced):
        recorder.absorb(part, timed=True)
    return {
        "metrics": metrics,
        "units": dict(PER_LAYER),
        "samples": {"spans": len(spans), **traced.counts()},
        "recorder": recorder,
        "problems": problems,
        "detail": {
            "moves": MOVES,
            "untraced_ops_per_s": untraced_rate,
            "traced_ops_per_s": traced_rate,
            "span_file": str(span_file.relative_to(WORK.parent.parent)),
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[args.workload]()
    runner = run_traced if args.trace else run_untraced
    outcome = runner(workload, args.seed, args.seconds)
    recorder = outcome["recorder"]
    problems = outcome["problems"]
    metrics = {
        name: {"value": outcome["metrics"][name], "unit": unit}
        for name, unit in outcome["units"].items()
    }
    detail = {
        "provenance": provenance(
            workload.name, args.seed, args.seconds, bool(args.trace),
            workload.params(),
        ),
        "samples": outcome["samples"],
        "attempted_by_op": dict(recorder.attempted),
        "failures_by_op": recorder.failures_by_op(),
        "problems": problems,
        **outcome["detail"],
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    out = results / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({"detail": detail, "metrics": metrics}, indent=2))
    for name, entry in metrics.items():
        count = outcome["samples"].get(name, "")
        print(f"# {name:45s} {entry['value']:14.6g} {entry['unit']:8s} n={count}")
    for message in problems:
        print(f"# CHECK FAILED: {message}")
    print(json.dumps({"detail": detail}, default=str))
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(recorder.attempted.values()),
        "failed": recorder.failed,
        "metrics": metrics,
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
