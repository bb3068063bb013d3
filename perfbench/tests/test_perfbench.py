"""Tests of the benchmark's own code.

Run with ``python3 -m pytest perfbench/tests`` from the repository root.
"""

from __future__ import annotations

import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import shard, tcp, xmark
from perfbench.catalog import END_TO_END, PER_LAYER, READ_OPS
from perfbench.common import Recorder
from perfbench.layers import layer_metrics, merge_remote
from perfbench.oracle import ReferenceDatabase, parse_pattern, pattern
from perfbench.stats import percentile, supported_tail
from perfbench.workloads import TAILS, WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
#: A seed no workload was tuned on.
UNSEEN_SEED = 90417


def _take(stream, n=300):
    return list(itertools.islice(stream, n))


@pytest.mark.parametrize("make", [
    xmark.update_stream,
    xmark.write_stream,
    tcp.op_stream,
    lambda seed: tcp.op_stream(seed, shard._CYCLE),
])
def test_a_seed_always_produces_the_same_op_stream(make):
    assert _take(make(7)) == _take(make(7))
    assert _take(make(7)) != _take(make(8))


def test_reads_visit_every_shape_equally_often():
    # xmark_read's read loop is the same for every seed (the seed picks the
    # data); each read type cycles through its shapes in order.
    ops = _take(xmark.read_stream(), 3 * 5 * 4)
    assert {op.kind for op in ops} == set(READ_OPS)  # read-only
    for kind in READ_OPS:
        args = [op.arg for op in ops if op.kind == kind]
        assert sorted(args) == sorted(list(range(5)) * 4)


def test_tail_helper_picks_the_highest_supported_percentile():
    assert supported_tail(1000) == 99
    assert supported_tail(999) == 95
    assert supported_tail(200) == 95
    assert supported_tail(199) == 90
    assert supported_tail(100) == 90
    assert supported_tail(99) is None


def test_samples_absorbed_untimed_stay_out_of_ops_per_s():
    loop, probe = Recorder(), Recorder()
    loop.ok("join", 0.001)
    loop.ok("path", 0.001)
    loop.elapsed = 2.0
    probe.ok("remove", 0.1)
    probe.elapsed = 0.1
    loop.absorb(probe)
    assert loop.ops_per_s == pytest.approx(1.0)
    assert loop.latencies["remove"] == [0.1]
    loop.absorb(probe, timed=True)
    assert loop.ops_per_s == pytest.approx(3 / 2.1)


def test_percentile_interpolates_between_order_statistics():
    values = [4.0, 1.0, 3.0, 2.0]
    assert percentile(values, 0) == 1.0
    assert percentile(values, 50) == 2.5
    assert percentile(values, 100) == 4.0


def _benchmark_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_names_the_catalogue():
    spec = _benchmark_json()
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for workload in spec["workloads"]:
        # The fixed tail percentile is stated with the workload.
        assert f"tail p{TAILS[workload['name']]}" in workload["why"]
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def _run(workload: str, seed: int, seconds: float, trace: int, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=str(cwd), timeout=300,
    )
    return proc


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metric_names_match_benchmark_json(trace):
    proc = _run("xmark_read", UNSEEN_SEED, 1.0, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    key = "per_layer" if trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in _benchmark_json()[key]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


#: Seconds each workload needs for at least 100 samples of every op type,
#: which its fixed p90 tail requires.
ENOUGH_SECONDS = {
    "xmark_read": 1.0,
    "xmark_update": 20.0,
    "registration_tcp": 15.0,
    "registration_shard": 8.0,
}


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_an_unseen_seed_passes_the_output_checks(workload):
    proc = _run(workload, UNSEEN_SEED, ENOUGH_SECONDS[workload], 0)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["attempted"] >= 1
    for entry in result["metrics"].values():
        assert entry["value"] > 0


def test_a_tail_without_enough_samples_fails_the_run():
    proc = _run("xmark_update", UNSEEN_SEED, 1.0, 0)
    assert proc.returncode == 1
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is False
    assert "samples beyond p90" in proc.stdout


def test_fails_without_the_engine_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = _run("xmark_read", 1, 1.0, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_reference_answers_a_small_document():
    text = "<a><b><c/></b><b/></a><a><c/></a>"
    assert pattern(text, "a/b") == [(3, 14), (14, 18)]
    assert pattern(text, "a[b]//c") == [(6, 10)]
    assert pattern(text, "a[b/c]/b") == [(3, 14), (14, 18)]
    assert pattern(text, "b//c") == [(6, 10)]
    assert parse_pattern("x[y/z]//w") == [
        ("//", "x", [[("/", "y", []), ("/", "z", [])]]),
        ("//", "w", []),
    ]


def test_reference_agrees_with_the_engine_on_xmark():
    from repro.core.database import LazyXMLDatabase
    from repro.workloads.chopper import chop_text
    from repro.workloads.xmark import XMarkConfig, generate_site

    text = generate_site(XMarkConfig(scale=0.01, seed=3)).to_xml()
    db, _ = chop_text(text, 20, "balanced", db=LazyXMLDatabase(), seed=3)
    ref = ReferenceDatabase()
    ref.insert(text)
    span = db.global_span
    for expr in xmark.PATHS:
        assert sorted(span(r) for r in db.path_query(expr)) == pattern(text, expr)
    for expr in xmark.TWIGS:
        assert sorted(span(r) for r in db.twig_query(expr)) == pattern(text, expr)
    for a, d in xmark.JOINS:
        got = sorted((span(x), span(y)) for x, y in db.structural_join(a, d))
        assert got == ref.join(a, d)


def test_self_time_subtracts_children_and_links_remote_roots():
    # Client root (10 ms) -> remote server root (6 ms) -> service span (4 ms).
    local = [(1, None, (1, 2), "bench", "bench.insert", 0.0, 0.010, None,
              {"op": "insert", "rows": None})]
    remote = [
        (1, None, (1, 2), "net", "TcpServer._run_request", 0.002, 0.008, None, None),
        (2, 1, (1, 2), "service", "DatabaseService.insert", 0.003, 0.007, None, None),
    ]
    spans = merge_remote(local, remote)
    values = layer_metrics(spans, {}, {"insert": 1}, {})
    assert values["layer.service.self_ms_per_op"] == pytest.approx(4.0)
    assert values["layer.net.self_ms_per_op"] == pytest.approx(2.0)
    assert values["trace.unattributed_share"] == pytest.approx(0.4)
    assert set(values) == {name for name, _ in PER_LAYER}
