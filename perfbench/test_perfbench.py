"""Self-tests of the benchmark's checker, tracer and entry point.

Run from the root of the checkout with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import run
import spans
import workloads
from grouplab import catalog, isoclinism
from grouplab.catalog import PipelineConfig
from clock import Clock
from reference import REFERENCE

HERE = Path(__file__).resolve().parent


def _relabeled(name: str, seed: int = 3):
    return [(n, G) for n, G in workloads.build_pass("oracle-small", seed, 0) if n == name][0][1]


def test_reference_table_is_self_consistent():
    for ref in REFERENCE.values():
        assert ref.ab_order * ref.derived == ref.order, ref.name
        assert ref.order % ref.center == 0, ref.name
        for a, b in zip(ref.abelianization, ref.abelianization[1:]):
            assert b % a == 0, ref.name
        if ref.derived == 1:
            assert ref.center == ref.order, ref.name


def test_pools_name_reference_groups():
    for pool in workloads.POOLS.values():
        for name, copies in pool:
            assert name in REFERENCE and copies >= 1


def test_build_pass_is_seeded():
    a = workloads.build_pass("families-dense", 5, 0)
    b = workloads.build_pass("families-dense", 5, 0)
    c = workloads.build_pass("families-dense", 6, 0)
    assert [(n, G.mul) for n, G in a] == [(n, G.mul) for n, G in b]
    assert [(n, G.mul) for n, G in a] != [(n, G.mul) for n, G in c]


def test_true_reports_pass_the_check():
    items = [("D4", _relabeled("D4")), ("A4", _relabeled("A4"))]
    res = workloads.run_report_pass(items, PipelineConfig(oracle=True))
    assert (res.attempted, res.failed) == (2, 0), res.errors


def test_tampered_multiplier_order_counts_as_failed(monkeypatch):
    real = catalog.compute_report

    def tampered(G, config):
        report = real(G, config)
        exterior = dict(report.exterior, multiplier_order=report.exterior["multiplier_order"] + 1)
        return dataclasses.replace(report, exterior=exterior)

    monkeypatch.setattr(catalog, "compute_report", tampered)
    items = [("D4", _relabeled("D4")), ("Q8", _relabeled("Q8"))]
    res = workloads.run_report_pass(items, PipelineConfig())
    assert (res.attempted, res.failed) == (2, 2)
    assert all("multiplier_order" in e for e in res.errors)


def test_cap_exceeded_is_counted_not_raised():
    items = [("S4", _relabeled("S4")), ("D4", _relabeled("D4"))]
    res = workloads.run_report_pass(items, PipelineConfig(curly_cap=16))
    assert (res.attempted, res.failed) == (2, 1)
    assert "GroupTooLarge" in res.errors[0]


def _small_families():
    names = ["S3", "Dic3", "S3", "D4", "Q8", "A4"]
    return [(n, workloads.base_group(n)) for n in names]


def test_families_pass_checks_every_pair():
    res = workloads.run_families_pass(_small_families())
    # S3 family: 3 members, D4 family: 2 members, A4 alone
    assert (res.attempted, res.failed) == (4, 0), res.errors


def test_wrong_partition_fails_every_pair(monkeypatch):
    monkeypatch.setattr(isoclinism, "partition_into_families", lambda gs: [[i] for i in range(len(gs))])
    res = workloads.run_families_pass(_small_families())
    assert (res.attempted, res.failed) == (4, 4)


def test_clock_samples_inside_long_work_and_leaves_them_out():
    with Clock() as clock:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 1.2:
            pass
        t1 = time.perf_counter()
    inside = [(a, b) for a, b in clock.sample_windows() if t0 < a and b < t1]
    assert len(inside) >= 2
    assert clock.raw(t0, t1) == pytest.approx(t1 - t0 - sum(b - a for a, b in inside))
    assert clock.scaled(t0, t1) > 0


def test_tracer_nests_spans_and_restores_attributes():
    before = {(p, a): getattr(spans._resolve(p), a) for p, a, _ in spans.BOUNDARIES}
    tracer = spans.Tracer()
    tracer.install()
    try:
        res = workloads.run_report_pass([("D4", _relabeled("D4"))], PipelineConfig(oracle=True), tracer)
    finally:
        tracer.uninstall()
    assert res.failed == 0
    assert {(p, a): getattr(spans._resolve(p), a) for p, a, _ in spans.BOUNDARIES} == before
    names = {s[0] for s in tracer.spans}
    assert {"catalog.compute_report", "fpgroups.todd_coxeter", "lattices.hnf_from_rows"} <= names
    top = [s for s in tracer.spans if s[3] < 0]
    assert [s[0] for s in top] == ["catalog.compute_report"]
    metrics = tracer.pass_metrics(res.raw_wall_s, res.samples)
    layer_total = sum(metrics[f"{layer}.self_s"] for layer in spans.LAYERS)
    assert layer_total + metrics["bench.self_s"] == pytest.approx(res.raw_wall_s)
    assert 0 <= metrics["bench.self_s"] < 0.1 * res.raw_wall_s
    assert metrics["fpgroups.enumerate_calls"] == 2  # curly and exterior
    assert metrics["cohomology.space_calls"] >= 1


def test_changed_counts_fail_loudly(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "OUT", tmp_path)
    args = argparse.Namespace(workload="families-dense", seed=1)


    def passes(calls):
        counts = dict.fromkeys(spans.REPEAT_COUNTS + ("trace.spans",), 7)
        return [counts, dict(counts, **{"fpgroups.enumerate_calls": calls})]

    run.check_repeat_counts(args, passes(3))
    run.check_repeat_counts(args, passes(3)[:1])
    with pytest.raises(SystemExit, match="pass 1 .*enumerate_calls"):
        run.check_repeat_counts(args, passes(4))


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "families-dense", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())


def test_benchmark_json_lists_every_printed_metric():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    per_layer = {m["name"] for m in doc["per_layer"]}
    expected = set(spans.TIME_METRICS) | set(spans.REPEAT_COUNTS)
    expected |= {f"{layer}.self_s" for layer in spans.LAYERS}
    expected |= {"bench.self_s", "cohomology.space_hit_ratio", "isoclinism.witness_found_ratio",
                 "trace.wall_s", "trace.overhead_s", "trace.spans"}
    assert per_layer == expected
