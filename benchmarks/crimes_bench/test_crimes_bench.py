"""Tests for the benchmark itself: statistics, comparison, tiny workloads.

Run with ``python -m pytest benchmarks/crimes_bench``.
"""

import json
import math
import os
import shutil
import statistics
import subprocess
import sys

import pytest

import catalog
import compare
import run
import workloads
from benchstats import percentile, percentile_supported, samples_beyond

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))

#: Guests small enough for a unit test; check_at just past the warm-up.
TINY = {
    "canary_audit": {"memory_mib": 4, "live_objects": 400, "frees": 2,
                     "writes": 16},
    "dirty_rollback": {"memory_mib": 4, "heap_pages": 256, "pages": 64},
    "fleet_store": {"tenants": 4},
    "case_service": {"prefill": 4},
}
TINY_CHECK_AT = 24


# -- percentiles and the sample-count rule -----------------------------------


def test_percentile_interpolates_like_the_median():
    values = [5.0, 1.0, 4.0, 2.0]
    assert percentile(values, 50) == statistics.median(values)
    assert percentile(values, 0) == 1.0
    assert percentile(values, 100) == 5.0
    assert percentile(list(range(101)), 95) == 95.0


def test_tail_needs_ten_samples_beyond_it():
    assert samples_beyond(200, 95) == 10
    assert percentile_supported(200, 95)
    assert not percentile_supported(199, 95)
    assert percentile_supported(100, 90)
    assert not percentile_supported(99, 90)
    assert not percentile_supported(999, 99)
    assert percentile_supported(1000, 99)


def test_default_runs_support_their_tail():
    # The shortest default run, fleet_store's rounds, still carries ten
    # samples beyond the reported tail.
    rounds = math.ceil(catalog.RUN_SECONDS * workloads.RATE["fleet_store"])
    assert percentile_supported(rounds, workloads.TAIL_PERCENTILE)


# -- compare.py ----------------------------------------------------------------


def test_quartiles_and_spread_match_statistics():
    values = [10.0, 12.0, 11.0, 13.0, 9.0, 10.5, 11.5, 12.5, 9.5, 10.0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    assert compare.quartiles(values) == (q1, median, q3)
    assert compare.spread(values) == pytest.approx((q3 - q1) / median)


def test_wins_follow_the_metric_direction_and_ties_count_for_neither():
    latency = catalog.metric("latency_p50_ms")
    throughput = catalog.metric("throughput_per_s")
    parent = [10.0, 10.0, 10.0, 10.0]
    change = [9.0, 11.0, 10.0, 8.0]
    assert compare.count_wins(latency, parent, change) == (2, 1)
    assert compare.count_wins(throughput, parent, change) == (1, 2)


def test_verdicts():
    latency = catalog.metric("latency_p50_ms")
    parent = [100.0 + i % 3 for i in range(10)]
    assert compare.verdict(latency, parent, [x * 0.8 for x in parent]) \
        == "gain"
    # Nine wins in ten still claims the gain; eight does not.
    nine = [x * 0.8 for x in parent[:9]] + [parent[9] * 1.01]
    assert compare.verdict(latency, parent, nine) == "gain"
    eight = [x * 0.8 for x in parent[:8]] + [x * 1.01 for x in parent[8:]]
    assert compare.verdict(latency, parent, eight) != "gain"
    slower = 1.0 + 1.5 * latency.bound
    assert compare.verdict(latency, parent, [x * slower for x in parent]) \
        == "regression"
    assert compare.verdict(latency, parent, list(parent)) == "no change"
    noisy = [100.0, 140.0, 70.0, 120.0, 80.0, 130.0, 75.0, 125.0, 90.0,
             110.0]
    assert compare.verdict(latency, parent, noisy) == "unresolved"
    assert compare.verdict(latency, parent, [x * 0.8 for x in parent],
                           failed_parent=0, failed_change=1) \
        == "gain void: more failures"


def test_fewer_than_ten_pairs_never_claim_a_gain():
    latency = catalog.metric("latency_p50_ms")
    parent = [100.0, 101.0, 102.0, 100.0, 101.0]
    assert compare.verdict(latency, parent, [x * 0.5 for x in parent]) \
        == "too few pairs"


# -- BENCHMARK.json and the contract -------------------------------------------


def test_benchmark_json_matches_the_catalog():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        assert json.load(handle) == catalog.benchmark_json()


def test_run_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "crimes_bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    child = subprocess.run(
        [sys.executable, "benchmarks/crimes_bench/run.py", "--workload",
         "canary_audit", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=str(tmp_path), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=120)
    assert child.returncode != 0
    assert child.stdout == ""


# -- the workloads at tiny sizes -------------------------------------------------


@pytest.mark.parametrize("workload", catalog.ORDER)
def test_tiny_workload_traced_and_untraced(workload):
    result = run.measure(workload, seed=3, seconds=0.5, trace=True,
                         overrides=TINY[workload], check_at=TINY_CHECK_AT)
    assert result["problems"] == []
    assert result["correct"] and result["failed"] == 0
    plain, traced = result["digests"]
    assert plain == traced
    assert plain is not None
    names = {metric.name for metric in catalog.END_TO_END}
    for label in ("untraced", "traced"):
        measured = result["end_to_end"][label]
        assert set(measured) == names
        assert all(value > 0 for value in measured.values())
    assert result["metrics"] == {
        metric.name: {"value": result["metrics"][metric.name]["value"],
                      "unit": metric.unit}
        for metric in catalog.PER_LAYER}


def test_untraced_run_prints_the_contract_line():
    result = run.measure("canary_audit", seed=3, seconds=0.5,
                         overrides=TINY["canary_audit"],
                         check_at=TINY_CHECK_AT, setup_repeats=2)
    line = json.loads(run.contract_line(result))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["attempted"] > 0
    assert {name: entry["unit"] for name, entry in line["metrics"].items()} \
        == {metric.name: metric.unit for metric in catalog.END_TO_END}
    assert len(result["info"]["setup_runs"]) == 2
