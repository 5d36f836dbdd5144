"""Tests of the benchmark's own arithmetic and of its output contract."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pbmath
from pbtrace import LayerTracer

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_percentile_refuses_fewer_than_ten_samples_beyond_it():
    with pytest.raises(pbmath.InsufficientSamples):
        pbmath.percentile(list(range(999)), 0.99)
    assert pbmath.percentile(list(range(1, 1001)), 0.99) == 990
    with pytest.raises(pbmath.InsufficientSamples):
        pbmath.percentile(list(range(19)), 0.50)
    assert pbmath.percentile(list(range(1, 21)), 0.50) == 10


def test_histogram_quantile_interpolates_and_refuses_thin_tails():
    bounds = (0.01, 0.02, 0.05)
    assert pbmath.histogram_quantile(bounds, [0, 100, 0, 0], 0.5) == pytest.approx(0.015)
    with pytest.raises(pbmath.InsufficientSamples):
        pbmath.histogram_quantile(bounds, [0, 100, 0, 0], 0.99)


def test_self_time_subtracts_the_union_of_overlapping_children():
    spans = [
        pbmath.Span(0, None, "engine", "run", 0.0, 10.0),
        pbmath.Span(1, 0, "kernel", "a", 1.0, 4.0),
        pbmath.Span(2, 0, "kernel", "b", 3.0, 6.0),  # overlaps a by one second
        pbmath.Span(3, 0, "store", "c", 9.0, 12.0),  # runs past its parent
    ]
    own = pbmath.self_times(spans)
    assert own[0] == pytest.approx(10.0 - 5.0 - 1.0)
    assert own[1] == pytest.approx(3.0)
    layers = pbmath.summarize_layers(spans)
    assert layers["kernel"].busy_s == pytest.approx(5.0)
    assert layers["kernel"].total_s == pytest.approx(6.0)


def test_union_length_merges_and_clips():
    assert pbmath.union_length([(0, 2), (1, 3), (5, 6)]) == 4
    assert pbmath.union_length([(0, 10)], lower=2, upper=5) == 3
    assert pbmath.union_length([]) == 0


def test_ratios_carry_their_bases():
    ratio = pbmath.Ratio(3, 4)
    assert ratio.value == 0.75
    assert "(3/4)" in ratio.describe()
    empty = pbmath.Ratio(0, 0)
    assert empty.value == 0.0
    assert "(0/0)" in empty.describe()


class _Layer:
    def outer(self, items):
        return [self.inner(item) for item in items]

    def inner(self, item):
        return item * 2


def test_tracer_nests_spans_and_restores_the_originals():
    original = _Layer.__dict__["inner"]
    tracer = LayerTracer()
    tracer.wrap(_Layer, "outer", "engine", items=lambda args, _result: len(args[1]))
    tracer.wrap(_Layer, "inner", "kernel")
    try:
        assert _Layer().outer([1, 2, 3]) == [2, 4, 6]
    finally:
        tracer.uninstall()
    assert _Layer.__dict__["inner"] is original
    outer = [span for span in tracer.spans if span.layer == "engine"]
    inner = [span for span in tracer.spans if span.layer == "kernel"]
    assert len(outer) == 1 and outer[0].items == 3
    assert [span.parent for span in inner] == [outer[0].index] * 3


def _names_and_units(section: str) -> dict[str, str]:
    return {metric["name"]: metric["unit"] for metric in BENCHMARK[section]}


@pytest.mark.parametrize("workload", [entry["name"] for entry in BENCHMARK["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_emits_every_named_metric_with_its_unit(workload, trace):
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert completed.returncode == 0, completed.stderr[-3000:]
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, completed.stdout[-3000:]
    expected = _names_and_units("per_layer" if trace else "end_to_end")
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} == expected
    for entry in result["metrics"].values():
        assert isinstance(entry["value"], float)


def test_refuses_to_run_outside_a_checkout(tmp_path):
    completed = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "store_serve",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode != 0
    assert completed.stdout == ""
