"""Self-tests of the benchmark harness (a few seconds).

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import catalogue, inputs, simloop  # noqa: E402
from perfbench.spans import SpanRecorder  # noqa: E402
from perfbench.summary import Outcome, tail  # noqa: E402

RUN = ROOT / "perfbench" / "run.py"


def test_tail_leaves_ten_samples_beyond():
    assert tail([3.0, 1.0, 2.0]) == (2.0, 50.0)
    assert tail([float(v) for v in range(20)]) == (9.5, 50.0)
    assert tail([float(v) for v in range(21)]) == (10.0, 52.4)
    values = [float(v) for v in range(60)]
    value, pct = tail(values)
    assert sum(v > value for v in values) == 10
    assert pct == pytest.approx(100 * 50 / 60, abs=0.1)


def test_self_time_is_span_minus_children():
    recorder = SpanRecorder()

    class Leaf:
        def work(self):
            time.sleep(0.002)

    leaf = Leaf()
    recorder.wrap(leaf, "work", "leaf")
    assert "work" in vars(leaf)
    with recorder.span("root", "op1"):
        leaf.work()
        leaf.work()
        time.sleep(0.002)
    recorder.restore()
    assert "work" not in vars(leaf)
    totals = recorder.flush(keep=True)
    calls, incl, own = totals["root"]
    leaf_calls, leaf_incl, leaf_own = totals["leaf"]
    assert (calls, leaf_calls) == (1, 2)
    assert own == incl - leaf_incl
    assert leaf_own == leaf_incl
    assert own >= 2_000_000
    assert [row[3] for row in recorder.kept] == [-1, 0, 0]
    assert [row[4] for row in recorder.kept] == ["op1"] * 3


def test_class_wrap_is_restored():
    class Thing:
        def method(self):
            return 7

    recorder = SpanRecorder()
    original = Thing.__dict__["method"]
    seen = []
    recorder.wrap(Thing, "method", "thing", hook=seen.append)
    assert Thing().method() == 7 and seen == [7]
    recorder.restore()
    assert Thing.__dict__["method"] is original


def test_traced_processor_is_bit_identical_and_shares_sum_to_one():
    from repro.core.stages.frontend import FrontEnd

    points = inputs.hotpath_points(0)[4:]           # mcf: full, none
    outcome = Outcome()
    loop = simloop.ColdLoop(points, outcome, keep_processors=True)
    plain = loop.run_pass(0)
    recorder = SpanRecorder()
    traced = loop.run_pass(0, recorder)
    assert outcome.correct and len(traced) == 2
    for a, b in zip(plain, traced):
        assert simloop.digest(a.stats) == simloop.digest(b.stats)
        assert type(b.processor.front_end) is FrontEnd
        assert "tick" not in vars(b.processor.front_end)
    retired = sum(run.stats.retired for run in plain)
    simloop.put_stage_layers(outcome, recorder.totals, 1, retired)
    shares = [outcome.metrics[f"stages.{s}.self_share"][0]
              for s in simloop.STAGES]
    driver = outcome.metrics["pipeline.driver.self_share"][0]
    assert sum(shares) + driver == pytest.approx(1.0, abs=1e-9)
    assert outcome.metrics["integration.consider.calls"][0] > 0


def test_seeds_never_reuse_a_registered_name():
    from repro.workloads import build_workload, workload_names

    registered = set(workload_names())
    assert inputs.hotpath_names(0) == list(inputs.SMOKE)
    names = inputs.hotpath_names(7)
    assert not registered & set(names)
    assert names == inputs.hotpath_names(7)
    assert build_workload(names[0], 0.3).name == names[0]
    assert [p.op_id for p in inputs.hotpath_keys(7)] == [
        p.op_id for p in inputs.hotpath_points(7)]
    for seed in range(12):
        spec, order = inputs.sweep_benchmarks(seed)
        assert sorted(order) == sorted(inputs.SMOKE)
    assert inputs.sweep_benchmarks(0)[0] == "smoke"


def test_pass_order_interleaves_every_point():
    points = inputs.hotpath_points(0)
    for index in range(4):
        order = inputs.pass_order(points, index)
        assert sorted(p.op_id for p in order) == sorted(
            p.op_id for p in points)
    assert inputs.pass_order(points, 1)[0].config_name == "none"


def test_benchmark_json_matches_the_catalogue():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(doc) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}
    assert [w["name"] for w in doc["workloads"]] == ["hotpath", "fig4_sweep"]
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200
               for w in doc["workloads"])
    e2e = {m["name"]: m for m in doc["end_to_end"]}
    assert list(e2e) == list(catalogue.END_TO_END)
    for name, (unit, better, _) in catalogue.END_TO_END.items():
        assert (e2e[name]["unit"], e2e[name]["better"]) == (unit, better)
        assert 0 < e2e[name]["bound"] <= 0.25
    assert e2e["setup_s"]["bound"] == max(m["bound"] for m in e2e.values())
    layers = {m["name"]: m for m in doc["per_layer"]}
    assert list(layers) == list(catalogue.PER_LAYER)
    for name, layer in catalogue.PER_LAYER.items():
        assert layers[name] == {"name": name, "unit": layer.unit,
                                "better": layer.better}


def test_refuses_to_run_without_the_simulator(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "hotpath",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.parametrize("trace", ["0", "1"])
def test_hotpath_result_line(trace):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", "hotpath", "--seed", "2",
         "--seconds", "0.1", "--trace", trace],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    line = json.loads(proc.stdout.splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0
    names = catalogue.PER_LAYER if trace == "1" else catalogue.END_TO_END
    assert list(line["metrics"]) == list(names)
    if trace == "0":
        assert all(m["value"] > 0 for m in line["metrics"].values())
