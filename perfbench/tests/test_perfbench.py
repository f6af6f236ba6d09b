"""Tests of the benchmark itself: row check, span arithmetic, wrappers.

Run with:  python3 -m pytest perfbench/tests
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402


def test_perturbed_exact_value_counts_as_failed_row(tmp_path):
    sys.path.insert(0, str(ROOT / "src"))
    from quditcorr import cli

    config = dict(run.LR_SWEEP_N4, steps=3, lambdas=[0.2], seed=99)
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    assert cli.main(["run", "--config", str(cfg_path), "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "results.csv").read_text().splitlines(keepends=True)
    ref = reference.reference_values(config)
    assert len(lines) == 1 + len(reference.expected_keys(config))
    assert reference.failed_rows("".join(lines), config, ref) == []

    fields = lines[5].split(",")
    fields[4] = repr(float(fields[4]) + 1e-6)  # the "exact" column
    lines[5] = ",".join(fields)
    failures = reference.failed_rows("".join(lines), config, ref)
    assert len(failures) == 1
    assert failures[0].startswith("row 5 ")


def _span(sid, parent, name, thread, start, end, raised=False):
    return [sid, parent, name, thread, start, end, raised]


def test_self_time_arithmetic_on_hand_built_tree():
    spans = [
        _span(1, None, "cli.run", 1, 0.0, 10.0),
        _span(2, 1, "benchmark.run_quench_study", 1, 1.0, 9.0),
        # Two pool-thread tasks overlapping in time under the study.
        _span(3, 2, "dynamics.evolve", 2, 2.0, 6.0),
        _span(4, 2, "dynamics.evolve", 3, 3.0, 8.0),
        _span(5, 3, "register.apply_local", 2, 4.0, 5.0, raised=True),
    ]
    selfs = tracing.self_times(spans)
    assert selfs == {1: 2.0, 2: 2.0, 3: 3.0, 4: 5.0, 5: 1.0}

    metrics = tracing.layer_metrics({"spans": spans, "counters": {}})
    assert metrics["cli.run.self_s"] == 2.0
    assert metrics["dynamics.evolve.calls"] == 2
    assert metrics["dynamics.evolve.self_s"] == 8.0
    assert metrics["register.apply_local.errors"] == 1
    assert metrics["benchmark.brute_force_correlators.calls"] == 0
    assert metrics["cli.output_s"] == 2.0
    assert metrics["benchmark.run_quench_study.parallelism"] == pytest.approx(9.0 / 8.0)
    # Child intervals reaching outside the parent are clipped to it.
    assert tracing.covered_length([(-1.0, 2.0), (1.5, 3.0), (5.0, 20.0)], 0.0, 6.0) == 4.0


def test_wrappers_take_effect_on_krylov_n8(tmp_path):
    # Two grid points keep the test short; the path (N = 8 Krylov, two
    # pool workers, both protocols, no dense reference) is the workload's.
    config = dict(run.WORKLOADS["krylov_n8"], steps=2, seed=5)
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    spans_path = tmp_path / "spans.json"
    cmd = [
        sys.executable,
        str(BENCH / "tracing.py"),
        "--spans",
        str(spans_path),
        "--",
        "run",
        "--config",
        str(cfg_path),
        "--out",
        str(tmp_path),
    ]
    subprocess.run(cmd, cwd=ROOT, env=run.child_env(), check=True, timeout=300)

    doc = json.loads(spans_path.read_text())
    # evolve is bound in dynamics, hadamard, linear_response, benchmark and the package.
    assert doc["bindings"]["dynamics.evolve"] >= 5
    metrics = tracing.layer_metrics(doc)
    assert metrics["benchmark.brute_force_correlators.calls"] == 0
    assert metrics["dynamics.evolve.calls"] > 0
    assert metrics["linear_response.measure_lr.calls"] > 0
    assert metrics["dynamics.make_propagator.live_max"] > 0
    assert metrics["benchmark.run_quench_study.parallelism"] > 1.0
    text = (tmp_path / "results.csv").read_text()
    assert reference.failed_rows(text, config, reference.reference_values(config)) == []


def test_benchmark_json_lists_the_metrics_the_runner_prints():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in doc["per_layer"]} == tracing.metric_specs()
    assert {w["name"] for w in doc["workloads"]} <= set(run.WORKLOADS)
