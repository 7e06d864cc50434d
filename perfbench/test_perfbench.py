"""Tests of the benchmark itself: checks, failure counting, tracing, output.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import dataclasses
import gzip
import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from helmlab import experiments, fem  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _first_item(workload, prefix):
    return next(item for item in workload.items if item.id.startswith(prefix))


def _one_pass(items, tracer=None):
    """(untraced times, traced times, failures) of exactly one pass."""
    untraced, traced, _, failures, _ = run.run_passes(items, 0.0, tracer)
    return untraced, traced, failures


def test_table1_perturbed_cell_counts_as_failed():
    item = _first_item(workloads.table1(0, smoke=True), "table1/m2_r0.4")
    row = item.run()
    assert not row.asterisk and item.check(row) == []
    bumped = dataclasses.replace(row, value=row.value * 1.001)
    assert item.check(bumped)
    _, _, failures = _one_pass([dataclasses.replace(item, run=lambda: bumped)])
    assert [f[0] for f in failures] == [item.id]


def test_table1_asterisk_cell_within_fifteen_percent():
    item = _first_item(workloads.table1(0, smoke=True), "table1/m2_r0.4")
    row = item.run()
    exact = row.run.values[-1]
    star = dataclasses.replace(row, asterisk=True)
    assert workloads.check_table1_row(star, exact * 1.14) == []
    assert workloads.check_table1_row(star, exact * 1.2)


def test_flagged_residual_counts_as_failed():
    wl = workloads.reference(0, smoke=True)
    item = _first_item(wl, "oracle-table1/")
    amps, norms = item.run()
    assert item.check((amps, norms)) == []
    flagged = dataclasses.replace(amps, flagged=True)
    assert item.check((flagged, norms))
    rand = _first_item(wl, "random/")
    result = rand.run()
    assert rand.check(result) == []
    assert rand.check(dataclasses.replace(result, amps=flagged))
    _, _, failures = _one_pass([dataclasses.replace(item, run=lambda: (flagged, norms))])
    assert len(failures) == 1


def test_energy_bound_and_multiplier_failures_count():
    rand = _first_item(workloads.reference(0, smoke=True), "random/")
    result = rand.run()
    assert rand.check(dataclasses.replace(result, bound=0.5 * result.norms[2]))
    bad = dataclasses.replace(result.diagnostics, passed=False)
    assert rand.check(dataclasses.replace(result, diagnostics=bad))


def test_quasiopt_check_rejects_broken_ladders():
    probe = experiments.QuasiOptimalityProbe(
        (0, 1, 2), (4.0, 2.0, 1.0), (2.0, 1.0, 0.5), (1.0, 0.25, 0.0625))
    assert workloads.check_quasiopt(probe) == []
    assert workloads.check_quasiopt(dataclasses.replace(
        probe, interp_errors=(2.0, 1.0, 0.7)))
    assert workloads.check_quasiopt(dataclasses.replace(
        probe, energy_errors=(4.0, math.nan, 1.0)))


def test_exception_is_a_failed_item_and_the_pass_goes_on():
    def boom():
        raise fem.SingularSystemError("zero pivot", 3)

    items = [workloads.Item("boom", boom, lambda out: []),
             workloads.Item("fine", lambda: 1, lambda out: [])]
    times, _, failures = _one_pass(items)
    assert [f[0] for f in failures] == ["boom"]
    assert {k: len(t) for k, t in times.items()} == {"boom": 1, "fine": 1}


def test_run_measures_round_and_round_the_items():
    items = [workloads.Item(f"i{k}", lambda: None, lambda out: []) for k in range(3)]
    untraced, traced, attempted, failures, _ = run.run_passes(items, 0.02)
    runs = sorted(len(t) for t in untraced.values())
    assert not any(traced.values()) and not failures
    assert runs[-1] - runs[0] <= 1 and sum(runs) == attempted >= 3


def test_traced_run_pairs_each_untraced_run_with_a_traced_one():
    items = [workloads.Item(f"i{k}", lambda: None, lambda out: []) for k in range(3)]
    tracer = tracing.Tracer()
    untraced, traced, attempted, failures, _ = run.run_passes(items, 0.02, tracer)
    assert {k: len(t) for k, t in untraced.items()} == \
        {k: len(t) for k, t in traced.items()}
    assert attempted == 2 * sum(len(t) for t in traced.values()) and not failures
    assert sum(len(t) for t in traced.values()) == len(tracer.spans)


def test_item_costs_are_fastest_runs_scaled_by_the_probe():
    items = [workloads.Item(f"i{k}", lambda: None, lambda out: []) for k in range(2)]
    *_, probe = run.run_passes(items, 0.0)
    assert len(probe.seconds) == 2  # before the first item and at the end
    probe.seconds = [6.0, 1.0, 2.0, 3.0, 9.0]  # lower quartile 1.5
    scale = run.PROBE_REFERENCE_S / 1.5
    assert probe.scale() == pytest.approx(scale)
    times = {"a": [3.0, 1.0, 2.0], "b": [5.0, 4.0]}
    e2e = run.end_to_end_metrics([0.5, 0.1, 0.9], times, probe.scale())
    assert e2e["wall_s"] == pytest.approx(5.0 * scale)
    assert e2e["item_ms.p50"] == pytest.approx(2500.0 * scale)
    assert e2e["setup_s"] == pytest.approx(0.5 * scale)


def test_inputs_follow_the_seed():
    def omega(seed):
        return workloads.random_layered_params(np.random.default_rng(seed), 3).omega

    def order(seed):
        return [item.id for item in workloads.reference(seed, smoke=True).items]

    assert omega(5) == omega(5) != omega(6)
    assert order(5) == order(5)


def test_tracer_self_times_account_for_items_and_restore():
    original = fem.assemble
    tracer = tracing.Tracer()
    wl = workloads.table1(0, smoke=True)
    _, _, failures = _one_pass(wl.items, tracer)
    assert fem.assemble is original and not failures
    items = [s for s in tracer.spans if s[0] == tracing.ITEM_SPAN]
    inside = sum(end - start for _, start, end, _, _ in items)
    assert sum(tracer.self_times().values()) == pytest.approx(inside, rel=1e-9)
    assert all(s[4] is not None for s in tracer.spans)
    layer = tracer.layer_metrics()
    assert layer["fem.factorize.s"] > 0 and layer["fem.nodes"] > 0
    assert layer["fem.solve_vector.calls"] > 0 and layer["oracle.eval.points"] == 0
    named = sum(layer[m] for m, span in tracing.SELF_TIME_METRICS.items()
                if span != tracing.ITEM_SPAN)
    total = named + layer["bench.item.s"] + layer["other.s"]
    assert total == pytest.approx(inside, rel=1e-9)
    assert layer["trace.coverage"] == pytest.approx(named / total)


def test_coefficient_construction_is_a_layer_of_its_own():
    tracer = tracing.Tracer()
    rand = _first_item(workloads.reference(0, smoke=True), "random/")
    _one_pass([rand], tracer)
    layer = tracer.layer_metrics()
    assert layer["coeffs.construct.s"] > 0 and layer["problem.construct.s"] > 0
    assert layer["bench.item.s"] < layer["coeffs.construct.s"]


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_prints_every_metric_with_its_unit(workload, trace, capsys, tmp_path):
    t0 = time.perf_counter()
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0.1",
                     "--trace", str(trace)], smoke=True, out_dir=tmp_path)
    elapsed = time.perf_counter() - t0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert code == 0 and elapsed < 30.0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == \
        {k: v["unit"] for k, v in result["metrics"].items()}
    for m in SPEC["end_to_end"] + (SPEC["per_layer"] if trace else []):
        assert any(line.startswith(f"metric {m['name']} = ")
                   and f" {m['unit']}" in line for line in lines), m["name"]
    assert any(line.startswith("metric failed_ratio = 0 ") for line in lines)
    assert '"seed": 3' in next(line for line in lines if line.startswith("provenance "))
    if trace:
        with gzip.open(tmp_path / f"spans-{workload}.jsonl.gz", "rt") as fh:
            header, first = json.loads(next(fh)), json.loads(next(fh))
        assert header["seed"] == 3 and first["name"] == tracing.ITEM_SPAN


def test_run_without_sources_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "table1", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0 and done.stdout == ""
