"""Tests of the benchmark's own machinery: tracing coverage, span arithmetic,
tail percentiles, seeded inputs and failure accounting.

    python3 -m pytest -q bench
"""
from __future__ import annotations

import sys
import time

import pytest

import calibration
import run
import tracing
import workloads

cli, _ = run.load_package()
from asymclone import cloner, gates, pauli, qstate  # noqa: E402

BY_NAME_IMPORTS = [
    (cloner, "apply_cnot"), (cloner, "tensor"), (cloner, "to_density"), (cloner, "partial_trace"),
    (cli, "apply_cnot"), (cli, "tensor"), (cli, "to_density"), (cli, "partial_trace"), (cli, "reorder"),
    (pauli, "tensor"), (pauli, "reorder"), (pauli, "cloning_network"),
]


def _package_bindings():
    return [
        (module, key, value)
        for module in tracing._package_modules()
        for key, value in list(vars(module).items())
    ]


def test_every_binding_resolves_to_wrapper_while_tracing_and_to_original_after():
    before = _package_bindings()
    originals = {key: getattr(sys.modules[f"asymclone.{m}"], a) for key, (m, a) in zip(tracing.NAMES, tracing.TARGETS)}
    with tracing.Tracer() as tracer:
        for module, attr in BY_NAME_IMPORTS:
            key = f"{getattr(module, attr).__module__.split('.')[-1]}.{attr}"
            assert getattr(module, attr) is tracer.wrappers[key], (module.__name__, attr)
        for module, key, value in before:
            for name, original in originals.items():
                if value is original and not isinstance(original, type):
                    assert getattr(module, key) is tracer.wrappers[name], (module.__name__, key)
        for cls in (qstate.StateVector, qstate.DensityMatrix):
            assert cls.__init__ is tracer.wrappers[f"qstate.{cls.__name__}"]
    for module, key, value in before:
        assert getattr(module, key) is value, (module.__name__, key)
    assert gates.apply_cnot is originals["gates.apply_cnot"]


def test_traced_solve_counts_the_branch_oracle():
    tracer = tracing.Tracer()
    with tracer:
        outcome, _ = run.call(cli, ["solve", "0.5", "0.3"])
    assert outcome.code == 0
    metrics = tracer.layer_metrics(1.0)
    assert metrics["cli.main.calls"] == 1
    assert metrics["cloner.solve_prep.calls"] == 1
    assert metrics["cloner.run_cloner.calls"] == 6
    assert metrics["cloner.solve_prep.oracle_runs_per_call"] == 6
    assert metrics["cloner.run_cloner.useful_ratio"] == 0
    assert metrics["qstate.DensityMatrix.per_run_cloner"] == 4
    assert metrics["cli.main.errors"] == 0
    assert set(metrics) == set(tracing.layer_metric_units())
    assert metrics["cli.main.total_ms"] >= metrics["cloner.solve_prep.total_ms"] > 0


def test_traced_exception_marks_every_open_span():
    tracer = tracing.Tracer()
    with tracer:
        outcome, _ = run.call(cli, ["solve", "nan", "0.5"])
    assert outcome.raised == "ValueError"
    metrics = tracer.layer_metrics(1.0)
    assert metrics["cli.main.errors"] == 1
    assert metrics["cloner.feasibility.errors"] == 1


def test_self_time_subtracts_the_union_of_child_spans():
    # root [0, 100]: children [10, 30] and [20, 50] overlap, [60, 70] is apart,
    # [90, 120] sticks out; grandchild [12, 18] belongs to the first child only
    starts = [0, 10, 20, 60, 90, 12]
    ends = [100, 30, 50, 70, 120, 18]
    parents = [-1, 0, 0, 0, 0, 1]
    assert tracing.self_times(starts, ends, parents) == [100 - 40 - 10 - 10, 20 - 6, 30, 10, 30, 6]


@pytest.mark.parametrize(
    "n, label, rank",
    [(1000, "p99", 990), (999, "p95", 950), (100, "p90", 90), (40, "p75", 30), (20, "p50", 10), (19, "max", 19)],
)
def test_tail_is_the_highest_percentile_with_ten_samples_beyond(n, label, rank):
    samples = [float(i) for i in range(n, 0, -1)]
    got_label, value = run.tail_percentile(samples)
    assert (got_label, value) == (label, float(rank))
    assert label == "max" or sum(s > value for s in samples) >= 10
    assert value >= run.percentile(samples, 50.0)


@pytest.mark.parametrize("workload", sorted(workloads.PASSES))
def test_same_seed_gives_same_inputs(workload):
    first = [op.argv for op in workloads.make_pass(workload, 7, 0)]
    assert first == [op.argv for op in workloads.make_pass(workload, 7, 0)]
    if workload != "sweep":  # the sweep pass is a seeded order of the same grids
        assert first != [op.argv for op in workloads.make_pass(workload, 8, 0)]


@pytest.mark.parametrize("workload, share", [("requests", 8 / 400), ("pauli", 6 / 320)])
def test_failures_are_exactly_the_known_defect_hits(workload, share):
    ops = workloads.make_pass(workload, 3, 0)
    tally = run.Tally({})
    timed = run.run_ops(cli, ops, tally)
    attempted, failed = run.counts(timed)
    assert tally.unexpected == []
    assert failed == sum(op.defect is not None for op in ops) == round(share * attempted)
    assert sum(op.kind.startswith("malformed:") for op in ops) == len(ops) // workloads.MALFORMED_EVERY


def test_checks_reject_wrong_answers():
    op = workloads.Op(["clone", "--state=0", "--s0", "0.5", "--s1", "0.3"], "clone",
                      expect={"s0": 0.5, "s1": 0.3, "input": [1, 0]})
    good, _ = run.call(cli, op.argv)
    assert workloads.check(op, good) == (0, None)
    wrong = workloads.Outcome(0, None, good.stdout.replace('"s0_est": 0.5', '"s0_est": 0.6'), "")
    assert workloads.check(op, wrong)[0] == 1
    infeasible = workloads.Op(["solve", "0.9", "0.9"], "solve-text", expect={"s0": 0.9, "s1": 0.9})
    assert workloads.check(infeasible, workloads.Outcome(0, None, "", ""))[0] == 1
    nan_json = workloads.Op(["pauli", "nan", "0", "0", "0"], "malformed:pauli-nan", expect={"exits": {1}})
    assert workloads.check(nan_json, workloads.Outcome(1, None, '{"x": NaN}', "bad\n"))[0] == 1


def test_sweep_check_catches_a_flipped_feasible_flag():
    op = workloads.sweep_pass(workloads.random.Random(0))[0]
    outcome, _ = run.call(cli, op.argv)
    assert workloads.check(op, outcome) == (0, None)
    flipped = outcome.stdout.replace("\n1,0,true,", "\n1,0,false,", 1)
    assert flipped != outcome.stdout
    assert workloads.check(op, workloads.Outcome(0, None, flipped, ""))[0] == 1


def test_calibration_scales_a_call_by_the_measured_host_speed(monkeypatch):
    # a host that runs the unit at half the reference speed halves every scaled time
    monkeypatch.setattr(calibration, "unit", lambda: time.sleep(2 * calibration.UNIT_REF_S))
    calibrator = calibration.Calibrator()
    scaled = calibrator.scale(0.01)
    assert calibrator.seconds >= max(calibration.SHARE * 0.01, calibration.MIN_S)
    assert 0.3 * 0.01 < scaled <= 0.5 * 0.01
    assert 0.3 < calibrator.speed() <= 0.5


def test_calibration_unit_does_not_touch_the_package():
    assert "asymclone" not in calibration.unit.__globals__
    assert calibration.unit() == calibration.unit()
