"""The benchmark's own tests.

    python3 -m pytest perfbench/test_perfbench.py -q

They run the real workloads at their real sizes (a few minutes in all): the
checks pass on real output and catch injected faults, two traced passes
give identical counts and byte-identical CSVs, every listed metric is
reported, and a traced function that disappears is reported as absent.
"""

import copy
import json
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

SPEC, PROBLEM = run.prepare()
if PROBLEM:
    pytest.skip(PROBLEM, allow_module_level=True)

import layers  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

NAMES = [w["name"] for w in SPEC["workloads"]]


def test_spec_names_the_code_workloads():
    assert NAMES == list(workloads.WORKLOADS)


@pytest.fixture(scope="module", params=NAMES)
def first_pass(request, tmp_path_factory):
    workload = workloads.WORKLOADS[request.param]
    bench = run.Run(workload, workloads.DEFAULT_SEED, tmp_path_factory.mktemp(request.param))
    _, _, results = bench.run()
    return bench, results


def test_checks_pass_and_every_injected_fault_fails(first_pass):
    bench, results = first_pass
    assert bench.correct, bench.problems
    assert bench.attempted == len(bench.workload.ops) and bench.failed == 0
    faults = bench.workload.faults(results)
    assert len(faults) >= 2
    for label, faulty in faults:
        failures = workloads.check(bench.workload, faulty, bench.inputs, bench.references)
        assert any(failures.values()), label


def test_recorded_references_catch_a_small_perturbation(first_pass):
    bench, results = first_pass
    assert str(workloads.DEFAULT_SEED) in bench.references
    for op in bench.workload.ops:
        if op.reference is None:
            continue
        faulty = copy.deepcopy(results)
        result = faulty[op.name]
        if result.value is not None:
            result.value[1].objectives[-1] *= 1.0 + 2 * op.tolerance
        elif op.relative:
            for row in result.rows:
                row["taur"] = repr(float(row["taur"]) * (1.0 + 2 * op.tolerance))
        else:
            row = result.rows[0]
            row["weight_user_1"] = repr(float(row["weight_user_1"]) + 2 * op.tolerance)
        reasons = workloads._reference_errors(op, result, bench.references["0"][op.name])
        assert reasons, op.name


@pytest.mark.parametrize("name", NAMES)
def test_traced_run_is_exact_and_reports_every_metric(name, tmp_path):
    bench, metrics = run.measure_traced(workloads.WORKLOADS[name], workloads.DEFAULT_SEED, 0, tmp_path)
    # identical counts and byte-identical traced CSVs are part of correctness
    assert bench.correct, bench.problems
    listed = [m["name"] for m in SPEC["per_layer"]]
    assert sorted(metrics) == sorted(listed)
    if name == "fairness_jtpc":
        # the silent round cap of apply_policy at 0 dB stays visible
        assert metrics["powercontrol.apply_rounds"] == 300
        assert metrics["powercontrol.apply_at_cap"] == 1
        assert metrics["fairness.iterations"] == 16 + 21
    if name == "frames_n8":
        assert metrics["simulate.frames"] == 40_000
        assert metrics["channel.sample_gains.calls"] == 40_000


def test_end_to_end_metrics_match_the_spec(tmp_path):
    bench, metrics = run.measure(workloads.WORKLOADS["frames_n8"], workloads.DEFAULT_SEED, 0, tmp_path)
    assert bench.correct, bench.problems
    assert sorted(metrics) == sorted(m["name"] for m in SPEC["end_to_end"])
    assert all(value > 0 for value in metrics.values())


def test_a_missing_function_is_absent_and_wrappers_are_restored():
    from utilsched import fairness, simulate, timeshare
    from utilsched.utility import LogUtility

    original_allocate = timeshare.allocate_ts
    original_value = LogUtility.__dict__["value"]
    tracer = spans.Tracer()
    tracer.install("gone.function", "timeshare", "no_such_function")
    tracer.install("gone.module", "no_such_module", "anything")
    tracer.install("timeshare.allocate_ts", "timeshare", "allocate_ts")
    tracer.install("utility.value", "utility", "LogUtility.value")
    assert tracer.absent == ["gone.function", "gone.module"]
    assert simulate.allocate_ts is fairness.allocate_ts is not original_allocate
    LogUtility(0.1).value(1.0)
    timeshare.allocate_ts([1.0, 2.0], LogUtility(0.1))
    assert tracer.stats["utility.value"].calls == 1
    assert tracer.stats["timeshare.allocate_ts"].calls == 1
    tracer.restore()
    assert simulate.allocate_ts is fairness.allocate_ts is timeshare.allocate_ts is original_allocate
    assert LogUtility.__dict__["value"] is original_value


def test_spans_split_self_time_from_children():
    from utilsched import cli

    tracer = spans.Tracer()
    tracer.install("cli.main", "cli", "main")
    tracer.install("cli.build_parser", "cli", "build_parser")
    try:
        with pytest.raises(SystemExit):
            cli.main(["--help"])
    finally:
        tracer.restore()
    outer, inner = tracer.stats["cli.main"], tracer.stats["cli.build_parser"]
    assert outer.calls == inner.calls == 1
    assert outer.self_s == pytest.approx(outer.total_s - inner.total_s)


def test_hooks_that_cannot_read_a_result_leave_metrics_absent():
    probe = layers.LayerProbe()
    probe.tracer.stats["powercontrol.apply_policy"] = spans.SpanStats(False)
    probe.tracer.broken.add("powercontrol.apply_policy")
    metrics = probe.metrics()
    assert "powercontrol.apply_policy.self_s" in metrics
    assert "powercontrol.apply_rounds" not in metrics


def test_speed_probe_scales_to_reference_and_restores_the_handler():
    import signal

    import speed

    before = signal.getsignal(signal.SIGALRM)
    with speed.SpeedProbe() as probe:
        mark = probe.mark()
        stop = time.perf_counter() + 0.2
        while time.perf_counter() < stop:
            pass
    assert signal.getsignal(signal.SIGALRM) is before
    assert len(probe.samples) > mark
    probe.samples = [2 * speed.REFERENCE_S, 2 * speed.REFERENCE_S]
    # half the reference speed: the time less the probe's own time, halved
    assert probe.scaled(1.0, 0) == pytest.approx((1.0 - 4 * speed.REFERENCE_S) / 2)
    assert probe.scaled(1.0, 2) == 1.0


def test_benchmark_json_shape():
    spec = json.loads(run.SPEC.read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25
