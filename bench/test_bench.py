"""Tests of the benchmark itself: seeded inputs, tracing transparency, percentiles.

    PYTHONPATH=src python3 -m pytest bench -q
"""

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import sparsemix as sm  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_depend_only_on_seed(name, tmp_path):
    make = workloads.WORKLOADS[name]
    first, again, other = make(7, tmp_path), make(7, tmp_path), make(8, tmp_path)
    assert [first.inputs(i) for i in range(5)] == [again.inputs(i) for i in range(5)]
    assert [first.inputs(i) for i in range(5)] != [other.inputs(i) for i in range(5)]
    assert len({repr(first.inputs(i)) for i in range(5)}) == 5


def test_traced_and_untraced_mc_reports_are_identical():
    setting = sm.TestingSetting(sm.MixtureModel(p=0.01, sigma_sq=1.0, tau_sq=16.0), sm.Losses(1.0, 1.0), m=2000)

    def reports():
        return (sm.mc_run(setting, sm.BhRule(0.1), 6, 3, workers=2),
                sm.mc_conditional_k(setting, sm.GwRule(0.1), 5, 6, 4, workers=2))

    plain = reports()
    original = sm.mc_run
    tracer = spans.Tracer()
    tracer.install()
    try:
        with tracer.span():
            traced = reports()
    finally:
        tracer.uninstall()
    assert traced == plain
    assert sm.mc_run is original
    metrics = tracer.report(tracer.arrays(), untraced_wall_ns=1)
    assert metrics["montecarlo.mc_run.calls"] == 1
    assert metrics["montecarlo.replicates"] == 12
    assert metrics["procedures.bh_reject.calls"] == 6
    assert metrics["montecarlo.concurrency"] > 0.0


def test_self_times_partition_a_single_thread_trace():
    tracer = spans.Tracer()
    tracer.install()
    try:
        with tracer.span():
            sm.bfdr_threshold(sm.MixtureModel(p=0.01, sigma_sq=1.0, tau_sq=16.0), sm.BfdrLevel(0.05))
    finally:
        tracer.uninstall()
    data = tracer.arrays()
    wall = int((data["end"] - data["start"])[data["name"] == 0].sum())
    assert int(data["self"].sum()) == wall
    metrics = tracer.report(data, untraced_wall_ns=wall)
    assert metrics["bfdr.bfdr_threshold.evals_per_solve"] > 10


@pytest.mark.parametrize("n, ok", [(99, False), (100, True), (250, True)])
def test_p90_needs_ten_samples_beyond_it(n, ok):
    samples = list(range(n, 0, -1))
    if not ok:
        with pytest.raises(ValueError):
            run.percentile(samples, 0.9)
        return
    value = run.percentile(samples, 0.9)
    assert sum(s > value for s in samples) >= 10
    assert sum(s <= value for s in samples) >= 0.9 * n


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_checks_pass_on_a_short_run(name, tmp_path):
    wl = workloads.WORKLOADS[name](1, tmp_path)
    bench_run = run.Run(wl)
    for i in range(3):
        bench_run.check(i, wl.run_unit(i))
    assert bench_run.failed == 0
    assert wl.finish() == []


def test_traced_run_does_a_fixed_amount_of_work(tmp_path):
    large = workloads.StepUpLarge
    metrics = []
    for _ in range(2):
        tracer = spans.Tracer()
        bench_run = run.Run(large(1, tmp_path))
        plain_ns = bench_run.traced(tracer, units=2)
        assert bench_run.failed == 0
        metrics.append(tracer.report(tracer.arrays(), plain_ns))
    exact = ("model.sample.calls", "model.sample.bytes", "procedures.elements", "montecarlo.replicates")
    assert [{k: m[k] for k in exact} for m in metrics] == [{
        "model.sample.calls": 2 * large.REPS,
        "model.sample.bytes": 2 * large.REPS * large.M * spans.SAMPLE_BYTES_PER_ELEMENT,
        "procedures.elements": 2 * large.REPS * large.M,
        "montecarlo.replicates": 2 * large.REPS,
    }] * 2
