"""The layer tracer restores what it patches and changes no result."""

import dataclasses

from layers import LayerTracer
from repro.experiments.common import run_job_grid
from repro.offload.migration import AGGRESSIVE
from repro.runner import JobSpec, worker
from repro.service.config import ServiceConfig
from repro.sim.config import TEST_SCALE, SimulatorConfig
from repro.sim.simulator import make_policy, simulate
from repro.workloads.presets import get_workload

CLOSED = SimulatorConfig(profile=TEST_SCALE)
OPEN = dataclasses.replace(
    CLOSED, num_user_cores=2,
    service=ServiceConfig(arrivals="poisson", mean_interarrival_cycles=4000.0,
                          os_cores=2, dispatch="shortest"),
)


def _current(owner, name):
    return owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)


def _outcome(config, trace_store=None):
    run = simulate(get_workload("apache"), make_policy("HI", threshold=100),
                   AGGRESSIVE, config, trace_store=trace_store)
    return dataclasses.asdict(run.stats), run.latency


def test_uninstall_restores_every_patched_attribute():
    tracer = LayerTracer()
    tracer.install()
    patched = list(tracer._patches)
    assert len(patched) > 20
    for owner, name, original in patched:
        assert _current(owner, name) is not original, (owner, name)
    tracer.uninstall()
    assert not tracer._patches
    for owner, name, original in patched:
        assert _current(owner, name) is original, (owner, name)


def test_traced_runs_are_bit_identical_and_fully_covered():
    expected = [_outcome(CLOSED), _outcome(OPEN)]
    with LayerTracer() as tracer:
        traced = [_outcome(CLOSED), _outcome(OPEN)]
    assert traced == expected
    assert tracer.counts["engine.runs"] == 2
    assert all(ns >= 0 for ns in tracer.self_ns.values())
    assert tracer.counts["engine.covered_ns"] <= tracer.counts["engine.wall_ns"]
    assert tracer.counts["engine.covered_ns"] > 0.97 * tracer.counts["engine.wall_ns"]
    assert tracer.counts["memory.refs"] == tracer.counts["workloads.refs"] > 0
    assert tracer.counts["service.requests"] > 0
    assert tracer.counts["core.decisions"] > 0


def test_traced_grid_workers_report_back(tmp_path):
    specs = [JobSpec(workload="apache", threshold=n) for n in (0, 10000)]

    def grid():
        worker._BASELINE_MEMO.clear()
        worker._STORES.clear()
        batch = run_job_grid(specs, CLOSED, jobs=2)
        return {job.job_id: job.metrics for job in batch}

    expected = grid()
    worker_dir = tmp_path / "workers"
    worker_dir.mkdir()
    with LayerTracer(worker_dir=str(worker_dir)) as tracer:
        traced = grid()
    assert traced == expected
    assert tracer.collect_workers() >= 1
    assert not list(worker_dir.iterdir())
    assert tracer.counts["engine.runs"] >= len(specs) + 1
    assert tracer.take_busy()
    assert not tracer.busy_s

