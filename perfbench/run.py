"""Outside-in benchmark of the selective OS off-loading simulator.

Runs one workload of the paper's cells for a fixed host-time budget and
prints every metric by name with its unit, then one JSON result line::

    python3 perfbench/run.py --workload paper-cells --seed 2010 --seconds 30 --trace 0
    python3 perfbench/run.py --workload fig4-grid-warm --seed 3 --seconds 30 --trace 1

``--trace 0`` reports the end-to-end metrics from untraced passes.
``--trace 1`` spends half the budget on untraced passes and half on
passes traced layer by layer (see ``layers.py``), and reports the
per-layer metrics.  Every pass is checked against the reference outputs
(``check.py``).  Host times are reported in reference-host seconds: each
is scaled by the host-speed probe of ``calibrate.py`` measured around it
(``CALIBRATION_REFERENCE_S`` / probe seconds).  Run from anywhere; the simulator is imported from the
``src/`` directory next to this one, and scratch state lives in
``.perfbench/`` beside it.

``--record-reference`` runs one pass and stores its cells as the
reference for ``--seed``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
STATE_DIR = os.path.join(ROOT, ".perfbench")

#: Set-up repetitions per run: ``setup_s`` is the median interpreter
#: start + import over IMPORT_REPEATS fresh processes plus the median
#: of SETUP_REPEATS workload set-ups (construction, and the store fill
#: on fig4-grid-warm, which costs a whole cold pass).
IMPORT_REPEATS = 9
SETUP_REPEATS = 3

#: The simulator's default seed; ``reference.json`` records its outputs.
DEFAULT_SEED = 2010

#: Traced-run self-check tolerances: layer self times must cover the
#: traced ``run()`` wall time, and the memory layer's time must agree
#: with the simulator's own ``sim.mem.*`` span on one apache cell (the
#: span also covers the engine's replay glue, so it reads a little
#: higher).
COVERAGE_TOLERANCE = 0.03
SPAN_RATIO_RANGE = (0.75, 1.05)

#: Host-speed probe time on a quiet reference host (the 2-vCPU Xeon VM
#: the benchmark was defined on); it only fixes the unit of the scaled
#: host-time metrics.
CALIBRATION_REFERENCE_S = 0.1
CALIBRATE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "calibrate.py")


class HostSpeed:
    """The host-speed probe child process; see ``calibrate.py``."""

    def __init__(self) -> None:
        self._process = subprocess.Popen(
            [sys.executable, CALIBRATE], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True, cwd=ROOT,
        )
        self.samples: List[float] = []

    def probe(self) -> float:
        """Run the probe once; returns its seconds."""
        self._process.stdin.write("\n")
        self._process.stdin.flush()
        seconds = float(self._process.stdout.readline())
        self.samples.append(seconds)
        return seconds

    def close(self) -> None:
        self._process.stdin.close()
        self._process.wait(timeout=30)


def import_repro() -> Any:
    """Import the simulator from this checkout's ``src/`` only."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise SystemExit(f"error: simulator sources not found under {SRC}")
    sys.path.insert(0, SRC)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: imported repro from {repro.__file__}, not {SRC}")
    return repro


def import_seconds() -> float:
    """Interpreter start plus ``import repro`` in a fresh process."""
    env = dict(os.environ, PYTHONPATH=SRC)
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import repro"], env=env, cwd=ROOT, check=True
    )
    return time.perf_counter() - start


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest finished child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def environment(seed: int, config: Any) -> Dict[str, Any]:
    import numpy

    from repro.memory.columnar import columnar_backend
    from repro.memory.miss_path import miss_path_backend

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "profile": config.profile.name,
        "seed": seed,
        "engine": config.engine,
        "columnar_backend": columnar_backend(),
        "miss_path_backend": miss_path_backend(),
    }


def run_passes(workload: Any, checker: Any, host: HostSpeed, seconds: float,
               min_passes: int, after_pass: Any = None) -> List[Any]:
    """Repeat passes until ``seconds`` have elapsed (at least ``min_passes``).

    Each pass records the mean of the host-speed probes before and after
    it.  Cells whose outputs fail the check move from ``cells`` to
    ``errors``.
    """
    passes = []
    deadline = time.perf_counter() + seconds
    before = host.probe()
    while len(passes) < min_passes or time.perf_counter() < deadline:
        result = workload.run_pass()
        after = host.probe()
        result.host_s = (before + after) / 2
        before = after
        if after_pass is not None:
            after_pass(result)
        for cell, problem in checker.check(result.cells).items():
            del result.cells[cell]
            result.errors[cell] = f"output mismatch: {problem}"
        passes.append(result)
    return passes


def span_ratio(tracer: Any, config: Any) -> float:
    """Traced memory time over the ``sim.mem.*`` span time, one apache cell."""
    from repro.obs import names
    from repro.obs.spans import SpanProfiler, flatten_self_times
    from repro.offload.engine import OffloadEngine
    from repro.offload.migration import AGGRESSIVE
    from repro.sim.simulator import make_policy
    from repro.workloads.presets import get_workload

    profiler = SpanProfiler()
    engine = OffloadEngine(
        get_workload("apache"), make_policy("HI", threshold=100), AGGRESSIVE,
        config, profiler=profiler,
    )
    before = tracer.self_ns["memory"]
    engine.run()
    traced = tracer.self_ns["memory"] - before
    spans = flatten_self_times(profiler.to_dict())
    profiled = sum(
        spans.get(name, 0)
        for name in (names.SPAN_MEM_BATCHED, names.SPAN_MEM_SCALAR,
                     names.SPAN_MEM_COLUMNAR, names.SPAN_MEM_MISS)
    )
    return traced / profiled if profiled else 0.0


def scaled_rate(result: Any) -> float:
    """A pass's Minstr per reference-host second."""
    return result.sim_minstr_per_s * result.host_s / CALIBRATION_REFERENCE_S


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: Any, passes: List[Any],
                  runner: List[Tuple[float, float]]) -> Dict[str, float]:
    """Per-pass means of the traced layer totals.

    Layer times are scaled to reference-host seconds like the end-to-end
    ones, by the median host-speed probe over the traced passes.
    """
    from cells import PAPER_WORKLOADS, sim_summary

    n = len(passes)
    scale = CALIBRATION_REFERENCE_S / statistics.median(p.host_s for p in passes)
    ns = {layer: value * scale for layer, value in tracer.self_ns.items()}
    counts = tracer.counts
    cache: Dict[str, float] = {}
    for result in passes:
        for name, value in result.cache.items():
            cache[name] = cache.get(name, 0) + value
    metrics = {
        "sim.construct_s": ns["sim.construct"] / 1e9 / n,
        "workloads.gen_s": ns["workloads"] / 1e9 / n,
        "workloads.refs": counts["workloads.refs"] / n,
        "workloads.ns_per_ref": _ratio(ns["workloads"], counts["workloads.refs"]),
        "cache.replay_s": ns["cache"] / 1e9 / n,
        "cache.trace_hits": cache.get("trace_hits", 0) / n,
        "cache.trace_misses": cache.get("trace_misses", 0) / n,
        "cache.read_mb": cache.get("bytes_read", 0) / 1e6 / n,
        "cache.result_hits": cache.get("result_hits", 0) / n,
        "memory.batch_s": ns["memory"] / 1e9 / n,
        "memory.refs": counts["memory.refs"] / n,
        "memory.ns_per_ref": _ratio(ns["memory"], counts["memory.refs"]),
    }
    for workload in PAPER_WORKLOADS:
        metrics[f"memory.ns_per_ref.{workload}"] = _ratio(
            counts[f"memory.ns.{workload}"] * scale,
            counts[f"memory.refs.{workload}"],
        )
    metrics.update({
        "memory.l1_hit_ratio": _ratio(counts["memory.l1_hits"],
                                      counts["memory.l1_accesses"]),
        "memory.l2_hit_ratio": _ratio(counts["memory.l2_hits"],
                                      counts["memory.l2_accesses"]),
        "memory.dram_fetches": counts["memory.dram_fetches"] / n,
        "memory.c2c_transfers": counts["memory.c2c_transfers"] / n,
        "memory.invalidations": counts["memory.invalidations"] / n,
        "core.policy_s": ns["core"] / 1e9 / n,
        "core.decisions": counts["core.decisions"] / n,
        "core.offload_rate": _ratio(counts["core.offloads"],
                                    counts["core.decisions"]),
        "core.predictor_accuracy": _ratio(counts["core.binary_correct"],
                                          counts["core.binary_total"]),
        "cpu.s": ns["cpu"] / 1e9 / n,
        "offload.queue_s": ns["offload.queue"] / 1e9 / n,
        "offload.serves": counts["offload.serves"] / n,
        "offload.os_core_busy_frac": _ratio(counts["offload.busy_frac_sum"],
                                            counts["offload.busy_frac_runs"]),
        "offload.queue_delay_mean_cycles": _ratio(
            counts["offload.queue_delay_total"],
            counts["offload.queue_delay_events"],
        ),
        "offload.engine_self_s": ns["engine"] / 1e9 / n,
        "service.s": ns["service"] / 1e9 / n,
        "service.requests": counts["service.requests"] / n,
        "service.drops": counts["service.drops"] / n,
        "runner.overhead_s": (
            scale * statistics.mean(overhead for overhead, _ in runner)
            if runner else 0.0
        ),
        "runner.imbalance": (
            statistics.mean(imbalance for _, imbalance in runner) if runner else 0.0
        ),
        "runner.retries": sum(result.retries for result in passes) / n,
        "trace.coverage": _ratio(counts["engine.covered_ns"],
                                 counts["engine.wall_ns"]),
    })
    cells: Dict[str, Any] = {}
    for result in passes:
        cells.update(result.cells)
    metrics.update(sim_summary(cells))
    return metrics


def traced_passes(workload: Any, checker: Any, host: HostSpeed, config: Any,
                  seconds: float, worker_dir: str, untraced_rate: float,
                  ) -> Tuple[List[Any], Dict[str, float], List[str]]:
    """Passes under the layer tracer: the passes, per-layer metrics, problems."""
    from layers import LayerTracer

    runner: List[Tuple[float, float]] = []
    tracer = LayerTracer(worker_dir=worker_dir)

    def after_pass(result: Any) -> None:
        # Fold the grid workers' dumps, then derive this pass's runner
        # overhead from the per-process busy time of its cells.
        tracer.collect_workers()
        busy = list(tracer.take_busy().values())
        if busy:
            runner.append((
                result.timed_s - max(busy),
                max(busy) / statistics.mean(busy),
            ))

    os.makedirs(worker_dir, exist_ok=True)
    with tracer:
        ratio = span_ratio(tracer, config)
        tracer.reset()
        passes = run_passes(workload, checker, host, seconds, 1, after_pass)
    layers = layer_metrics(tracer, passes, runner)
    layers["memory.span_ratio"] = ratio
    layers["host.probe_s"] = statistics.median(host.samples)
    layers["trace.overhead_ratio"] = untraced_rate / statistics.median(
        scaled_rate(p) for p in passes
    )

    problems = []
    if abs(layers["trace.coverage"] - 1.0) > COVERAGE_TOLERANCE:
        problems.append(
            f"layer self times cover {layers['trace.coverage']:.3f} "
            "of the traced run() wall time"
        )
    if min(tracer.self_ns.values()) < 0:
        problems.append(f"negative layer self time: {tracer.self_ns}")
    low, high = SPAN_RATIO_RANGE
    if not low <= ratio <= high:
        problems.append(
            f"memory.batch_s / sim.mem span = {ratio:.3f}, "
            f"outside [{low}, {high}]"
        )
    return passes, layers, problems


def record_reference(workload: Any, seed: int, name: str) -> int:
    """Store one pass's cells as the reference outputs for ``seed``."""
    from check import save_reference

    workload.setup()
    result = workload.run_pass()
    if result.errors:
        print(f"error: cells failed: {result.errors}", file=sys.stderr)
        return 1
    save_reference(seed, name, result.cells)
    print(f"recorded {len(result.cells)} {name} cells for seed {seed}")
    return 0


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)

    import_repro()
    from cells import WORKLOADS, sim_summary
    from check import OutputCheck, load_reference
    from repro.sim.config import SimulatorConfig

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"expected one of {sorted(WORKLOADS)}")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    config = SimulatorConfig(seed=args.seed)
    work_dir = os.path.join(STATE_DIR, f"run-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](config, work_dir)
        if args.record_reference:
            return record_reference(workload, args.seed, args.workload)

        host = HostSpeed()
        try:
            before = host.probe()
            imports = [import_seconds() for _ in range(IMPORT_REPEATS)]
            setups = [workload.setup() for _ in range(SETUP_REPEATS)]
            setup_host_s = (before + host.probe()) / 2
            checker = OutputCheck(load_reference(args.seed, args.workload))
            untraced = run_passes(
                workload, checker, host,
                args.seconds / 2 if args.trace else args.seconds,
                1 if args.trace else 2,
            )
            rate = statistics.median(scaled_rate(p) for p in untraced)
            passes, layers, problems = list(untraced), {}, []
            if args.trace:
                traced, layers, problems = traced_passes(
                    workload, checker, host, config, args.seconds / 2,
                    os.path.join(work_dir, "workers"), rate,
                )
                passes.extend(traced)
            # Before the probe exits: finished children count toward it.
            peak_rss = peak_rss_mb()
        finally:
            host.close()
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    attempted = sum(p.attempted for p in passes)
    failed = sum(len(p.errors) for p in passes)
    for result in passes:
        problems.extend(
            f"{cell}: {error}" for cell, error in sorted(result.errors.items())
        )
    raw_setup_s = statistics.median(imports) + statistics.median(setups)
    end_to_end = {
        "setup_s": (raw_setup_s * CALIBRATION_REFERENCE_S / setup_host_s, "s"),
        "sim_minstr_per_s": (rate, "Minstr/s"),
        "peak_rss_mb": (peak_rss, "MB"),
        "ok_frac": (1.0 - failed / attempted, "frac"),
    }
    host_lines = {
        "host.probe_s": statistics.median(host.samples),
        "host.raw_setup_s": raw_setup_s,
        "host.raw_minstr_per_s": statistics.median(
            p.sim_minstr_per_s for p in untraced
        ),
    }
    cells: Dict[str, Any] = {}
    for result in untraced:
        cells.update(result.cells)
    simulated = sim_summary(cells)
    env = environment(args.seed, config)

    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} "
          f"passes={len(untraced)}+{len(passes) - len(untraced)}")
    print("env " + json.dumps(env, sort_keys=True))
    for name, (value, unit) in end_to_end.items():
        print(f"  {name:<34} {value:12.4f} {unit}")
    print(f"  {'failed_frac':<34} {failed / attempted:12.4f} frac")
    for name, value in host_lines.items():
        if name not in layers:
            print(f"  {name:<34} {value:12.4f} (unscaled)")
    for name, value in (layers or simulated).items():
        print(f"  {name:<34} {value:12.4f}")
    print("pass Minstr/s " + " ".join(f"{scaled_rate(p):.3f}" for p in passes))
    print(f"check: {attempted} cells attempted, {failed} failed "
          f"({checker.mode} check)")
    for problem in problems[:20]:
        print(f"  problem: {problem}")

    metrics = (
        layer_metric_units(layers) if args.trace
        else {name: {"value": value, "unit": unit}
              for name, (value, unit) in end_to_end.items()}
    )
    with open(os.path.join(
        STATE_DIR, f"{args.workload}-trace{args.trace}.json"
    ), "w") as handle:
        json.dump({
            "env": env, "metrics": metrics, "simulated": simulated,
            "host": host_lines, "probes_s": host.samples,
            "imports_s": imports, "setups_s": setups,
            "pass_minstr_per_s": [scaled_rate(p) for p in passes],
            "pass_raw_minstr_per_s": [p.sim_minstr_per_s for p in passes],
            "problems": problems,
        }, handle, indent=1)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def layer_metric_units(layers: Dict[str, float]) -> Dict[str, Dict[str, Any]]:
    """Attach each per-layer metric's unit, read from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        units = {m["name"]: m["unit"] for m in json.load(handle)["per_layer"]}
    return {
        name: {"value": layers[name], "unit": unit}
        for name, unit in units.items()
    }


if __name__ == "__main__":
    sys.exit(main())
