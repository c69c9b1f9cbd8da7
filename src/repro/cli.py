"""Command-line interface.

The subcommands cover the workflows a user of this reproduction needs
without writing Python:

- ``repro run`` — one simulation (workload x policy x latency x N),
  optionally writing a structured event trace (``--trace``), a
  Prometheus metrics snapshot (``--metrics``), or JSON results
  (``--json``);
- ``repro sweep`` — a Figure-4-style threshold/latency sweep for one
  workload, executed through the :mod:`repro.runner` batch subsystem
  (``--jobs N`` for parallel workers, ``--json`` for machine-readable
  output including the batch summary; a killed sweep finishes by
  running again on the same cache root, which skips finished cells);
- ``repro latency`` — open-loop service mode: sweep request-latency
  percentiles (p50/p99/p999) across offered load and OS-core pool
  sizes, exposing the single-OS-core saturation cliff;
- ``repro report`` — render the decision/threshold/queue report from a
  trace produced by ``run --trace``;
- ``repro experiment`` — regenerate a named paper artifact (table1,
  fig4, ...) at the ``--profile``/``--seed`` configuration and print it
  in the paper's shape;
- ``repro trace`` — record a workload trace to a JSON-lines file and/or
  print its summary statistics;
- ``repro profile`` — render a span profile (from ``--profile-out``
  JSON, or by running one freshly profiled cell) as a self/cumulative
  table or JSON;
- ``repro serve`` — standalone live-telemetry HTTP server: point it at
  a running batch's ``--telemetry`` directory to watch ``/metrics``,
  ``/progress`` (with stall flags), and ``/profile`` from outside the
  sweep process.  The grid commands also accept ``--serve PORT`` to
  serve the same endpoints in-process while the grid runs;
- ``repro workloads`` — list the calibrated presets;
- ``repro cache`` — inspect or maintain the shared trace/result cache
  (``stats``/``gc``/``clear``; the parallel grid commands accept
  ``--cache DIR`` / ``--no-cache``).

``--verbose``/``--quiet`` control the ``repro.*`` logger hierarchy;
library code logs, only this module prints.

``python -m repro``, ``python -m repro.cli``, and the ``repro`` console
script (after an editable install) all work.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
import tempfile
import time
from typing import Callable, Dict, Optional, Sequence

from repro.analysis.report import build_report
from repro.analysis.tables import render_table
from repro.errors import ReproError
from repro.obs.bus import JsonlSink, TraceBus
from repro.obs.events import run_summary_record
from repro.obs.metrics import MetricsRegistry
from repro.offload.migration import MigrationModel
from repro.sim.config import (
    DEFAULT_SCALE,
    FULL_SCALE,
    TEST_SCALE,
    ScaleProfile,
    SimulatorConfig,
)
from repro.sim.simulator import make_policy, simulate, simulate_baseline
from repro.workloads.presets import all_workloads, get_workload

logger = logging.getLogger(__name__)

PROFILES: Dict[str, ScaleProfile] = {
    "default": DEFAULT_SCALE,
    "test": TEST_SCALE,
    "full": FULL_SCALE,
}


def _experiment_registry() -> Dict[str, Callable[..., object]]:
    """Late import: the experiments package pulls in everything."""
    from repro import experiments

    return {
        "table1": experiments.run_table1,
        "table2": experiments.run_table2,
        "fig1": experiments.run_fig1,
        "fig3": experiments.run_fig3,
        "fig4": experiments.run_fig4,
        "fig5": experiments.run_fig5,
        "table3": experiments.run_table3,
        "scalability": experiments.run_scalability,
        "predictor-accuracy": experiments.run_predictor_accuracy,
        "dynamic-n": experiments.run_dynamic_threshold,
        "cache-halved": experiments.run_cache_halved,
        "predictor-ablation": experiments.run_predictor_ablation,
        "energy": experiments.run_energy,
        "robustness": experiments.run_robustness,
        "window-traps": experiments.run_window_trap_ablation,
    }


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Selective Off-loading of OS "
        "Functionality' (Nellans et al., WIOSCA 2010)",
    )
    parser.add_argument(
        "--profile", choices=sorted(PROFILES), default="default",
        help="simulation scale profile (default: the calibrated one)",
    )
    parser.add_argument("--seed", type=int, default=2010)
    verbosity = parser.add_mutually_exclusive_group()
    verbosity.add_argument(
        "-v", "--verbose", action="count", default=0,
        help="log INFO (-v) or DEBUG (-vv) from the repro.* loggers",
    )
    verbosity.add_argument(
        "-q", "--quiet", action="store_true",
        help="log errors only",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="one simulation")
    run.add_argument("workload")
    run.add_argument("--policy", default="HI",
                     choices=["baseline", "always", "oracle", "SI", "DI", "HI"])
    run.add_argument("--threshold", "-N", type=int, default=100)
    run.add_argument("--latency", type=int, default=100,
                     help="one-way migration latency in cycles")
    run.add_argument("--user-cores", type=int, default=1)
    run.add_argument("--os-contexts", type=int, default=1)
    run.add_argument("--arrivals", default="closed",
                     choices=["closed", "poisson", "bursty", "diurnal"],
                     help="open-loop arrival model (default: closed loop)")
    run.add_argument("--load", type=float, default=0.05,
                     help="offered load in requests per 1,000 cycles per "
                          "thread (open-loop only; default 0.05)")
    run.add_argument("--os-cores", type=int, default=1,
                     help="OS cores in the off-load pool (default 1)")
    run.add_argument("--dispatch", default="shortest",
                     choices=["shard", "shortest", "steal"],
                     help="pool dispatch policy (default: shortest-queue)")
    run.add_argument("--dynamic-n", action="store_true",
                     help="let the epoch-based controller adapt N "
                          "(Section III.B); the --threshold value only "
                          "seeds the policy until the first epoch")
    run.add_argument("--trace", metavar="PATH",
                     help="write a structured event trace (JSONL) here")
    run.add_argument("--metrics", metavar="PATH",
                     help="write a Prometheus metrics snapshot here")
    run.add_argument("--json", action="store_true",
                     help="print machine-readable JSON instead of text")

    sweep = sub.add_parser("sweep", help="threshold x latency sweep")
    sweep.add_argument("workload")
    sweep.add_argument("--thresholds", type=int, nargs="+",
                       default=[0, 100, 500, 1000, 5000, 10000])
    sweep.add_argument("--latencies", type=int, nargs="+",
                       default=[0, 100, 1000, 5000])
    sweep.add_argument("--json", action="store_true",
                       help="print machine-readable JSON instead of a table")
    _add_runner_arguments(sweep)
    sweep.add_argument("--timeout", type=float, metavar="SECONDS",
                       help="per-cell wall-clock budget; a cell that "
                            "exceeds it is recorded as failed")
    sweep.add_argument("--retries", type=int, default=0,
                       help="re-execute a failed cell up to this many times")
    sweep.add_argument("--metrics", metavar="PATH",
                       help="write a Prometheus snapshot of the runner's "
                            "progress/failure counters here")

    latency = sub.add_parser(
        "latency", help="open-loop tail latency vs. load and OS pool"
    )
    latency.add_argument("--workload", default="apache")
    latency.add_argument("--arrivals", default="poisson",
                         choices=["poisson", "bursty", "diurnal"],
                         help="arrival process (default: poisson)")
    latency.add_argument("--load", type=float, nargs="+", default=None,
                         metavar="R",
                         help="offered loads in requests per 1,000 cycles "
                              "per thread (default: 0.02 0.05 0.1 0.2)")
    latency.add_argument("--os-cores", type=int, nargs="+",
                         default=[1, 2, 4], metavar="N",
                         help="OS-core pool sizes to sweep (default: 1 2 4)")
    latency.add_argument("--dispatch", default="shortest",
                         choices=["shard", "shortest", "steal"],
                         help="pool dispatch policy (default: "
                              "shortest-queue)")
    latency.add_argument("--user-cores", type=int, default=2,
                         help="user cores driving requests (default 2)")
    latency.add_argument("--policy", default="HI",
                         choices=["always", "oracle", "SI", "DI", "HI"])
    latency.add_argument("--threshold", "-N", type=int, default=100)
    latency.add_argument("--latency", type=int, default=100, dest="migration",
                         help="one-way migration latency in cycles")
    latency.add_argument("--json", action="store_true",
                         help="print machine-readable JSON instead of a "
                              "table")
    _add_runner_arguments(latency)
    latency.add_argument("--timeout", type=float, metavar="SECONDS",
                         help="per-cell wall-clock budget")
    latency.add_argument("--retries", type=int, default=0,
                         help="re-execute a failed cell up to this many "
                              "times")

    report = sub.add_parser(
        "report", help="render the run report from a --trace file"
    )
    report.add_argument("trace", help="JSONL trace from 'repro run --trace'")
    report.add_argument("--json", action="store_true",
                        help="print machine-readable JSON instead of text")
    report.add_argument("--strict", action="store_true",
                        help="exit non-zero when the trace fails to "
                             "reconcile with the run's counters")

    experiment = sub.add_parser(
        "experiment", help="regenerate a paper table/figure"
    )
    experiment.add_argument("name", choices=sorted(_EXPERIMENT_NAMES))
    _add_runner_arguments(experiment)

    trace = sub.add_parser("trace", help="record / summarise a trace")
    trace.add_argument("workload")
    trace.add_argument("--out", help="write the trace to this JSONL file")
    trace.add_argument("--budget", type=int, default=0,
                       help="instruction budget (default: scaled ROI)")

    profile = sub.add_parser(
        "profile", help="render a span profile (where did the time go?)"
    )
    profile.add_argument(
        "source", nargs="?",
        help="profile JSON written by --profile-out or the /profile "
             "endpoint (default: run one freshly profiled cell)",
    )
    profile.add_argument("--workload", default="apache",
                         help="cell to profile when no SOURCE is given")
    profile.add_argument("--policy", default="HI",
                         choices=["always", "oracle", "SI", "DI", "HI"])
    profile.add_argument("--threshold", "-N", type=int, default=100)
    profile.add_argument("--latency", type=int, default=100)
    profile.add_argument("--json", action="store_true",
                         help="print machine-readable JSON instead of text")

    serve = sub.add_parser(
        "serve", help="live telemetry HTTP server for a running sweep"
    )
    serve.add_argument("--telemetry", required=True, metavar="DIR",
                       help="telemetry directory of the batch to watch "
                            "(the grid's --telemetry DIR)")
    serve.add_argument("--port", type=int, default=8000,
                       help="listen port (0 picks an ephemeral port)")
    serve.add_argument("--interval", type=float, default=0.5,
                       metavar="SECONDS",
                       help="telemetry poll period (default: 0.5)")
    serve.add_argument("--duration", type=float, default=0.0,
                       metavar="SECONDS",
                       help="exit after this long (default: serve until "
                            "interrupted)")

    sub.add_parser("workloads", help="list the calibrated presets")

    cache = sub.add_parser(
        "cache", help="inspect or maintain the trace/result cache"
    )
    cache.add_argument("action", choices=["stats", "gc", "clear"],
                       help="stats: entry/byte counts per section; gc: "
                            "drop entries older than --max-age-days; "
                            "clear: drop every entry")
    cache.add_argument("--cache", metavar="DIR",
                       help="cache root (default: $REPRO_CACHE_DIR or "
                            "~/.cache/repro)")
    cache.add_argument("--max-age-days", type=float, default=30.0,
                       metavar="DAYS",
                       help="gc retention window (default: 30)")
    cache.add_argument("--json", action="store_true",
                       help="print machine-readable JSON instead of text")

    lint = sub.add_parser(
        "lint", help="run simlint, the repo's AST invariant checker"
    )
    lint.add_argument("paths", nargs="*", metavar="PATH",
                      help="files/directories to lint (default: the "
                           "installed repro package)")
    lint.add_argument("--json", action="store_true",
                      help="print machine-readable JSON instead of text")
    lint.add_argument("--select", action="append", metavar="RULE",
                      help="only run rules whose id starts with RULE "
                           "(repeatable and comma-separable; e.g. "
                           "--select D --select N,W)")
    lint.add_argument("--dataflow", action="store_true",
                      help="also run the interprocedural flow rules "
                           "(N/W families)")
    lint.add_argument("--sarif", metavar="FILE",
                      help="additionally write findings as SARIF 2.1.0 "
                           "to FILE")
    lint.add_argument("--baseline", metavar="FILE",
                      help="filter findings through a checked-in "
                           "baseline file")
    lint.add_argument("--update-baseline", action="store_true",
                      help="rewrite --baseline FILE from the current "
                           "findings and exit 0")
    lint.add_argument("--list-rules", action="store_true",
                      help="list registered rules and exit")
    return parser


_EXPERIMENT_NAMES = (
    "table1", "table2", "fig1", "fig3", "fig4", "fig5", "table3",
    "scalability", "predictor-accuracy", "dynamic-n", "cache-halved",
    "predictor-ablation", "energy", "robustness", "window-traps",
)

#: Experiments whose grids execute through the batch runner and accept
#: the runner flags (--jobs, --cache, --no-cache, --serve, ...).
_PARALLEL_EXPERIMENTS = {"fig4", "fig5", "robustness"}

#: Experiments that take a scale profile instead of a configuration:
#: their predictor streams keep fixed seeds.  table1 and table2 take
#: neither; every other experiment takes the whole configuration.
_PROFILE_EXPERIMENTS = {"fig3", "predictor-accuracy", "predictor-ablation"}
_STATIC_EXPERIMENTS = {"table1", "table2"}


def _add_runner_arguments(parser: argparse.ArgumentParser) -> None:
    """Batch-runner flags shared by ``sweep`` and ``experiment``."""
    parser.add_argument("--jobs", "-j", type=int, default=1, metavar="N",
                        help="worker processes for the grid (default 1: "
                             "serial; results are identical either way)")
    cache = parser.add_mutually_exclusive_group()
    cache.add_argument("--cache", metavar="DIR",
                       help="trace/result cache root (default: "
                            "$REPRO_CACHE_DIR or ~/.cache/repro; replay "
                            "is bit-identical to regeneration, and a "
                            "re-run skips every cell already measured)")
    cache.add_argument("--no-cache", action="store_true",
                       help="disable the trace/result cache for this grid")
    parser.add_argument("--serve", type=int, metavar="PORT",
                        help="serve /metrics /progress /profile over HTTP "
                             "on this port while the grid runs (0 picks an "
                             "ephemeral port; enables span profiling)")
    parser.add_argument("--telemetry", metavar="DIR",
                        help="write worker heartbeat/lifecycle records "
                             "under this directory (watchable with "
                             "'repro serve --telemetry DIR'; --serve "
                             "creates a temporary one when needed)")
    parser.add_argument("--profile-out", metavar="PATH",
                        help="write the merged span profile JSON here "
                             "(render it with: repro profile PATH)")


def _runner_kwargs(args) -> Dict[str, object]:
    """Translate runner CLI flags into run_job_grid/run_* keywords."""
    from repro.cache import resolve_cache_root

    return {
        "jobs": args.jobs,
        "cache_dir": None if args.no_cache else resolve_cache_root(args.cache),
    }


class _LiveSweep:
    """Wires --serve / --telemetry / --profile-out into a grid command.

    Context manager: on enter it starts the in-process
    :class:`~repro.obs.server.ObsServer` (when ``--serve`` was given);
    on exit it stops the server and writes the merged span profile to
    ``--profile-out``.  ``runner_kwargs()`` yields the monitor /
    telemetry / span-profile keywords for :func:`run_job_grid`.
    """

    def __init__(self, args, registry: Optional[MetricsRegistry] = None):
        from repro.runner import SweepMonitor

        self.port: Optional[int] = getattr(args, "serve", None)
        self.profile_out: Optional[str] = getattr(args, "profile_out", None)
        telemetry: Optional[str] = getattr(args, "telemetry", None)
        self.enabled = (
            self.port is not None or self.profile_out is not None
            or telemetry is not None
        )
        if registry is None and self.port is not None:
            registry = MetricsRegistry()
        self.registry = registry
        self.monitor = SweepMonitor() if self.enabled else None
        self._tmp: Optional[tempfile.TemporaryDirectory] = None
        if (self.port is not None and telemetry is None
                and getattr(args, "jobs", 1) > 1):
            # A parallel live view needs worker telemetry on disk for
            # started transitions and heartbeats; serial grids feed the
            # monitor directly.
            self._tmp = tempfile.TemporaryDirectory(prefix="repro-telemetry-")
            telemetry = self._tmp.name
        self.telemetry_dir = telemetry
        self.server = None

    def runner_kwargs(self) -> Dict[str, object]:
        if not self.enabled:
            return {}
        return {
            "monitor": self.monitor,
            "telemetry_dir": self.telemetry_dir,
            "span_profile": (
                self.port is not None or self.profile_out is not None
            ),
        }

    def __enter__(self) -> "_LiveSweep":
        if self.port is not None:
            from repro.obs import ObsServer

            assert self.monitor is not None
            metrics_fn = (
                self.registry.to_prometheus
                if self.registry is not None else None
            )
            self.server = ObsServer(
                self.port,
                metrics_fn=metrics_fn,
                progress_fn=self.monitor.snapshot,
                profile_fn=self.monitor.merged_profile,
            )
            self.server.start()
            print(
                f"serving live telemetry on {self.server.url} "
                "(/metrics /progress /profile)",
                file=sys.stderr,
            )
        return self

    def __exit__(self, *exc) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None
        if self.profile_out and self.monitor is not None:
            try:
                with open(self.profile_out, "w") as handle:
                    json.dump(self.monitor.merged_profile(), handle,
                              indent=2, sort_keys=True)
                    handle.write("\n")
            except OSError as error:
                raise ReproError(
                    f"cannot write profile {self.profile_out}: {error}"
                ) from error
            logger.info("wrote merged span profile to %s", self.profile_out)
        if self._tmp is not None:
            self._tmp.cleanup()
            self._tmp = None


def _cmd_run(args, config: SimulatorConfig) -> int:
    import dataclasses

    from repro.service.config import ServiceConfig

    config = dataclasses.replace(
        config,
        num_user_cores=args.user_cores,
        os_core_contexts=args.os_contexts,
    )
    spec = get_workload(args.workload)
    migration = MigrationModel(f"cli-{args.latency}", args.latency)
    # The baseline is always the paper's closed-loop uni-processor run;
    # open-loop knobs apply to the measured run only.
    baseline = simulate_baseline(spec, config)
    if args.arrivals != "closed" and args.load <= 0:
        raise ReproError(f"--load must be positive, got {args.load!r}")
    if args.arrivals != "closed" or args.os_cores != 1:
        config = dataclasses.replace(config, service=ServiceConfig(
            arrivals=args.arrivals,
            mean_interarrival_cycles=(
                1000.0 / args.load if args.arrivals != "closed"
                else ServiceConfig().mean_interarrival_cycles
            ),
            os_cores=args.os_cores,
            dispatch=args.dispatch,
        ))
    policy = make_policy(
        args.policy, threshold=args.threshold, migration=migration,
        spec=spec, config=config,
    )

    bus = None
    if args.trace:
        bus = TraceBus(JsonlSink(args.trace, header={
            "workload": args.workload,
            "policy": policy.name,
            "threshold": args.threshold,
            "latency": args.latency,
            "seed": config.seed,
            "profile": config.profile.name,
        }))
    registry = MetricsRegistry() if args.metrics else None
    controller = None
    if args.dynamic_n:
        from repro.core.threshold import DynamicThresholdController

        controller = DynamicThresholdController(config.profile)

    try:
        run = simulate(spec, policy, migration, config,
                       controller=controller, bus=bus, metrics=registry)
        stats = run.stats
        if bus is not None:
            bus.emit_record(run_summary_record(
                stats, workload=args.workload, policy=policy.name,
                threshold=args.threshold, latency=args.latency,
            ))
    finally:
        if bus is not None:
            bus.close()

    if registry is not None:
        try:
            with open(args.metrics, "w") as handle:
                handle.write(registry.to_prometheus())
        except OSError as error:
            raise ReproError(
                f"cannot write metrics snapshot {args.metrics}: {error}"
            ) from error
        logger.info("wrote metrics snapshot to %s", args.metrics)
    if args.trace:
        logger.info("wrote event trace to %s", args.trace)

    if args.json:
        print(json.dumps({
            "workload": args.workload,
            "policy": policy.name,
            "threshold": args.threshold,
            "latency": args.latency,
            "seed": config.seed,
            "profile": config.profile.name,
            "normalized_throughput": run.normalized_to(baseline),
            "baseline_ipc": baseline.throughput,
            "throughput": stats.throughput,
            "offloads": stats.offload.offloads,
            "os_entries": stats.offload.os_entries,
            "offloaded_instructions": stats.offload.offloaded_instructions,
            "os_core_busy_fraction": stats.os_core_time_fraction(),
            "mean_queue_delay": stats.offload.mean_queue_delay,
            "coherence": {
                "cache_to_cache_transfers":
                    stats.coherence.cache_to_cache_transfers,
                "invalidations": stats.coherence.invalidations,
            },
            "latency": (
                run.latency.to_dict() if run.latency is not None else None
            ),
            "trace": args.trace,
            "metrics": args.metrics,
        }, indent=2))
        return 0
    print(f"workload: {args.workload}  policy: {policy.name}  "
          f"N={args.threshold}  latency={args.latency}")
    print(f"normalized throughput: {run.normalized_to(baseline):.3f} "
          f"(baseline IPC {baseline.throughput:.3f})")
    print(f"offloads: {stats.offload.offloads}/{stats.offload.os_entries} "
          f"entries, {stats.offload.offloaded_instructions} instructions")
    print(f"OS core busy: {stats.os_core_time_fraction():.1%}  "
          f"mean queue delay: {stats.offload.mean_queue_delay:,.0f} cycles")
    print(f"coherence: {stats.coherence.cache_to_cache_transfers} c2c, "
          f"{stats.coherence.invalidations} invalidations")
    if run.latency is not None:
        lat = run.latency
        print(f"request latency ({args.arrivals} arrivals, load "
              f"{args.load:g}, {args.os_cores} OS core(s)): "
              f"p50={lat.p50:,} p99={lat.p99:,} p999={lat.p999:,} cycles "
              f"over {lat.requests} requests"
              + (f", {lat.drops} drops" if lat.drops else ""))
    if args.trace:
        print(f"trace written to {args.trace} "
              f"(render it with: repro report {args.trace})")
    if args.metrics:
        print(f"metrics snapshot written to {args.metrics}")
    return 0


def _cmd_sweep(args, config: SimulatorConfig) -> int:
    from repro.experiments.common import run_job_grid, sweep_specs
    from repro.runner import JobSpec

    get_workload(args.workload)  # fail fast on unknown names
    registry = MetricsRegistry() if args.metrics else None
    live = _LiveSweep(args, registry)
    registry = live.registry if live.registry is not None else registry
    with live:
        batch = run_job_grid(
            sweep_specs([args.workload], args.thresholds, args.latencies),
            config,
            metrics=registry,
            timeout_s=args.timeout,
            retries=args.retries,
            **live.runner_kwargs(),
            **_runner_kwargs(args),
        )

    def cell(latency: int, threshold: int):
        spec = JobSpec(args.workload, "HI", threshold, latency)
        return batch.get(spec.resolved(config.seed))

    baseline_ipc = next(
        (r.metrics["baseline_throughput"] for r in batch.completed), None
    )
    if args.metrics and registry is not None:
        try:
            with open(args.metrics, "w") as handle:
                handle.write(registry.to_prometheus())
        except OSError as error:
            raise ReproError(
                f"cannot write metrics snapshot {args.metrics}: {error}"
            ) from error
        logger.info("wrote metrics snapshot to %s", args.metrics)

    if args.json:
        print(json.dumps({
            "workload": args.workload,
            "policy": "HI",
            "seed": config.seed,
            "profile": config.profile.name,
            "baseline_ipc": baseline_ipc,
            "thresholds": args.thresholds,
            "latencies": args.latencies,
            "normalized_throughput": {
                str(latency): {
                    str(threshold): (
                        cell(latency, threshold).metrics.get(
                            "normalized_throughput"
                        )
                    )
                    for threshold in args.thresholds
                }
                for latency in args.latencies
            },
            "batch": batch.summary(),
        }, indent=2))
        return 1 if batch.failures else 0
    rows = []
    for latency in args.latencies:
        row = [str(latency)]
        for threshold in args.thresholds:
            result = cell(latency, threshold)
            row.append(
                f"{result.normalized_throughput:.3f}" if result.ok else "fail"
            )
        rows.append(row)
    print(render_table(
        ["latency\\N"] + [str(n) for n in args.thresholds],
        rows,
        title=f"{args.workload}: normalized IPC (HI policy)",
    ))
    for failure in batch.failures:
        print(f"failed: {failure.job_id}: {failure.error}", file=sys.stderr)
    return 1 if batch.failures else 0


def _cmd_latency(args, config: SimulatorConfig) -> int:
    from repro.experiments.latency import DEFAULT_LOADS, run_latency

    get_workload(args.workload)  # fail fast on unknown names
    loads = tuple(args.load) if args.load else DEFAULT_LOADS
    live = _LiveSweep(args)
    kwargs = _runner_kwargs(args)
    if live.enabled:
        kwargs.update(live.runner_kwargs())
        if live.registry is not None:
            kwargs["metrics"] = live.registry
    with live:
        result = run_latency(
            config=config,
            workload=args.workload,
            arrivals=args.arrivals,
            loads=loads,
            os_cores=tuple(args.os_cores),
            dispatch=args.dispatch,
            policy=args.policy,
            threshold=args.threshold,
            latency=args.migration,
            user_cores=args.user_cores,
            timeout_s=args.timeout,
            retries=args.retries,
            **kwargs,
        )
    if args.json:
        print(json.dumps(result.to_dict(), indent=2))
        return 0
    print(result.render())
    return 0


def _cmd_report(args, config: SimulatorConfig) -> int:
    report = build_report(args.trace)
    if args.strict:
        report.require_reconciled()
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(report.render())
    return 0


def _cmd_experiment(args, config: SimulatorConfig) -> int:
    registry = _experiment_registry()
    kwargs = _runner_kwargs(args)
    live = _LiveSweep(args)
    if args.name not in _PARALLEL_EXPERIMENTS:
        if (kwargs["jobs"] != 1 or args.cache or args.no_cache
                or live.enabled):
            raise ReproError(
                "--jobs/--cache/--no-cache/--serve/--telemetry/"
                "--profile-out are only supported for "
                + "/".join(sorted(_PARALLEL_EXPERIMENTS))
            )
        kwargs = {}
    elif live.enabled:
        kwargs.update(live.runner_kwargs())
        if live.registry is not None:
            kwargs["metrics"] = live.registry
    if args.name in _PROFILE_EXPERIMENTS:
        kwargs["profile"] = config.profile
    elif args.name not in _STATIC_EXPERIMENTS:
        kwargs["config"] = config
    with live:
        result = registry[args.name](**kwargs)
    print(result.render())
    return 0


def _cmd_trace(args, config: SimulatorConfig) -> int:
    from repro.workloads.generator import TraceGenerator
    from repro.workloads.trace_io import record_trace, summarise

    profile = config.profile
    budget = args.budget or profile.scaled_roi
    if args.out:
        count = record_trace(
            args.out, args.workload, profile, seed=config.seed,
            instruction_budget=budget,
        )
        print(f"wrote {count} events to {args.out}")
    spec = get_workload(args.workload)
    generator = TraceGenerator(spec, profile, seed=config.seed)
    summary = summarise(generator.events(budget))
    print(f"{args.workload}: {summary.total_instructions} instructions, "
          f"{summary.invocations} OS invocations "
          f"({summary.privileged_fraction:.1%} privileged)")
    print(f"short (<100 instr): {summary.short_fraction:.1%}  "
          f"window traps: {summary.window_traps}  "
          f"interrupts: {summary.interrupts}  "
          f"extended: {summary.extended_invocations}")
    rows = [
        (vector, s.name, s.count, f"{s.mean_length:.0f}",
         s.min_length, s.max_length)
        for vector, s in sorted(
            summary.per_vector.items(),
            key=lambda item: -item[1].total_instructions,
        )
    ]
    print(render_table(
        ["vector", "name", "count", "mean len", "min", "max"], rows
    ))
    return 0


def _cmd_profile(args, config: SimulatorConfig) -> int:
    from repro.obs.spans import (
        flatten_self_times,
        profile_total_ns,
        render_profile,
    )

    if args.source:
        try:
            with open(args.source, "r", encoding="utf-8") as handle:
                profile = json.load(handle)
        except (OSError, ValueError) as error:
            raise ReproError(
                f"cannot read profile {args.source}: {error}"
            ) from error
        if not (isinstance(profile, dict) and "name" in profile
                and "children" in profile):
            raise ReproError(
                f"{args.source} is not a span profile (expected a JSON "
                "object with 'name'/'calls'/'ns'/'children')"
            )
        origin = args.source
    else:
        from repro.runner import JobSpec
        from repro.runner.jobspec import config_to_payload
        from repro.runner.worker import execute_job

        spec = JobSpec(
            args.workload, args.policy, args.threshold, args.latency
        ).resolved(config.seed)
        record = execute_job({
            "job": spec.to_payload(),
            "config": config_to_payload(config),
            "timeout_s": None,
            "cache_dir": None,
            "span_profile": True,
        })
        if record["status"] != "ok":
            raise ReproError(
                f"profiled cell {spec.job_id} failed: {record['error']}"
            )
        profile = record["profile"]
        origin = spec.job_id

    total_ns = profile_total_ns(profile)
    if args.json:
        print(json.dumps({
            "source": origin,
            "total_ns": total_ns,
            "self_ns": flatten_self_times(profile),
            "profile": profile,
        }, indent=2, sort_keys=True))
        return 0
    print(f"span profile: {origin} (total {total_ns / 1e6:.3f} ms)")
    print(render_profile(profile))
    return 0


def _cmd_serve(args, config: SimulatorConfig) -> int:
    from repro.obs import ObsServer, names
    from repro.runner import SweepMonitor, TelemetryReader, read_grid_manifest

    monitor = SweepMonitor()
    reader = TelemetryReader(args.telemetry)
    manifest = read_grid_manifest(args.telemetry)
    if manifest is not None:
        monitor.begin(int(manifest.get("total", 0)))

    def metrics_fn() -> str:
        # Standalone mode has no batch registry; derive a small, valid
        # exposition from the monitor so /metrics always works.
        snap = monitor.snapshot()
        registry = MetricsRegistry()
        registry.gauge(
            names.RUNNER_CELLS_RUNNING, "cells currently executing"
        ).set(snap["running"])
        registry.gauge(
            names.RUNNER_CELLS_STALLED,
            "running cells silent past the stall horizon",
        ).set(len(snap["stalled"]))
        registry.counter(
            names.RUNNER_HEARTBEATS_TOTAL,
            "worker heartbeat records observed",
        ).inc(snap["heartbeats"])
        registry.counter(
            names.RUNNER_JOBS_COMPLETED, "cells measured successfully"
        ).inc(snap["ok"])
        registry.counter(
            names.RUNNER_JOBS_FAILED, "cells whose failure became final"
        ).inc(snap["failed"])
        return registry.to_prometheus()

    server = ObsServer(
        args.port,
        metrics_fn=metrics_fn,
        progress_fn=monitor.snapshot,
        profile_fn=monitor.merged_profile,
    )
    server.start()
    print(f"serving {args.telemetry} on {server.url} "
          "(/metrics /progress /profile; Ctrl-C to stop)", file=sys.stderr)
    deadline = (
        time.monotonic() + args.duration if args.duration > 0 else None
    )
    try:
        while deadline is None or time.monotonic() < deadline:
            for record in reader.poll():
                monitor.feed_record(record)
            time.sleep(args.interval)
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
    return 0


def _cmd_workloads(args, config: SimulatorConfig) -> int:
    rows = [
        (spec.name, f"{spec.os_fraction:.0%}", len(spec.syscall_mix),
         spec.description)
        for spec in all_workloads()
    ]
    print(render_table(
        ["name", "OS share (target)", "syscalls", "description"], rows
    ))
    return 0


def _cmd_cache(args, config: SimulatorConfig) -> int:
    from repro.cache import (
        cache_clear,
        cache_gc,
        cache_stats,
        resolve_cache_root,
    )

    root = resolve_cache_root(args.cache)
    if args.action == "stats":
        summary = cache_stats(root)
    elif args.action == "gc":
        summary = cache_gc(root, max_age_days=args.max_age_days)
    else:
        summary = cache_clear(root)
    if args.json:
        print(json.dumps(summary, indent=2))
        return 0
    if args.action == "stats":
        print(f"cache root: {summary['root']}")
        for section, info in summary["sections"].items():
            print(f"  {section}: {info['files']} files, "
                  f"{info['bytes']:,} bytes")
        print(f"  total: {summary['files']} files, "
              f"{summary['bytes']:,} bytes")
    elif args.action == "gc":
        print(f"cache gc (>{summary['max_age_days']:g} days): removed "
              f"{summary['removed']} files, freed "
              f"{summary['freed_bytes']:,} bytes")
    else:
        print(f"cache clear: removed {summary['removed']} files, freed "
              f"{summary['freed_bytes']:,} bytes")
    return 0


def _cmd_lint(args, config: SimulatorConfig) -> int:
    import pathlib

    import repro
    from repro.lint import registered_rules, render_json, render_text, run_lint
    from repro.lint.baseline import apply_baseline, load_baseline, render_baseline
    from repro.lint.sarif import render_sarif

    if args.list_rules:
        header = f"{'RULE':<6} {'FAMILY':<18} {'SEVERITY':<8} {'FLOW':<4} SUMMARY"
        print(header)
        for rule in registered_rules():
            flow = "yes" if rule.flow else "no"
            print(f"{rule.id:<6} {rule.family:<18} {rule.severity:<8} "
                  f"{flow:<4} {rule.summary}")
        return 0
    if args.update_baseline and not args.baseline:
        print("--update-baseline requires --baseline FILE")
        return 2
    rule_ids = [rule.id for rule in registered_rules()]
    for entry in args.select or ():
        for token in entry.split(","):
            token = token.strip()
            if token and not any(rule_id.startswith(token)
                                 for rule_id in rule_ids):
                print(f"error: --select {token}: no registered rule id "
                      "starts with it (see --list-rules)", file=sys.stderr)
                return 2
    if args.paths:
        paths = [pathlib.Path(p) for p in args.paths]
        root = pathlib.Path.cwd()
    else:
        package_dir = pathlib.Path(repro.__file__).resolve().parent
        paths = [package_dir]
        root = package_dir.parent
    violations = run_lint(
        paths, root=root, select=args.select, dataflow=args.dataflow
    )
    if args.update_baseline:
        baseline_path = pathlib.Path(args.baseline)
        baseline_path.write_text(
            render_baseline(violations), encoding="utf-8"
        )
        print(f"wrote {len(violations)} entr"
              f"{'y' if len(violations) == 1 else 'ies'} to {baseline_path}")
        return 0
    if args.baseline:
        entries = load_baseline(pathlib.Path(args.baseline))
        violations, grandfathered, stale = apply_baseline(violations, entries)
        for entry in stale:
            print(f"stale baseline entry (matched nothing, delete it): "
                  f"{entry.rule} {entry.path}")
    if args.sarif:
        pathlib.Path(args.sarif).write_text(
            render_sarif(violations) + "\n", encoding="utf-8"
        )
    if args.json:
        print(render_json(violations))
    else:
        print(render_text(violations))
    return 1 if violations else 0


_COMMANDS = {
    "run": _cmd_run,
    "sweep": _cmd_sweep,
    "latency": _cmd_latency,
    "report": _cmd_report,
    "experiment": _cmd_experiment,
    "trace": _cmd_trace,
    "profile": _cmd_profile,
    "serve": _cmd_serve,
    "workloads": _cmd_workloads,
    "cache": _cmd_cache,
    "lint": _cmd_lint,
}


def _configure_logging(verbose: int, quiet: bool) -> None:
    """Point the ``repro.*`` logger hierarchy at stderr.

    Only the root ``repro`` logger is touched — embedding applications
    that configure logging themselves are unaffected because we attach
    the handler to our own hierarchy, not the root logger.
    """
    if quiet:
        level = logging.ERROR
    elif verbose >= 2:
        level = logging.DEBUG
    elif verbose == 1:
        level = logging.INFO
    else:
        level = logging.WARNING
    package_logger = logging.getLogger("repro")
    package_logger.setLevel(level)
    if not package_logger.handlers:
        handler = logging.StreamHandler(sys.stderr)
        handler.setFormatter(logging.Formatter(
            "%(levelname)s %(name)s: %(message)s"
        ))
        package_logger.addHandler(handler)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    _configure_logging(args.verbose, args.quiet)
    config = SimulatorConfig(profile=PROFILES[args.profile], seed=args.seed)
    try:
        return _COMMANDS[args.command](args, config)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
