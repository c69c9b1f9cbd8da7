"""Per-layer host-time tracing from outside the simulator.

:class:`LayerTracer` wraps the public functions of each simulator layer
(named after the ``src/repro/`` modules) and times every call.  It
changes no code under ``src/``: :meth:`LayerTracer.install` swaps class
and module attributes for timing wrappers and :meth:`LayerTracer.uninstall`
puts every original back.

Self time is kept with a call stack: a wrapped call's elapsed time is
charged to its layer minus the time of the wrapped calls nested inside
it.  ``OffloadEngine.run`` is itself a frame (layer ``engine``), so the
layer self times of one run plus ``engine`` partition its wall time.

Grid workers are forked from the traced process and inherit the
wrappers.  Each worker resets the state it inherited on its first cell
and writes its totals to ``worker_dir`` after every cell; the parent
folds those files back with :meth:`LayerTracer.collect_workers`.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Layers that own a self time.
LAYERS = (
    "sim.construct",
    "workloads",
    "cache",
    "memory",
    "core",
    "cpu",
    "offload.queue",
    "service",
    "engine",
)


class _TimedIterator:
    """Charges each ``next()`` of a lazily produced stream to a layer."""

    __slots__ = ("_tracer", "_layer", "_iterator")

    def __init__(self, tracer: "LayerTracer", layer: str, iterator: Any):
        self._tracer = tracer
        self._layer = layer
        self._iterator = iterator

    def __iter__(self) -> "_TimedIterator":
        return self

    def __next__(self) -> Any:
        return self._tracer._timed(self._layer, next, (self._iterator,), {})


def _lines_count(result: Any) -> int:
    """Reference count of an ``(lines, writes)`` pair or a code array."""
    return len(result[0]) if isinstance(result, tuple) else len(result)


class LayerTracer:
    """Times calls into the simulator's layers; see the module docstring."""

    def __init__(self, worker_dir: Optional[str] = None):
        self.worker_dir = worker_dir
        self.owner_pid = os.getpid()
        self.pid = self.owner_pid
        self._patches: List[Tuple[Any, str, Any]] = []
        self._stack: List[List[Any]] = []
        self._workload = ""
        self.last_self_ns = 0
        self.reset()

    # -- state ---------------------------------------------------------

    def reset(self) -> None:
        """Zero every accumulator (the wrappers stay installed)."""
        self.self_ns: Dict[str, int] = {layer: 0 for layer in LAYERS}
        self.counts: Dict[str, float] = defaultdict(float)
        self.busy_s: Dict[str, float] = defaultdict(float)

    def state(self) -> Dict[str, Any]:
        return {
            "self_ns": dict(self.self_ns),
            "counts": dict(self.counts),
            "busy_s": dict(self.busy_s),
        }

    def merge(self, state: Dict[str, Any]) -> None:
        for layer, ns in state["self_ns"].items():
            self.self_ns[layer] = self.self_ns.get(layer, 0) + ns
        for name, value in state["counts"].items():
            self.counts[name] += value
        for pid, seconds in state["busy_s"].items():
            self.busy_s[pid] += seconds

    def collect_workers(self) -> int:
        """Fold every worker's dump into this tracer; returns the count."""
        if not self.worker_dir or not os.path.isdir(self.worker_dir):
            return 0
        found = 0
        for name in sorted(os.listdir(self.worker_dir)):
            if not name.endswith(".json"):
                continue
            path = os.path.join(self.worker_dir, name)
            with open(path) as handle:
                self.merge(json.load(handle))
            os.remove(path)
            found += 1
        return found

    def _dump_worker(self) -> None:
        path = os.path.join(self.worker_dir, f"worker-{self.pid}.json")
        with open(path + ".tmp", "w") as handle:
            json.dump(self.state(), handle)
        os.replace(path + ".tmp", path)

    # -- timing core ---------------------------------------------------

    def _timed(self, layer: str, fn: Callable, args: tuple, kwargs: dict) -> Any:
        stack = self._stack
        frame = [layer, 0]
        stack.append(frame)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter_ns() - start
            stack.pop()
            self.last_self_ns = elapsed - frame[1]
            self.self_ns[layer] += self.last_self_ns
            if stack:
                stack[-1][1] += elapsed

    def take_busy(self) -> Dict[str, float]:
        """Per-process grid-cell busy seconds since the last call."""
        busy = dict(self.busy_s)
        self.busy_s.clear()
        return busy

    # -- patching ------------------------------------------------------

    def _patch(self, owner: Any, name: str, wrapper: Callable) -> None:
        original = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
        self._patches.append((owner, name, original))
        setattr(owner, name, functools.wraps(original)(wrapper))

    def _wrap_method(
        self,
        owner: type,
        name: str,
        layer: str,
        after: Optional[Callable[[tuple, Any], None]] = None,
        lazy: bool = False,
    ) -> None:
        """Time ``owner.name``; ``lazy`` also times the returned iterator."""
        if name not in owner.__dict__:
            return
        original = owner.__dict__[name]
        tracer = self

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            result = tracer._timed(layer, original, args, kwargs)
            if after is not None:
                after(args, result)
            if lazy:
                result = _TimedIterator(tracer, layer, result)
            return result

        self._patch(owner, name, wrapper)

    def _patch_everywhere(self, original: Callable, wrapper: Callable) -> None:
        """Rebind a module-level function in every module that imported it."""
        name = original.__name__
        for module in list(sys.modules.values()):
            if getattr(module, name, None) is original:
                self._patch(module, name, wrapper)

    def _wrap_function(self, original: Callable, layer: str) -> None:
        """Time a module-level function under every name it is bound to."""
        tracer = self

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            return tracer._timed(layer, original, args, kwargs)

        self._patch_everywhere(original, wrapper)

    def install(self) -> "LayerTracer":
        """Wrap every layer's public functions (idempotent per tracer)."""
        if self._patches:
            return self
        from repro.cache.tracestore import TraceStore, _ReplayTrace
        from repro.core.policies import OffloadPolicy
        from repro.cpu.branch import BranchInterferenceModel
        from repro.cpu.core import InOrderCore
        from repro.memory.hierarchy import MemoryHierarchy
        from repro.offload.engine import OffloadEngine
        from repro.offload.oscore import OsCorePool
        from repro.runner.worker import execute_job
        from repro.service.arrivals import ArrivalSchedule
        from repro.service.latency import LatencyAccumulator
        from repro.sim.simulator import make_policy
        from repro.workloads.generator import TraceGenerator

        # Callbacks read ``self.counts`` at call time: reset() replaces it.
        def count(key: str) -> Callable[[tuple, Any], None]:
            def bump(args: tuple, result: Any) -> None:
                self.counts[key] += _lines_count(result)
            return bump

        # sim: policy construction and the engine constructor.
        self._wrap_function(make_policy, "sim.construct")
        self._wrap_method(OffloadEngine, "__init__", "sim.construct")
        self._wrap_run(OffloadEngine)

        # workloads: live trace generation.
        self._wrap_method(TraceGenerator, "events", "workloads", lazy=True)
        for name in ("user_accesses", "os_accesses", "user_code_accesses",
                     "os_code_accesses"):
            self._wrap_method(TraceGenerator, name, "workloads",
                              after=count("workloads.refs"))

        # cache: the trace store's sources and their replay.
        for name in ("trace_source", "trace_data", "columnar_bundle"):
            self._wrap_method(TraceStore, name, "cache")
        self._wrap_method(TraceStore, "priming_events", "cache", lazy=True)
        self._wrap_method(_ReplayTrace, "events", "cache", lazy=True)
        for name in ("user_accesses", "os_accesses", "user_code_accesses",
                     "os_code_accesses"):
            self._wrap_method(_ReplayTrace, name, "cache")

        # memory: the batch entry points of every engine variant, also
        # split by the workload preset of the enclosing run.
        def memory_refs(args: tuple, result: Any) -> None:
            refs = len(args[2])
            self.counts["memory.refs"] += refs
            self.counts[f"memory.refs.{self._workload}"] += refs
            self.counts[f"memory.ns.{self._workload}"] += self.last_self_ns

        for name in ("access_batch", "access_code_batch",
                     "access_batch_columnar", "access_code_batch_columnar"):
            self._wrap_method(MemoryHierarchy, name, "memory", after=memory_refs)

        # core: every policy's decide/observe (priming included).
        def decided(args: tuple, result: Any) -> None:
            if not self._stack or self._stack[-1][0] != "core":
                self.counts["core.decisions"] += 1
                self.counts["core.offloads"] += bool(result.offload)

        for cls in _subclasses(OffloadPolicy):
            self._wrap_method(cls, "decide", "core", after=decided)
            self._wrap_method(cls, "observe", "core")

        # cpu: timing models.
        self._wrap_method(BranchInterferenceModel, "execute", "cpu")
        self._wrap_method(InOrderCore, "retire", "cpu")

        # offload: the OS-core pool.
        def served(args: tuple, result: Any) -> None:
            self.counts["offload.serves"] += 1

        self._wrap_method(OsCorePool, "serve", "offload.queue", after=served)
        self._wrap_method(OsCorePool, "admit", "offload.queue")

        # service: open-loop arrivals and latency accounting.
        self._wrap_method(ArrivalSchedule, "next_arrival", "service")
        self._wrap_method(LatencyAccumulator, "record", "service")

        self._wrap_execute_job(execute_job)
        return self

    def uninstall(self) -> None:
        """Put back every patched attribute, newest first."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def __enter__(self) -> "LayerTracer":
        return self.install()

    def __exit__(self, *exc: Any) -> None:
        self.uninstall()

    # -- special wrappers ----------------------------------------------

    def _wrap_run(self, engine_cls: type) -> None:
        """Time ``OffloadEngine.run`` and fold the run's simulated stats."""
        original = engine_cls.__dict__["run"]
        tracer = self

        def run(engine: Any) -> Any:
            outer = tracer._workload
            tracer._workload = engine.spec.name
            self_before = sum(tracer.self_ns.values())
            start = time.perf_counter_ns()
            try:
                stats = tracer._timed("engine", original, (engine,), {})
            finally:
                tracer._workload = outer
            wall = time.perf_counter_ns() - start
            tracer.counts["engine.runs"] += 1
            tracer.counts["engine.wall_ns"] += wall
            tracer.counts["engine.covered_ns"] += (
                sum(tracer.self_ns.values()) - self_before
            )
            tracer._fold_stats(engine, stats)
            return stats

        self._patch(engine_cls, "run", run)

    def _fold_stats(self, engine: Any, stats: Any) -> None:
        """Add one run's simulated (region-of-interest) counters."""
        counts = self.counts
        for group, prefix in ((stats.l1, "l1"), (stats.l2, "l2")):
            for cache in group.values():
                counts[f"memory.{prefix}_hits"] += cache.hits
                counts[f"memory.{prefix}_accesses"] += cache.accesses
        counts["memory.dram_fetches"] += engine.hierarchy.dram.fetches
        counts["memory.c2c_transfers"] += stats.coherence.cache_to_cache_transfers
        counts["memory.invalidations"] += stats.coherence.invalidations
        counts["core.binary_correct"] += stats.predictor.binary_correct
        counts["core.binary_total"] += stats.predictor.binary_total
        offload = stats.offload
        counts["offload.queue_delay_total"] += offload.queue_delay_total
        counts["offload.queue_delay_events"] += offload.queue_delay_events
        if offload.offloads:
            counts["offload.busy_frac_sum"] += stats.os_core_time_fraction()
            counts["offload.busy_frac_runs"] += 1
        latency = engine.latency_snapshot()
        if latency is not None:
            counts["service.requests"] += latency.requests
            counts["service.drops"] += latency.drops

    def _wrap_execute_job(self, original: Callable) -> None:
        """Per-process busy time of grid cells; workers dump their totals."""
        tracer = self

        def execute_job(payload: Any) -> Any:
            pid = os.getpid()
            if pid != tracer.pid:
                # First cell in a forked worker: drop the inherited totals.
                tracer.pid = pid
                tracer._stack.clear()
                tracer.reset()
            start = time.perf_counter()
            try:
                return original(payload)
            finally:
                tracer.busy_s[str(pid)] += time.perf_counter() - start
                if pid != tracer.owner_pid and tracer.worker_dir:
                    tracer._dump_worker()

        self._patch_everywhere(original, execute_job)


def _subclasses(cls: type) -> List[type]:
    found = [cls]
    for sub in cls.__subclasses__():
        found.extend(_subclasses(sub))
    return found
