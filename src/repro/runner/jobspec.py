"""Job and result model for the batch runner.

A *job* is one independent simulation cell: workload x policy x
threshold x migration latency x configuration x seed.  Every figure and
table in the paper is a grid of such cells, which is what makes the
evaluation embarrassingly parallel — no cell reads another cell's state.

Two properties the rest of the subsystem leans on:

- **identity** — :meth:`JobSpec.job_id` is a stable, human-readable
  string computed only from the fields that change the simulation's
  outcome.  With the config fingerprint it keys the cache root's result
  store, so a grid re-run on the same root recognises finished cells
  across process boundaries and interpreter restarts;
- **portability** — a job serialises to a flat JSON payload
  (:meth:`JobSpec.to_payload`) that a worker process reconstructs
  without pickling any library object.  :func:`config_to_payload` /
  :func:`config_from_payload` round-trip a full
  :class:`~repro.sim.config.SimulatorConfig`, nested cache geometry
  included, so workers simulate *exactly* the configuration the parent
  described.

:func:`derive_seed` is the subsystem's only source of randomness
control: child seeds are drawn from a root seed plus the job's identity
through SHA-256, so any grid ordering, sharding, or worker count yields
the same per-cell seed — the foundation of the serial == parallel
determinism guarantee.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Union

from repro.errors import ConfigurationError
from repro.service.config import ServiceConfig
from repro.sim.config import (
    CacheConfig,
    CoreConfig,
    MemorySystemConfig,
    ScaleProfile,
    SimulatorConfig,
)

def derive_seed(root_seed: int, *components: Any) -> int:
    """Derive a child seed from a root seed and a stable identity.

    The derivation hashes ``root_seed`` together with the ``repr`` of
    every component through SHA-256 and keeps 63 bits, so it is (a)
    deterministic across processes and platforms, (b) independent of
    execution order, and (c) statistically uncorrelated between jobs —
    unlike ``root_seed + i`` schemes, whose low-entropy neighbours can
    correlate generator streams.
    """
    digest = hashlib.sha256(
        "|".join([repr(int(root_seed))] + [repr(c) for c in components]).encode()
    ).digest()
    return int.from_bytes(digest[:8], "big") & 0x7FFF_FFFF_FFFF_FFFF


@dataclass(frozen=True)
class JobSpec:
    """One simulation cell of a batch grid.

    ``seed`` of ``None`` means "use the batch's root seed" — the mode
    grid sweeps use so every cell shares one baseline run, matching the
    paper's methodology (and this repo's calibrated numbers).  An
    explicit seed (e.g. from :func:`derive_seed`) gives the cell its own
    stream, which robustness-style trials want.  ``tag`` is a free-form
    label folded into the job id; it distinguishes cells that are
    numerically identical but semantically distinct (e.g. two migration
    design points that happen to share a latency, or trial indices).
    """

    workload: str
    policy: str = "HI"
    threshold: int = 100
    latency: int = 100
    seed: Optional[int] = None
    dynamic_n: bool = False
    tag: str = ""

    def __post_init__(self) -> None:
        if self.latency < 0:
            raise ConfigurationError("job migration latency must be >= 0")
        if any(sep in self.tag for sep in "/\n"):
            raise ConfigurationError("job tag must not contain '/' or newlines")

    def resolved(self, root_seed: int) -> "JobSpec":
        """The same job with a concrete seed (root seed if unset)."""
        if self.seed is not None:
            return self
        return dataclasses.replace(self, seed=root_seed)

    @property
    def job_id(self) -> str:
        """Stable identity string; requires a resolved (concrete) seed."""
        if self.seed is None:
            raise ConfigurationError(
                "job_id needs a concrete seed; call resolved(root_seed) first"
            )
        parts = [
            self.workload,
            self.policy,
            f"N{self.threshold}",
            f"L{self.latency}",
            f"s{self.seed}",
        ]
        if self.dynamic_n:
            parts.append("dyn")
        if self.tag:
            parts.append(self.tag)
        return "/".join(parts)

    def to_payload(self) -> Dict[str, Any]:
        return {
            "job_id": self.job_id,
            "workload": self.workload,
            "policy": self.policy,
            "threshold": self.threshold,
            "latency": self.latency,
            "seed": self.seed,
            "dynamic_n": self.dynamic_n,
            "tag": self.tag,
        }

    @staticmethod
    def from_payload(payload: Dict[str, Any]) -> "JobSpec":
        return JobSpec(
            workload=payload["workload"],
            policy=payload["policy"],
            threshold=payload["threshold"],
            latency=payload["latency"],
            seed=payload["seed"],
            dynamic_n=payload.get("dynamic_n", False),
            tag=payload.get("tag", ""),
        )


# ----------------------------------------------------------------------
# configuration serialisation
# ----------------------------------------------------------------------

#: Scalar SimulatorConfig fields copied verbatim into the payload.
_CONFIG_SCALARS = (
    "num_user_cores",
    "threads_per_user_core",
    "os_core_contexts",
    "seed",
    "enable_branch_model",
    "enable_tlb",
    "enable_icache",
    "track_energy",
    "policy_priming_invocations",
    "include_window_traps",
)

#: Structured SimulatorConfig fields serialised as nested dataclass
#: dicts.  Together with ``_CONFIG_SCALARS`` this must cover *every*
#: config field — the F-rules in ``repro.lint`` enforce that a new
#: field cannot ship without an explicit fingerprint position here.
_CONFIG_STRUCTURED = (
    "profile",
    "core",
    "memory",
    "service",
)


def config_to_payload(config: SimulatorConfig) -> Dict[str, Any]:
    """Flatten a :class:`SimulatorConfig` into a JSON-safe dict.

    Every field is covered (profile, core, nested cache geometry,
    scalars), so ``config_from_payload(config_to_payload(c)) == c`` —
    the equality the worker relies on to reproduce parent-side numbers.
    """
    payload: Dict[str, Any] = {
        name: dataclasses.asdict(getattr(config, name))
        for name in _CONFIG_STRUCTURED
    }
    payload.update({name: getattr(config, name) for name in _CONFIG_SCALARS})
    return payload


def config_from_payload(payload: Dict[str, Any]) -> SimulatorConfig:
    """Inverse of :func:`config_to_payload`.

    Payloads only travel from a parent to its workers within one build,
    so the payload carries exactly the config's fields: a missing or
    unknown key raises rather than falling back to a default.
    """
    fields = dict(payload)
    memory = dict(fields.pop("memory"))
    for level in ("l1", "l1i", "l2"):
        memory[level] = CacheConfig(**memory[level])
    return SimulatorConfig(
        profile=ScaleProfile(**fields.pop("profile")),
        core=CoreConfig(**fields.pop("core")),
        memory=MemorySystemConfig(**memory),
        service=ServiceConfig(**fields.pop("service")),
        **fields,
    )


def config_fingerprint(config: SimulatorConfig) -> str:
    """Short stable hash of a configuration (keys baseline cache files)."""
    blob = json.dumps(config_to_payload(config), sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


# ----------------------------------------------------------------------
# results
# ----------------------------------------------------------------------

STATUS_OK = "ok"
STATUS_FAILED = "failed"


@dataclass
class JobResult:
    """Outcome of one cell: measured metrics or a captured failure.

    ``metrics`` holds the simulation's JSON-safe measurements (the same
    quantities ``repro run --json`` reports); on failure it is empty and
    ``error``/``traceback`` carry the exception message and the worker's
    formatted traceback.  ``cache_counters``
    holds the worker's per-cell trace/result cache deltas (empty when
    the batch ran without a cache directory).  ``profile`` is the
    cell's serialised span tree (see :mod:`repro.obs.spans`) when the
    batch ran with span profiling, else ``None``.
    """

    spec: JobSpec
    status: str
    metrics: Dict[str, float] = field(default_factory=dict)
    error: Optional[str] = None
    traceback: Optional[str] = None
    attempts: int = 1
    duration_s: float = 0.0
    cache_counters: Dict[str, int] = field(default_factory=dict)
    profile: Optional[Dict[str, Any]] = None

    @property
    def job_id(self) -> str:
        return self.spec.job_id

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK

    @property
    def normalized_throughput(self) -> float:
        """Shorthand for the metric every figure plots."""
        return self.metrics["normalized_throughput"]

    @staticmethod
    def from_record(record: Dict[str, Any]) -> "JobResult":
        return JobResult(
            spec=JobSpec.from_payload(record["spec"]),
            status=record["status"],
            metrics=record.get("metrics", {}),
            error=record.get("error"),
            traceback=record.get("traceback"),
            attempts=record.get("attempts", 1),
            # diagnostic wall-time, excluded from result identity.
            duration_s=record.get("duration_s", 0.0),  # simlint: ignore[N505]
            cache_counters=record.get("cache_counters", {}),
            profile=record.get("profile"),
        )


@dataclass
class BatchResult:
    """Everything a batch produced, in the caller's submission order."""

    results: List[JobResult]
    retries: int = 0
    wall_s: float = 0.0

    def __post_init__(self) -> None:
        self._by_id: Dict[str, JobResult] = {
            result.job_id: result for result in self.results
        }

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self) -> Iterator[JobResult]:
        return iter(self.results)

    def get(self, spec_or_id: Union[JobSpec, str]) -> JobResult:
        """Look a cell up by :class:`JobSpec` (resolved) or job id."""
        key = spec_or_id if isinstance(spec_or_id, str) else spec_or_id.job_id
        return self._by_id[key]

    @property
    def completed(self) -> List[JobResult]:
        return [r for r in self.results if r.ok]

    @property
    def failures(self) -> List[JobResult]:
        return [r for r in self.results if not r.ok]

    def normalized(self, spec_or_id: Union[JobSpec, str]) -> float:
        return self.get(spec_or_id).normalized_throughput

    def raise_on_failures(self) -> None:
        """Turn recorded cell failures into one loud batch error."""
        from repro.errors import ReproError

        if not self.failures:
            return
        lines = [f"{r.job_id}: {r.error}" for r in self.failures[:5]]
        more = len(self.failures) - len(lines)
        if more > 0:
            lines.append(f"... and {more} more")
        raise ReproError(
            f"{len(self.failures)} of {len(self.results)} batch cells "
            "failed:\n  " + "\n  ".join(lines)
        )

    def merged_profile(self) -> Dict[str, Any]:
        """Deterministically merge every cell's span tree.

        Profiles merge in job-id order (not completion order), so a
        parallel batch and its serial re-run produce identical merged
        structure; see :func:`repro.obs.spans.merge_profiles`.
        """
        from repro.obs.spans import merge_profiles

        profiles = [
            result.profile
            for result in sorted(self.results, key=lambda r: r.job_id)
            if result.profile is not None
        ]
        merged: Dict[str, Any] = merge_profiles(profiles)
        return merged

    def summary(self) -> Dict[str, Any]:
        """JSON-ready batch summary (the `repro report` shape for batches)."""
        return {
            "jobs": len(self.results),
            "ok": len(self.completed),
            "failed": len(self.failures),
            "retries": self.retries,
            "wall_s": round(self.wall_s, 3),
            "failures": [
                {"job_id": r.job_id, "error": r.error, "attempts": r.attempts}
                for r in self.failures
            ],
        }
