"""Content-addressed cache keys, derived only from declared fields.

Every key in the cache is the SHA-256 digest of a canonical JSON
payload, and every payload is assembled exclusively from:

- ``dataclasses.asdict`` of the :class:`~repro.workloads.base.
  WorkloadSpec` (the complete calibrated workload description), and
- the :func:`~repro.runner.jobspec.config_to_payload` dict, whose
  coverage of ``SimulatorConfig`` is enforced by simlint's F-rules —
  a new config field cannot ship without a fingerprint position, so
  it cannot silently miss the cache key either.

No function in this package reads ``config.<field>`` directly; the
R304 lint rule (:mod:`repro.lint.cachekeys`) rejects any such access,
which keeps the key derivation honest by construction.

Key contents per level:

- **trace keys** cover exactly the fields that shape a generated event
  stream: the workload spec, the scale profile, the seed, the thread
  id, and whether instruction-fetch streams are drawn
  (``enable_icache`` interleaves extra RNG draws).  Policy, threshold,
  migration latency and the like are deliberately absent — the
  generator never sees them, which is what lets every cell of a grid
  replay one materialized trace;
- **priming keys** cover the same workload/profile/seed identity plus
  ``policy_priming_invocations`` (the recorded stream must contain
  enough invocations to prime any policy);
- **result keys** reuse :func:`~repro.runner.jobspec.config_fingerprint`
  verbatim (plus the job id), so level 2 inherits the runner's
  outcome-equivalence classes.

``CACHE_SCHEMA_VERSION`` is folded into every digest *and* stamped
into every manifest: bump it on any incompatible layout change and old
entries become unreachable (and reclaimable via ``repro cache gc``).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Any, Dict

from repro.workloads.base import WorkloadSpec

#: Bump on incompatible changes to the entry layout or key derivation.
CACHE_SCHEMA_VERSION = 1

TRACE_KIND = "trace"
PRIME_KIND = "prime"
RESULT_KIND = "result"


def _digest(payload: Dict[str, Any]) -> str:
    blob = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:24]


def workload_payload(spec: WorkloadSpec) -> Dict[str, Any]:
    """The workload half of a trace key: the full spec, field by field."""
    return dataclasses.asdict(spec)


def trace_key(
    spec: WorkloadSpec, config_payload: Dict[str, Any], thread_id: int
) -> str:
    """Key of one thread's materialized event + reference stream."""
    return _digest({
        "schema": CACHE_SCHEMA_VERSION,
        "kind": TRACE_KIND,
        "workload": workload_payload(spec),
        "profile": config_payload["profile"],
        "seed": config_payload["seed"],
        "enable_icache": config_payload["enable_icache"],
        "thread": thread_id,
    })


def prime_key(spec: WorkloadSpec, config_payload: Dict[str, Any]) -> str:
    """Key of the policy-priming invocation stream."""
    return _digest({
        "schema": CACHE_SCHEMA_VERSION,
        "kind": PRIME_KIND,
        "workload": workload_payload(spec),
        "profile": config_payload["profile"],
        "seed": config_payload["seed"],
        "invocations": config_payload["policy_priming_invocations"],
    })


def result_key(job_id: str, config_fingerprint: str) -> str:
    """Key of one memoized ``simulate()`` outcome."""
    return _digest({
        "schema": CACHE_SCHEMA_VERSION,
        "kind": RESULT_KIND,
        "job_id": job_id,
        "config": config_fingerprint,
    })
