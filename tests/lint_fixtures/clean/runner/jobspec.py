"""Fingerprint declarations covering every SimulatorConfig field."""

_CONFIG_SCALARS = (
    "seed",
    "threads",
    "engine",
)

_CONFIG_STRUCTURED = ()
