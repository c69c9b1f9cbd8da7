"""Fingerprint declarations that drift from sim/config.py (F-rules)."""

_CONFIG_SCALARS = (
    "seed",
    "engine",
    "removed_field",  # F402: not a SimulatorConfig field any more
)

_CONFIG_STRUCTURED = ()

# 'threads' and 'orphan_field' are missing everywhere -> F401 x2.
