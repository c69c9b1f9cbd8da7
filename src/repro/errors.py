"""Exception hierarchy for the repro package.

Every error raised by this library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still letting programming errors (``TypeError`` etc.) propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigurationError(ReproError):
    """A configuration object is inconsistent or out of range.

    Raised during validation, e.g. a cache whose size is not a multiple of
    ``line_size * associativity``, or a scale profile with a non-positive
    scale factor.
    """


class SimulationError(ReproError):
    """The simulator reached an impossible state.

    This signals a bug in the model (e.g. a MESI invariant violation), not a
    user mistake, and is used by internal consistency checks.
    """


class WorkloadError(ReproError):
    """A workload specification cannot be realised.

    Raised, for example, when a syscall mix has weights that sum to zero or
    references an unknown syscall name.
    """


class PredictorError(ReproError):
    """A predictor was constructed or used with invalid parameters."""


class JobTimeout(ReproError):
    """A cell exceeded its per-job wall-clock budget.

    The batch worker's alarm raises it wherever the cell happens to be,
    so it can surface inside any handler of the cell's call tree.  A
    handler that degrades on an unusable cache entry re-raises it: the
    timeout fails the cell, it is not a fault of the entry.
    """
