"""Cache-root resolution and on-disk layout of the shared cache.

One directory tree serves every caching layer the repo has grown:

``<root>/traces/``
    Level-1 entries: materialized :class:`~repro.workloads.generator.
    TraceGenerator` streams (``.npz`` + ``.json`` manifest pairs),
    written by :class:`~repro.cache.tracestore.TraceStore`.
``<root>/results/``
    Level-2 entries: memoized ``simulate()`` outcomes, written by
    :class:`~repro.cache.resultstore.ResultStore`.
``<root>/baselines/``
    The :class:`~repro.runner.baselines.BaselineStore` files, so every
    grid on the root, fig4 and fig5 alike, shares one baseline run per
    workload and configuration.

Root precedence (documented in ``docs/caching.md``): an explicit
``--cache DIR`` / ``cache_dir=`` argument wins, then the
``REPRO_CACHE_DIR`` environment variable, then ``~/.cache/repro``.
Library entry points default to *no* caching (``cache_dir=None``);
only the CLI resolves the default root, so importing or testing the
library never touches the user's home directory.
"""

from __future__ import annotations

import os
from typing import Optional

#: Environment variable overriding the default cache root.
CACHE_ENV_VAR = "REPRO_CACHE_DIR"

#: Default shared root when neither a flag nor the env var is given.
DEFAULT_CACHE_ROOT = os.path.join("~", ".cache", "repro")

TRACES_SUBDIR = "traces"
RESULTS_SUBDIR = "results"
BASELINES_SUBDIR = "baselines"

#: The sections maintenance operations are allowed to touch; anything
#: else under the root is left alone.
CACHE_SECTIONS = (TRACES_SUBDIR, RESULTS_SUBDIR, BASELINES_SUBDIR)


def resolve_cache_root(explicit: Optional[str] = None) -> str:
    """Resolve the cache root: explicit path > env var > default."""
    if explicit:
        return os.path.expanduser(explicit)
    env = os.environ.get(CACHE_ENV_VAR)
    if env:
        return os.path.expanduser(env)
    return os.path.expanduser(DEFAULT_CACHE_ROOT)


def baselines_dir(root: str) -> str:
    """The shared :class:`BaselineStore` directory under a cache root."""
    return os.path.join(root, BASELINES_SUBDIR)
