"""simlint: AST-based invariant linter for the repro codebase.

Static enforcement of the repo's bit-identity and registry invariants:

- ``D1xx`` determinism rules (:mod:`repro.lint.determinism`)
- ``R3xx`` event/metric registry rules (:mod:`repro.lint.registries`)
  and cache-key honesty (:mod:`repro.lint.cachekeys`)
- ``F4xx`` fingerprint-coverage rules (:mod:`repro.lint.fingerprint`)

and, under ``repro lint --dataflow``, the interprocedural flow
families (:mod:`repro.lint.flowrules` over the engine in
:mod:`repro.lint.callgraph` / :mod:`repro.lint.dataflow`):

- ``N5xx`` determinism-taint rules (:mod:`repro.lint.taint`)
- ``W7xx`` worker-purity rules (:mod:`repro.lint.workers`)

Run via ``repro lint [paths ...]``; suppress a finding in place with a
``# simlint: ignore[RULE]`` trailing comment (``RULE`` may be ``*``),
or a whole file with ``# simlint: ignore-file[RULE]``.  A pragma on
the sink line, the source line, or any intermediate hop suppresses a
flow finding.  See ``docs/static-analysis.md``.

Importing this package imports every rule module, which registers the
rules; :func:`run_lint` therefore always runs the complete set.
"""

from repro.lint.core import (
    Project,
    Rule,
    Violation,
    collect_project,
    register,
    registered_rules,
    render_json,
    render_text,
    run_lint,
)
from repro.lint import (  # noqa: F401
    cachekeys,
    determinism,
    fingerprint,
    flowrules,
    registries,
)

__all__ = [
    "Project",
    "Rule",
    "Violation",
    "collect_project",
    "register",
    "registered_rules",
    "render_json",
    "render_text",
    "run_lint",
]
