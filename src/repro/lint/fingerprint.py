"""F-rules: SimulatorConfig fields vs the runner's fingerprint policy.

The result store and the baseline store key on a *fingerprint* of the
configuration (``runner/jobspec.py``).  Every ``SimulatorConfig`` field
must therefore be declared in that module, in ``_CONFIG_SCALARS``
(copied verbatim into the payload) or ``_CONFIG_STRUCTURED``
(serialised as a nested dataclass dict).

``F401`` flags a config field declared in neither — the exact failure
mode of adding a field and forgetting the runner, which would silently
let a stored result or baseline satisfy a *different* experiment.
``F402`` flags stale declarations (a listed name that is no longer a
field).

Ground truth is read from the ASTs of ``sim/config.py`` (the
``SimulatorConfig`` dataclass's annotated fields) and
``runner/jobspec.py`` (the two module-level name tuples), located by
path suffix so fixtures can vendor miniatures of both.
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, Iterator, Optional, Tuple

from repro.lint.core import ModuleSource, Project, Rule, Violation, register

__all__ = [
    "FingerprintCoverageRule",
    "StaleFingerprintDeclarationRule",
]

_CONFIG_SUFFIX = ("sim", "config.py")
_JOBSPEC_SUFFIX = ("runner", "jobspec.py")

_DECLARATION_TUPLES = ("_CONFIG_SCALARS", "_CONFIG_STRUCTURED")


def simulator_config_fields(project: Project) -> Optional[FrozenSet[str]]:
    """Annotated field names of the ``SimulatorConfig`` dataclass."""
    module = project.find(*_CONFIG_SUFFIX)
    if module is None:
        return None
    for node in ast.walk(module.tree):
        if isinstance(node, ast.ClassDef) and node.name == "SimulatorConfig":
            return frozenset(
                stmt.target.id
                for stmt in node.body
                if isinstance(stmt, ast.AnnAssign)
                and isinstance(stmt.target, ast.Name)
            )
    return None


def _string_tuple(node: ast.expr) -> FrozenSet[str]:
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return frozenset(
            element.value
            for element in node.elts
            if isinstance(element, ast.Constant)
            and isinstance(element.value, str)
        )
    return frozenset()


def fingerprint_declarations(
    project: Project,
) -> Optional[Tuple[ModuleSource, Dict[str, FrozenSet[str]], Dict[str, int]]]:
    """The jobspec module's declaration tuples, with their line anchors."""
    module = project.find(*_JOBSPEC_SUFFIX)
    if module is None:
        return None
    declarations: Dict[str, FrozenSet[str]] = {}
    lines: Dict[str, int] = {}
    for stmt in module.tree.body:
        if not (isinstance(stmt, ast.Assign) and len(stmt.targets) == 1):
            continue
        target = stmt.targets[0]
        if isinstance(target, ast.Name) and target.id in _DECLARATION_TUPLES:
            declarations[target.id] = _string_tuple(stmt.value)
            lines[target.id] = stmt.lineno
    return module, declarations, lines


@register
class FingerprintCoverageRule(Rule):
    id = "F401"
    summary = "SimulatorConfig field without a declared fingerprint position"
    family = "fingerprint"

    def check_project(self, project: Project) -> Iterator[Violation]:
        fields = simulator_config_fields(project)
        declared = fingerprint_declarations(project)
        if fields is None or declared is None:
            return
        module, declarations, lines = declared
        covered = frozenset().union(*declarations.values())
        for name in sorted(fields - covered):
            yield Violation(
                path=module.relpath,
                line=lines.get("_CONFIG_SCALARS", 1),
                rule=self.id,
                message=(
                    f"SimulatorConfig field '{name}' is not in the "
                    "fingerprint: list it in _CONFIG_SCALARS or "
                    "_CONFIG_STRUCTURED"
                ),
            )


@register
class StaleFingerprintDeclarationRule(Rule):
    id = "F402"
    summary = "stale fingerprint declaration (not a SimulatorConfig field)"
    family = "fingerprint"

    def check_project(self, project: Project) -> Iterator[Violation]:
        fields = simulator_config_fields(project)
        declared = fingerprint_declarations(project)
        if fields is None or declared is None:
            return
        module, declarations, lines = declared
        for declaration_name, names in sorted(declarations.items()):
            for name in sorted(names - fields):
                yield Violation(
                    path=module.relpath,
                    line=lines[declaration_name],
                    rule=self.id,
                    message=(
                        f"{declaration_name} lists '{name}', which is not "
                        "a SimulatorConfig field (stale declaration)"
                    ),
                )
