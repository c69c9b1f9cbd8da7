"""simlint framework: module model, rule registry, runner, rendering.

The linter is a pure-stdlib ``ast`` pass (no third-party parser) so it
can run anywhere the simulator runs.  A lint run proceeds in three
steps:

1. every ``.py`` file under the requested paths is parsed into a
   :class:`ModuleSource` (a file that fails to parse becomes an
   ``E001`` violation rather than a crash);
2. each registered :class:`Rule` inspects the whole
   :class:`Project` — project scope is what lets the registry and
   fingerprint rules cross-reference *between* modules;
3. violations on lines carrying a ``# simlint: ignore[RULE]`` comment
   (or in files carrying ``# simlint: ignore-file[RULE]``) are
   dropped, the rest are sorted and rendered.

Rules self-register via the :func:`register` decorator at import time;
:mod:`repro.lint` imports every rule module, so ``run_lint`` always
sees the full set.
"""

from __future__ import annotations

import ast
import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Type

__all__ = [
    "FlowStep",
    "Violation",
    "ModuleSource",
    "Project",
    "Rule",
    "register",
    "registered_rules",
    "collect_project",
    "run_lint",
    "render_text",
    "render_json",
]

_SUPPRESS_LINE = re.compile(
    r"#\s*simlint:\s*ignore\[([A-Za-z0-9_*,\s]+)\]"
)
_SUPPRESS_FILE = re.compile(
    r"#\s*simlint:\s*ignore-file\[([A-Za-z0-9_*,\s]+)\]"
)


class FlowStep(Tuple[str, int, str]):
    """(path, line, note) — one hop of an interprocedural flow trace."""

    __slots__ = ()

    def __new__(cls, path: str, line: int, note: str) -> "FlowStep":
        return tuple.__new__(cls, (path, line, note))

    @property
    def path(self) -> str:
        return self[0]

    @property
    def line(self) -> int:
        return self[1]

    @property
    def note(self) -> str:
        return self[2]

    def to_dict(self) -> Dict[str, Any]:
        return {"path": self.path, "line": self.line, "note": self.note}


@dataclass(frozen=True, order=True)
class Violation:
    """One rule finding, anchored to a file and line.

    Flow-based findings (the v2 N/W families) are anchored at their
    *sink* and additionally carry the full source→sink trace in
    :attr:`flow`; ``severity`` feeds the SARIF export and
    ``--list-rules`` (the exit code counts every finding regardless).
    """

    path: str
    line: int
    rule: str
    message: str
    severity: str = "error"
    flow: Tuple[FlowStep, ...] = ()

    def to_dict(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "path": self.path,
            "line": self.line,
            "rule": self.rule,
            "message": self.message,
            "severity": self.severity,
        }
        if self.flow:
            payload["flow"] = [step.to_dict() for step in self.flow]
        return payload

    def render(self) -> str:
        text = f"{self.path}:{self.line}: {self.rule} {self.message}"
        if self.flow:
            trace = " → ".join(
                f"{step.note} at {step.path}:{step.line}"
                if step.note.startswith(("source", "sink"))
                else step.note
                for step in self.flow
            )
            text += f"\n    flow: {trace}"
        return text


class ModuleSource:
    """A parsed module plus everything rules need to reason about it."""

    def __init__(self, path: Path, root: Path) -> None:
        self.path = path
        try:
            rel = path.resolve().relative_to(root.resolve())
        except ValueError:
            rel = path
        #: posix-style path rendered in findings and used for scoping.
        self.relpath = rel.as_posix()
        #: path components, used by rules that only apply to some
        #: packages (``"memory" in module.parts`` etc.).
        self.parts: Tuple[str, ...] = rel.parts
        self.text = path.read_text(encoding="utf-8")
        self.lines = self.text.splitlines()
        self.tree = ast.parse(self.text, filename=str(path))
        self._file_ignores = self._scan_file_ignores()

    def _scan_file_ignores(self) -> Tuple[str, ...]:
        ignores: List[str] = []
        for line in self.lines:
            match = _SUPPRESS_FILE.search(line)
            if match:
                ignores.extend(
                    token.strip() for token in match.group(1).split(",")
                )
        return tuple(token for token in ignores if token)

    def ends_with(self, *suffix: str) -> bool:
        """True when the module path ends with the given components."""
        return self.parts[-len(suffix):] == suffix

    def in_package(self, *names: str) -> bool:
        """True when any *directory* component matches one of ``names``."""
        return any(part in names for part in self.parts[:-1])

    def suppressed(self, rule_id: str, line: int) -> bool:
        """Line- or file-level ``# simlint: ignore`` covering ``rule_id``."""
        if any(tok in ("*", rule_id) for tok in self._file_ignores):
            return True
        if not 1 <= line <= len(self.lines):
            return False
        match = _SUPPRESS_LINE.search(self.lines[line - 1])
        if not match:
            return False
        tokens = [token.strip() for token in match.group(1).split(",")]
        return any(tok in ("*", rule_id) for tok in tokens)

    def violation(self, rule_id: str, node: ast.AST, message: str) -> Violation:
        return Violation(
            path=self.relpath,
            line=getattr(node, "lineno", 1),
            rule=rule_id,
            message=message,
        )


class Project:
    """All modules of one lint run, with suffix-based lookup.

    Registry-backed rules locate their ground-truth modules (for
    example ``obs/names.py``) by *path suffix* rather than by import,
    so the same rules work both on the real tree and on miniature
    fixture trees in tests.
    """

    def __init__(self, modules: Sequence[ModuleSource]) -> None:
        self.modules: Tuple[ModuleSource, ...] = tuple(
            sorted(modules, key=lambda m: m.relpath)
        )

    def find(self, *suffix: str) -> Optional[ModuleSource]:
        for module in self.modules:
            if module.ends_with(*suffix):
                return module
        return None

    def __iter__(self) -> Iterator[ModuleSource]:
        return iter(self.modules)


class Rule:
    """Base class for lint rules.

    Subclasses set :attr:`id` / :attr:`summary` and override either
    :meth:`check_project` (cross-module rules) or :meth:`check_module`
    (per-module rules).  Rules yield :class:`Violation` objects;
    suppression is applied centrally by :func:`run_lint`.
    """

    id: str = ""
    summary: str = ""
    #: rule family shown by ``--list-rules`` ("determinism", "registry", …).
    family: str = "general"
    #: default severity stamped onto findings ("error"/"warning"/"note").
    severity: str = "error"
    #: flow-based rules need the interprocedural engine and only run
    #: under ``repro lint --dataflow``.
    flow: bool = False

    def check_project(self, project: Project) -> Iterator[Violation]:
        for module in project:
            yield from self.check_module(module, project)

    def check_module(
        self, module: ModuleSource, project: Project
    ) -> Iterator[Violation]:
        return iter(())


_RULES: List[Type[Rule]] = []


def register(rule_cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to the global registry."""
    if not rule_cls.id:
        raise ValueError(f"rule {rule_cls.__name__} has no id")
    if any(existing.id == rule_cls.id for existing in _RULES):
        raise ValueError(f"duplicate rule id {rule_cls.id}")
    _RULES.append(rule_cls)
    return rule_cls


def registered_rules() -> Tuple[Type[Rule], ...]:
    return tuple(sorted(_RULES, key=lambda rule: rule.id))


def _iter_python_files(paths: Iterable[Path]) -> Iterator[Path]:
    seen = set()
    for path in paths:
        if path.is_dir():
            candidates: Iterable[Path] = sorted(path.rglob("*.py"))
        else:
            candidates = [path]
        for candidate in candidates:
            resolved = candidate.resolve()
            if resolved not in seen:
                seen.add(resolved)
                yield candidate


def collect_project(
    paths: Sequence[Path], root: Optional[Path] = None
) -> Tuple[Project, List[Violation]]:
    """Parse every ``.py`` file under ``paths``.

    Returns the project plus ``E001`` violations for unparsable files
    — a syntax error in one module must not mask findings elsewhere.
    """
    if root is None:
        root = Path.cwd()
    modules: List[ModuleSource] = []
    errors: List[Violation] = []
    for path in _iter_python_files(paths):
        try:
            modules.append(ModuleSource(path, root))
        except (SyntaxError, UnicodeDecodeError) as exc:
            line = getattr(exc, "lineno", 1) or 1
            errors.append(
                Violation(
                    path=str(path),
                    line=line,
                    rule="E001",
                    message=f"could not parse module: {exc.__class__.__name__}",
                )
            )
    return Project(modules), errors


def _selected(rule_id: str, select: Optional[Sequence[str]]) -> bool:
    if not select:
        return True
    prefixes = [
        token.strip()
        for entry in select
        for token in entry.split(",")
        if token.strip()
    ]
    if not prefixes:
        return True
    return any(rule_id.startswith(prefix) for prefix in prefixes)


def _suppressed(
    violation: Violation, by_path: Dict[str, ModuleSource]
) -> bool:
    """Pragma suppression for plain and flow findings.

    A flow finding is anchored at its sink, so a sink-line pragma
    behaves exactly like a v1 suppression; additionally a pragma on any
    *step* of the trace (the source line, or an intermediate hop)
    suppresses the whole flow — whoever owns any segment of the path
    can vouch for it.
    """
    module = by_path.get(violation.path)
    if module is not None and module.suppressed(violation.rule, violation.line):
        return True
    for step in violation.flow:
        module = by_path.get(step.path)
        if module is not None and module.suppressed(violation.rule, step.line):
            return True
    return False


def run_lint(
    paths: Sequence[Path],
    root: Optional[Path] = None,
    select: Optional[Sequence[str]] = None,
    dataflow: bool = False,
) -> List[Violation]:
    """Lint ``paths`` and return sorted, suppression-filtered findings.

    ``select`` restricts the run to rule ids matching any of the given
    prefixes; entries may be comma-separated (``["D"]`` → all
    determinism rules, ``["N,W"]`` → both flow families).
    ``dataflow`` enables the interprocedural flow rules (N/W
    families); the default run keeps v1's per-file speed.
    """
    project, violations = collect_project(paths, root=root)
    by_path = {module.relpath: module for module in project}
    for rule_cls in registered_rules():
        if rule_cls.flow and not dataflow:
            continue
        if not _selected(rule_cls.id, select):
            continue
        for violation in rule_cls().check_project(project):
            if _suppressed(violation, by_path):
                continue
            violations.append(violation)
    return sorted(violations)


def render_text(violations: Sequence[Violation]) -> str:
    if not violations:
        return "simlint: no violations"
    lines = [violation.render() for violation in violations]
    lines.append(
        f"simlint: {len(violations)} violation"
        f"{'s' if len(violations) != 1 else ''}"
    )
    return "\n".join(lines)


def render_json(violations: Sequence[Violation]) -> str:
    payload = {
        "violations": [violation.to_dict() for violation in violations],
        "count": len(violations),
    }
    return json.dumps(payload, indent=2, sort_keys=True)
