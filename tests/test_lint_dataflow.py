"""simlint v2 flow rules: interprocedural true/false positives,
flow traces, suppression across multi-file flows, family selection,
and the meta-invariant that the real tree is flow-clean.

The fixture trees under ``tests/lint_fixtures/flows/`` are miniature
packages: ``bad/`` routes a nondeterministic source through helper
hops into every sink family (the deliberate-injection fixture the
engine must catch *interprocedurally*), ``clean/`` exercises the
near-miss idioms field-sensitivity and sanitizers must NOT flag.
"""

import json
import shutil
from pathlib import Path

import pytest

from repro.cli import main as cli_main
from repro.lint import registered_rules, run_lint

FLOWS = Path(__file__).parent / "lint_fixtures" / "flows"
BAD = FLOWS / "bad"
CLEAN = FLOWS / "clean"

FLOW_SELECT = ["N,W"]


def _findings(tree: Path, **kwargs):
    kwargs.setdefault("select", FLOW_SELECT)
    return run_lint([tree], root=tree, dataflow=True, **kwargs)


# ----------------------------------------------------------------------
# registry metadata
# ----------------------------------------------------------------------


def test_flow_rules_registered_with_metadata():
    rules = {rule.id: rule for rule in registered_rules()}
    for rule_id in ("N501", "N502", "N503", "N504", "N505",
                    "W701", "W702", "W703"):
        assert rule_id in rules
        assert rules[rule_id].flow
        assert rules[rule_id].severity in ("error", "warning", "note")
    assert rules["N501"].family == "determinism-taint"
    assert rules["W701"].family == "worker-purity"
    # v1 rules are not flow-based and keep running without --dataflow
    assert not rules["D101"].flow


# ----------------------------------------------------------------------
# true positives (bad tree)
# ----------------------------------------------------------------------

EXPECTED_BAD = [
    ("N501", "pipeline/emit.py", "stats counter 'commits'"),
    ("N501", "pipeline/emit.py", "set-order"),
    ("N502", "pipeline/emit.py", "ProbeEvent"),
    ("N503", "pipeline/emit.py", "wall-clock"),
    ("N504", "pipeline/emit.py", "shard_key"),
    ("N505", "pipeline/emit.py", "duration_s"),
    ("W701", "workers/pool.py", "'_EPOCH'"),
    ("W702", "workers/pool.py", "'_RESULTS'"),
    ("W703", "workers/pool.py", "'count'"),
]


@pytest.mark.parametrize("rule,path,needle", EXPECTED_BAD)
def test_bad_tree_flow_finding(rule, path, needle):
    violations = _findings(BAD)
    matches = [
        v for v in violations
        if v.rule == rule and v.path == path and needle in v.message
    ]
    assert matches, (
        f"expected {rule} in {path} mentioning {needle!r}; got:\n"
        + "\n".join(v.render() for v in violations)
    )


def test_bad_tree_has_no_unexpected_flow_rules():
    expected = {rule for rule, _, _ in EXPECTED_BAD}
    assert {v.rule for v in _findings(BAD)} == expected


# ----------------------------------------------------------------------
# the deliberate injection is caught INTERPROCEDURALLY, with a trace
# ----------------------------------------------------------------------


def _injection_finding():
    violations = _findings(BAD, select=["N501"])
    assert len(violations) == 1
    return violations[0]


def test_injection_caught_across_two_helper_hops():
    violation = _injection_finding()
    # source and sink live in DIFFERENT modules
    assert violation.path == "pipeline/emit.py"
    assert "pipeline/sources.py" in violation.message
    # both intermediate hops are named
    assert "fold_lane_ids" in violation.message
    assert "lane_signature" in violation.message


def test_flow_trace_structure():
    violation = _injection_finding()
    steps = violation.flow
    assert len(steps) >= 4  # source + two hops + sink
    assert steps[0].note.startswith("source")
    assert steps[0].path == "pipeline/sources.py"
    assert steps[-1].note.startswith("sink")
    assert steps[-1].path == "pipeline/emit.py"
    assert steps[-1].line == violation.line
    notes = [step.note for step in steps[1:-1]]
    assert any("fold_lane_ids" in note for note in notes)
    assert any("lane_signature" in note for note in notes)


def test_flow_trace_in_json_payload():
    violation = _injection_finding()
    payload = violation.to_dict()
    assert payload["severity"] == "error"
    assert [step["path"] for step in payload["flow"]][0] == (
        "pipeline/sources.py"
    )


def test_purity_findings_carry_entrypoint_chain():
    violations = _findings(BAD, select=["W701"])
    assert len(violations) == 1
    violation = violations[0]
    assert "run_job" in violation.message  # the submitted callable
    assert violation.flow[0].note.startswith("worker entry")
    assert violation.flow[-1].note == "mutation site"


# ----------------------------------------------------------------------
# false positives (clean tree): sanitizers and field-sensitivity
# ----------------------------------------------------------------------


def test_clean_tree_is_flow_clean():
    violations = _findings(CLEAN)
    assert violations == [], "\n".join(v.render() for v in violations)


def test_flow_rules_off_without_dataflow():
    violations = run_lint([BAD], root=BAD, select=FLOW_SELECT)
    assert violations == []


def test_family_prefix_select():
    only_purity = _findings(BAD, select=["W"])
    assert {v.rule[0] for v in only_purity} == {"W"}
    comma = _findings(BAD, select=["N,W"])
    assert {v.rule[0] for v in comma} == {"N", "W"}


# ----------------------------------------------------------------------
# suppression pragmas on multi-file flows
# ----------------------------------------------------------------------


def _copy_tree(tmp_path: Path) -> Path:
    target = tmp_path / "flows_bad"
    shutil.copytree(BAD, target)
    return target


def _add_pragma(tree: Path, relpath: str, needle: str, pragma: str) -> None:
    path = tree / relpath
    lines = path.read_text().splitlines()
    hits = [i for i, line in enumerate(lines) if needle in line]
    assert len(hits) == 1, f"{needle!r} matched lines {hits} in {relpath}"
    lines[hits[0]] += f"  # simlint: ignore[{pragma}]"
    path.write_text("\n".join(lines) + "\n")


def test_pragma_at_sink_line_suppresses_flow(tmp_path):
    tree = _copy_tree(tmp_path)
    _add_pragma(
        tree, "pipeline/emit.py",
        "self.stats.commits = lane_signature(lanes)", "N501",
    )
    violations = run_lint([tree], root=tree, dataflow=True, select=["N501"])
    assert violations == []


def test_pragma_at_source_line_suppresses_flow(tmp_path):
    tree = _copy_tree(tmp_path)
    # the source line lives two call hops away, in another module
    _add_pragma(
        tree, "pipeline/sources.py", "for lane in set(lanes):", "N501",
    )
    violations = run_lint([tree], root=tree, dataflow=True, select=["N501"])
    assert violations == []


def test_source_pragma_is_rule_scoped(tmp_path):
    tree = _copy_tree(tmp_path)
    # suppressing N501 at the shared source must NOT hide the N502/N504
    # flows fed by the same source line
    _add_pragma(
        tree, "pipeline/sources.py", "for lane in set(lanes):", "N501",
    )
    violations = run_lint([tree], root=tree, dataflow=True, select=["N"])
    rules = {v.rule for v in violations}
    assert "N501" not in rules
    assert {"N502", "N504"} <= rules


def test_pragma_at_intermediate_hop_suppresses_flow(tmp_path):
    tree = _copy_tree(tmp_path)
    _add_pragma(
        tree, "pipeline/sources.py", "def lane_signature(lanes):", "N501",
    )
    violations = run_lint([tree], root=tree, dataflow=True, select=["N501"])
    assert violations == []


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------


def test_cli_dataflow_flags_bad_tree(capsys):
    assert cli_main([
        "lint", "--dataflow", "--select", "N,W", str(BAD)
    ]) == 1
    out = capsys.readouterr().out
    assert "flow: source" in out
    assert "N501" in out


def test_cli_list_rules_shows_flow_metadata(capsys):
    assert cli_main(["lint", "--list-rules"]) == 0
    out = capsys.readouterr().out
    header, *rows = [line for line in out.splitlines() if line]
    for column in ("RULE", "FAMILY", "SEVERITY", "FLOW"):
        assert column in header
    n501 = next(row for row in rows if row.startswith("N501"))
    assert "determinism-taint" in n501
    assert " yes " in n501
    d101 = next(row for row in rows if row.startswith("D101"))
    assert " no " in d101


# ----------------------------------------------------------------------
# meta: the real tree is flow-clean, quickly
# ----------------------------------------------------------------------


def test_real_tree_is_flow_clean():
    assert cli_main(["lint", "--dataflow"]) == 0
