"""simlint: rule true/false positives, suppression, CLI, and the
meta-invariant that the real source tree is lint-clean.

The fixture trees under ``tests/lint_fixtures/`` mirror the package
layout the registry-backed rules key on (``sim/``, ``obs/``,
``runner/``): ``bad/`` seeds at least one true positive per
rule, ``clean/`` exercises the idioms the rules must NOT flag.
"""

import json
from pathlib import Path

import pytest

from repro.cli import main as cli_main
from repro.lint import registered_rules, run_lint

FIXTURES = Path(__file__).parent / "lint_fixtures"
BAD = FIXTURES / "bad"
CLEAN = FIXTURES / "clean"


def _findings(tree: Path, **kwargs):
    return run_lint([tree], root=tree, **kwargs)


# ----------------------------------------------------------------------
# rule registry
# ----------------------------------------------------------------------


def test_rule_ids_are_unique_and_documented():
    rules = registered_rules()
    ids = [rule.id for rule in rules]
    assert len(ids) == len(set(ids))
    assert all(rule.summary for rule in rules)
    # One registered rule per family at minimum.
    families = {rule_id[0] for rule_id in ids}
    assert {"D", "R", "F"} <= families


# ----------------------------------------------------------------------
# true positives (bad tree) / false-positive guard (clean tree)
# ----------------------------------------------------------------------

EXPECTED_BAD = [
    ("D101", "sim/noise.py", "random.random"),
    ("D101", "sim/noise.py", "np.random.rand"),
    ("D101", "sim/noise.py", "gauss"),
    ("D102", "sim/noise.py", "time.time"),
    ("D102", "sim/noise.py", "datetime.now"),
    ("D103", "sim/noise.py", "PYTHONHASHSEED"),
    ("D104", "obs/emitters.py", "hash-dependent"),
    ("R301", "obs/emitters.py", "RogueEvent"),
    ("R301", "obs/emitters.py", "ad-hoc literal"),
    ("R302", "obs/instruments.py", "repro_rogue_total"),
    ("R302", "obs/instruments.py", "spelled as a literal"),
    ("R302", "obs/instruments.py", "computed at the call site"),
    ("R303", "obs/instruments.py", "repro_stray_total"),
    ("R305", "obs/spansites.py", "cell.rogue"),
    ("R305", "obs/spansites.py", "computed at the call site"),
    ("R305", "obs/spansites.py", "SPAN_UNDECLARED"),
    ("F401", "runner/jobspec.py", "'threads'"),
    ("F401", "runner/jobspec.py", "'orphan_field'"),
    ("F402", "runner/jobspec.py", "removed_field"),
]


@pytest.mark.parametrize(
    "rule,path,fragment",
    EXPECTED_BAD,
    ids=[f"{r}-{f[:20]}" for r, _, f in EXPECTED_BAD],
)
def test_bad_fixture_trips_rule(rule, path, fragment):
    matches = [
        v
        for v in _findings(BAD)
        if v.rule == rule and v.path == path and fragment in v.message
    ]
    assert matches, f"expected {rule} in {path} mentioning {fragment!r}"


def test_bad_fixture_exit_is_nonzero_via_cli(capsys):
    assert cli_main(["lint", str(BAD)]) == 1
    out = capsys.readouterr().out
    assert "D101" in out and "violations" in out


def test_clean_fixture_has_no_findings():
    assert _findings(CLEAN) == []


def test_clean_fixture_exit_is_zero_via_cli(capsys):
    assert cli_main(["lint", str(CLEAN)]) == 0
    assert "no violations" in capsys.readouterr().out


# ----------------------------------------------------------------------
# suppression and selection
# ----------------------------------------------------------------------


def test_line_level_suppression(tmp_path):
    source = tmp_path / "mod.py"
    source.write_text(
        "import random\n"
        "x = random.random()  # simlint: ignore[D101]\n"
        "y = random.random()\n"
    )
    findings = run_lint([tmp_path], root=tmp_path)
    assert [v.line for v in findings if v.rule == "D101"] == [3]


def test_file_level_suppression(tmp_path):
    source = tmp_path / "mod.py"
    source.write_text(
        "# simlint: ignore-file[D101]\n"
        "import random\n"
        "x = random.random()\n"
        "y = random.random()\n"
    )
    assert run_lint([tmp_path], root=tmp_path) == []


def test_wildcard_suppression(tmp_path):
    source = tmp_path / "mod.py"
    source.write_text(
        "import random\n"
        "x = random.random()  # simlint: ignore[*]\n"
    )
    assert run_lint([tmp_path], root=tmp_path) == []


def test_select_restricts_to_rule_prefix():
    only_d = _findings(BAD, select=["D"])
    assert only_d and all(v.rule.startswith("D") for v in only_d)
    everything = _findings(BAD)
    assert len(only_d) < len(everything)


# "A" and "P" name retired families (scratch escape, engine parity).
@pytest.mark.parametrize("select", ["Z9", "D,Z9", "A", "P"])
def test_cli_rejects_select_token_matching_no_rule(select, capsys):
    assert cli_main(["lint", "--select", select, str(CLEAN)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert select.split(",")[-1] in captured.err


def test_fingerprint_rules_select_separately():
    stale = _findings(BAD, select=["F402"])
    assert [(v.rule, v.path) for v in stale] == [
        ("F402", "runner/jobspec.py")
    ]
    assert "removed_field" in stale[0].message
    uncovered = _findings(BAD, select=["F401"])
    assert uncovered and {v.rule for v in uncovered} == {"F401"}


def test_every_finding_carries_a_registered_rule_id():
    # A rule that emits findings under another id hides them from
    # --select, --list-rules and the SARIF rule table.
    registered = {rule.id for rule in registered_rules()} | {"E001"}
    flows_bad = FIXTURES / "flows" / "bad"
    violations = _findings(BAD) + run_lint(
        [flows_bad], root=flows_bad, dataflow=True
    )
    assert violations
    assert {v.rule for v in violations} <= registered


def test_syntax_error_becomes_e001(tmp_path):
    (tmp_path / "broken.py").write_text("def nope(:\n")
    findings = run_lint([tmp_path], root=tmp_path)
    assert [v.rule for v in findings] == ["E001"]


# ----------------------------------------------------------------------
# meta-test: the shipped source tree is lint-clean
# ----------------------------------------------------------------------


def test_real_source_tree_is_lint_clean(capsys):
    assert cli_main(["lint"]) == 0
    assert "no violations" in capsys.readouterr().out


def test_json_output_shape(capsys):
    assert cli_main(["lint", "--json", str(BAD)]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["count"] == len(payload["violations"]) > 0
    sample = payload["violations"][0]
    assert set(sample) >= {"path", "line", "rule", "message", "severity"}


def test_list_rules_via_cli(capsys):
    assert cli_main(["lint", "--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule in registered_rules():
        assert rule.id in out
