"""simlint: rule true/false positives, suppression, CLI, and the
meta-invariant that the real source tree is lint-clean.

The fixture trees under ``tests/lint_fixtures/`` mirror the package
layout the registry-backed rules key on (``sim/``, ``memory/``,
``obs/``, ``runner/``): ``bad/`` seeds at least one true positive per
rule, ``clean/`` exercises the idioms the rules must NOT flag.
"""

import json
import shutil
from pathlib import Path

import pytest

import repro
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
    assert {"D", "P", "R", "F"} <= families


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
    ("P201", "memory/hierarchy.py", "'l1_accesses'"),
    ("P201", "memory/hierarchy.py", "'l2_accesses'"),
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
    ("F403", "runner/jobspec.py", "phantom"),
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
    assert "P201" in out and "violations" in out


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


def test_syntax_error_becomes_e001(tmp_path):
    (tmp_path / "broken.py").write_text("def nope(:\n")
    findings = run_lint([tmp_path], root=tmp_path)
    assert [v.rule for v in findings] == ["E001"]


# ----------------------------------------------------------------------
# acceptance criterion: the P-rule catches a counter deliberately
# removed from the real batched path
# ----------------------------------------------------------------------


def _package_dir() -> Path:
    return Path(repro.__file__).resolve().parent


def test_parity_rule_catches_counter_removed_from_batched_path(tmp_path):
    package = _package_dir()
    (tmp_path / "sim").mkdir()
    (tmp_path / "memory").mkdir()
    shutil.copy(package / "sim" / "stats.py", tmp_path / "sim" / "stats.py")
    hierarchy = (package / "memory" / "hierarchy.py").read_text()
    # Drop the energy accounting from the batched path (the per-batch
    # commit in _replay_keys); the spec path's per-access bump survives.
    mutated = hierarchy.replace("self.energy.l1_accesses += n", "pass")
    assert mutated != hierarchy, "mutation target not found in hierarchy.py"
    (tmp_path / "memory" / "hierarchy.py").write_text(mutated)

    findings = run_lint([tmp_path], root=tmp_path, select=["P"])
    assert any(
        v.rule == "P201"
        and "l1_accesses" in v.message
        and "access_batch" in v.message
        for v in findings
    ), f"P201 should flag the removed counter, got: {findings}"


def test_parity_rule_follows_helper_attribute_calls(tmp_path):
    """Counters bumped inside ``self.directory.<m>()`` join the closure.

    The scalar path charges ``directory_lookups`` through
    ``Directory.lookup``; this synthetic batch path folds the same
    counter through a bulk ``Directory.lookup_many``.  Dropping the fold
    leaves the counter scalar-only, which the rule must see *through*
    the helper object — an intra-class closure cannot.
    """
    package = _package_dir()
    (tmp_path / "sim").mkdir()
    (tmp_path / "memory").mkdir()
    shutil.copy(package / "sim" / "stats.py", tmp_path / "sim" / "stats.py")
    (tmp_path / "memory" / "mesi.py").write_text(
        "class Directory:\n"
        "    def lookup(self, line):\n"
        "        self.stats.directory_lookups += 1\n"
        "    def lookup_many(self, lines):\n"
        "        self.stats.directory_lookups += len(lines)\n"
    )
    balanced = (
        "class MemoryHierarchy:\n"
        "    def access(self, line):\n"
        "        self.directory.lookup(line)\n"
        "    def access_batch(self, lines):\n"
        "        self.directory.lookup_many(lines)\n"
    )
    (tmp_path / "memory" / "hierarchy.py").write_text(balanced)
    assert run_lint([tmp_path], root=tmp_path, select=["P"]) == []

    severed = balanced.replace(
        "self.directory.lookup_many(lines)", "pass"
    )
    (tmp_path / "memory" / "hierarchy.py").write_text(severed)
    findings = run_lint([tmp_path], root=tmp_path, select=["P"])
    assert any(
        v.rule == "P201"
        and "directory_lookups" in v.message
        and "access_batch" in v.message
        for v in findings
    ), f"P201 should see through the helper attribute, got: {findings}"


def test_parity_rule_is_green_on_unmodified_hierarchy(tmp_path):
    package = _package_dir()
    (tmp_path / "sim").mkdir()
    (tmp_path / "memory").mkdir()
    shutil.copy(package / "sim" / "stats.py", tmp_path / "sim" / "stats.py")
    shutil.copy(
        package / "memory" / "hierarchy.py",
        tmp_path / "memory" / "hierarchy.py",
    )
    assert run_lint([tmp_path], root=tmp_path, select=["P"]) == []


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
