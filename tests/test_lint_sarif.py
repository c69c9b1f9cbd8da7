"""SARIF 2.1.0 export: schema validity, codeFlows, CLI integration.

The export is validated against a vendored, trimmed-but-faithful
subset of the official SARIF 2.1.0 schema
(``tests/data/sarif-2.1.0-trimmed-schema.json``): every construct
simlint emits is constrained exactly as in the full schema (required
properties, level enums, region minimums), so a document that fails
upload-time validation fails here first.
"""

import json
from pathlib import Path

import jsonschema
import pytest

from repro.cli import main as cli_main
from repro.lint import run_lint
from repro.lint.sarif import render_sarif, sarif_document

FLOWS_BAD = Path(__file__).parent / "lint_fixtures" / "flows" / "bad"
SCHEMA = json.loads(
    (Path(__file__).parent / "data" / "sarif-2.1.0-trimmed-schema.json")
    .read_text()
)


@pytest.fixture(scope="module")
def bad_violations():
    return run_lint(
        [FLOWS_BAD], root=FLOWS_BAD, dataflow=True, select=["N,W"]
    )


def test_sarif_validates_against_schema(bad_violations):
    document = sarif_document(bad_violations)
    jsonschema.validate(document, SCHEMA)
    assert document["version"] == "2.1.0"


def test_empty_run_also_validates():
    document = sarif_document([])
    jsonschema.validate(document, SCHEMA)
    assert document["runs"][0]["results"] == []


def test_results_reference_declared_rules(bad_violations):
    document = sarif_document(bad_violations)
    run = document["runs"][0]
    rules = run["tool"]["driver"]["rules"]
    rule_ids = [rule["id"] for rule in rules]
    assert len(rule_ids) == len(set(rule_ids))
    for result in run["results"]:
        assert result["ruleId"] in rule_ids
        assert rules[result["ruleIndex"]]["id"] == result["ruleId"]
        # severity mapped onto the SARIF level enum
        assert result["level"] in ("error", "warning", "note")


def test_rule_metadata_carries_family_and_flow(bad_violations):
    document = sarif_document(bad_violations)
    rules = {
        rule["id"]: rule
        for rule in document["runs"][0]["tool"]["driver"]["rules"]
    }
    assert rules["N501"]["properties"]["family"] == "determinism-taint"
    assert rules["N501"]["properties"]["flowBased"] is True
    assert rules["N501"]["defaultConfiguration"]["level"] == "error"
    assert rules["W702"]["defaultConfiguration"]["level"] == "warning"


def test_interprocedural_result_has_code_flow(bad_violations):
    document = sarif_document(bad_violations)
    results = document["runs"][0]["results"]
    n501 = next(r for r in results if r["ruleId"] == "N501")
    locations = n501["codeFlows"][0]["threadFlows"][0]["locations"]
    assert len(locations) >= 4  # source, two hops, sink
    uris = [
        loc["location"]["physicalLocation"]["artifactLocation"]["uri"]
        for loc in locations
    ]
    assert uris[0] == "pipeline/sources.py"
    assert uris[-1] == "pipeline/emit.py"
    notes = [loc["location"]["message"]["text"] for loc in locations]
    assert notes[0].startswith("source")
    assert notes[-1].startswith("sink")


def test_render_sarif_is_stable_json(bad_violations):
    text = render_sarif(bad_violations)
    assert json.loads(text) == sarif_document(bad_violations)
    assert text == render_sarif(bad_violations)


def test_cli_writes_sarif_file(tmp_path, capsys):
    out_file = tmp_path / "simlint.sarif"
    code = cli_main([
        "lint", "--dataflow", "--select", "N,W",
        "--sarif", str(out_file), str(FLOWS_BAD),
    ])
    assert code == 1  # findings exist; SARIF written regardless
    document = json.loads(out_file.read_text())
    jsonschema.validate(document, SCHEMA)
    assert document["runs"][0]["results"]
