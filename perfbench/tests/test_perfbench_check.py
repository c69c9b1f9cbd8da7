"""The output check flags any perturbed counter."""

import copy

import pytest

from check import OutputCheck, load_reference, save_reference


@pytest.mark.parametrize(
    "workload", ["paper-cells", "fig4-grid-warm", "latency-open-loop"]
)
def test_reference_check_flags_a_perturbed_counter(workload):
    reference = load_reference(2010, workload)
    assert reference, f"no recorded reference for {workload}"
    checker = OutputCheck(reference)
    assert checker.check(copy.deepcopy(reference)) == {}

    cell = sorted(reference)[0]
    counter = sorted(reference[cell])[-1]
    perturbed = copy.deepcopy(reference)
    perturbed[cell][counter] += 1
    problems = checker.check(perturbed)
    assert list(problems) == [cell]
    assert counter in problems[cell]


def test_reference_check_flags_an_unknown_cell():
    checker = OutputCheck({"apache/HI": {"offloads": 3}})
    assert "apache/NEVER" in checker.check({"apache/NEVER": {"offloads": 3}})


def test_repeat_check_pins_the_first_occurrence():
    checker = OutputCheck()
    assert checker.check({"a": {"offloads": 3, "throughput": 0.5}}) == {}
    assert checker.check({"a": {"offloads": 3, "throughput": 0.5}}) == {}
    problems = checker.check({"a": {"offloads": 4, "throughput": 0.5}})
    assert list(problems) == ["a"]
    assert "offloads=4 expected 3" in problems["a"]


def test_save_reference_round_trips_exactly(tmp_path):
    path = str(tmp_path / "reference.json")
    cells = {"c": {"throughput": 0.1 + 0.2, "offloads": 7}}
    save_reference(5, "w", cells, path=path)
    assert load_reference(5, "w", path=path) == cells
    assert load_reference(6, "w", path=path) is None
