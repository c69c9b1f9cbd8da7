"""Bench LINT — interprocedural dataflow runtime budget.

The whole-program pass (``repro lint --dataflow``) is meant to run in
CI on every push and locally before every commit, so it has a hard
wall-clock budget: a full analysis of ``src/repro`` — call graph,
taint fixpoint and worker-purity closure — must finish in under 10
seconds.  The budget is what keeps the dataflow
engine honest as the tree grows; if a new abstraction blows it, the
fix is summary precision or caching, not dropping the pass from CI.

Two measurements:

1. **fast pass** — plain ``run_lint`` (v1 AST rules only), which must
   stay interactive-speed since it is the inner-loop default;
2. **dataflow pass** — ``run_lint(dataflow=True)``, the budgeted run.
   A fresh ``Project`` per round so the cached ``FlowContext`` from a
   previous round cannot hide the real cost.

Both passes must also report zero violations on the real tree — the
same invariant ``tests/test_lint_dataflow.py`` pins, re-checked here
because a finding would make the timing unrepresentative (early
exits, shorter render paths).
"""

import time
from pathlib import Path

import repro
from repro.lint import run_lint

SRC_ROOT = Path(repro.__file__).resolve().parent

#: Hard wall-clock ceiling for a full --dataflow pass over src/repro.
MAX_DATAFLOW_SECONDS = 10.0

#: The fast v1 pass must stay well inside interactive latency.
MAX_FAST_SECONDS = 5.0


def _best_of(fn, rounds: int = 3):
    best = float("inf")
    result = None
    for _ in range(rounds):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def test_fast_pass_under_budget():
    elapsed, violations = _best_of(
        lambda: run_lint([SRC_ROOT], root=SRC_ROOT)
    )
    print()
    print(f"fast pass over src/repro (best of 3): {elapsed:.3f}s")
    assert violations == [], "\n".join(v.render() for v in violations)
    assert elapsed < MAX_FAST_SECONDS, (
        f"fast lint pass took {elapsed:.2f}s, budget is "
        f"{MAX_FAST_SECONDS:.0f}s"
    )


def test_dataflow_pass_under_budget():
    elapsed, violations = _best_of(
        lambda: run_lint([SRC_ROOT], root=SRC_ROOT, dataflow=True)
    )
    print()
    print(f"dataflow pass over src/repro (best of 3): {elapsed:.3f}s")
    assert violations == [], "\n".join(v.render() for v in violations)
    assert elapsed < MAX_DATAFLOW_SECONDS, (
        f"interprocedural lint pass took {elapsed:.2f}s, budget is "
        f"{MAX_DATAFLOW_SECONDS:.0f}s"
    )
