"""Smoke test of `tools/compare_solves.py`, the bitwise solution comparison."""

import importlib.util
import math
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("compare_solves", ROOT / "tools" / "compare_solves.py")
compare_solves = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_solves)


def test_checkout_matches_itself_with_forced_back_off():
    src = compare_solves.package_root(str(ROOT))
    old, new = (compare_solves.run_tree(src, 1.2) for _ in range(2))
    assert len(old) == 201
    assert {r["status"] for r in old} >= {"Optimal", "Infeasible", "Unbounded"}
    assert compare_solves.compare(old, new) == {}


def test_differences_are_counted_per_field():
    row = (dict.fromkeys(compare_solves.DISCRETE, "x")
           | {f: [(1.0).hex(), (-4.0).hex()] for f in compare_solves.NUMERIC} | {"label": "a"})
    old = [row, row | {"label": "b"}]
    new = [row | {"status": "y", "blocks": [(1.0).hex(), (-4.002).hex()]},
           row | {"label": "b", "blocks": [(1.004).hex(), (-4.0).hex()]}]
    diffs = compare_solves.compare(old, new)
    assert diffs.keys() == {"status", "blocks"}
    assert diffs["status"] == (1, None)
    count, (move, label) = diffs["blocks"]
    assert count == 2 and label == "b"
    assert move == pytest.approx(0.004 / 4.0)
    assert compare_solves.describe(diffs) == (
        "status moved; blocks 2 (largest relative move 1.00e-03, b); status 1"
    )
    assert compare_solves.describe({"objective": (1, (2e-9, "a"))}).startswith(
        "status, detail, iterations identical; objective 1"
    )
    assert compare_solves.compare(old, [row | {"label": "c"}, old[1]]) == {"<problem set>": (1, None)}


@pytest.mark.parametrize("old, new, move", [
    ([1.0, 2.0], [1.0, 2.0], 0.0),
    ([0.0], [0.0], 0.0),
    ([0.0], [1e-300], math.inf),
    ([math.nan], [math.nan], 0.0),
    ([math.nan], [1.0], math.inf),
    ([1.0], [1.0, 2.0], math.inf),
])
def test_relative_move_edges(old, new, move):
    assert compare_solves.relative_move([v.hex() for v in old], [v.hex() for v in new]) == move
