"""Smoke test of `tools/compare_solves.py`, the bitwise solution comparison."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("compare_solves", ROOT / "tools" / "compare_solves.py")
compare_solves = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_solves)


def test_checkout_matches_itself_with_forced_back_off():
    src = compare_solves.package_root(str(ROOT))
    old, new = (compare_solves.run_tree(src, 1.2) for _ in range(2))
    assert len(old) == 198
    assert {r["status"] for r in old} >= {"Optimal", "Infeasible", "Unbounded"}
    assert compare_solves.compare(old, new) == {}


def test_differences_are_counted_per_field():
    row = dict.fromkeys(compare_solves.FIELDS, "x") | {"label": "a"}
    old = [row, row]
    new = [row | {"status": "y", "blocks": "y"}, row | {"blocks": "y"}]
    assert compare_solves.compare(old, new) == {"status": 1, "blocks": 2}
    assert compare_solves.compare(old, [row | {"label": "b"}, row]) == {"<problem set>": 1}
