"""Smoke test of `tools/compare_panels.py`, the panel row comparison."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("compare_panels", ROOT / "tools" / "compare_panels.py")
compare_panels = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_panels)


def test_checkout_matches_itself_on_one_round():
    src = compare_panels.package_root(str(ROOT))
    workload = compare_panels.WORKLOADS["reference-infeasible"]
    n_rows, diffs, n_lines = compare_panels.compare(src, src, workload, [0])
    assert n_rows == workload.rows_per_round()
    assert diffs == {} and n_lines == 0


def test_differences_are_counted_per_column():
    old = ([{"trial": "0", "status": "Optimal", "solve_ms": "1.0"}] * 2, ["a", "b"])
    new = ([{"trial": "0", "status": "Infeasible", "solve_ms": "2.0"},
            {"trial": "0", "status": "Optimal", "solve_ms": "3.0"}], ["a", "c", "d"])
    assert compare_panels.compare_round(old, new) == ({"status": 1}, 2)
