"""Smoke test of `tools/compare_panels.py`, the panel row comparison."""

import importlib.util
from pathlib import Path

import pytest

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
    assert compare_panels.compare_round(old, new) == ({"status": (1, None)}, 2)


def test_power_columns_report_their_largest_relative_move():
    row = {"status": "Optimal", "objective_mw": "2.0", "p_op_total_mw": "nan", "division_bitmask": "3"}
    old = ([row, row, row], [])
    new = ([row | {"objective_mw": "2.000002"}, row | {"objective_mw": "2.00002"},
            row | {"division_bitmask": "5", "p_op_total_mw": "1.0"}], [])
    diffs, lines = compare_panels.compare_round(old, new)
    assert lines == 0
    assert diffs.keys() == {"objective_mw", "p_op_total_mw", "division_bitmask"}
    count, (move, row_index) = diffs["objective_mw"]
    assert (count, row_index) == (2, 1)
    assert move == pytest.approx(1e-5)
    assert diffs["p_op_total_mw"] == (1, (float("inf"), 2))
    assert diffs["division_bitmask"] == (1, None)
    assert compare_panels.describe(diffs).startswith("division_bitmask moved; division_bitmask 1; objective_mw 2")
    assert compare_panels.describe({}) == "status, iterations, division_bitmask, termination identical"
