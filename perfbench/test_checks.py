"""Each output check passes a real output and rejects a deliberately wrong one.

Run from the root of the repository:

    python3 -m pytest perfbench/test_checks.py
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from swiptcran.beamform import GroupDivision, SystemParams, solve_division  # noqa: E402
from swiptcran.topology import draw_channels, generate_topology  # noqa: E402

import checks  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

PARAMS = WORKLOADS["brute-oracle"].params


@pytest.fixture(scope="module", params=[0, 0b0101101], ids=["all-met", "mixed"])
def solved(request):
    topology = generate_topology(seed=3, n_rrh=3, n_it=3, n_et=7)
    channels = draw_channels(topology, seed=4, slot=0)
    division = GroupDivision.from_bitmask(request.param, 7)
    report, solution = solve_division(topology, channels, division, SystemParams())
    assert report.feasible
    return {
        "p": PARAMS,
        "rrh_xy": [(q.x, q.y) for q in topology.rrh_positions],
        "et_xy": [(q.x, q.y) for q in topology.et_positions],
        "h_id": channels.h_id,
        "h_et": channels.h_et,
        "fet_mask": request.param,
        "blocks": np.array(solution.block_values),
        "report_objective": report.objective,
        "sdp_objective": solution.objective_value,
        "primal_residual": solution.primal_residual,
    }


def test_solver_output_passes(solved):
    assert checks.check_solve(**solved) == []


def test_perturbed_objective_is_rejected(solved):
    wrong = dict(solved, report_objective=solved["report_objective"] * (1 + 1e-9))
    assert any("reported objective" in f for f in checks.check_solve(**wrong))
    wrong = dict(solved, sdp_objective=solved["sdp_objective"] * (1 - 1e-6))
    assert any("SDP objective" in f for f in checks.check_solve(**wrong))


def test_block_below_a_sinr_floor_is_rejected(solved):
    blocks = solved["blocks"].copy()
    blocks[1] *= 0.999  # IT 1's own beam loses a little power
    failures = checks.check_solve(**dict(solved, blocks=blocks))
    assert any("SINR floor of IT 1" in f for f in failures)


def test_harvest_floor_shortfall_is_rejected(solved):
    blocks = solved["blocks"] * 1e-3  # SINR ratios shrink only through the noise term
    failures = checks.check_solve(**dict(solved, blocks=blocks))
    kind = "MET" if solved["fet_mask"] == 0 else "FET"
    assert any(f"{kind} " in f and "harvest floor" in f for f in failures)


def test_block_off_the_psd_cone_is_rejected(solved):
    blocks = solved["blocks"].copy()
    blocks[0] -= 1e-6 * np.eye(3) + np.linalg.eigvalsh(blocks[0]).min() * np.eye(3)
    failures = checks.check_solve(**dict(solved, blocks=blocks))
    assert any("block 0 has eigenvalue" in f for f in failures)


def _row(algorithm="all-met", status="Optimal", op=100.0, pu=20.0, **kw):
    row = {"trial": "0", "slot": "0", "algorithm": algorithm, "sweep_value": "",
           "status": status, "stage": "", "division_bitmask": "0",
           "objective_mw": repr(op + pu) if status == "Optimal" else "nan",
           "p_op_total_mw": repr(op) if status == "Optimal" else "nan",
           "p_pu_total_mw": repr(pu) if status == "Optimal" else "nan"}
    row.update(kw)
    return row


def test_row_identity():
    assert checks.check_row(_row(), PARAMS, False) == []
    assert checks.check_row(_row(objective_mw="120.000001"), PARAMS, False)
    assert checks.check_row(_row(status="MaxIterations"), PARAMS, False)


def test_feasible_row_at_four_its_is_rejected():
    params = WORKLOADS["reference-infeasible"].params
    load = checks.steering_load(params["n_it"], params["sinr_min"])
    assert math.isclose(load, 4 * 20 / 21) and load > params["n_rrh"]
    assert checks.check_row(_row(status="Infeasible"), params, True) == []
    assert checks.check_row(_row(), params, True)


def test_brute_above_a_baseline_is_rejected():
    rows = [_row("brute", pu=10.0), _row("all-fet", pu=10.0), _row("all-met", pu=15.0)]
    assert checks.check_brute(rows) == []
    rows[0] = _row("brute", pu=10.01)
    assert checks.check_brute(rows)


def test_sweep_invariants():
    fet = [_row("all-fet", sweep_value=v) for v in ("-20.0", "-17.0")]
    met = [_row("all-met", sweep_value="-20.0", pu=5.0), _row("all-met", sweep_value="-17.0", pu=6.0)]
    assert checks.check_sweep(fet + met) == []
    assert checks.check_sweep([fet[0], _row("all-fet", sweep_value="-17.0", op=101.0)])
    assert checks.check_sweep([met[1], _row("all-met", sweep_value="-15.0", pu=5.0)])


def test_longterm_divisions():
    rows = [_row("alg2", stage="training", division_bitmask="5"),
            _row("frozen-hybrid", stage="longterm", division_bitmask="5"),
            _row("all-fet", stage="longterm", division_bitmask="127"),
            _row("all-met", stage="longterm", division_bitmask="0")]
    assert checks.check_longterm(rows, 7) == []
    rows[1] = _row("frozen-hybrid", stage="longterm", division_bitmask="4")
    assert checks.check_longterm(rows, 7)
