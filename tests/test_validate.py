"""Tests for the built-in invariant check suite."""

import dataclasses

from swiptcran import sdp as sdp_module
from swiptcran import validate
from swiptcran.beamform import GroupDivision
from swiptcran.validate import check_solver_accuracy, run_all_checks

EXPECTED_CHECKS = {
    "solver-accuracy",
    "recovery-soundness",
    "division-sandwich",
    "range-identities",
    "power-clamp",
    "division-invariants",
    "determinism",
}


class TestRunAllChecks:
    def test_all_checks_pass_under_defaults(self):
        results = run_all_checks()
        assert {r.name for r in results} == EXPECTED_CHECKS
        assert len(results) == len(EXPECTED_CHECKS)
        failures = [r for r in results if not r.passed]
        assert failures == []
        for r in results:
            assert r.detail

    def test_checks_can_fail(self, monkeypatch):
        # a crippled solver must be reported, not crash the suite
        monkeypatch.setattr(sdp_module, "MAX_ITERS", 2)
        result = check_solver_accuracy()
        assert not result.passed
        assert "seed" in result.detail

    def test_division_invariants_flag_a_history_division_over_other_ets(self, monkeypatch):
        real = validate.algorithm1

        def with_short_division(instance):
            result = real(instance)
            division, report = result.history[0]
            stray = (GroupDivision(division.n_et - 1), report)
            return dataclasses.replace(result, history=(stray, *result.history))

        monkeypatch.setattr(validate, "algorithm1", with_short_division)
        result = validate.check_division_invariants()
        assert not result.passed
        assert "covers 4 ETs, the topology has 5" in result.detail
