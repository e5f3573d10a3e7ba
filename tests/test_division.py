"""Tests for the iterative group-division search and its baselines."""

import logging
import math

import numpy as np
import pytest

from swiptcran.beamform import (
    GroupDivision,
    PowerReport,
    SystemParams,
    solve_division,
    unsolved_report,
)
import swiptcran.beamform as beamform_module
import swiptcran.division as division_module
import swiptcran.sdp as sdp_module
from swiptcran.division import (
    BRUTE_FORCE_CAP,
    DivisionRunResult,
    Instance,
    Termination,
    _iterate,
    algorithm1,
    algorithm2,
    baseline_all_fet,
    baseline_all_met,
    boundary_refine,
    brute_force,
    channel_check,
    update_division,
)
from swiptcran.sdp import SdpStatus
from swiptcran.topology import (
    ChannelRealization,
    NetworkTopology,
    Position,
    assigned_rrh,
    draw_channels,
    generate_topology,
)

PARAMS = SystemParams()


def _instance(seed: int, n_it: int = 3, n_et: int = 7) -> Instance:
    topo = generate_topology(seed=seed, n_rrh=3, n_it=n_it, n_et=n_et)
    return Instance(topo, draw_channels(topo, seed=seed, slot=0), PARAMS)


def _fake_report(objective: float) -> PowerReport:
    z = np.zeros(3)
    return PowerReport(p_op=z, p_pu=z, ranges=z, objective=objective)


def _scripted(transitions: dict, objectives: dict):
    """update_fn replaying a canned division graph; None means infeasible."""

    def update(group):
        nxt = transitions[group]
        if nxt is None:
            return None, unsolved_report(3, SdpStatus.INFEASIBLE)
        return nxt, _fake_report(objectives[group])

    return update


class TestChannelCheck:
    def _two_cell(self, h_et):
        topo = NetworkTopology(
            rrh_positions=(Position(0.0, 0.0), Position(20.0, 0.0)),
            it_positions=(Position(1.0, 0.0),),
            et_positions=(Position(4.0, 0.0),),
            hex_side=20.0 / math.sqrt(3.0),
        )
        ch = ChannelRealization(h_id=np.ones((2, 1), dtype=complex), h_et=h_et)
        return topo, ch

    def test_demotes_deep_fade(self):
        topo, ch = self._two_cell(np.zeros((2, 1), dtype=complex))
        out = channel_check(topo, ch, GroupDivision.all_met(1), PARAMS)
        assert out.fet_set == {0}

    def test_keeps_average_link(self):
        # realized gain exactly at the path-loss mean clears any factor < 1
        gain = 4.0 ** (-PARAMS.alpha_abs / 2.0)
        topo, ch = self._two_cell(np.array([[gain], [0.0]], dtype=complex))
        out = channel_check(topo, ch, GroupDivision.all_met(1), PARAMS)
        assert out.met_set == {0}

    def test_only_assigned_rrh_link_counts(self):
        # strong gain at the far RRH does not save a dead assigned link
        h_et = np.array([[0.0], [10.0]], dtype=complex)
        topo, ch = self._two_cell(h_et)
        out = channel_check(topo, ch, GroupDivision.all_met(1), PARAMS)
        assert out.fet_set == {0}

    def test_factor_zero_disables_demotion(self, monkeypatch):
        monkeypatch.setattr(division_module, "POOR_CHANNEL_FACTOR", 0.0)
        topo, ch = self._two_cell(np.zeros((2, 1), dtype=complex))
        out = channel_check(topo, ch, GroupDivision.all_met(1), PARAMS)
        assert out.met_set == {0}

    def test_never_promotes_fets(self):
        topo, ch = self._two_cell(np.ones((2, 1), dtype=complex))
        out = channel_check(topo, ch, GroupDivision.all_fet(1), PARAMS)
        assert out.fet_set == {0}

    def test_threshold_scales_with_factor(self, monkeypatch):
        mean_amp = 4.0 ** (-PARAMS.alpha_abs / 2.0)
        weak = np.array([[0.1 * mean_amp], [0.0]], dtype=complex)  # gain 1% of mean
        topo, ch = self._two_cell(weak)
        default = channel_check(topo, ch, GroupDivision.all_met(1), PARAMS)
        monkeypatch.setattr(division_module, "POOR_CHANNEL_FACTOR", 0.005)
        lenient = channel_check(topo, ch, GroupDivision.all_met(1), PARAMS)
        assert default.fet_set == {0}
        assert lenient.met_set == {0}


class TestBoundaryRefine:
    def test_zero_band_is_identity(self, monkeypatch):
        monkeypatch.setattr(division_module, "BOUNDARY_BAND", 0.0)
        inst = _instance(11)
        division = GroupDivision.all_met(7)
        ranges = np.full(3, 50.0)
        out = boundary_refine(inst, division, ranges)
        assert out == division

    def test_far_from_boundary_is_untouched(self):
        inst = _instance(11)
        division = GroupDivision.all_met(7)
        out = boundary_refine(inst, division, np.full(3, 1e6))
        assert out == division

    def test_near_terminal_moves_to_cheaper_side(self):
        # a terminal inside the band whose FET floor is nearly free should
        # end up free: the MET floor binds harder than the geometric one
        inst = _instance(11)
        division = GroupDivision.all_met(7)
        _, d0 = assigned_rrh(inst.topology, 0)
        d0 = max(d0, 1.0)
        ranges = np.full(3, d0 * 1.01)
        out = boundary_refine(inst, division, ranges)
        assert 0 in out.fet_set

    def test_keeps_assignment_when_both_sides_infeasible(self, caplog):
        inst = _instance(0, n_it=4)  # four SINR floors: always infeasible
        division = GroupDivision.all_met(7)
        _, d0 = assigned_rrh(inst.topology, 0)
        ranges = np.full(3, max(d0, 1.0) * 1.01)
        with caplog.at_level(logging.WARNING, logger="swiptcran.division"):
            out = boundary_refine(inst, division, ranges)
        assert out == division
        assert any("infeasible both ways" in rec.message for rec in caplog.records)


class TestUpdateDivision:
    def test_returns_partition_and_previous_report(self):
        nxt, report = update_division(_instance(11), GroupDivision.all_met(7))
        nxt.validate_for(7)
        assert report.feasible
        assert report.objective > 0

    def test_infeasible_division_returns_its_report(self):
        nxt, report = update_division(_instance(0, n_it=4), GroupDivision.all_met(7))
        assert nxt is None
        assert report.status is SdpStatus.INFEASIBLE

    def test_fixed_point_is_idempotent(self):
        inst = _instance(11)
        result = algorithm1(inst)
        assert result.termination is Termination.FIXED_POINT
        again, _ = update_division(inst, result.final_division)
        assert again == result.final_division


class TestIterateSeam:
    G = [GroupDivision.from_bitmask(m, 3) for m in range(8)]

    @pytest.fixture(autouse=True)
    def _cap(self, monkeypatch):
        monkeypatch.setattr(division_module, "MAX_DIVISION_ITERS", 50)

    def test_fixed_point_shape(self):
        g0, g1 = self.G[0], self.G[1]
        update = _scripted({g0: g1, g1: g1}, {g0: 5.0, g1: 4.0})
        res = _iterate(g0, update)
        assert res.termination is Termination.FIXED_POINT
        assert res.final_division == g1
        assert res.iterations == 2
        assert res.history == ((g0, 5.0), (g1, 4.0), (g1, 4.0))
        assert res.report.objective == 4.0

    def test_cycle_returns_cheapest_member(self):
        g0, g1, g2 = self.G[0], self.G[1], self.G[2]
        update = _scripted({g0: g1, g1: g2, g2: g1}, {g0: 9.0, g1: 7.0, g2: 3.0})
        res = _iterate(g0, update)
        assert res.termination is Termination.CYCLE_BROKEN
        assert res.final_division == g2
        assert res.report.objective == 3.0
        assert res.iterations == 3
        # terminal repeat names the revisited division
        assert res.history == ((g0, 9.0), (g1, 7.0), (g2, 3.0), (g1, 7.0))

    def test_first_round_infeasible(self):
        g0 = self.G[0]
        update = _scripted({g0: None}, {})
        res = _iterate(g0, update)
        assert res.termination is Termination.INFEASIBLE
        assert res.final_division == g0
        assert not res.report.feasible
        assert res.iterations == 1
        assert len(res.history) == 1
        assert math.isnan(res.history[0][1])

    def test_mid_run_infeasible_reverts(self):
        g0, g1 = self.G[0], self.G[1]
        update = _scripted({g0: g1, g1: None}, {g0: 6.0})
        res = _iterate(g0, update)
        assert res.termination is Termination.INFEASIBLE_REVERTED
        assert res.final_division == g0
        assert res.report.objective == 6.0
        assert res.history == ((g0, 6.0),)

    def test_mid_run_not_converged_reverts(self):
        g0, g1 = self.G[0], self.G[1]

        def update(group):
            if group == g1:
                return None, unsolved_report(3, SdpStatus.MAX_ITERATIONS)
            return g1, _fake_report(6.0)

        res = _iterate(g0, update)
        assert res.termination is Termination.NOT_CONVERGED
        assert res.final_division == g0
        assert res.report.feasible
        assert res.history == ((g0, 6.0),)

    def test_iteration_cap(self, monkeypatch):
        monkeypatch.setattr(division_module, "MAX_DIVISION_ITERS", 4)
        order = self.G[:6]
        transitions = {g: order[k + 1] for k, g in enumerate(order[:-1])}
        objectives = {g: float(k) for k, g in enumerate(order)}
        update = _scripted(transitions, objectives)
        res = _iterate(order[0], update)
        assert res.termination is Termination.ITERATION_CAP
        assert res.iterations == 4
        assert len(res.history) == 4
        assert res.final_division == order[3]


class TestAlgorithms:
    @pytest.mark.parametrize("seed", [3, 11, 21])
    def test_brute_force_is_lower_bound(self, seed):
        inst = _instance(seed, n_et=4)
        oracle = brute_force(inst)
        assert oracle.termination is Termination.FIXED_POINT
        for alg in (algorithm1, algorithm2):
            res = alg(inst)
            if res.report.feasible:
                assert res.report.objective >= oracle.report.objective - 1e-6

    @pytest.mark.parametrize("seed", [3, 11, 21])
    def test_brute_force_beats_baselines(self, seed):
        inst = _instance(seed, n_et=4)
        oracle = brute_force(inst)
        for baseline in (baseline_all_fet, baseline_all_met):
            res = baseline(inst)
            if res.report.feasible:
                assert oracle.report.objective <= res.report.objective + 1e-6

    def test_history_invariants(self):
        inst = _instance(11)
        for alg in (algorithm1, algorithm2):
            res = alg(inst)
            assert res.termination is Termination.FIXED_POINT
            assert res.iterations <= 50
            assert len(res.history) == res.iterations + 1
            for division, objective in res.history:
                division.validate_for(7)
                assert objective > 0
            assert res.history[-1][0] == res.final_division
            assert res.history[-1] == res.history[-2]

    def test_deterministic(self):
        a = algorithm2(_instance(11))
        b = algorithm2(_instance(11))
        assert a.final_division == b.final_division
        assert a.termination is b.termination
        assert a.history == b.history
        np.testing.assert_array_equal(a.report.p_op, b.report.p_op)
        assert a.report.objective == b.report.objective

    def test_infeasible_initial_division(self):
        # purchased power is unbounded, so harvest floors never make a division
        # infeasible; only the IT SINR floors can.  Four ITs at 13 dB (the
        # reference load) exceed what three RRHs can steer, so algorithm 2's
        # all-FET start is certified infeasible by a Farkas ray
        inst = _instance(16, n_it=4)
        res = algorithm2(inst)
        assert res.termination is Termination.INFEASIBLE
        assert not res.report.feasible
        assert math.isnan(res.report.objective)
        assert res.report.status is SdpStatus.INFEASIBLE
        assert res.final_division == GroupDivision.all_fet(7)
        _, solution = inst.evaluate(res.final_division)
        assert solution.status is SdpStatus.INFEASIBLE
        assert solution.detail.startswith("Farkas dual ray certificate")

    def test_update_walking_into_infeasibility_reverts(self):
        """Seed 16 walks from FET={2} to all-FET and stops there.

        The revert after a mid-run infeasible division is no longer checked
        on a real draw: no draw can walk from a feasible division into an
        infeasible one.  New FETs lie inside their RRH's free charge range,
        so the previous point meets their floors; new METs were METs before
        (bar the boundary band); boundary refinement commits only solved
        assignments.  This draw once ended IterationCap only because the
        all-FET solve stalled at the solver's iteration cap and was taken
        for infeasible.  The revert itself is covered by
        TestIterateSeam.test_mid_run_infeasible_reverts.
        """
        res = algorithm1(_instance(16))
        assert res.termination is Termination.FIXED_POINT
        assert res.report.feasible
        assert res.final_division == res.history[-1][0]
        assert not any(math.isnan(objective) for _, objective in res.history)

    def test_baseline_shape(self):
        res = baseline_all_met(_instance(11))
        assert res.termination is Termination.FIXED_POINT
        assert res.iterations == 1
        assert res.history[0] == res.history[1]
        assert res.final_division == GroupDivision.all_met(7)

    def test_brute_force_rejects_large_search(self):
        topo = generate_topology(seed=1, n_rrh=3, n_it=1, n_et=BRUTE_FORCE_CAP + 1)
        ch = draw_channels(topo, seed=1, slot=0)
        with pytest.raises(ValueError):
            brute_force(Instance(topo, ch, PARAMS))

    def test_not_converged_is_not_infeasible(self, monkeypatch):
        # a feasible draw under a solver cap too small to converge
        monkeypatch.setattr(sdp_module, "MAX_ITERS", 5)
        inst = _instance(11)
        report, solution = solve_division(inst.topology, inst.channels, GroupDivision.all_met(7), PARAMS)
        assert solution.status is SdpStatus.MAX_ITERATIONS
        assert report.status is SdpStatus.MAX_ITERATIONS
        assert not report.feasible
        nxt, report = update_division(inst, GroupDivision.all_met(7))
        assert nxt is None
        assert report.status is SdpStatus.MAX_ITERATIONS
        for alg in (algorithm1, algorithm2, baseline_all_fet, baseline_all_met, brute_force):
            res = alg(inst)
            assert res.termination is Termination.NOT_CONVERGED
            assert res.report.status is SdpStatus.MAX_ITERATIONS
            assert not res.report.feasible

    def test_brute_force_all_infeasible(self):
        res = brute_force(_instance(0, n_it=4, n_et=2))
        assert res.termination is Termination.INFEASIBLE
        assert not res.report.feasible


class TestInstance:
    RUNS = (
        ("alg1", algorithm1),
        ("alg2", algorithm2),
        ("all-fet", baseline_all_fet),
        ("all-met", baseline_all_met),
    )

    @staticmethod
    def _count_solves(monkeypatch) -> list[int]:
        """Record the bitmask of every solve_division call the division module makes."""
        masks = []
        real = division_module.solve_division

        def counted(topology, channels, division, params, problem=None):
            masks.append(division.to_bitmask())
            return real(topology, channels, division, params, problem)

        monkeypatch.setattr(division_module, "solve_division", counted)
        return masks

    def test_each_division_solved_once_across_algorithms(self, monkeypatch):
        masks = self._count_solves(monkeypatch)
        inst = _instance(11)
        for _, run in self.RUNS:
            run(inst)
        assert len(masks) == len(set(masks))
        assert {0, (1 << 7) - 1} <= set(masks)  # both baselines' divisions

    def test_shared_instance_gives_fresh_instance_results(self):
        shared = _instance(11)
        for name, run in self.RUNS:
            a = run(shared)
            b = run(_instance(11))
            assert a.final_division == b.final_division, name
            assert a.history == b.history, name
            assert a.iterations == b.iterations, name
            assert a.termination is b.termination, name
            assert a.report.objective == b.report.objective, name
            for field in ("p_op", "p_pu", "ranges"):
                np.testing.assert_array_equal(
                    getattr(a.report, field), getattr(b.report, field), err_msg=name
                )

    def test_brute_force_leaves_nothing_to_solve(self, monkeypatch):
        masks = self._count_solves(monkeypatch)
        inst = _instance(3, n_et=4)
        oracle = brute_force(inst)
        assert sorted(masks) == list(range(16))
        for _, run in self.RUNS:
            res = run(inst)
            if res.report.feasible:
                assert oracle.report.objective <= res.report.objective
        assert len(masks) == 16

    def test_shared_store_reuses_solutions_with_each_instances_params(self, monkeypatch):
        masks = self._count_solves(monkeypatch)
        topo = generate_topology(seed=11, n_rrh=3, n_it=3, n_et=7)
        ch = draw_channels(topo, seed=11, slot=0)
        # the all-MET SDP has no FET floor, so p_fmin moves only the report's ranges
        params = [PARAMS, SystemParams(p_fmin=PARAMS.p_fmin / 4)]
        store = {}
        shared = [Instance(topo, ch, p, store=store) for p in params]
        all_met = GroupDivision.all_met(7)
        reports = [inst.evaluate(all_met)[0] for inst in shared]
        assert masks == [0] and len(store) == 1
        assert not np.array_equal(reports[0].ranges, reports[1].ranges)
        for report, p in zip(reports, params):
            fresh, _ = Instance(topo, ch, p).evaluate(all_met)
            assert report.objective == fresh.objective
            for field in ("p_op", "p_pu", "ranges"):
                np.testing.assert_array_equal(getattr(report, field), getattr(fresh, field))

    def test_repeated_evaluate_is_answered_from_the_memo(self, monkeypatch):
        inst = _instance(11)
        report, solution = inst.evaluate(GroupDivision(7, {0, 3}))
        builds = []
        real_build = beamform_module.build_sdp

        def build(*args, **kwargs):
            builds.append(args[2])
            return real_build(*args, **kwargs)

        monkeypatch.setattr(beamform_module, "build_sdp", build)
        # an equal division, made anew
        again = inst.evaluate(GroupDivision(7, {3, 0}))
        assert builds == []
        assert again[0] is report and again[1] is solution
        # another instance of the same draw sharing the store still builds for its key
        shared = Instance(inst.topology, inst.channels, inst.params, store=inst.store)
        assert shared.evaluate(GroupDivision(7, {0, 3}))[1] is solution
        assert builds == [GroupDivision(7, {0, 3})]

    def test_evaluate_checks_the_partition_on_every_call(self):
        inst = _instance(11, n_et=2)
        inst.evaluate(GroupDivision.all_met(2))
        # same bitmask as all-MET, but a division of one ET, not two
        with pytest.raises(ValueError):
            inst.evaluate(GroupDivision(1))


# (seed, algorithm) -> (final bitmask, termination, iterations, objective) on
# 3/3/7 draws with the default parameters.  A refactor of the division layer
# must leave every value as it is.
PINNED = {
    (11, "alg1"): (125, Termination.FIXED_POINT, 2, 13.728893612520425),
    (11, "alg2"): (125, Termination.FIXED_POINT, 2, 13.728893612520425),
    (11, "all-fet"): (127, Termination.FIXED_POINT, 1, 21.66081675444675),
    (11, "all-met"): (0, Termination.FIXED_POINT, 1, 36.20781282114279),
    (14, "alg1"): (23, Termination.FIXED_POINT, 3, 13.39887586785048),
    (14, "alg2"): (23, Termination.FIXED_POINT, 3, 13.39887586785048),
    (14, "all-fet"): (127, Termination.FIXED_POINT, 1, 79.76170244138895),
    (14, "all-met"): (0, Termination.FIXED_POINT, 1, 25.296416493308964),
    (21, "alg1"): (127, Termination.FIXED_POINT, 2, 17.11922795318813),
    (21, "alg2"): (127, Termination.FIXED_POINT, 1, 17.11922795318813),
    (21, "all-fet"): (127, Termination.FIXED_POINT, 1, 17.11922795318813),
    (21, "all-met"): (0, Termination.FIXED_POINT, 1, 43.45988195177789),
}


@pytest.mark.parametrize("seed", [11, 14, 21])
def test_division_searches_keep_their_pinned_outputs(seed):
    inst = _instance(seed)
    runs = {
        "alg1": algorithm1,
        "alg2": algorithm2,
        "all-fet": baseline_all_fet,
        "all-met": baseline_all_met,
    }
    for name, run in runs.items():
        mask, termination, iterations, objective = PINNED[seed, name]
        res = run(inst)
        assert res.final_division.to_bitmask() == mask, name
        assert res.termination is termination, name
        assert res.iterations == iterations, name
        assert res.report.objective == pytest.approx(objective, rel=1e-7), name
