"""Tests for the training stage and the frozen long-term stage."""

import numpy as np
import pytest

from swiptcran import beamform
from swiptcran.beamform import (
    GroupDivision,
    PowerReport,
    SystemParams,
    solve_division,
    unsolved_report,
)
from swiptcran.division import DivisionRunResult, Instance, Termination
from swiptcran.longterm import (
    longterm_stage,
    mask_fet_channels,
    training_stage,
)
from swiptcran.sdp import BATCH_SIZE, SdpStatus
from swiptcran.topology import (
    ChannelRealization,
    assigned_rrh,
    draw_channels,
    generate_topology,
)

PARAMS = SystemParams()


def _feasible_result(division: GroupDivision) -> DivisionRunResult:
    z = np.zeros(3)
    report = PowerReport(p_op=z, p_pu=z, ranges=z, objective=1.0)
    return DivisionRunResult(
        final_division=division,
        report=report,
        iterations=1,
        history=((division, 1.0), (division, 1.0)),
        termination=Termination.FIXED_POINT,
    )


def _infeasible_result(n_et: int) -> DivisionRunResult:
    report = unsolved_report(3, SdpStatus.INFEASIBLE)
    division = GroupDivision.all_met(n_et)
    return DivisionRunResult(
        final_division=division,
        report=report,
        iterations=1,
        history=((division, float("nan")),),
        termination=Termination.INFEASIBLE,
    )


def _not_converged_result(n_et: int) -> DivisionRunResult:
    division = GroupDivision.all_met(n_et)
    return DivisionRunResult(
        final_division=division,
        report=unsolved_report(3, SdpStatus.MAX_ITERATIONS),
        iterations=1,
        history=((division, float("nan")),),
        termination=Termination.NOT_CONVERGED,
    )


def _scripted_algorithm(outcomes):
    """Fake single-slot algorithm replaying `outcomes` across calls."""
    it = iter(outcomes)

    def run(instance):
        return next(it)

    return run


class TestMaskFetChannels:
    def test_zeroes_only_fet_columns(self):
        topo = generate_topology(seed=2, n_rrh=3, n_it=2, n_et=4)
        ch = draw_channels(topo, seed=2, slot=0)
        division = GroupDivision(4, frozenset({1, 3}))
        masked = mask_fet_channels(ch, division)
        np.testing.assert_array_equal(masked.h_id, ch.h_id)
        np.testing.assert_array_equal(masked.h_et[:, [0, 2]], ch.h_et[:, [0, 2]])
        np.testing.assert_array_equal(masked.h_et[:, [1, 3]], 0.0)
        # source realization is untouched
        assert not np.any(ch.h_et[:, 1] == 0.0)


class TestTrainingStage:
    def _topology(self, n_et=2):
        return generate_topology(seed=5, n_rrh=3, n_it=3, n_et=n_et)

    def test_frequency_uses_training_length_as_denominator(self):
        topo = self._topology(n_et=2)
        fet0 = GroupDivision(2, frozenset({0}))
        none_fet = GroupDivision.all_met(2)
        outcomes = [_feasible_result(fet0)] * 5 + [_feasible_result(none_fet)] * 3
        outcomes += [_not_converged_result(2), _infeasible_result(2)]
        result = training_stage(topo, seed=0, q_training=10, algorithm=_scripted_algorithm(outcomes))
        np.testing.assert_allclose(result.fet_frequency, [0.5, 0.0])
        assert result.slots_used == 8
        # an unsolved slot does not fail a training whose other slots solved
        assert result.status is SdpStatus.OPTIMAL and result.feasible

    def test_exact_tie_freezes_as_fet(self):
        topo = self._topology(n_et=1)
        fet = GroupDivision.all_fet(1)
        met = GroupDivision.all_met(1)
        outcomes = [_feasible_result(fet)] * 5 + [_feasible_result(met)] * 5
        result = training_stage(topo, seed=0, q_training=10, algorithm=_scripted_algorithm(outcomes))
        assert result.fet_frequency[0] == 0.5
        assert result.frozen_division.fet_set == {0}

    def test_threshold_one_requires_unanimity(self):
        topo = self._topology(n_et=1)
        fet = GroupDivision.all_fet(1)
        met = GroupDivision.all_met(1)
        outcomes = [_feasible_result(fet)] * 9 + [_feasible_result(met)]
        result = training_stage(
            topo, seed=0, q_training=10, threshold=1.0, algorithm=_scripted_algorithm(outcomes)
        )
        assert result.frozen_division.fet_set == set()

    def test_all_slots_infeasible_reports_infeasible(self):
        topo = self._topology(n_et=2)
        outcomes = [_infeasible_result(2)] * 3
        result = training_stage(topo, seed=0, q_training=3, algorithm=_scripted_algorithm(outcomes))
        assert result.status is SdpStatus.INFEASIBLE
        assert not result.feasible
        assert result.slots_used == 0

    def test_unsolved_slot_is_not_reported_infeasible(self):
        topo = self._topology(n_et=2)
        outcomes = [_infeasible_result(2), _not_converged_result(2), _infeasible_result(2)]
        result = training_stage(topo, seed=0, q_training=3, algorithm=_scripted_algorithm(outcomes))
        assert result.status is SdpStatus.MAX_ITERATIONS
        assert not result.feasible

    def test_each_slot_runs_on_its_own_draw(self):
        topo = self._topology(n_et=2)
        params = SystemParams(alpha_abs=3.0)
        seen = []

        def record(instance):
            seen.append(instance)
            return _feasible_result(GroupDivision.all_met(2))

        training_stage(topo, seed=6, q_training=3, params=params, algorithm=record)
        assert len({id(inst) for inst in seen}) == 3
        for slot, inst in enumerate(seen):
            assert isinstance(inst, Instance)
            assert inst.params is params
            expected = draw_channels(topo, seed=6, slot=slot, alpha_abs=3.0)
            np.testing.assert_array_equal(inst.channels.h_et, expected.h_et)
            np.testing.assert_array_equal(inst.channels.h_id, expected.h_id)

    def test_dense_it_load_never_trains(self):
        # four SINR floors on three RRHs: no fading draw is feasible
        topo = generate_topology(seed=0, n_rrh=3, n_it=4, n_et=7)
        result = training_stage(topo, seed=0, q_training=3)
        assert result.status is SdpStatus.INFEASIBLE
        assert result.slots_used == 0

    def test_real_training_is_deterministic(self):
        topo = self._topology(n_et=4)
        a = training_stage(topo, seed=9, q_training=4)
        b = training_stage(topo, seed=9, q_training=4)
        np.testing.assert_array_equal(a.fet_frequency, b.fet_frequency)
        assert a.frozen_division == b.frozen_division
        assert a.slots_used == b.slots_used
        assert a.status is b.status is SdpStatus.OPTIMAL
        a.frozen_division.validate_for(4)
        assert np.all((0.0 <= a.fet_frequency) & (a.fet_frequency <= 1.0))

    def test_argument_validation(self):
        topo = self._topology()
        with pytest.raises(ValueError):
            training_stage(topo, seed=0, q_training=0)
        with pytest.raises(ValueError):
            training_stage(topo, seed=0, threshold=1.5)
        with pytest.raises(ValueError):
            training_stage(topo, seed=0, algorithm="alg9")


class TestLongtermStage:
    def test_zero_slots(self):
        topo = generate_topology(seed=3, n_rrh=3, n_it=3, n_et=4)
        assert longterm_stage(topo, seed=0, divisions=[GroupDivision.all_met(4)], q_longterm=0) == [[]]

    def test_negative_slots_rejected(self):
        topo = generate_topology(seed=3, n_rrh=3, n_it=3, n_et=4)
        with pytest.raises(ValueError):
            longterm_stage(topo, seed=0, divisions=[GroupDivision.all_met(4)], q_longterm=-1)

    def test_division_must_partition(self):
        topo = generate_topology(seed=3, n_rrh=3, n_it=3, n_et=4)
        with pytest.raises(ValueError):
            longterm_stage(topo, seed=0, divisions=[GroupDivision.all_met(3)], q_longterm=1)

    def test_slot_count_and_determinism(self):
        topo = generate_topology(seed=3, n_rrh=3, n_it=3, n_et=4)
        division = GroupDivision(4, frozenset({1, 3}))
        (a,) = longterm_stage(topo, seed=4, divisions=[division], q_longterm=3)
        (b,) = longterm_stage(topo, seed=4, divisions=[division], q_longterm=3)
        assert len(a) == 3
        for ra, rb in zip(a, b):
            np.testing.assert_array_equal(ra.p_op, rb.p_op)
            assert ra.objective == rb.objective

    def test_alpha_abs_reaches_the_slot_draws(self):
        topo = generate_topology(seed=3, n_rrh=3, n_it=3, n_et=4)
        division = GroupDivision.all_met(4)
        objectives = [
            longterm_stage(
                topo, seed=4, divisions=[division], q_longterm=1, params=SystemParams(alpha_abs=a)
            )[0][0].objective
            for a in (2.5, 3.0)
        ]
        assert np.isfinite(objectives).all()
        assert objectives[0] != objectives[1]

    def test_fet_reports_cannot_influence_results(self):
        # garbling what a silent terminal would have reported changes nothing
        topo = generate_topology(seed=11, n_rrh=3, n_it=3, n_et=5)
        division = GroupDivision(5, frozenset({1, 3}))
        ch = draw_channels(topo, seed=7, slot=0)
        h_et = ch.h_et.copy()
        h_et[:, [1, 3]] = 1e6 * (1.0 + 1.0j)
        garbled = ChannelRealization(h_id=ch.h_id, h_et=h_et)
        r1, _ = solve_division(topo, mask_fet_channels(ch, division), division, PARAMS)
        r2, _ = solve_division(topo, mask_fet_channels(garbled, division), division, PARAMS)
        np.testing.assert_array_equal(r1.p_op, r2.p_op)
        assert r1.objective == r2.objective

    def test_frozen_fet_floor_still_binds(self):
        # every feasible slot must keep each frozen FET inside its RRH's range
        topo = generate_topology(seed=11, n_rrh=3, n_it=3, n_et=5)
        division = GroupDivision(5, frozenset({1, 3}))
        (reports,) = longterm_stage(topo, seed=4, divisions=[division], q_longterm=3)
        for report in reports:
            if not report.feasible:
                continue
            for j in division.fet_set:
                n, d = assigned_rrh(topo, j)
                assert report.ranges[n] >= max(d, 1.0) * (1 - 1e-6)

    def test_infeasible_slots_reported_as_nan(self):
        topo = generate_topology(seed=0, n_rrh=3, n_it=4, n_et=7)
        (reports,) = longterm_stage(
            topo, seed=0, divisions=[GroupDivision.all_met(7)], q_longterm=2
        )
        assert len(reports) == 2
        for report in reports:
            assert not report.feasible
            assert np.isnan(report.objective)

    def test_stage_batches_are_near_equal_and_built_one_at_a_time(self, monkeypatch):
        # 3 divisions x 50 slots = 150 problems: 3 batches of 50, not 64 + 64 + 22,
        # and no problem of a batch is built before the batch ahead of it is solved
        solve_batch, build_sdp = beamform.solve_batch, beamform.build_sdp
        built, sizes = [0], []

        def counted_build(*args):
            built[0] += 1
            return build_sdp(*args)

        def watched_batch(problems):
            assert built[0] == sum(sizes)
            problems = list(problems)
            sizes.append(len(problems))
            return solve_batch(problems)

        monkeypatch.setattr(beamform, "build_sdp", counted_build)
        monkeypatch.setattr(beamform, "solve_batch", watched_batch)
        topo = generate_topology(seed=3, n_rrh=3, n_it=3, n_et=5)
        divisions = [GroupDivision(5, frozenset({1, 4})), GroupDivision.all_met(5), GroupDivision.all_fet(5)]
        stage = longterm_stage(topo, seed=8, divisions=divisions, q_longterm=50)
        assert sizes == [50, 50, 50]
        assert [len(reports) for reports in stage] == [50, 50, 50]

    @pytest.mark.parametrize("n_it", [3, 4])
    def test_batched_slots_equal_solving_each_slot(self, n_it):
        # three divisions of more slots than a batch holds, so chunks cross
        # slot and division boundaries; the repeated division gets the first
        # one's reports.  At 4 ITs every slot is certified infeasible
        topo = generate_topology(seed=3, n_rrh=3, n_it=n_it, n_et=5)
        hybrid = GroupDivision(5, frozenset({1, 4}))
        divisions = [hybrid, GroupDivision.all_met(5), GroupDivision.all_fet(5), hybrid]
        q = BATCH_SIZE + 3
        stage = longterm_stage(topo, seed=8, divisions=divisions, q_longterm=q)
        assert len(stage) == len(divisions)
        for division, reports in zip(divisions, stage):
            assert len(reports) == q
            for slot, report in enumerate(reports):
                channels = mask_fet_channels(draw_channels(topo, seed=8, slot=slot), division)
                alone, _ = solve_division(topo, channels, division, PARAMS)
                np.testing.assert_array_equal(report.p_op, alone.p_op)
                np.testing.assert_array_equal(report.p_pu, alone.p_pu)
                np.testing.assert_array_equal(report.ranges, alone.ranges)
                assert report.status == alone.status
                if n_it == 4:
                    assert report.status is SdpStatus.INFEASIBLE
                    assert np.isnan(report.objective) and np.isnan(alone.objective)
                else:
                    assert report.status is SdpStatus.OPTIMAL
                    assert report.objective == alone.objective
