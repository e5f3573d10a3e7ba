"""Tests for SDP assembly, beam recovery, and power/range accounting."""

import math
from dataclasses import fields, replace
from types import SimpleNamespace

import numpy as np
import pytest

from oracles import problem_content
import swiptcran.beamform as beamform_module
from swiptcran.beamform import (
    MW_PER_W,
    BeamformerSet,
    GroupDivision,
    PowerReport,
    RecoveryFailed,
    SystemParams,
    build_sdp,
    compute_sinr,
    fet_harvest,
    free_charge_range,
    initial_green_range,
    met_harvest,
    power_report,
    recover_beamformers,
    sdp_key,
    solve_division,
    unsolved_report,
)
from swiptcran.sdp import SdpConstraint, SdpProblem, SdpSolution, SdpStatus, solve
from swiptcran.topology import (
    ChannelRealization,
    NetworkTopology,
    Position,
    draw_channels,
    generate_topology,
)

PARAMS = SystemParams()

# free-charge ranges along the package's own computation path; the first
# equals the published approximations 91.3 m / 120.5 m to within 0.5%
RANGE_1W = 91.46101038546529
GREEN_RANGES = (120.6835267309033, 131.95079107728947, 141.93336415251107)


def _no_et_topology(seed: int) -> NetworkTopology:
    return generate_topology(seed=seed, n_rrh=3, n_it=1, n_et=0)


class TestSystemParams:
    def test_defaults_match_reference_setup(self):
        assert PARAMS.sinr_min == 20.0
        assert PARAMS.p_amin == pytest.approx(10 ** (-1.7) / 1e3, rel=1e-12)
        assert PARAMS.p_fmin == 1e-5
        assert PARAMS.p_fmin <= PARAMS.p_amin
        assert PARAMS.eta == 0.8
        assert PARAMS.alpha_abs == 2.5
        assert PARAMS.p_en == (2.0, 2.5, 3.0)
        assert PARAMS.noise_power == 1e-7

    def test_rejects_floor_ordering_violation(self):
        with pytest.raises(ValueError):
            SystemParams(p_amin=1e-6, p_fmin=1e-5)

    def test_rejects_bad_efficiency(self):
        with pytest.raises(ValueError):
            SystemParams(eta=0.0)
        with pytest.raises(ValueError):
            SystemParams(eta=1.5)

    def test_rejects_nonpositive_sinr_floor(self):
        with pytest.raises(ValueError):
            SystemParams(sinr_min=0.0)

    def test_rejects_negative_green_supply(self):
        with pytest.raises(ValueError):
            SystemParams(p_en=(2.0, -1.0, 3.0))

    @pytest.mark.parametrize(
        "name, value",
        [(f.name, math.inf) for f in fields(SystemParams) if f.name != "p_en"]
        + [("p_amin", math.nan), ("p_en", (math.nan, 2.5, 3.0)), ("p_en", (2.0, math.inf, 3.0))],
    )
    def test_rejects_non_finite_field(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            SystemParams(**{name: value})


class TestGroupDivision:
    def test_all_met_all_fet(self):
        met = GroupDivision.all_met(4)
        fet = GroupDivision.all_fet(4)
        assert met.met_set == frozenset(range(4)) and not met.fet_set
        assert fet.fet_set == frozenset(range(4)) and not fet.met_set
        assert met.n_et == fet.n_et == 4

    def test_rejects_negative_index(self):
        with pytest.raises(ValueError):
            GroupDivision(3, frozenset({-1}))

    def test_rejects_index_beyond_n_et(self):
        with pytest.raises(ValueError):
            GroupDivision(3, frozenset({3}))

    def test_validate_for_requires_partition(self):
        div = GroupDivision(3, frozenset({1}))
        assert div.met_set == frozenset({0, 2})
        div.validate_for(3)
        with pytest.raises(ValueError):
            div.validate_for(4)

    def test_bitmask_roundtrip(self):
        for mask in range(16):
            div = GroupDivision.from_bitmask(mask, 4)
            assert div.to_bitmask() == mask
            assert div.fet_set == {e for e in range(4) if mask >> e & 1}

    def test_bitmask_range_check(self):
        with pytest.raises(ValueError):
            GroupDivision.from_bitmask(16, 4)


class TestRanges:
    def test_free_charge_range_frozen_value(self):
        assert free_charge_range(1.0, PARAMS) == pytest.approx(RANGE_1W, rel=1e-12)
        assert free_charge_range(1.0, PARAMS) == pytest.approx(91.3, rel=5e-3)

    def test_initial_green_range_frozen_values(self):
        np.testing.assert_allclose(initial_green_range(PARAMS), GREEN_RANGES, rtol=1e-12)
        assert GREEN_RANGES[0] == pytest.approx(120.5, rel=5e-3)

    def test_doubling_law(self):
        for p in (0.5, 1.0, 2.0):
            ratio = free_charge_range(2 * p, PARAMS) / free_charge_range(p, PARAMS)
            assert ratio == pytest.approx(2.0 ** (1.0 / PARAMS.alpha_abs), rel=1e-12)

    def test_zero_below_harvest_floor(self):
        # eta * p_op below p_fmin cannot serve any distance
        assert free_charge_range(1e-5, PARAMS) == 0.0
        assert free_charge_range(0.0, PARAMS) == 0.0

    def test_rejects_negative_power(self):
        with pytest.raises(ValueError):
            free_charge_range(-1.0, PARAMS)

    def test_inversion_identity(self):
        # harvesting exactly at the range recovers the floor
        for p in (0.01, 0.5, 1.0, 2.0, 3.0):
            r = free_charge_range(p, PARAMS)
            assert fet_harvest(p, r, PARAMS) == pytest.approx(PARAMS.p_fmin, rel=1e-9)

    def test_fet_harvest_value_and_monotonicity(self):
        assert fet_harvest(1.0, 4.0, PARAMS) == pytest.approx(0.8 * 4.0 ** -2.5, rel=1e-12)
        assert fet_harvest(1.0, 2.0, PARAMS) > fet_harvest(1.0, 5.0, PARAMS)
        with pytest.raises(ValueError):
            fet_harvest(1.0, 0.0, PARAMS)


class TestBuildSdp:
    def _instance(self, division):
        topo = generate_topology(seed=4, n_rrh=3, n_it=4, n_et=7)
        ch = draw_channels(topo, seed=4, slot=0)
        return topo, ch, build_sdp(topo, ch, division, PARAMS)

    def test_all_met_structure(self):
        _, _, problem = self._instance(GroupDivision.all_met(7))
        assert problem.block_dims == (3,) * 4
        assert problem.n_scalars == 3
        senses = [c.sense for c in problem.constraints]
        assert senses == [">="] * (4 + 7) + ["<="] * 3
        for con in problem.constraints[4:11]:
            assert con.rhs == pytest.approx(PARAMS.p_amin * MW_PER_W)
        for n, con in enumerate(problem.constraints[11:]):
            assert con.rhs == pytest.approx(PARAMS.p_en[n] * MW_PER_W)
            assert con.scalars == {n: -1.0}

    def test_sinr_rows(self):
        _, ch, problem = self._instance(GroupDivision.all_met(7))
        for i in range(4):
            con = problem.constraints[i]
            assert con.rhs == pytest.approx(PARAMS.noise_power * MW_PER_W)
            h = ch.h_id[:, i]
            outer = np.outer(h, h.conj())
            np.testing.assert_allclose(con.blocks[i], outer / PARAMS.sinr_min)
            other = (i + 1) % 4
            np.testing.assert_allclose(con.blocks[other], -outer)

    def test_fet_rows_use_assigned_rrh_only(self):
        topo, ch, problem = self._instance(GroupDivision.all_fet(7))
        senses = [c.sense for c in problem.constraints]
        assert senses == [">="] * (4 + 7) + ["<="] * 3
        from swiptcran.topology import D_MIN_M, assigned_rrh

        for j, con in enumerate(problem.constraints[4:11]):
            assert con.rhs == pytest.approx(PARAMS.p_fmin * MW_PER_W)
            n, dist = assigned_rrh(topo, j)
            d = max(dist, D_MIN_M)
            expected = np.zeros((3, 3))
            expected[n, n] = PARAMS.eta * d ** (-PARAMS.alpha_abs)
            np.testing.assert_allclose(con.blocks[0], expected)

    def test_fet_channel_columns_never_read(self):
        division = GroupDivision(7, frozenset({1, 3, 4, 5, 6}))
        topo = generate_topology(seed=4, n_rrh=3, n_it=4, n_et=7)
        ch = draw_channels(topo, seed=4, slot=0)
        h_et = ch.h_et.copy()
        for j in division.fet_set:
            h_et[:, j] = 123.0 + 456.0j
        garbled = ChannelRealization(h_id=ch.h_id, h_et=h_et)
        a = build_sdp(topo, ch, division, PARAMS)
        b = build_sdp(topo, garbled, division, PARAMS)
        assert len(a.constraints) == len(b.constraints)
        for con_a, con_b in zip(a.constraints, b.constraints):
            assert con_a.rhs == con_b.rhs and con_a.sense == con_b.sense
            for blk, mat in con_a.blocks.items():
                np.testing.assert_array_equal(mat, con_b.blocks[blk])

    def test_rejects_mismatched_green_supply(self):
        topo = generate_topology(seed=4, n_rrh=3, n_it=4, n_et=7)
        ch = draw_channels(topo, seed=4, slot=0)
        with pytest.raises(ValueError):
            build_sdp(topo, ch, GroupDivision.all_met(7), SystemParams(p_en=(2.0, 2.5)))

    def test_rejects_partial_division(self):
        topo = generate_topology(seed=4, n_rrh=3, n_it=4, n_et=7)
        ch = draw_channels(topo, seed=4, slot=0)
        with pytest.raises(ValueError):
            build_sdp(topo, ch, GroupDivision.all_met(6), PARAMS)


class TestSdpKey:
    """`sdp_key` pins what `build_sdp` builds: an unchanged key means an
    identical problem, and a parameter the division's rows do not read
    leaves the key."""

    TOPOLOGY = generate_topology(seed=5, n_rrh=3, n_it=3, n_et=7)
    CHANNELS = draw_channels(TOPOLOGY, seed=5, slot=0)
    NO_ET = _no_et_topology(5)
    # name -> (topology, channels, division)
    CASES = {
        "all-met": (TOPOLOGY, CHANNELS, GroupDivision.all_met(7)),
        "all-fet": (TOPOLOGY, CHANNELS, GroupDivision.all_fet(7)),
        "mixed": (TOPOLOGY, CHANNELS, GroupDivision(7, {1, 3})),
        "no-et": (NO_ET, draw_channels(NO_ET, seed=5, slot=0), GroupDivision(0)),
    }
    # a second valid value of every SystemParams field
    CHANGED = {
        "sinr_min": 10.0, "p_amin": 1e-4, "p_fmin": 5e-6, "eta": 0.5, "alpha_abs": 3.0,
        "p_en": (2.0, 2.5, 3.5), "beta": 2.0, "gamma": 2.0, "noise_power": 2e-7,
    }
    # (changed field, params, params): each change, then each signed zero
    PAIRS = [(name, PARAMS, replace(PARAMS, **{name: value})) for name, value in CHANGED.items()] + [
        ("p_fmin", replace(PARAMS, p_fmin=0.0), replace(PARAMS, p_fmin=-0.0)),
        ("p_en", replace(PARAMS, p_en=(0.0, 2.5, 3.0)), replace(PARAMS, p_en=(-0.0, 2.5, 3.0))),
    ]
    # (case, field) pairs whose rows do not read the field
    UNREAD = {("all-fet", "p_amin"), ("all-met", "p_fmin"), ("all-met", "alpha_abs")} | {
        ("no-et", field) for field in ("p_amin", "p_fmin", "alpha_abs", "eta")
    }

    @staticmethod
    def _keyed(division, params=PARAMS, topology=TOPOLOGY, channels=CHANNELS):
        built = build_sdp(topology, channels, division, params)
        return sdp_key(topology, channels, division, params), problem_content(built)

    def test_every_field_is_changed(self):
        assert set(self.CHANGED) == {f.name for f in fields(SystemParams)}

    @pytest.mark.parametrize("name", CASES)
    def test_a_key_changes_exactly_when_the_build_does(self, name):
        topology, channels, division = self.CASES[name]
        for field, a, b in self.PAIRS:
            key_a, built_a = self._keyed(division, a, topology, channels)
            key_b, built_b = self._keyed(division, b, topology, channels)
            unread = (name, field) in self.UNREAD
            assert (built_a == built_b) is unread, (field, a, b)
            assert (key_a == key_b) is unread, (field, a, b)

    def test_fresh_objects_of_equal_content_give_equal_keys(self):
        division = self.CASES["mixed"][2]
        fresh = generate_topology(seed=5, n_rrh=3, n_it=3, n_et=7)
        channels = draw_channels(fresh, seed=5, slot=0)
        assert self._keyed(division, topology=fresh, channels=channels) == self._keyed(division)

    def test_the_draw_and_the_division_enter_the_key(self):
        division = self.CASES["mixed"][2]
        key, built = self._keyed(division)
        h_et, h_id = self.CHANNELS.h_et.copy(), self.CHANNELS.h_id.copy()
        h_et[:, 0] *= 2  # ET 0 is a MET
        h_id[1, 2] += 1e-9
        et = list(self.TOPOLOGY.et_positions)
        et[1] = Position(et[1].x + 1.0, et[1].y)  # ET 1 is a FET
        for topology, channels in [
            (self.TOPOLOGY, ChannelRealization(h_id=self.CHANNELS.h_id, h_et=h_et)),
            (self.TOPOLOGY, ChannelRealization(h_id=h_id, h_et=self.CHANNELS.h_et)),
            (replace(self.TOPOLOGY, et_positions=tuple(et)), self.CHANNELS),
        ]:
            other_key, other_built = self._keyed(division, topology=topology, channels=channels)
            assert other_built != built and other_key != key
        divisions = [d for _, _, d in list(self.CASES.values())[:3]] + [GroupDivision(7, {1})]
        assert len({self._keyed(d)[0] for d in divisions}) == len({self._keyed(d)[1] for d in divisions}) == 4

    def test_the_same_bytes_in_another_dtype_or_shape_are_another_key(self):
        division = self.CASES["mixed"][2]
        key = sdp_key(self.TOPOLOGY, self.CHANNELS, division, PARAMS)
        for h_id in (self.CHANNELS.h_id.view(">c16"), self.CHANNELS.h_id.reshape(1, 9)):
            channels = SimpleNamespace(h_id=h_id, h_et=self.CHANNELS.h_et)
            assert sdp_key(self.TOPOLOGY, channels, division, PARAMS) != key


class TestSingleItClosedForm:
    @pytest.mark.parametrize("seed", range(8))
    def test_minimum_power_matches_channel_norm(self, seed):
        topo = _no_et_topology(seed)
        ch = draw_channels(topo, seed=seed, slot=0)
        report, solution = solve_division(topo, ch, GroupDivision.all_met(0), PARAMS)
        assert solution.status is SdpStatus.OPTIMAL
        h = ch.h_id[:, 0]
        expected_w = PARAMS.sinr_min * PARAMS.noise_power / float(np.vdot(h, h).real)
        assert report.p_op.sum() == pytest.approx(expected_w, rel=1e-6)
        assert report.objective == pytest.approx(expected_w * MW_PER_W, rel=1e-6)


class TestRecovery:
    def _solved_instance(self):
        topo = generate_topology(seed=11, n_rrh=3, n_it=3, n_et=7)
        ch = draw_channels(topo, seed=11, slot=0)
        division = GroupDivision.all_met(7)
        problem = build_sdp(topo, ch, division, PARAMS)
        solution = solve(problem)
        assert solution.status is SdpStatus.OPTIMAL
        return topo, ch, problem, solution

    def test_recovered_beams_meet_all_floors(self):
        _, ch, problem, solution = self._solved_instance()
        beams_mw = recover_beamformers(solution, problem)
        beams = beams_mw.scaled(1.0 / MW_PER_W)
        for i in range(3):
            assert compute_sinr(beams, ch, i, PARAMS) >= PARAMS.sinr_min * (1 - 1e-6)
        for j in range(7):
            assert met_harvest(beams, ch, j, PARAMS) >= PARAMS.p_amin * (1 - 1e-5)

    def test_recovered_objective_matches_bound(self):
        _, _, problem, solution = self._solved_instance()
        beams = recover_beamformers(solution, problem).scaled(1.0 / MW_PER_W)
        report = power_report(beams, PARAMS)
        bound = power_report(solution, PARAMS).objective
        assert report.objective <= bound * (1 + 1e-4)
        assert report.objective >= bound * (1 - 1e-4)

    def test_zero_block_yields_zero_beam(self):
        h = np.array([1.0, 2.0j], dtype=complex)
        target = np.outer(h, h.conj())
        problem = SdpProblem(
            block_dims=(2, 2),
            n_scalars=0,
            obj_blocks={0: np.eye(2, dtype=complex), 1: np.eye(2, dtype=complex)},
            obj_scalars={},
            constraints=(SdpConstraint({0: target}, {}, ">=", 4.0),),
        )
        quad = float(np.vdot(h, h).real)
        w0 = (4.0 / quad**2) * np.outer(h, h.conj())
        solution = SdpSolution(
            block_values=[w0, np.zeros((2, 2), dtype=complex)],
            scalar_values=np.zeros(0),
            objective_value=4.0 / quad,
            status=SdpStatus.OPTIMAL,
            primal_residual=0.0,
            dual_residual=0.0,
            duality_gap=0.0,
            iterations=0,
        )
        beams = recover_beamformers(solution, problem)
        np.testing.assert_array_equal(beams.omega[:, 1], 0.0)
        w = beams.omega[:, 0]
        assert np.abs(np.vdot(h, w)) ** 2 == pytest.approx(4.0, rel=1e-9)

    def test_randomization_path_recovers_mixture(self):
        # an isotropic optimal matrix is far from rank one; any unit-power
        # direction is optimal, so recovery must land on cost 1
        problem = SdpProblem(
            block_dims=(2,),
            n_scalars=0,
            obj_blocks={0: np.eye(2, dtype=complex)},
            obj_scalars={},
            constraints=(SdpConstraint({0: np.eye(2, dtype=complex)}, {}, ">=", 1.0),),
        )
        solution = SdpSolution(
            block_values=[0.5 * np.eye(2, dtype=complex)],
            scalar_values=np.zeros(0),
            objective_value=1.0,
            status=SdpStatus.OPTIMAL,
            primal_residual=0.0,
            dual_residual=0.0,
            duality_gap=0.0,
            iterations=0,
        )
        beams = recover_beamformers(solution, problem)
        assert float(np.sum(np.abs(beams.omega) ** 2)) == pytest.approx(1.0, rel=1e-9)

    def test_requires_optimal_status(self):
        _, _, problem, solution = self._solved_instance()
        solution.status = SdpStatus.INFEASIBLE
        with pytest.raises(ValueError):
            recover_beamformers(solution, problem)

    def test_unrepairable_candidate_raises(self, monkeypatch):
        monkeypatch.setattr(beamform_module, "N_CANDIDATES", 8)
        # a floor row mixing a scalar defeats the common-rescaling repair
        problem = SdpProblem(
            block_dims=(1,),
            n_scalars=1,
            obj_blocks={0: np.eye(1, dtype=complex)},
            obj_scalars={0: 1.0},
            constraints=(SdpConstraint({0: np.eye(1, dtype=complex)}, {0: 1.0}, ">=", 1.0),),
        )
        solution = SdpSolution(
            block_values=[np.eye(1, dtype=complex)],
            scalar_values=np.zeros(1),
            objective_value=1.0,
            status=SdpStatus.OPTIMAL,
            primal_residual=0.0,
            dual_residual=0.0,
            duality_gap=0.0,
            iterations=0,
        )
        with pytest.raises(RecoveryFailed):
            recover_beamformers(solution, problem)


class TestPowerAccounting:
    def test_power_report_from_beams(self):
        omega = np.array([[1.0, 1.0j], [0.5, 0.0], [0.0, 2.0]], dtype=complex)
        params = SystemParams(p_en=(0.5, 1.0, 5.0))
        report = power_report(BeamformerSet(omega), params)
        np.testing.assert_allclose(report.p_op, [2.0, 0.25, 4.0])
        np.testing.assert_allclose(report.p_pu, [1.5, 0.0, 0.0])
        expected = MW_PER_W * (1.5 + (2.0 + 0.25 + 4.0))
        assert report.objective == pytest.approx(expected, rel=1e-12)
        np.testing.assert_allclose(
            report.ranges, [free_charge_range(p, params) for p in (2.0, 0.25, 4.0)]
        )
        assert report.feasible

    def test_scaled_changes_power_linearly(self):
        omega = np.array([[1.0 + 1.0j], [2.0]], dtype=complex)
        scaled = BeamformerSet(omega).scaled(1.0 / MW_PER_W)
        assert np.sum(np.abs(scaled.omega) ** 2) == pytest.approx(
            np.sum(np.abs(omega) ** 2) / MW_PER_W, rel=1e-12
        )

    def test_purchase_clamp_at_solution(self):
        # scarce green supply forces purchases; solver scalars equal the clamp
        topo = generate_topology(seed=11, n_rrh=3, n_it=3, n_et=7)
        ch = draw_channels(topo, seed=11, slot=0)
        params = SystemParams(p_en=(0.002, 0.002, 0.002))
        report, solution = solve_division(topo, ch, GroupDivision.all_met(7), params)
        assert report.feasible
        clamp = np.maximum(0.0, report.p_op - np.asarray(params.p_en))
        np.testing.assert_allclose(report.p_pu, clamp, atol=1e-12)
        np.testing.assert_allclose(solution.scalar_values / MW_PER_W, clamp, atol=1e-7)

    def test_objective_consistent_with_solver(self):
        topo = generate_topology(seed=11, n_rrh=3, n_it=3, n_et=7)
        ch = draw_channels(topo, seed=11, slot=0)
        report, solution = solve_division(topo, ch, GroupDivision.all_met(7), PARAMS)
        assert report.objective == pytest.approx(solution.objective_value, rel=1e-6)

    @pytest.mark.parametrize("status", [SdpStatus.INFEASIBLE, SdpStatus.MAX_ITERATIONS])
    def test_non_optimal_solution_gives_unsolved_report(self, status):
        sol = SdpSolution(
            block_values=[np.eye(3, dtype=complex)],
            scalar_values=np.zeros(3),
            objective_value=0.0,
            status=status,
            primal_residual=1.0,
            dual_residual=1.0,
            duality_gap=1.0,
            iterations=0,
        )
        report = power_report(sol, PARAMS)
        expected = unsolved_report(len(PARAMS.p_en), status)
        assert report.status is expected.status is status
        assert not report.feasible
        for name in ("p_op", "p_pu", "ranges"):
            np.testing.assert_array_equal(getattr(report, name), getattr(expected, name))
            assert np.all(np.isnan(getattr(report, name)))
        assert np.isnan(report.objective) and np.isnan(expected.objective)

    def test_rejects_unknown_source(self):
        with pytest.raises(TypeError):
            power_report(object(), PARAMS)

    def test_infeasible_report_shape(self):
        report = unsolved_report(3, SdpStatus.INFEASIBLE)
        assert not report.feasible
        for arr in (report.p_op, report.p_pu, report.ranges):
            assert arr.shape == (3,)
            assert np.all(np.isnan(arr))
        assert np.isnan(report.objective)
        assert report.status is SdpStatus.INFEASIBLE

    def test_unsolved_report_keeps_status(self):
        report = unsolved_report(3, SdpStatus.MAX_ITERATIONS)
        assert not report.feasible
        assert report.status is SdpStatus.MAX_ITERATIONS
        with pytest.raises(ValueError):
            unsolved_report(3, SdpStatus.OPTIMAL)

    def test_feasible_reads_status(self):
        z = np.zeros(3)
        assert PowerReport(z, z, z, 1.0).feasible
        assert not PowerReport(z, z, z, 1.0, SdpStatus.MAX_ITERATIONS).feasible


class TestLinkMetrics:
    def test_sinr_with_orthogonal_channels(self):
        h_id = np.array([[1.0, 0.0], [0.0, 1.0]], dtype=complex)
        ch = ChannelRealization(h_id=h_id, h_et=np.zeros((2, 1), dtype=complex))
        omega = np.array([[2.0, 0.0], [0.0, 3.0]], dtype=complex)
        beams = BeamformerSet(omega)
        assert compute_sinr(beams, ch, 0, PARAMS) == pytest.approx(4.0 / PARAMS.noise_power)
        assert compute_sinr(beams, ch, 1, PARAMS) == pytest.approx(9.0 / PARAMS.noise_power)

    def test_sinr_counts_interference(self):
        h_id = np.array([[1.0, 1.0]], dtype=complex)
        ch = ChannelRealization(h_id=h_id, h_et=np.zeros((1, 1), dtype=complex))
        beams = BeamformerSet(np.array([[1.0, 1.0]], dtype=complex))
        expected = 1.0 / (PARAMS.noise_power + 1.0)
        assert compute_sinr(beams, ch, 0, PARAMS) == pytest.approx(expected, rel=1e-12)

    def test_met_harvest_sums_all_beams(self):
        h_et = np.array([[1.0], [1.0j]], dtype=complex)
        ch = ChannelRealization(h_id=np.ones((2, 1), dtype=complex), h_et=h_et)
        beams = BeamformerSet(np.array([[1.0], [0.0]], dtype=complex))
        assert met_harvest(beams, ch, 0, PARAMS) == pytest.approx(PARAMS.eta * 1.0)

    def test_met_harvest_rejects_missing_column(self):
        ch = ChannelRealization(
            h_id=np.ones((2, 1), dtype=complex), h_et=np.ones((2, 1), dtype=complex)
        )
        beams = BeamformerSet(np.ones((2, 1), dtype=complex))
        with pytest.raises(ValueError):
            met_harvest(beams, ch, 3, PARAMS)


class TestSolveDivision:
    def test_infeasible_at_dense_it_load(self):
        # four simultaneous 13 dB SINR floors exceed what three RRHs can steer
        topo = generate_topology(seed=0, n_rrh=3, n_it=4, n_et=7)
        ch = draw_channels(topo, seed=0, slot=0)
        report, solution = solve_division(topo, ch, GroupDivision.all_met(7), PARAMS)
        assert solution.status is SdpStatus.INFEASIBLE
        assert not report.feasible
        assert np.isnan(report.objective)
