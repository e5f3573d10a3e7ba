"""Tests for the dense block-PSD interior-point solver."""

import numpy as np
import pytest

try:
    from numpy._core import einsumfunc
except ImportError:  # numpy < 2
    from numpy.core import einsumfunc

from oracles import oracle_instance
from swiptcran.beamform import GroupDivision, SystemParams, build_sdp
from swiptcran.sdp import (
    SdpConstraint,
    SdpProblem,
    SdpSolution,
    SdpStatus,
    SolverOptions,
    dump_problem,
    load_problem,
    solve,
    verify,
)
from swiptcran.topology import draw_channels, generate_topology


def _scalar_problem(constraints, obj=1.0):
    return SdpProblem(
        block_dims=(),
        n_scalars=1,
        obj_blocks={},
        obj_scalars={0: obj},
        constraints=tuple(constraints),
    )


def _rank_one_floor(h, c):
    target = np.outer(h, h.conj())
    return SdpProblem(
        block_dims=(len(h),),
        n_scalars=0,
        obj_blocks={0: np.eye(len(h), dtype=complex)},
        obj_scalars={},
        constraints=(SdpConstraint(blocks={0: target}, scalars={}, sense=">=", rhs=c),),
    )


class TestClosedForms:
    def test_rank_one_floor_real(self):
        # min tr(W) s.t. tr(h h^H W) >= c has optimum c / |h|^2
        h = np.array([1.0, 0.0], dtype=complex)
        sol = solve(_rank_one_floor(h, 4.0))
        assert sol.status is SdpStatus.OPTIMAL
        assert sol.objective_value == pytest.approx(4.0, rel=1e-7)
        w = sol.block_values[0]
        assert w[0, 0].real == pytest.approx(4.0, rel=1e-6)
        assert abs(w[1, 1]) <= 1e-6

    def test_rank_one_floor_complex(self):
        h = np.array([1.0 + 2.0j, -0.5j, 0.25], dtype=complex)
        c = 3.0
        sol = solve(_rank_one_floor(h, c))
        expected = c / float(np.vdot(h, h).real)
        assert sol.status is SdpStatus.OPTIMAL
        assert sol.objective_value == pytest.approx(expected, rel=1e-7)

    def test_scalar_floor(self):
        sol = solve(_scalar_problem([SdpConstraint({}, {0: 1.0}, ">=", 5.0)]))
        assert sol.status is SdpStatus.OPTIMAL
        assert sol.objective_value == pytest.approx(5.0, rel=1e-8)
        assert sol.scalar_values[0] == pytest.approx(5.0, rel=1e-7)

    def test_scalar_equality(self):
        sol = solve(_scalar_problem([SdpConstraint({}, {0: 2.0}, "=", 6.0)]))
        assert sol.status is SdpStatus.OPTIMAL
        assert sol.scalar_values[0] == pytest.approx(3.0, rel=1e-7)

    def test_block_equality_pins_entry(self):
        e11 = np.zeros((2, 2), dtype=complex)
        e11[0, 0] = 1.0
        problem = SdpProblem(
            block_dims=(2,),
            n_scalars=0,
            obj_blocks={0: np.eye(2, dtype=complex)},
            obj_scalars={},
            constraints=(SdpConstraint({0: e11}, {}, "=", 2.0),),
        )
        sol = solve(problem)
        assert sol.status is SdpStatus.OPTIMAL
        assert sol.objective_value == pytest.approx(2.0, rel=1e-6)
        assert sol.block_values[0][0, 0].real == pytest.approx(2.0, rel=1e-6)

    def test_unconstrained_psd_cost_is_zero(self):
        problem = SdpProblem(
            block_dims=(2,),
            n_scalars=0,
            obj_blocks={0: np.eye(2, dtype=complex)},
            obj_scalars={},
            constraints=(),
        )
        sol = solve(problem)
        assert sol.status is SdpStatus.OPTIMAL
        assert sol.objective_value == pytest.approx(0.0, abs=1e-7)

    def test_unconstrained_indefinite_cost_is_unbounded(self):
        problem = SdpProblem(
            block_dims=(2,),
            n_scalars=0,
            obj_blocks={0: np.diag([1.0, -1.0]).astype(complex)},
            obj_scalars={},
            constraints=(),
        )
        sol = solve(problem)
        assert sol.status is SdpStatus.UNBOUNDED
        assert "primal feasible ray" in sol.detail


class TestStatusDetection:
    def test_contradictory_trace_bounds_infeasible(self):
        eye = np.eye(2, dtype=complex)
        problem = SdpProblem(
            block_dims=(2,),
            n_scalars=0,
            obj_blocks={0: eye},
            obj_scalars={},
            constraints=(
                SdpConstraint({0: eye}, {}, ">=", 1.0),
                SdpConstraint({0: eye}, {}, "<=", 0.0),
            ),
        )
        sol = solve(problem)
        assert sol.status is SdpStatus.INFEASIBLE
        assert sol.detail  # human-readable certificate or diagnostic

    def test_contradictory_scalar_bounds_infeasible(self):
        sol = solve(
            _scalar_problem(
                [
                    SdpConstraint({}, {0: 1.0}, ">=", 5.0),
                    SdpConstraint({}, {0: 1.0}, "<=", 3.0),
                ]
            )
        )
        assert sol.status is SdpStatus.INFEASIBLE

    @pytest.mark.parametrize("rhs", [1e9, 1e12, 1e100])
    def test_large_rhs_floor_is_not_certified_infeasible(self, rhs):
        # the Farkas tolerance is relative to |y|_1, which shrinks as the rhs grows
        eye = np.eye(2, dtype=complex)
        problem = SdpProblem(
            block_dims=(2,),
            n_scalars=0,
            obj_blocks={0: eye},
            obj_scalars={},
            constraints=(SdpConstraint({0: eye}, {}, ">=", rhs),),
        )
        sol = solve(problem)
        assert sol.status is SdpStatus.OPTIMAL, sol.detail
        assert sol.objective_value / rhs == pytest.approx(1.0, rel=1e-7)

    def test_negative_cost_unbounded(self):
        sol = solve(_scalar_problem([SdpConstraint({}, {0: 1.0}, ">=", 0.0)], obj=-1.0))
        assert sol.status is SdpStatus.UNBOUNDED


class TestOracleFamily:
    @pytest.mark.parametrize("seed", range(30))
    def test_known_optimum(self, seed):
        problem, value, w_star, x_star = oracle_instance(seed)
        sol = solve(problem)
        assert sol.status is SdpStatus.OPTIMAL
        assert sol.objective_value == pytest.approx(value, rel=1e-6, abs=1e-9)
        report = verify(problem, sol, tol=1e-7)
        assert report.max_violation <= 1e-7
        assert report.passed

    def test_optimal_meets_tolerance_contract(self):
        opts = SolverOptions()
        for seed in range(10):
            problem, _, _, _ = oracle_instance(seed)
            sol = solve(problem, opts)
            assert sol.status is SdpStatus.OPTIMAL
            report = verify(problem, sol, tol=10 * opts.tol_feas)
            assert report.max_violation <= 10 * opts.tol_feas
            assert sol.duality_gap <= 10 * opts.tol_gap


class TestTailConvergence:
    def test_seed16_divisions_converge_within_default_cap(self):
        # Late in these solves S has condition number ~1e11 while X has
        # eigenvalues ~1e-9; a direction that rebuilds -X as (X S) S^-1
        # stalled the primal step until the 100-iteration cap
        topo = generate_topology(seed=16, n_rrh=3, n_it=3, n_et=7)
        ch = draw_channels(topo, seed=16, slot=0)
        opts = SolverOptions()
        objectives = []
        for division in (
            GroupDivision(7, frozenset({2})),
            GroupDivision.all_fet(7),
        ):
            problem = build_sdp(topo, ch, division, SystemParams())
            sol = solve(problem, opts)
            assert sol.status is SdpStatus.OPTIMAL, sol.detail
            assert sol.iterations < opts.max_iters
            assert verify(problem, sol).passed
            objectives.append(sol.objective_value)
        assert objectives[0] == pytest.approx(objectives[1], rel=1e-7)
        assert objectives[0] == pytest.approx(829.34238, rel=1e-7)


class TestCallCounts:
    def test_each_cone_stack_is_factored_once_per_iteration(self, monkeypatch):
        # The solver is bound by NumPy call overhead: each iteration factors
        # every cone stack once (its interiority test) and the Schur matrix
        # once, and no contraction is planned at run time
        topo = generate_topology(seed=5, n_rrh=3, n_it=3, n_et=7)
        ch = draw_channels(topo, seed=5, slot=0)
        problem = build_sdp(topo, ch, GroupDivision.all_met(7), SystemParams())
        counts = {"cholesky": 0, "cholesky_failed": 0, "einsum_path": 0}
        cholesky, einsum_path = np.linalg.cholesky, einsumfunc.einsum_path

        def counted_cholesky(a):
            counts["cholesky"] += 1
            try:
                return cholesky(a)
            except np.linalg.LinAlgError:
                counts["cholesky_failed"] += 1
                raise

        def counted_einsum_path(*args, **kwargs):
            counts["einsum_path"] += 1
            return einsum_path(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "cholesky", counted_cholesky)
        monkeypatch.setattr(np, "einsum_path", counted_einsum_path)
        # the planner that einsum(..., optimize=...) calls
        monkeypatch.setattr(einsumfunc, "einsum_path", counted_einsum_path)
        sol = solve(problem)
        assert sol.status is SdpStatus.OPTIMAL
        assert counts["einsum_path"] == 0
        # one more for the starting point; a failed factorization (a
        # backtrack or a jitter retry) allows one more
        assert counts["cholesky"] <= 2 * sol.iterations + 1 + counts["cholesky_failed"]

    def test_schur_jitter_recovers_a_repeated_equality_row(self, monkeypatch):
        # the same row twice makes the Schur matrix singular, so its
        # factorization needs the jitter escalation
        a = np.array([[1.0, 0.5], [0.5, 2.0]], dtype=complex)
        row = SdpConstraint({0: a}, {}, "=", 1.0)
        problem = SdpProblem((2,), 0, {0: np.eye(2, dtype=complex)}, {}, (row, row))
        failed = []
        cholesky = np.linalg.cholesky

        def counted_cholesky(m):
            try:
                return cholesky(m)
            except np.linalg.LinAlgError:
                failed.append(m.shape)
                raise

        monkeypatch.setattr(np.linalg, "cholesky", counted_cholesky)
        sol = solve(problem)
        assert (2, 2) in failed  # a Schur factorization failed and was retried
        assert sol.status is SdpStatus.OPTIMAL
        assert sol.iterations == 9
        # min tr(X) s.t. tr(A X) = 1 is 1 / lambda_max(A)
        assert sol.objective_value == pytest.approx(1.0 / np.linalg.eigvalsh(a).max(), rel=1e-7)
        assert sol.objective_value == pytest.approx(0.45308183946793706, rel=1e-12)


class TestScalingCovariance:
    def test_objective_scaling(self):
        problem, value, _, _ = oracle_instance(3)
        scale = 1.0e3
        scaled = SdpProblem(
            block_dims=problem.block_dims,
            n_scalars=problem.n_scalars,
            obj_blocks={b: scale * m for b, m in problem.obj_blocks.items()},
            obj_scalars={j: scale * v for j, v in problem.obj_scalars.items()},
            constraints=problem.constraints,
        )
        base = solve(problem)
        sol = solve(scaled)
        assert sol.objective_value == pytest.approx(scale * base.objective_value, rel=1e-6)
        for wb, wb_base in zip(sol.block_values, base.block_values):
            np.testing.assert_allclose(wb, wb_base, rtol=1e-4, atol=1e-5)


class TestVerify:
    def test_flags_constructed_psd_violation(self):
        problem = SdpProblem(
            block_dims=(2,),
            n_scalars=0,
            obj_blocks={0: np.eye(2, dtype=complex)},
            obj_scalars={},
            constraints=(),
        )
        bad = SdpSolution(
            block_values=[np.diag([-0.1, 1.0]).astype(complex)],
            scalar_values=np.zeros(0),
            objective_value=0.9,
            status=SdpStatus.OPTIMAL,
            primal_residual=0.0,
            dual_residual=0.0,
            duality_gap=0.0,
            iterations=0,
        )
        report = verify(problem, bad)
        assert report.min_block_eigenvalue == pytest.approx(-0.1, rel=1e-12)
        assert not report.passed

    def test_zero_problem_zero_solution(self):
        problem = SdpProblem(
            block_dims=(1,),
            n_scalars=0,
            obj_blocks={},
            obj_scalars={},
            constraints=(),
        )
        zero = SdpSolution(
            block_values=[np.zeros((1, 1), dtype=complex)],
            scalar_values=np.zeros(0),
            objective_value=0.0,
            status=SdpStatus.OPTIMAL,
            primal_residual=0.0,
            dual_residual=0.0,
            duality_gap=0.0,
            iterations=0,
        )
        report = verify(problem, zero)
        assert report.max_violation == 0.0
        assert report.objective_error == 0.0
        assert report.passed

    def test_flags_violated_constraint(self):
        problem = _scalar_problem([SdpConstraint({}, {0: 1.0}, ">=", 5.0)])
        short = SdpSolution(
            block_values=[],
            scalar_values=np.array([4.0]),
            objective_value=4.0,
            status=SdpStatus.OPTIMAL,
            primal_residual=0.0,
            dual_residual=0.0,
            duality_gap=0.0,
            iterations=0,
        )
        report = verify(problem, short)
        assert report.max_violation == pytest.approx(1.0)
        assert not report.passed


class TestProblemValidation:
    def test_rejects_non_hermitian(self):
        mat = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)
        problem = SdpProblem((2,), 0, {0: mat}, {}, ())
        with pytest.raises(ValueError):
            problem.validate()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1j * np.nan, 1j * np.inf])
    def test_rejects_non_finite_entries(self, bad):
        mat = np.eye(2, dtype=complex)
        mat[0, 1] = mat[1, 0] = bad
        con = SdpConstraint({0: mat}, {}, ">=", 1.0)
        problem = SdpProblem((2,), 0, {}, {}, (con,))
        with pytest.raises(ValueError, match="non-finite"):
            problem.validate()

    def test_returns_the_hermitian_parts(self):
        obj = np.array([[2.0, 1.0 + 1e-12j], [1.0, 3.0]], dtype=complex)
        con = SdpConstraint({0: np.eye(2)}, {}, ">=", 1.0)
        obj_blocks, con_blocks = SdpProblem((2,), 0, {0: obj}, {}, (con,)).validate()
        np.testing.assert_array_equal(obj_blocks[0], (obj + obj.conj().T) / 2.0)
        np.testing.assert_array_equal(con_blocks[0][0], np.eye(2, dtype=complex))
        assert len(con_blocks) == 1

    def test_rejects_shape_mismatch(self):
        problem = SdpProblem((3,), 0, {0: np.eye(2, dtype=complex)}, {}, ())
        with pytest.raises(ValueError):
            problem.validate()

    def test_rejects_unknown_block_reference(self):
        con = SdpConstraint({1: np.eye(2, dtype=complex)}, {}, ">=", 1.0)
        problem = SdpProblem((2,), 0, {}, {}, (con,))
        with pytest.raises(ValueError):
            problem.validate()

    def test_rejects_empty_problem(self):
        with pytest.raises(ValueError):
            SdpProblem((), 0, {}, {}, ()).validate()

    def test_rejects_bad_sense(self):
        with pytest.raises(ValueError):
            SdpConstraint({}, {0: 1.0}, ">", 1.0)

    def test_rejects_non_finite_rhs(self):
        with pytest.raises(ValueError):
            SdpConstraint({}, {0: 1.0}, ">=", float("inf"))


class TestDumpLoad:
    def test_roundtrip_preserves_instance(self):
        problem, value, _, _ = oracle_instance(5)
        text = dump_problem(problem)
        back = load_problem(text)
        assert back.block_dims == problem.block_dims
        assert back.n_scalars == problem.n_scalars
        assert len(back.constraints) == len(problem.constraints)
        for con_a, con_b in zip(problem.constraints, back.constraints):
            assert con_a.sense == con_b.sense
            assert con_a.rhs == con_b.rhs
            for b, mat in con_a.blocks.items():
                np.testing.assert_array_equal(con_b.blocks[b], mat)
        sol = solve(back)
        assert sol.objective_value == pytest.approx(value, rel=1e-6)

    def test_load_rejects_garbage(self):
        with pytest.raises(ValueError):
            load_problem("not a problem dump")
