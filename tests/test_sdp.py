"""Tests for the dense block-PSD interior-point solver."""

import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg
from numpy._core import einsumfunc

from oracles import mixed_outcome_batch, oracle_instance
from swiptcran import sdp as sdp_module
from swiptcran.beamform import GroupDivision, SystemParams, build_sdp
from swiptcran.sdp import (
    SdpConstraint,
    SdpProblem,
    SdpSolution,
    SdpStatus,
    dump_problem,
    load_problem,
    solve,
    solve_batch,
    verify,
)
from swiptcran.longterm import mask_fet_channels
from swiptcran.topology import draw_channels, generate_topology


def _clean_one(mat, dim):
    """One matrix's Hermitian part, checked as a loop over blocks would: the
    reference that `SdpProblem.validate`'s stacked pass must match bit for bit."""
    a = np.asarray(mat, dtype=np.complex128)
    assert a.shape == (dim, dim) and np.isfinite(a).all()
    a_h = a.conj().T
    assert float(np.max(np.abs(a - a_h))) <= 1e-10 * (1.0 + float(np.max(np.abs(a))))
    return (a + a_h) / 2.0


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
        for seed in range(10):
            problem, _, _, _ = oracle_instance(seed)
            sol = solve(problem)
            assert sol.status is SdpStatus.OPTIMAL
            report = verify(problem, sol, tol=10 * sdp_module.TOL_FEAS)
            assert report.max_violation <= 10 * sdp_module.TOL_FEAS
            assert sol.duality_gap <= 10 * sdp_module.TOL_GAP


class TestTailConvergence:
    def test_seed16_divisions_converge_within_default_cap(self):
        # Late in these solves S has condition number ~1e11 while X has
        # eigenvalues ~1e-9; a direction that rebuilds -X as (X S) S^-1
        # stalled the primal step until the 100-iteration cap
        topo = generate_topology(seed=16, n_rrh=3, n_it=3, n_et=7)
        ch = draw_channels(topo, seed=16, slot=0)
        objectives = []
        for division in (
            GroupDivision(7, frozenset({2})),
            GroupDivision.all_fet(7),
        ):
            problem = build_sdp(topo, ch, division, SystemParams())
            sol = solve(problem)
            assert sol.status is SdpStatus.OPTIMAL, sol.detail
            assert sol.iterations < sdp_module.MAX_ITERS
            assert verify(problem, sol).passed
            objectives.append(sol.objective_value)
        assert objectives[0] == pytest.approx(objectives[1], rel=1e-7)
        assert objectives[0] == pytest.approx(829.34238, rel=1e-7)


def _watch_cholesky(monkeypatch) -> dict:
    """Patch `sdp._cholesky` to count its calls and to record, per call in
    which a matrix did not factor, the matrix shape (K, K)."""
    cholesky = sdp_module._cholesky
    seen = {"calls": 0, "failed": []}

    def counted(a):
        seen["calls"] += 1
        factors = cholesky(a)
        if not sdp_module._factored(factors).all():
            seen["failed"].append(a.shape[-2:])
        return factors

    monkeypatch.setattr(sdp_module, "_cholesky", counted)
    return seen


class TestCallCounts:
    def test_each_cone_stack_is_factored_once_per_iteration(self, monkeypatch):
        # The solver is bound by NumPy call overhead: each iteration factors
        # every cone stack once (its interiority test) and the Schur matrix
        # once, and no contraction is planned at run time
        topo = generate_topology(seed=5, n_rrh=3, n_it=3, n_et=7)
        ch = draw_channels(topo, seed=5, slot=0)
        problem = build_sdp(topo, ch, GroupDivision.all_met(7), SystemParams())
        counts = {"einsum_path": 0}
        einsum_path = einsumfunc.einsum_path

        def counted_einsum_path(*args, **kwargs):
            counts["einsum_path"] += 1
            return einsum_path(*args, **kwargs)

        cholesky = _watch_cholesky(monkeypatch)
        monkeypatch.setattr(np, "einsum_path", counted_einsum_path)
        # the planner that einsum(..., optimize=...) calls
        monkeypatch.setattr(einsumfunc, "einsum_path", counted_einsum_path)
        sol = solve(problem)
        assert sol.status is SdpStatus.OPTIMAL
        assert counts["einsum_path"] == 0
        # one more for the starting point; a failed factorization (a
        # backtrack or a jitter retry) allows one more
        assert 0 < cholesky["calls"] <= 2 * sol.iterations + 1 + len(cholesky["failed"])

    def test_a_batch_of_one_iteration_makes_five_solves(self, monkeypatch):
        # one group: L^-1 of its (X, S) factor, which serves S^-1 and both
        # step-length tests, and two triangular solves of the Schur factor
        # each for the predictor and the corrector
        topo = generate_topology(seed=5, n_rrh=3, n_it=3, n_et=7)
        ch = draw_channels(topo, seed=5, slot=0)
        problem = build_sdp(topo, ch, GroupDivision.all_met(7), SystemParams())
        solve_, ipm_step = sdp_module._solve, sdp_module._ipm_step
        calls, per_step = [0], []

        def counted_solve(a, b):
            calls[0] += 1
            return solve_(a, b)

        def counted_step(*args):
            before = calls[0]
            broken = ipm_step(*args)
            per_step.append(calls[0] - before)
            return broken

        monkeypatch.setattr(sdp_module, "_solve", counted_solve)
        monkeypatch.setattr(sdp_module, "_ipm_step", counted_step)
        sol = solve(problem)
        assert sol.status is SdpStatus.OPTIMAL
        assert len(per_step) == sol.iterations
        assert set(per_step) == {5}

    def test_kernels_bypass_the_linalg_wrappers(self, monkeypatch):
        # every solve, eigvalsh and cholesky of a solve calls the LAPACK gufunc itself
        topo = generate_topology(seed=5, n_rrh=3, n_it=3, n_et=7)
        ch = draw_channels(topo, seed=5, slot=0)
        problem = build_sdp(topo, ch, GroupDivision.all_met(7), SystemParams())
        counts = {"solve": 0, "eigvalsh": 0, "cholesky": 0}

        def counted(name):
            real = getattr(np.linalg, name)

            def call(*args, **kwargs):
                counts[name] += 1
                return real(*args, **kwargs)

            return call

        for name in counts:
            monkeypatch.setattr(np.linalg, name, counted(name))
        sol = solve(problem)
        assert sol.status is SdpStatus.OPTIMAL
        assert sol.iterations > 0
        assert counts == {"solve": 0, "eigvalsh": 0, "cholesky": 0}

    def test_einsum_bypasses_its_python_wrapper(self, monkeypatch):
        # every einsum of a solve calls numpy's C c_einsum itself
        topo = generate_topology(seed=5, n_rrh=3, n_it=3, n_et=7)
        ch = draw_channels(topo, seed=5, slot=0)
        problem = build_sdp(topo, ch, GroupDivision(7, {2, 4}), SystemParams())
        calls = []
        real = np.einsum

        def counted(*args, **kwargs):
            calls.append(args[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(np, "einsum", counted)
        sol = solve(problem)
        assert sol.status is SdpStatus.OPTIMAL
        assert sol.iterations > 0
        assert calls == []

    def test_schur_jitter_recovers_a_repeated_equality_row(self, monkeypatch):
        # the same row twice makes the Schur matrix singular, so its
        # factorization needs the jitter escalation
        a = np.array([[1.0, 0.5], [0.5, 2.0]], dtype=complex)
        row = SdpConstraint({0: a}, {}, "=", 1.0)
        problem = SdpProblem((2,), 0, {0: np.eye(2, dtype=complex)}, {}, (row, row))
        cholesky = _watch_cholesky(monkeypatch)
        sol = solve(problem)
        assert (2, 2) in cholesky["failed"]  # a Schur factorization failed and was retried
        assert sol.status is SdpStatus.OPTIMAL
        assert sol.iterations == 9
        # min tr(X) s.t. tr(A X) = 1 is 1 / lambda_max(A)
        assert sol.objective_value == pytest.approx(1.0 / np.linalg.eigvalsh(a).max(), rel=1e-7)
        assert sol.objective_value == pytest.approx(0.45308183946793706, rel=1e-12)


class TestKernels:
    """The LAPACK shim returns `np.linalg`'s bits on the stacks the IPM passes."""

    @staticmethod
    def _factors(rng, shape):
        m = rng.standard_normal(shape)
        return np.linalg.cholesky(m @ m.swapaxes(-1, -2) + shape[-1] * np.eye(shape[-1]))

    @pytest.mark.parametrize("n_problems", [1, 3, 16])
    def test_solve_matches_linalg(self, n_problems):
        rng = np.random.default_rng(n_problems)
        # L^-1 of the (X, S) factors of 3 blocks, against a broadcast identity
        chol = self._factors(rng, (n_problems, 6, 6, 6))
        np.testing.assert_array_equal(sdp_module._solve(chol, np.eye(6)), np.linalg.solve(chol, np.eye(6)))
        # the Schur solves: (P, K, K) factors against (P, K, 1)
        schur = self._factors(rng, (n_problems, 13, 13))
        h = rng.standard_normal((n_problems, 13, 1))
        np.testing.assert_array_equal(sdp_module._solve(schur, h), np.linalg.solve(schur, h))

    @pytest.mark.parametrize("n_problems", [1, 3, 16])
    def test_eigvalsh_matches_linalg(self, n_problems):
        rng = np.random.default_rng(100 + n_problems)
        real = rng.standard_normal((n_problems, 6, 6, 6))
        real = real + real.swapaxes(-1, -2)
        np.testing.assert_array_equal(sdp_module._eigvalsh(real), np.linalg.eigvalsh(real))
        # the returned blocks' PSD check runs on complex Hermitian stacks
        herm = rng.standard_normal((3, 3, 3)) + 1j * rng.standard_normal((3, 3, 3))
        herm = herm + herm.conj().swapaxes(-1, -2)
        np.testing.assert_array_equal(sdp_module._eigvalsh(herm), np.linalg.eigvalsh(herm))

    @pytest.mark.parametrize("n_problems", [1, 3, 16])
    def test_cholesky_matches_linalg(self, n_problems):
        rng = np.random.default_rng(200 + n_problems)
        for shape in [(n_problems, 6, 6, 6), (n_problems, 13, 13)]:  # cone and Schur stacks
            m = rng.standard_normal(shape)
            spd = m @ m.swapaxes(-1, -2) + shape[-1] * np.eye(shape[-1])
            np.testing.assert_array_equal(sdp_module._cholesky(spd), np.linalg.cholesky(spd))
            # a matrix that does not factor gets a NaN factor, and only it
            bad = np.zeros(shape[:-2], dtype=bool)
            bad.flat[rng.integers(bad.size)] = True
            spd[bad] = -spd[bad]
            with np.errstate(invalid="ignore"):
                got = sdp_module._cholesky(spd)
            assert np.isnan(got[bad]).all()
            np.testing.assert_array_equal(got[~bad], np.linalg.cholesky(spd[~bad]))
            np.testing.assert_array_equal(sdp_module._factored(got), ~bad.any(axis=tuple(range(1, bad.ndim))))

    def test_factor_psd_matches_the_jitter_loop(self):
        # a stack that factors with no jitter, with 1, 2 and 3 escalations,
        # and never: each row gets the factor, or the breakdown, of the loop
        k = 3
        m = np.stack([np.diag([4.0, 2.0, lo]) for lo in (1.0, 0.0, -5e-12, -5e-9, -5e-6)])
        with np.errstate(invalid="ignore"):
            factors, broken = sdp_module._factor_psd(m)
        assert broken == {4: "Schur complement factorization failed"}
        reference = [_factor_one(mi) for mi in m]
        assert [tries for _, tries in reference] == [1, 2, 3, 4, 4]
        for got, (expected, _) in zip(factors, reference):
            np.testing.assert_array_equal(got, np.eye(k) if expected is None else expected)


class TestMaxSteps:
    """`_max_steps` against scipy's generalized eigensolver: X + a dX stays
    PSD up to a = -1 / lambda_min(dX, X), the pencil's least eigenvalue."""

    @staticmethod
    def _spd(rng, n, cond):
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        return (q * np.logspace(0, -np.log10(cond), n)) @ q.T

    def _stacks(self, rng, cond, n_problems=4, n_blocks=3, n=6):
        """(X, S) stacks with condition number `cond` per matrix, and L^-1 of their factors."""
        xs = sdp_module._sym(np.array([
            [self._spd(rng, n, cond) for _ in range(2 * n_blocks)] for _ in range(n_problems)
        ]))
        return xs, sdp_module._solve(sdp_module._cholesky(xs), sdp_module._eye(n))

    @pytest.mark.parametrize("cond", [1e2, 1e10])
    def test_matches_the_generalized_eigenproblem(self, cond):
        rng = np.random.default_rng(int(np.log10(cond)))
        xs, linv = self._stacks(rng, cond)
        m = rng.standard_normal(xs.shape)
        d = m + m.swapaxes(-1, -2)
        steps = sdp_module._max_steps(linv, d)
        half = xs.shape[1] // 2
        # each side's error in lambda_min is about n * eps * cond(X) of its size
        rtol = xs.shape[-1] * np.finfo(float).eps * cond
        for p, pair in enumerate(steps):
            for h, got in enumerate(pair):
                lam = min(
                    scipy.linalg.eigh(d[p, b], xs[p, b], eigvals_only=True)[0]
                    for b in range(h * half, (h + 1) * half)
                )
                assert lam < 0
                assert got == pytest.approx(-1.0 / lam, rel=rtol)

    def test_a_psd_direction_is_unbounded(self):
        rng = np.random.default_rng(10)
        xs, linv = self._stacks(rng, 1e10)
        g = rng.standard_normal(xs.shape)
        assert sdp_module._max_steps(linv, g @ g.swapaxes(-1, -2)) == [[np.inf, np.inf]] * len(xs)


def _factor_one(m):
    """One Schur matrix's Cholesky factor with escalating jitter, or None on
    breakdown, and the factorizations tried: the reference that
    `_factor_psd`'s stacked pass must match."""
    k = m.shape[0]
    jitter = 0.0
    base = max(float(np.trace(m)) / max(k, 1), 1.0)
    for attempt in range(4):
        try:
            return np.linalg.cholesky(m + jitter * np.eye(k)), attempt + 1
        except np.linalg.LinAlgError:
            jitter = base * (1e-13 if attempt == 0 else jitter / base * 1e3)
    return None, 4


def _assert_same_solution(got, alone):
    """Bit-for-bit equality of two solutions of one problem."""
    assert got.status is alone.status
    assert got.detail == alone.detail
    assert got.iterations == alone.iterations
    assert got.objective_value == alone.objective_value
    assert (got.primal_residual, got.dual_residual, got.duality_gap) == (
        alone.primal_residual,
        alone.dual_residual,
        alone.duality_gap,
    )
    np.testing.assert_array_equal(got.scalar_values, alone.scalar_values)
    assert len(got.block_values) == len(alone.block_values)
    for w, w_alone in zip(got.block_values, alone.block_values):
        np.testing.assert_array_equal(w, w_alone)


def _longterm_batch():
    """16 long-term slots at 3/3/7 under one frozen division, as one batch."""
    topo = generate_topology(seed=5, n_rrh=3, n_it=3, n_et=7)
    division = GroupDivision(7, frozenset({0, 3, 5}))
    return [
        build_sdp(
            topo, mask_fet_channels(draw_channels(topo, seed=5, slot=slot), division), division,
            SystemParams(),
        )
        for slot in range(16)
    ]


def _stage_batch(n):
    """`n` long-term slot problems at 3/3/7, slot by slot under the three
    stage divisions (a frozen hybrid, all-FET, all-MET): their rows end at
    different iterations."""
    topo = generate_topology(seed=5, n_rrh=3, n_it=3, n_et=7)
    divisions = [GroupDivision(7, frozenset({0, 3, 5})), GroupDivision.all_fet(7), GroupDivision.all_met(7)]
    return [
        build_sdp(topo, mask_fet_channels(draw_channels(topo, seed=5, slot=slot), division), division,
                  SystemParams())
        for slot in range(-(-n // len(divisions)))
        for division in divisions
    ][:n]


def _mixed_batch(n):
    """`n` problems: copies of `mixed_outcome_batch()` in turn, the k-th copy
    with its right-hand sides scaled by 1 + k / 10, so each outcome recurs."""
    base = mixed_outcome_batch()
    out = []
    for i in range(n):
        p, scale = base[i % len(base)], 1.0 + 0.1 * (i // len(base))
        constraints = tuple(SdpConstraint(c.blocks, c.scalars, c.sense, scale * c.rhs) for c in p.constraints)
        out.append(SdpProblem(p.block_dims, p.n_scalars, p.obj_blocks, p.obj_scalars, constraints))
    return out


def _watch_back_off(monkeypatch) -> list:
    """Patch `_advance` to record each row that took less than its full dual
    step, read from the multiplier y it leaves."""
    advance = sdp_module._advance
    backed_off = []

    def watched(bt, rows, dy, dxs, dss, du, dz, ap, ad):
        full = bt.y + ad[:, None] * dy
        stuck = advance(bt, rows, dy, dxs, dss, du, dz, ap, ad)
        backed_off.extend(i for i in rows if i not in stuck and not np.array_equal(bt.y[i], full[i]))
        return stuck

    monkeypatch.setattr(sdp_module, "_advance", watched)
    return backed_off


class TestSolveBatch:
    @pytest.mark.parametrize(
        "max_iters, statuses",
        [
            (100, ["Optimal", "Infeasible", "Unbounded", "Optimal", "Optimal"]),
            (5, ["MaxIterations", "Infeasible", "Unbounded", "MaxIterations", "MaxIterations"]),
        ],
    )
    def test_mixed_outcomes_match_solving_alone(self, monkeypatch, max_iters, statuses):
        monkeypatch.setattr(sdp_module, "MAX_ITERS", max_iters)
        problems = mixed_outcome_batch()
        alone = [solve(p) for p in problems]
        cholesky = _watch_cholesky(monkeypatch)
        batch = solve_batch(problems)
        assert [s.status.value for s in batch] == statuses
        assert batch[1].detail.startswith("Farkas")
        if max_iters == 100:
            # the jitter instance's Schur factorization was retried
            assert (2, 2) in cholesky["failed"]
        for got, one in zip(batch, alone):
            _assert_same_solution(got, one)

    def test_a_schur_breakdown_ends_only_its_problem(self, monkeypatch):
        # let every Schur matrix that needs jitter break down instead: the
        # repeated-row problem ends at its first Schur failure and the rest
        # of the batch carries on as if solved alone
        factor_psd = sdp_module._factor_psd

        def no_jitter(m):
            factors, broken = factor_psd(m)
            for i in np.flatnonzero(~sdp_module._factored(sdp_module._cholesky(m + 0.0))).tolist():
                broken[i] = "Schur complement factorization failed"
            return factors, broken

        monkeypatch.setattr(sdp_module, "_factor_psd", no_jitter)
        problems = mixed_outcome_batch()
        batch = solve_batch(problems)
        assert batch[3].status is SdpStatus.MAX_ITERATIONS
        assert batch[3].detail == "numerical breakdown: Schur complement factorization failed"
        for got, problem in zip(batch, problems):
            _assert_same_solution(got, solve(problem))

    def test_a_nan_step_ends_only_its_problem(self, monkeypatch):
        # a failed kernel returns NaN; `min(1.0, nan)` is 1.0, so a NaN step
        # must end its row before it is taken as a full step
        max_steps = sdp_module._max_steps
        problems = mixed_outcome_batch()

        def nan_for_first(chol, d):
            steps = max_steps(chol, d)
            if len(steps) == len(problems):  # the whole batch: problem 0 is row 0
                steps[0] = [float("nan"), float("nan")]
            return steps

        monkeypatch.setattr(sdp_module, "_max_steps", nan_for_first)
        batch = solve_batch(problems)
        assert batch[0].status is SdpStatus.MAX_ITERATIONS
        assert batch[0].detail == "numerical breakdown: non-finite step length"
        assert batch[0].iterations == 0
        for got, problem in zip(batch[1:], problems[1:]):
            _assert_same_solution(got, solve(problem))

    def test_a_nan_factor_ends_only_its_problem(self, monkeypatch):
        # a NaN in the X half of problem 0's (X, S) factor gives a NaN L^-1,
        # so a NaN primal step: that row breaks down, and the rest of the
        # batch carries on as if solved alone
        problems = mixed_outcome_batch()
        alone = [solve(p) for p in problems[1:]]
        ipm_step = sdp_module._ipm_step

        def nan_x_factor_for_first(bt, *args):
            if bt.ids[0] == 0:
                chol = bt.chol[0]
                chol[0, :chol.shape[1] // 2] = np.nan
            return ipm_step(bt, *args)

        monkeypatch.setattr(sdp_module, "_ipm_step", nan_x_factor_for_first)
        batch = solve_batch(problems)
        assert batch[0].status is SdpStatus.MAX_ITERATIONS
        assert batch[0].detail == "numerical breakdown: non-finite step length"
        assert batch[0].iterations == 0
        for got, one in zip(batch[1:], alone):
            _assert_same_solution(got, one)

    @pytest.mark.parametrize("batch", [_longterm_batch, mixed_outcome_batch])
    def test_backed_off_steps_match_solving_alone(self, monkeypatch, batch):
        # a step of 1.2 times the distance to the cone boundary leaves the
        # cone, so the interiority test fails and the step is halved
        monkeypatch.setattr(sdp_module, "STEP_FRAC", 1.2)
        problems = batch()
        alone = [solve(p) for p in problems]
        backed_off = _watch_back_off(monkeypatch)
        for got, one in zip(solve_batch(problems), alone):
            _assert_same_solution(got, one)
        assert backed_off

    def test_a_row_that_cannot_stay_interior_ends_only_its_problem(self, monkeypatch):
        # problem 0's new cone stacks never factor, so all 30 tries of its
        # step fail; while it is in the batch it is row 0 of every stack
        # that `_advance` factors
        problems = mixed_outcome_batch()
        alone = [solve(p) for p in problems[1:]]
        cholesky, advance = sdp_module._cholesky, sdp_module._advance
        target = {"in_advance": False}

        def failing(a):
            factors = cholesky(a)
            if target["in_advance"]:
                factors[0] = np.nan
            return factors

        def advance_with_failing_row_0(bt, rows, *args):
            target["in_advance"] = bt.ids[0] == 0 and 0 in rows
            try:
                return advance(bt, rows, *args)
            finally:
                target["in_advance"] = False

        monkeypatch.setattr(sdp_module, "_cholesky", failing)
        monkeypatch.setattr(sdp_module, "_advance", advance_with_failing_row_0)
        batch = solve_batch(problems)
        assert batch[0].status is SdpStatus.MAX_ITERATIONS
        assert batch[0].detail == "numerical breakdown: step could not maintain cone interiority"
        assert batch[0].iterations == 0
        for got, one in zip(batch[1:], alone):
            _assert_same_solution(got, one)

    def test_failed_factorizations_raise_no_warning(self, monkeypatch):
        # a factorization that fails sets the FP invalid flag: the Schur
        # jitter of the repeated-row problem and forced back-off steps
        # must not turn it into a RuntimeWarning
        problems = mixed_outcome_batch()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert solve(problems[3]).status is SdpStatus.OPTIMAL
            monkeypatch.setattr(sdp_module, "STEP_FRAC", 1.9)
            backed_off = _watch_back_off(monkeypatch)
            solve_batch(problems)
        assert backed_off

    @pytest.mark.parametrize("batch", [_stage_batch, _mixed_batch])
    def test_rows_compact_in_place_across_batches(self, monkeypatch, batch):
        # more problems than a batch holds, whose rows end at different
        # iterations: each `keep` moves the live rows of A forward inside
        # the buffer the batch was built with, and no result moves a bit
        problems = batch(sdp_module.BATCH_SIZE + 3)
        alone = [solve(p) for p in problems]
        keep = sdp_module._Batch.keep
        first = {}  # id -> (batch, its A stacks before any keep)
        calls = []

        def watched(bt, rows):
            buffers = first.setdefault(id(bt), (bt, list(bt.A)))[1]
            keep(bt, rows)
            calls.append(id(bt))
            for a, buffer in zip(bt.A, buffers):
                assert a.flags.c_contiguous
                assert np.shares_memory(a, buffer)
                assert len(a) == int(np.count_nonzero(rows))

        monkeypatch.setattr(sdp_module._Batch, "keep", watched)
        batched = solve_batch(problems)
        assert len(batched) == len(problems)
        for got, one in zip(batched, alone):
            _assert_same_solution(got, one)
        assert len(calls) > len(first)  # some batch compacted more than once

    def test_no_temporary_the_size_of_a(self):
        # the peak of one full batch beyond its own A stack, in units of
        # that stack: with every temporary capped at 16 rows of A and the
        # predictor's directions, S^-1 and the Schur factor released before
        # the corrector's step-length test, 64 problems reach 2.2 units (2.8
        # while those stayed alive; the L^-1 that test reads adds 0.1); at 16
        # problems without the caps it was 4.5, and the Schur assembly, the
        # embedding at assembly or holding the problems each lift 64
        # problems above 3 on their own
        problems = _stage_batch(sdp_module.BATCH_SIZE)
        first = problems[0]
        a_bytes = 8 * len(problems) * len(first.constraints) * sum((2 * d) ** 2 for d in first.block_dims)
        solve_batch(problems[:1])
        tracemalloc.start()
        try:
            solve_batch(problems)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - a_bytes < 2.5 * a_bytes

    def test_oracle_variants_match_solving_alone(self):
        # the oracle family has groups of one block, where the batched
        # contraction would round differently from a problem solved alone
        for seed in range(4):
            base = oracle_instance(seed)[0]
            problems = [
                SdpProblem(
                    base.block_dims,
                    base.n_scalars,
                    {b: (1.0 + 0.1 * k) * m for b, m in base.obj_blocks.items()},
                    base.obj_scalars,
                    tuple(
                        SdpConstraint(c.blocks, c.scalars, c.sense, (1.0 + 0.3 * k) * c.rhs)
                        for c in base.constraints
                    ),
                )
                for k in range(5)
            ]
            for got, problem in zip(solve_batch(problems), problems):
                _assert_same_solution(got, solve(problem))

    @pytest.mark.parametrize("change", ["block_dims", "n_scalars", "sense"])
    def test_problems_of_another_structure_are_rejected(self, change):
        eye = np.eye(2, dtype=complex)
        first = SdpProblem((2,), 1, {0: eye}, {0: 1.0}, (SdpConstraint({0: eye}, {0: 1.0}, ">=", 1.0),))
        other = {
            "block_dims": SdpProblem(
                (3,), 1, {0: np.eye(3)}, {0: 1.0}, (SdpConstraint({0: np.eye(3)}, {0: 1.0}, ">=", 1.0),)
            ),
            "n_scalars": SdpProblem(
                (2,), 2, {0: eye}, {0: 1.0}, (SdpConstraint({0: eye}, {0: 1.0}, ">=", 1.0),)
            ),
            "sense": SdpProblem((2,), 1, {0: eye}, {0: 1.0}, (SdpConstraint({0: eye}, {0: 1.0}, "<=", 1.0),)),
        }[change]
        with pytest.raises(ValueError, match="a batch needs"):
            solve_batch([first, other])

    def test_empty_batch(self):
        assert solve_batch([]) == []

    def test_a_batch_shares_each_factorization_call(self, monkeypatch):
        # 16 long-term slots at 3/3/7 run as one batch: each iteration
        # factors all cone stacks in one call and all Schur matrices in
        # another, so a solver that looped over problems would fail this
        problems = _longterm_batch()
        cholesky = _watch_cholesky(monkeypatch)
        solutions = solve_batch(problems)
        assert all(s.status is SdpStatus.OPTIMAL for s in solutions)
        iters = max(s.iterations for s in solutions)
        assert 0 < cholesky["calls"] <= 2 * iters + 1 + len(cholesky["failed"])


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

    def test_shared_non_hermitian_array_names_its_first_block(self):
        bad = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)
        ok = SdpConstraint({0: np.eye(2)}, {}, ">=", 1.0)
        shared = SdpConstraint({0: bad, 1: bad}, {}, ">=", 1.0)
        problem = SdpProblem((2, 2), 0, {}, {}, (ok, shared, shared))
        with pytest.raises(ValueError, match=r"^constraint 1 block 0: not Hermitian$"):
            problem.validate()

    def test_first_bad_array_names_the_error(self):
        nan = np.eye(2, dtype=complex)
        nan[0, 0] = np.nan
        skew = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)
        first = SdpConstraint({0: nan}, {}, ">=", 1.0)
        second = SdpConstraint({0: skew}, {}, ">=", 1.0)
        with pytest.raises(ValueError, match=r"^constraint 0 block 0: non-finite entries$"):
            SdpProblem((2,), 0, {}, {}, (first, second)).validate()
        with pytest.raises(ValueError, match=r"^constraint 0 block 0: not Hermitian$"):
            SdpProblem((2,), 0, {}, {}, (second, first)).validate()
        # an array error before a structural one is raised first, and after it, not
        unknown = SdpConstraint({3: np.eye(2)}, {}, ">=", 1.0)
        with pytest.raises(ValueError, match=r"^constraint 0 block 0: not Hermitian$"):
            SdpProblem((2,), 0, {}, {}, (second, unknown)).validate()
        with pytest.raises(ValueError, match=r"^constraint 0 references unknown block 3$"):
            SdpProblem((2,), 0, {}, {}, (unknown, second)).validate()

    def test_non_finite_arrays_raise_no_warning(self):
        inf = np.eye(2, dtype=complex)
        inf[0, 1] = np.inf
        problem = SdpProblem((2,), 0, {0: np.eye(2)}, {}, (SdpConstraint({0: inf}, {}, ">=", 1.0),))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="constraint 0 block 0: non-finite entries"):
                problem.validate()

    def test_shared_arrays_clean_as_each_block_alone(self):
        topo = generate_topology(seed=5, n_rrh=3, n_it=3, n_et=7)
        problem = build_sdp(
            topo, draw_channels(topo, seed=5, slot=0), GroupDivision(7, {2, 4}), SystemParams()
        )
        obj_blocks, con_blocks = problem.validate()
        for b, mat in problem.obj_blocks.items():
            np.testing.assert_array_equal(obj_blocks[b], _clean_one(mat, 3))
        for con, cleaned in zip(problem.constraints, con_blocks):
            assert cleaned.keys() == con.blocks.keys()
            for b, mat in con.blocks.items():
                np.testing.assert_array_equal(cleaned[b], _clean_one(mat, 3))

    def test_shared_array_checked_against_each_block_dimension(self):
        mat = np.eye(2)
        con = SdpConstraint({0: mat, 1: mat}, {}, ">=", 1.0)
        with pytest.raises(ValueError, match=r"constraint 0 block 1: expected shape \(3, 3\)"):
            SdpProblem((2, 3), 0, {}, {}, (con,)).validate()

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
