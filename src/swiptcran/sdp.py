"""Dense primal-dual interior-point solver for small block SDPs.

Solves
    minimize    sum_b tr(C_b X_b) + c . x
    subject to  sum_b tr(A_kb X_b) + a_k . x  {>=, <=, =}  r_k,   k = 1..K
                X_b Hermitian positive semidefinite, x >= 0 elementwise

with a handful of dense Hermitian blocks (dims up to ~10) plus nonnegative
real scalars.  Everything is dense; there is no sparsity handling on purpose.

Engine: infeasible-start primal-dual interior-point method on the standard
real symmetric embedding of the Hermitian blocks (m x m Hermitian becomes
2m x 2m real symmetric, coefficients carry a 1/2 factor so trace inner
products are preserved), HKM direction with a Mehrotra predictor-corrector
step, dense Schur complement.  The complementarity part of the direction is
formed as sigma*mu*S^-1 - X - (corrector + X dS) S^-1, never by pushing X S
back through S^-1, which loses X's small eigenvalues to rounding once S is
ill-conditioned near convergence.  Inequalities get slack variables and join the
scalars in a nonnegative-orthant cone handled alongside the PSD blocks.

Statuses (homogeneous self-dual embedding is NOT used): every status other
than Optimal is either certified or MaxIterations.  Infeasible comes only
from a Farkas ray certificate extracted from the normalized dual iterate,
Unbounded only from the mirrored primal-ray test, both checked every
iteration.  A solve that neither converges nor certifies runs to `max_iters`
(or stops on a numerical breakdown) and ends MaxIterations.  The `detail`
field of the solution records which indicator fired.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

_SENSES = (">=", "<=", "=")
_HERM_TOL = 1e-10


class SdpStatus(str, Enum):
    OPTIMAL = "Optimal"
    INFEASIBLE = "Infeasible"
    UNBOUNDED = "Unbounded"
    MAX_ITERATIONS = "MaxIterations"


@dataclass(frozen=True)
class SolverOptions:
    tol_feas: float = 1e-8
    tol_gap: float = 1e-8
    tol_psd: float = 1e-9
    max_iters: int = 100
    # fraction of the distance to the cone boundary taken per step
    step_frac: float = 0.98

    def __post_init__(self):
        if isinstance(self.max_iters, bool) or not isinstance(self.max_iters, int):
            raise TypeError(f"max_iters must be an int, got {self.max_iters!r}")
        if self.max_iters < 0:
            raise ValueError("max_iters must be nonnegative")
        if not min(self.tol_feas, self.tol_gap, self.tol_psd) > 0:
            raise ValueError("solver tolerances must be positive")
        if not 0 < self.step_frac < 1:
            raise ValueError("step_frac must lie in (0, 1)")


def _clean_herm(mat: np.ndarray, dim: int, what: str) -> np.ndarray:
    a = np.asarray(mat, dtype=np.complex128)
    if a.shape != (dim, dim):
        raise ValueError(f"{what}: expected shape {(dim, dim)}, got {a.shape}")
    if not np.isfinite(a).all():  # complex isfinite: both parts finite
        raise ValueError(f"{what}: non-finite entries")
    a_h = a.conj().T
    scale = 1.0 + float(np.max(np.abs(a))) if a.size else 1.0
    if float(np.max(np.abs(a - a_h))) > _HERM_TOL * scale:
        raise ValueError(f"{what}: not Hermitian")
    return (a + a_h) / 2.0


@dataclass(frozen=True)
class SdpConstraint:
    """One trace-linear constraint: sum_b tr(blocks[b] X_b) + scalars.x sense rhs.

    blocks maps block index -> Hermitian coefficient matrix; absent blocks
    contribute zero.  scalars maps scalar index -> real coefficient.
    """

    blocks: dict
    scalars: dict
    sense: str
    rhs: float

    def __post_init__(self):
        if self.sense not in _SENSES:
            raise ValueError(f"sense must be one of {_SENSES}, got {self.sense!r}")
        if not math.isfinite(self.rhs):
            raise ValueError("rhs must be finite")


@dataclass(frozen=True)
class SdpProblem:
    """Block-PSD instance; see module docstring for the optimization form."""

    block_dims: tuple
    n_scalars: int
    obj_blocks: dict
    obj_scalars: dict
    constraints: tuple

    def validate(self) -> tuple[dict, tuple]:
        """Check the instance and return its coefficient matrices made Hermitian.

        Returns (objective blocks, constraint blocks): block index -> cleaned
        matrix, the second once per constraint.  `solve` assembles its
        standard form from these, so each matrix is cleaned once per solve.
        """
        dims = tuple(int(d) for d in self.block_dims)
        if any(d < 1 for d in dims):
            raise ValueError("block dimensions must be >= 1")
        if self.n_scalars < 0:
            raise ValueError("n_scalars must be >= 0")
        if len(dims) == 0 and self.n_scalars == 0:
            raise ValueError("problem has no variables")
        obj_blocks = {}
        for b, mat in self.obj_blocks.items():
            if not 0 <= b < len(dims):
                raise ValueError(f"objective references unknown block {b}")
            obj_blocks[b] = _clean_herm(mat, dims[b], f"objective block {b}")
        for j, v in self.obj_scalars.items():
            if not 0 <= j < self.n_scalars:
                raise ValueError(f"objective references unknown scalar {j}")
            if not math.isfinite(float(v)):
                raise ValueError("objective scalar coefficients must be finite")
        con_blocks = []
        for k, con in enumerate(self.constraints):
            if not isinstance(con, SdpConstraint):
                raise TypeError(f"constraint {k} is not an SdpConstraint")
            cleaned = {}
            for b, mat in con.blocks.items():
                if not 0 <= b < len(dims):
                    raise ValueError(f"constraint {k} references unknown block {b}")
                cleaned[b] = _clean_herm(mat, dims[b], f"constraint {k} block {b}")
            con_blocks.append(cleaned)
            for j, v in con.scalars.items():
                if not 0 <= j < self.n_scalars:
                    raise ValueError(f"constraint {k} references unknown scalar {j}")
                if not math.isfinite(float(v)):
                    raise ValueError(f"constraint {k}: non-finite scalar coefficient")
        return obj_blocks, tuple(con_blocks)


@dataclass
class SdpSolution:
    block_values: list
    scalar_values: np.ndarray
    objective_value: float
    status: SdpStatus
    primal_residual: float
    dual_residual: float
    duality_gap: float
    iterations: int
    detail: str = ""


@dataclass
class VerifyReport:
    max_violation: float
    min_block_eigenvalue: float
    min_scalar: float
    objective_recomputed: float
    objective_error: float
    passed: bool


# ---------------------------------------------------------------------------
# real embedding of Hermitian matrices

def _embed(h: np.ndarray) -> np.ndarray:
    """m x m Hermitian -> 2m x 2m real symmetric [[P, -Q], [Q, P]]."""
    p, q = h.real, h.imag
    return np.block([[p, -q], [q, p]])


def _unembed(x: np.ndarray) -> np.ndarray:
    """Inverse map: tr(embed(A)/2 . X) = tr(A . unembed(X)) for symmetric X."""
    m = x.shape[0] // 2
    w = (x[:m, :m] + x[m:, m:]) / 2.0 + 1j * (x[m:, :m] - x[:m, m:]) / 2.0
    return (w + w.conj().T) / 2.0


# ---------------------------------------------------------------------------
# standard-form assembly

class _Group:
    """All PSD blocks sharing one embedded dimension, stacked for batched math."""

    def __init__(self, dim: int, block_ids: list):
        self.dim = dim
        self.block_ids = block_ids
        self.A = None  # (K, B, n, n) embedded constraint coefficients
        self.C = None  # (B, n, n) embedded objective coefficients


class _StdForm:
    """Equality-form data: A(X) + G u = r, X PSD blocks, u >= 0 (scalars+slacks).

    `cleaned` is what `problem.validate()` returned.
    """

    def __init__(self, problem: SdpProblem, cleaned: tuple[dict, tuple]):
        dims = tuple(int(d) for d in problem.block_dims)
        n_blocks = len(dims)
        cons = problem.constraints
        k_total = len(cons)
        n_scalars = problem.n_scalars
        ineq = [k for k, c in enumerate(cons) if c.sense in (">=", "<=")]
        self.n_slack = len(ineq)
        self.n_u = n_scalars + self.n_slack
        self.n_scalars = n_scalars
        self.k_total = k_total
        self.dims = dims

        by_dim = {}
        for b, d in enumerate(dims):
            by_dim.setdefault(2 * d, []).append(b)
        self.groups = []
        for n_emb in sorted(by_dim):
            g = _Group(n_emb, by_dim[n_emb])
            bsz = len(g.block_ids)
            g.A = np.zeros((k_total, bsz, n_emb, n_emb))
            g.C = np.zeros((bsz, n_emb, n_emb))
            self.groups.append(g)
        self.group_of_block = {}
        self.pos_in_group = {}
        for gi, g in enumerate(self.groups):
            for p, b in enumerate(g.block_ids):
                self.group_of_block[b] = gi
                self.pos_in_group[b] = p

        obj_blocks, con_blocks = cleaned
        for b, mat in obj_blocks.items():
            g = self.groups[self.group_of_block[b]]
            g.C[self.pos_in_group[b]] = _embed(mat) / 2.0

        self.G = np.zeros((k_total, self.n_u))
        self.c_u = np.zeros(self.n_u)
        for j, v in problem.obj_scalars.items():
            self.c_u[j] = float(v)
        self.r = np.zeros(k_total)
        slack_col = n_scalars
        for k, con in enumerate(cons):
            for b, mat in con_blocks[k].items():
                g = self.groups[self.group_of_block[b]]
                g.A[k, self.pos_in_group[b]] = _embed(mat) / 2.0
            for j, v in con.scalars.items():
                self.G[k, j] = float(v)
            self.r[k] = float(con.rhs)
            if con.sense == ">=":
                self.G[k, slack_col] = -1.0
                slack_col += 1
            elif con.sense == "<=":
                self.G[k, slack_col] = 1.0
                slack_col += 1

        # row scaling: unit-norm constraint rows; primal solution is invariant
        sq = np.einsum("kbij,kbij->k", self.groups[0].A, self.groups[0].A) if self.groups else np.zeros(k_total)
        for g in self.groups[1:]:
            sq = sq + np.einsum("kbij,kbij->k", g.A, g.A)
        sq = sq + np.einsum("kj,kj->k", self.G, self.G)
        norms = np.sqrt(sq)
        self.row_scale = 1.0 / np.maximum(norms, 1e-12)
        self.row_scale[norms == 0.0] = 1.0
        for g in self.groups:
            g.A *= self.row_scale[:, None, None, None]
        self.G = self.G * self.row_scale[:, None]
        self.r = self.r * self.row_scale

        # objective normalization: unit-norm cost; restores on report
        csq = sum(float(np.sum(g.C * g.C)) for g in self.groups) + float(
            self.c_u @ self.c_u
        )
        self.obj_scale = max(math.sqrt(csq), 1e-12)
        for g in self.groups:
            g.C = g.C / self.obj_scale
        self.c_u = self.c_u / self.obj_scale

        self.cone_dim = sum(g.dim * len(g.block_ids) for g in self.groups) + self.n_u


def _sym(a):
    return (a + np.swapaxes(a, -1, -2)) / 2.0


def _max_step(xs: np.ndarray, dxs: np.ndarray) -> float:
    """Largest a with X + a dX PSD for every stacked block; inf if unbounded."""
    try:
        ell = np.linalg.cholesky(xs)
    except np.linalg.LinAlgError:
        # iterate grazed the cone boundary through rounding; force backtracking
        return 0.0
    y = np.linalg.solve(ell, dxs)
    y = np.linalg.solve(ell, np.swapaxes(y, -1, -2))
    lam = np.linalg.eigvalsh(_sym(y))
    worst = float(lam.min())
    if worst >= -1e-14:
        return math.inf
    return 1.0 / (-worst)


def _in_cone(stacks, vec) -> bool:
    """Strict interiority check: every block Cholesky-factors, vec positive."""
    for st in stacks:
        if not np.all(np.isfinite(st)):
            return False
        try:
            np.linalg.cholesky(st)
        except np.linalg.LinAlgError:
            return False
    return vec.size == 0 or (np.all(np.isfinite(vec)) and float(vec.min()) > 0.0)


def _max_step_vec(u: np.ndarray, du: np.ndarray) -> float:
    neg = du < 0
    if not np.any(neg):
        return math.inf
    return float(np.min(u[neg] / (-du[neg])))


class _Iterate:
    def __init__(self, std: _StdForm):
        self.X = []
        self.S = []
        for g in std.groups:
            bsz = len(g.block_ids)
            an = np.sqrt(np.einsum("kbij,kbij->kb", g.A, g.A))  # (K, B)
            cn = np.sqrt(np.einsum("bij,bij->b", g.C, g.C))
            if std.k_total:
                xi = np.maximum(
                    10.0,
                    g.dim * np.max((1.0 + np.abs(std.r))[:, None] / (1.0 + an), axis=0),
                )
                eta = np.maximum(10.0, np.maximum(cn, np.max(an, axis=0)))
            else:
                xi = np.full(bsz, 10.0)
                eta = np.maximum(10.0, cn)
            xi = np.maximum(xi, math.sqrt(g.dim))
            eye = np.eye(g.dim)
            self.X.append(xi[:, None, None] * eye)
            self.S.append(eta[:, None, None] * eye)
        ru = float(np.max(np.abs(std.r))) if std.k_total else 0.0
        self.u = np.full(std.n_u, max(10.0, ru))
        self.z = np.full(std.n_u, max(10.0, float(np.max(np.abs(std.c_u))) if std.n_u else 0.0))
        self.y = np.zeros(std.k_total)


def _solve_psd(m: np.ndarray, rhs: np.ndarray):
    """Cholesky solve with escalating jitter; returns None on breakdown."""
    k = m.shape[0]
    jitter = 0.0
    base = max(float(np.trace(m)) / max(k, 1), 1.0)
    for attempt in range(4):
        try:
            ell = np.linalg.cholesky(m + jitter * np.eye(k))
            w = np.linalg.solve(ell, rhs)
            return np.linalg.solve(ell.T, w)
        except np.linalg.LinAlgError:
            jitter = base * (1e-13 if attempt == 0 else jitter / base * 1e3)
    return None


def solve(problem: SdpProblem, options: SolverOptions | None = None) -> SdpSolution:
    """Solve the instance; see module docstring for the algorithm and the
    status indicators.  Never returns a silently wrong answer: any
    numerical breakdown surfaces as MaxIterations with diagnostics in
    `detail`, and residual fields always reflect the returned iterate.
    """
    opts = options or SolverOptions()
    std = _StdForm(problem, problem.validate())
    it = _Iterate(std)
    nu = std.cone_dim
    detail = "iteration cap reached"
    status = SdpStatus.MAX_ITERATIONS
    n_iter = 0

    def a_of(xs):
        out = np.zeros(std.k_total)
        for g, x in zip(std.groups, xs):
            out += np.einsum("kbij,bij->k", g.A, x)
        return out

    def residuals():
        rp = std.r - a_of(it.X) - std.G @ it.u
        rds = []
        for g, s in zip(std.groups, it.S):
            rds.append(g.C - np.einsum("k,kbij->bij", it.y, g.A) - s)
        rd_u = std.c_u - std.G.T @ it.y - it.z
        pobj = sum(float(np.einsum("bij,bij->", g.C, x)) for g, x in zip(std.groups, it.X))
        pobj += float(std.c_u @ it.u)
        dobj = float(std.r @ it.y)
        comp = sum(float(np.einsum("bij,bij->", x, s)) for x, s in zip(it.X, it.S))
        comp += float(it.u @ it.z)
        rel_p = float(np.linalg.norm(rp)) / (1.0 + float(np.linalg.norm(std.r)))
        # cost data has unit norm after objective normalization, so the
        # relative dual residual denominator 1 + |C| is exactly 2
        rel_d = math.sqrt(
            sum(float(np.sum(rd * rd)) for rd in rds) + float(rd_u @ rd_u)
        ) / 2.0
        gap = abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj))
        return rp, rds, rd_u, pobj, dobj, comp / nu, rel_p, rel_d, gap

    for n_iter in range(opts.max_iters + 1):
        rp, rds, rd_u, pobj, dobj, mu, rel_p, rel_d, gap = residuals()

        if rel_p <= opts.tol_feas and rel_d <= opts.tol_feas and gap <= opts.tol_gap:
            status, detail = SdpStatus.OPTIMAL, "converged"
            break

        cert = _infeasibility_certificate(std, it)
        if cert is not None:
            status, detail = SdpStatus.INFEASIBLE, cert
            break
        # primal-ray (unboundedness) test on the normalized iterate direction:
        # d = (X, u)/|iterate| has A(d) ~ 0 and strictly negative cost.  The
        # raw primal residual is unusable here (catastrophic cancellation once
        # the iterate diverges), so everything is scaled by the cone norm.
        cone_norm = sum(float(np.trace(x.sum(axis=0))) for x in it.X) + float(
            np.sum(it.u)
        )
        if (
            cone_norm > 1e9 * (1.0 + float(np.linalg.norm(std.r)))
            and pobj / cone_norm <= -1e-10
            and float(np.linalg.norm(rp)) / cone_norm <= 1e-9
        ):
            status = SdpStatus.UNBOUNDED
            detail = (
                "objective diverging along a primal feasible ray "
                f"(iterate norm {cone_norm:.2e}, objective {pobj:.2e})"
            )
            break

        if n_iter == opts.max_iters:
            break

        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            step = _ipm_step(std, it, rp, rds, rd_u, mu, opts)
        if step is not None:
            status = SdpStatus.MAX_ITERATIONS
            detail = f"numerical breakdown: {step}"
            break

    return _package(problem, std, it, status, n_iter, rel_p, rel_d, gap, detail, opts)


def _infeasibility_certificate(std: _StdForm, it: _Iterate):
    """Farkas ray check on the normalized dual iterate.

    If y with r.y > 0 satisfies sum_k y_k A_kb <= 0 (PSD order) and G^T y <= 0
    then no primal feasible point exists; tolerances are relative to |y|_1
    (rows are unit-normalized at assembly).
    """
    ry = float(std.r @ it.y)
    if ry <= 1e-8:
        return None
    yn = it.y / ry
    tol = 1e-9 * max(1.0, float(np.sum(np.abs(yn))))
    worst = -math.inf
    for g in std.groups:
        zb = np.einsum("k,kbij->bij", yn, g.A)
        worst = max(worst, float(np.linalg.eigvalsh(_sym(zb)).max()))
    gv = float(np.max(std.G.T @ yn)) if std.n_u else -math.inf
    if max(worst, gv) <= tol:
        return (
            "Farkas dual ray certificate: with y normalized to r.y = 1, "
            f"max eig of adjoint {worst:.2e} and max scalar column {gv:.2e} "
            f"are within {tol:.1e} of the nonpositive cone"
        )
    return None


def _ipm_step(std, it, rp, rds, rd_u, mu, opts):
    """One Mehrotra predictor-corrector step; returns an error string on breakdown."""
    try:
        sinvs, ms = [], np.zeros((std.k_total, std.k_total))
        for g, s in zip(std.groups, it.S):
            ell = np.linalg.cholesky(s)
            linv = np.linalg.solve(ell, np.broadcast_to(np.eye(g.dim), s.shape).copy())
            sinvs.append(_sym(np.swapaxes(linv, -1, -2) @ linv))
        for g, x, sinv in zip(std.groups, it.X, sinvs):
            t = np.einsum("bpq,kbqr,brs->kbps", x, g.A, sinv, optimize=True)
            ms += np.einsum("kbps,lbsp->kl", t, g.A, optimize=True)
        d = it.u / it.z
        ms += (std.G * d) @ std.G.T
        ms = (ms + ms.T) / 2.0
    except np.linalg.LinAlgError:
        return "cone block factorization failed"

    # Complementarity right-hand sides are kept as (sigma*mu, correction)
    # rather than as R_c = sigma*mu*I - X S - correction: forming X S and
    # multiplying back by S^-1 rebuilds -X with an error of order
    # cond(S)*eps*|X|, which swamps X's small eigenvalues near convergence
    # and stalls the primal step.  The -X term is therefore used exactly.
    def x_part(x, sinv, sigma_mu, corr, ds):
        """sigma*mu*S^-1 - X - (corr + X dS) S^-1 for one block stack."""
        return sigma_mu * sinv - x - (corr + x @ ds) @ sinv

    def u_part(sigma_mu, corr_u, dz):
        return sigma_mu / it.z - it.u - (corr_u + it.u * dz) / it.z

    def directions(sigma_mu, corrs, corr_u):
        h = rp.copy()
        for g, x, sinv, corr, rd in zip(std.groups, it.X, sinvs, corrs, rds):
            h -= np.einsum("kbij,bji->k", g.A, x_part(x, sinv, sigma_mu, corr, rd))
        h -= std.G @ u_part(sigma_mu, corr_u, rd_u)
        dy = _solve_psd(ms, h)
        if dy is None:
            return None
        dss, dxs = [], []
        for g, x, sinv, corr, rd in zip(std.groups, it.X, sinvs, corrs, rds):
            ds = rd - np.einsum("k,kbij->bij", dy, g.A)
            dss.append(ds)
            dxs.append(_sym(x_part(x, sinv, sigma_mu, corr, ds)))
        dz = rd_u - std.G.T @ dy
        du = u_part(sigma_mu, corr_u, dz)
        return dy, dxs, dss, du, dz

    aff = directions(0.0, [0.0] * len(it.X), 0.0)
    if aff is None:
        return "Schur complement factorization failed"
    dy_a, dxs_a, dss_a, du_a, dz_a = aff

    ap = min(1.0, *[_max_step(x, dx) for x, dx in zip(it.X, dxs_a)], _max_step_vec(it.u, du_a))
    ad = min(1.0, *[_max_step(s, ds) for s, ds in zip(it.S, dss_a)], _max_step_vec(it.z, dz_a))
    comp_aff = sum(
        float(np.einsum("bij,bij->", x + ap * dx, s + ad * ds))
        for x, dx, s, ds in zip(it.X, dxs_a, it.S, dss_a)
    ) + float((it.u + ap * du_a) @ (it.z + ad * dz_a))
    mu_aff = comp_aff / std.cone_dim
    sigma = min(1.0, max((mu_aff / mu) ** 3, 1e-10)) if mu > 0 else 0.1

    comb = directions(sigma * mu, [dx @ ds for dx, ds in zip(dxs_a, dss_a)], du_a * dz_a)
    if comb is None:
        return "Schur complement factorization failed"
    dy, dxs, dss, du, dz = comb

    tau = opts.step_frac
    ap = min(1.0, *[tau * _max_step(x, dx) for x, dx in zip(it.X, dxs)], tau * _max_step_vec(it.u, du))
    ad = min(1.0, *[tau * _max_step(s, ds) for s, ds in zip(it.S, dss)], tau * _max_step_vec(it.z, dz))
    if not (math.isfinite(ap) and math.isfinite(ad)) or ap <= 0 or ad <= 0:
        return "degenerate step length"

    # rounding in the boundary-step eigensolves can push the new iterate just
    # outside the cone on ill-conditioned instances; back off until interior
    for _ in range(30):
        nx = [_sym(x + ap * dx) for x, dx in zip(it.X, dxs)]
        ns = [_sym(s + ad * ds) for s, ds in zip(it.S, dss)]
        nu = it.u + ap * du
        nz = it.z + ad * dz
        if _in_cone(nx, nu) and _in_cone(ns, nz):
            it.X, it.S, it.u, it.z = nx, ns, nu, nz
            it.y = it.y + ad * dy
            return None
        ap *= 0.5
        ad *= 0.5
    return "step could not maintain cone interiority"


def _package(problem, std, it, status, n_iter, rel_p, rel_d, gap, detail, opts):
    blocks = [None] * len(std.dims)
    for g, xs in zip(std.groups, it.X):
        for pos, b in enumerate(g.block_ids):
            blocks[b] = _unembed(xs[pos])
    scal = it.u[: std.n_scalars].copy()
    obj = 0.0
    for b, mat in problem.obj_blocks.items():
        obj += float(np.real(np.trace(np.asarray(mat, dtype=np.complex128) @ blocks[b])))
    for j, v in problem.obj_scalars.items():
        obj += float(v) * float(scal[j])
    if status == SdpStatus.OPTIMAL:
        worst = min(
            (float(np.linalg.eigvalsh(w).min()) for w in blocks), default=0.0
        )
        if worst < -opts.tol_psd:
            status = SdpStatus.MAX_ITERATIONS
            detail = f"returned block eigenvalue {worst:.2e} below -tol_psd"
    return SdpSolution(
        block_values=blocks,
        scalar_values=scal,
        objective_value=obj,
        status=status,
        primal_residual=rel_p,
        dual_residual=rel_d,
        duality_gap=gap,
        iterations=n_iter,
        detail=detail,
    )


# ---------------------------------------------------------------------------
# independent verification and instance dump/load

def verify(problem: SdpProblem, solution: SdpSolution, tol: float = 1e-7) -> VerifyReport:
    """Recompute residuals from the problem data alone (no solver internals)."""
    problem.validate()
    dims = problem.block_dims
    blocks = [np.asarray(w, dtype=np.complex128) for w in solution.block_values]
    if len(blocks) != len(dims) or any(
        w.shape != (d, d) for w, d in zip(blocks, dims)
    ):
        raise ValueError("solution block shapes do not match the problem")
    scal = np.asarray(solution.scalar_values, dtype=float)
    if scal.shape != (problem.n_scalars,):
        raise ValueError("solution scalar count does not match the problem")

    worst = 0.0
    for con in problem.constraints:
        lhs = sum(
            float(np.real(np.trace(np.asarray(m, dtype=np.complex128) @ blocks[b])))
            for b, m in con.blocks.items()
        )
        lhs += sum(float(v) * float(scal[j]) for j, v in con.scalars.items())
        if con.sense == ">=":
            worst = max(worst, con.rhs - lhs)
        elif con.sense == "<=":
            worst = max(worst, lhs - con.rhs)
        else:
            worst = max(worst, abs(lhs - con.rhs))

    min_eig = min(
        (float(np.linalg.eigvalsh(w).min()) for w in blocks), default=math.inf
    )
    min_scal = float(scal.min()) if scal.size else math.inf
    obj = sum(
        float(np.real(np.trace(np.asarray(m, dtype=np.complex128) @ blocks[b])))
        for b, m in problem.obj_blocks.items()
    )
    obj += sum(float(v) * float(scal[j]) for j, v in problem.obj_scalars.items())
    err = abs(obj - solution.objective_value)
    passed = (
        worst <= tol
        and min_eig >= -tol
        and (not scal.size or min_scal >= -tol)
        and err <= tol * (1.0 + abs(obj))
    )
    return VerifyReport(worst, min_eig, min_scal, obj, err, passed)


def _mat_to_json(m) -> dict:
    a = np.asarray(m, dtype=np.complex128)
    return {"re": a.real.tolist(), "im": a.imag.tolist()}


def _mat_from_json(d) -> np.ndarray:
    return np.asarray(d["re"], dtype=float) + 1j * np.asarray(d["im"], dtype=float)


def dump_problem(problem: SdpProblem) -> str:
    """Structured-text dump for cross-checking against external solvers."""
    problem.validate()
    doc = {
        "block_dims": list(problem.block_dims),
        "n_scalars": problem.n_scalars,
        "objective": {
            "blocks": {str(b): _mat_to_json(m) for b, m in problem.obj_blocks.items()},
            "scalars": {str(j): float(v) for j, v in problem.obj_scalars.items()},
        },
        "constraints": [
            {
                "blocks": {str(b): _mat_to_json(m) for b, m in c.blocks.items()},
                "scalars": {str(j): float(v) for j, v in c.scalars.items()},
                "sense": c.sense,
                "rhs": float(c.rhs),
            }
            for c in problem.constraints
        ],
    }
    return json.dumps(doc, indent=1)


def load_problem(text: str) -> SdpProblem:
    doc = json.loads(text)
    cons = tuple(
        SdpConstraint(
            blocks={int(b): _mat_from_json(m) for b, m in c["blocks"].items()},
            scalars={int(j): float(v) for j, v in c["scalars"].items()},
            sense=c["sense"],
            rhs=float(c["rhs"]),
        )
        for c in doc["constraints"]
    )
    prob = SdpProblem(
        block_dims=tuple(int(d) for d in doc["block_dims"]),
        n_scalars=int(doc["n_scalars"]),
        obj_blocks={int(b): _mat_from_json(m) for b, m in doc["objective"]["blocks"].items()},
        obj_scalars={int(j): float(v) for j, v in doc["objective"]["scalars"].items()},
        constraints=cons,
    )
    prob.validate()
    return prob
