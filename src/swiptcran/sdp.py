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

The solver is bound by per-call overhead, not by flops, so an iteration makes
as few NumPy calls as it can, and one iteration serves a batch of problems.
`solve_batch` runs problems of one structure (block dimensions, scalar
count, constraint senses) over a leading problem axis, `BATCH_SIZE` at a
time, and `solve` is a batch of one; there is no other code path.  Each
problem keeps its own tests (convergence, Farkas certificate, primal ray,
iteration cap, Schur jitter retry, interiority back-off, the PSD check of
the returned blocks) and leaves the batch when it ends.  Every batched call
computes a problem's entries exactly as a batch of one does: LAPACK and BLAS
work matrix by matrix, the einsum calls keep their inner loops, and the
per-problem scalars are Python floats.  So each result is bit-identical to
solving that problem alone.  The one exception found, einsum's
contraction over a group of a single block, is made problem by problem.  The blocks of one embedded dimension form a
group, and X and S of a group are stacked: the interiority test factors the
stack (X, S) once, and that Cholesky factor gives S^-1 and all four
step-length tests of the next iteration.  The Schur matrix is factored once
per iteration and serves the predictor and the corrector.  No contraction is
planned at run time: the Schur contraction is written as the matmuls einsum's
planner picks for it, and the other einsum calls run unplanned.  These forms
are fixed on purpose.  A contraction reordered, even into one equal in exact
arithmetic, rounds differently and moves the iterates.

Statuses (homogeneous self-dual embedding is NOT used): every status other
than Optimal is either certified or MaxIterations.  Infeasible comes only
from a Farkas ray certificate extracted from the normalized dual iterate,
Unbounded only from the mirrored primal-ray test, both checked every
iteration.  A solve that neither converges nor certifies runs to `max_iters`
(or stops on a numerical breakdown) and ends MaxIterations.  The `detail`
field of the solution records which indicator fired.
"""

from __future__ import annotations

import functools
import itertools
import json
import marshal
import math
import operator
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
        standard form from these.  An array object that several blocks share
        (`build_sdp` passes one per row to all of its blocks) is cleaned once
        per block dimension, and those blocks share the cleaned matrix; an
        error names the first block where the array appears.
        """
        dims = tuple(int(d) for d in self.block_dims)
        if any(d < 1 for d in dims):
            raise ValueError("block dimensions must be >= 1")
        if self.n_scalars < 0:
            raise ValueError("n_scalars must be >= 0")
        if len(dims) == 0 and self.n_scalars == 0:
            raise ValueError("problem has no variables")
        # (id, dim) -> cleaned; every keyed array lives in self while this runs
        seen = {}

        def clean(mat, b, what):
            key = (id(mat), dims[b])
            if key not in seen:
                seen[key] = _clean_herm(mat, dims[b], what)
            return seen[key]

        obj_blocks = {}
        for b, mat in self.obj_blocks.items():
            if not 0 <= b < len(dims):
                raise ValueError(f"objective references unknown block {b}")
            obj_blocks[b] = clean(mat, b, f"objective block {b}")
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
                cleaned[b] = clean(mat, b, f"constraint {k} block {b}")
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
    m = h.shape[0]
    out = np.empty((2 * m, 2 * m))
    out[:m, :m] = out[m:, m:] = h.real
    out[:m, m:] = -h.imag
    out[m:, :m] = h.imag
    return out


def _unembed(x: np.ndarray) -> np.ndarray:
    """Inverse map: tr(embed(A)/2 . X) = tr(A . unembed(X)) for symmetric X."""
    m = x.shape[0] // 2
    w = (x[:m, :m] + x[m:, m:]) / 2.0 + 1j * (x[m:, :m] - x[:m, m:]) / 2.0
    return (w + w.conj().T) / 2.0


# ---------------------------------------------------------------------------
# standard-form assembly

def _layout(problem: SdpProblem) -> tuple[list, dict]:
    """The PSD blocks grouped by embedded dimension, ascending.

    Returns the groups as (embedded dimension, block ids) and each block's
    (group, position in group).  Problems of one structure share a layout.
    """
    by_dim = {}
    for b, d in enumerate(problem.block_dims):
        by_dim.setdefault(2 * int(d), []).append(b)
    groups = [(n_emb, by_dim[n_emb]) for n_emb in sorted(by_dim)]
    where = {b: (g, pos) for g, (_, ids) in enumerate(groups) for pos, b in enumerate(ids)}
    return groups, where


def _sym(a):
    return (a + a.swapaxes(-1, -2)) / 2.0


def _sum(terms):
    """`sum(terms)` without its leading `0 +`, which changes only a -0.0
    total; the terms summed here (einsum reductions, sums of squares, traces
    of interior iterates) are never -0.0."""
    terms = list(terms)
    return functools.reduce(operator.add, terms) if terms else 0.0


def _dot(a, b):
    """Row-wise a_p . b_p of two (P, n) stacks, by the same BLAS dot as a 1-D `a @ b`."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _mv(m, v):
    """Row-wise m_p @ v_p of a (P, k, n) and a (P, n) stack, by the same BLAS gemv as 2-D @ 1-D."""
    return (m @ v[:, :, None])[:, :, 0]


def _adjoint_dot(a, m):
    """sum_bij A[p,k,b,i,j] M[p,b,j,i] for each problem p and row k."""
    if a.shape[2] == 1:
        # with one block in the group, einsum's summation order over a
        # problem axis depends on the batch size; contract each problem on
        # its own so that it gets the bits it gets when solved alone
        return np.stack([np.einsum("kbij,bji->k", ai, mi) for ai, mi in zip(a, m)])
    return np.einsum("pkbij,pbji->pk", a, m)


def _max_steps(chol: np.ndarray, d: np.ndarray) -> list:
    """Per problem, the largest a with X + a dX PSD and with S + a dS PSD; inf if unbounded.

    `chol` holds the Cholesky factors of one group's stacks (X, S) and `d`
    the matching stacks (dX, dS); the two halves share one chain of calls.
    """
    y = np.linalg.solve(chol, d)
    y = np.linalg.solve(chol, y.swapaxes(-1, -2))
    lam = np.linalg.eigvalsh(_sym(y))
    worst = lam.reshape(len(lam), 2, -1).min(axis=2).tolist()
    return [[math.inf if w >= -1e-14 else 1.0 / (-w) for w in pair] for pair in worst]


def _max_step_vec(v: np.ndarray, dv: np.ndarray) -> list:
    """Per row of v = (u, z), the largest a with v + a dv >= 0 on each half; inf if unbounded."""
    ratio = np.where(dv < 0, v / -dv, np.inf)
    return ratio.reshape(len(v), 2, -1).min(axis=2, initial=np.inf).tolist()


def _cone_factors(stacks, vecs):
    """Strict interiority check of a whole batch: the Cholesky factors of
    every block stack if each factors and every entry of `vecs` is positive,
    else None."""
    factors = []
    for st in stacks:
        if not np.isfinite(st).all():
            return None
        try:
            factors.append(np.linalg.cholesky(st))
        except np.linalg.LinAlgError:
            return None
    for vec in vecs:
        # min and max pass NaN through, so this also rejects NaN and inf
        if vec.size and not (float(vec.min()) > 0.0 and float(vec.max()) < math.inf):
            return None
    return factors


def _factor_one(m: np.ndarray):
    """Cholesky factor with escalating jitter; returns None on breakdown."""
    k = m.shape[0]
    jitter = 0.0
    base = max(float(np.trace(m)) / max(k, 1), 1.0)
    for attempt in range(4):
        try:
            return np.linalg.cholesky(m + jitter * np.eye(k))
        except np.linalg.LinAlgError:
            jitter = base * (1e-13 if attempt == 0 else jitter / base * 1e3)
    return None


def _factor_psd(m: np.ndarray):
    """Cholesky factors of a stack, each retried with escalating jitter if it
    fails.  Returns (factors, {row: error}); a row that broke down gets an
    identity placeholder."""
    try:
        # + 0.0 clears negative zeros, as the zero jitter of `_factor_one` does
        return np.linalg.cholesky(m + 0.0), {}
    except np.linalg.LinAlgError:
        pass
    factors = [_factor_one(mi) for mi in m]
    broken = {i: "Schur complement factorization failed" for i, f in enumerate(factors) if f is None}
    eye = np.eye(m.shape[-1])
    return np.stack([eye if f is None else f for f in factors]), broken


class _Batch:
    """Standard forms of same-structure problems and their primal-dual
    iterates, stacked on a leading problem axis.

    Row p holds problem p in equality form: A(X) + G u = r, X PSD blocks,
    u >= 0 (scalars, then one slack per inequality).  `groups` is the shared
    layout from `_layout`, and `A[g]`, `C[g]`, `X[g]`, `S[g]` are group g's
    stacks.  `ids` maps each row back to its problem.  `chol[g]` holds the
    Cholesky factors of group g's stacks (X, S).
    """

    def __init__(self, problems: list, cleaned: list):
        """`cleaned[p]` is what `problems[p].validate()` returned."""
        first = problems[0]
        self.groups, where = _layout(first)
        self.k_total = k_total = len(first.constraints)
        self.n_u = first.n_scalars + sum(c.sense != "=" for c in first.constraints)
        self.cone_dim = sum(dim * len(ids) for dim, ids in self.groups) + self.n_u
        n = len(problems)
        self.A = [np.zeros((n, k_total, len(ids), dim, dim)) for dim, ids in self.groups]
        self.C = [np.zeros((n, len(ids), dim, dim)) for dim, ids in self.groups]
        self.G = np.zeros((n, k_total, self.n_u))
        self.c_u = np.zeros((n, self.n_u))
        self.r = np.zeros((n, k_total))
        # id -> embedded; blocks that share a cleaned matrix share its embedding
        embedded = {}

        def embed(mat):
            if id(mat) not in embedded:
                embedded[id(mat)] = _embed(mat) / 2.0
            return embedded[id(mat)]

        for p, (problem, (obj_blocks, con_blocks)) in enumerate(zip(problems, cleaned)):
            for b, mat in obj_blocks.items():
                g, pos = where[b]
                self.C[g][p, pos] = embed(mat)
            for j, v in problem.obj_scalars.items():
                self.c_u[p, j] = float(v)
            slack_col = problem.n_scalars
            for k, con in enumerate(problem.constraints):
                for b, mat in con_blocks[k].items():
                    g, pos = where[b]
                    self.A[g][p, k, pos] = embed(mat)
                for j, v in con.scalars.items():
                    self.G[p, k, j] = float(v)
                self.r[p, k] = float(con.rhs)
                if con.sense != "=":
                    self.G[p, k, slack_col] = -1.0 if con.sense == ">=" else 1.0
                    slack_col += 1
            self._normalize(p)
        self.r_norm = np.array([np.linalg.norm(r) for r in self.r])
        self.ids = np.arange(n)

        self.X, self.S = [], []
        for (dim, ids), a, c in zip(self.groups, self.A, self.C):
            an = np.sqrt(np.einsum("pkbij,pkbij->pkb", a, a))  # (P, K, B)
            cn = np.sqrt(np.einsum("pbij,pbij->pb", c, c))
            if k_total:
                xi = np.maximum(
                    10.0,
                    dim * ((1.0 + np.abs(self.r))[:, :, None] / (1.0 + an)).max(axis=1),
                )
                eta = np.maximum(10.0, np.maximum(cn, an.max(axis=1)))
            else:
                xi = np.full((n, len(ids)), 10.0)
                eta = np.maximum(10.0, cn)
            xi = np.maximum(xi, math.sqrt(dim))
            eye = np.eye(dim)
            self.X.append(xi[:, :, None, None] * eye)
            self.S.append(eta[:, :, None, None] * eye)
        ru = np.abs(self.r).max(axis=1) if k_total else np.zeros(n)
        cu = np.abs(self.c_u).max(axis=1) if self.n_u else np.zeros(n)
        ones = np.ones((n, self.n_u))
        self.u = ones * np.maximum(10.0, ru)[:, None]
        self.z = ones * np.maximum(10.0, cu)[:, None]
        self.y = np.zeros((n, k_total))
        self.chol = [np.linalg.cholesky(np.concatenate((x, s), axis=1)) for x, s in zip(self.X, self.S)]

    def _normalize(self, p: int) -> None:
        """Scale row p in place.  Each expression runs on that problem's own
        contiguous views, so it rounds as it does for a batch of one."""
        a, c = [A[p] for A in self.A], [C[p] for C in self.C]
        # row scaling: unit-norm constraint rows; primal solution is invariant
        sq = _sum(np.einsum("kbij,kbij->k", ag, ag) for ag in a)
        norms = np.sqrt(sq + np.einsum("kj,kj->k", self.G[p], self.G[p]))
        row_scale = 1.0 / np.maximum(norms, 1e-12)
        row_scale[norms == 0.0] = 1.0
        for ag in a:
            ag *= row_scale[:, None, None, None]
        self.G[p] *= row_scale[:, None]
        self.r[p] *= row_scale

        # objective normalization: unit-norm cost; restores on report
        csq = sum(float(np.sum(cg * cg)) for cg in c) + float(self.c_u[p] @ self.c_u[p])
        obj_scale = max(math.sqrt(csq), 1e-12)
        for cg in c:
            cg /= obj_scale
        self.c_u[p] /= obj_scale

    def keep(self, rows: np.ndarray) -> None:
        """Drop every row not selected by the boolean mask `rows`."""
        for name in ("A", "C", "X", "S", "chol"):
            setattr(self, name, [a[rows] for a in getattr(self, name)])
        for name in ("G", "c_u", "r", "r_norm", "u", "z", "y", "ids"):
            setattr(self, name, getattr(self, name)[rows])


# Problems per batched IPM run.  On the 150 stage solves of one `longterm`
# trial (3 RRHs, 3 ITs, 7 ETs; 2 shared CPUs, numpy 2.4, one BLAS thread),
# batches of 1, 8, 16, 25 and 50 took about 20-23, 10, 7-8, 7.5-8 and 7 ms
# per solve and raised peak RSS by about 0.7, 1.1, 1.7, 2.3 and 4.0 MB:
# 16 is the knee, and 50 would spend most of a 10% memory budget.
BATCH_SIZE = 16


def solve(problem: SdpProblem, options: SolverOptions | None = None) -> SdpSolution:
    """Solve one instance: `solve_batch` on a batch of one."""
    return solve_batch([problem], options)[0]


def solve_key(problem: SdpProblem, options: SolverOptions | None = None) -> bytes:
    """Bytes that pin `solve(problem, options)`: equal keys, equal solutions.

    The key spells out the options, the block dimensions, the scalar count,
    each coefficient array's block index, dtype, shape and raw bytes, and
    each constraint's scalar coefficients, sense and rhs.  Compared whole,
    as a dict key is, a match is exact; two spellings of one value (a
    float64 and a complex128 array) only cost a second solve.
    """

    def arrays(blocks):
        out = []
        for b, mat in blocks.items():
            a = np.asarray(mat)
            if a.dtype.hasobject:  # the raw bytes of an object array are pointers
                a = a.astype(np.complex128)
            out.append((int(b), a.dtype.str, a.shape, a.tobytes()))
        return out

    def scalars(coeffs):
        return [(int(j), float(v)) for j, v in coeffs.items()]

    content = [
        repr(options or SolverOptions()),
        tuple(int(d) for d in problem.block_dims),
        int(problem.n_scalars),
        arrays(problem.obj_blocks),
        scalars(problem.obj_scalars),
    ]
    content += [(c.sense, float(c.rhs), scalars(c.scalars), arrays(c.blocks)) for c in problem.constraints]
    # marshal writes floats as their 8 bytes; format 2 has no back-references,
    # so the bytes depend on the content alone, not on which objects it shares
    return marshal.dumps(content, 2)


def _structure(problem: SdpProblem) -> tuple:
    return (
        tuple(int(d) for d in problem.block_dims),
        problem.n_scalars,
        tuple(c.sense for c in problem.constraints),
    )


def solve_batch(problems, options: SolverOptions | None = None) -> list[SdpSolution]:
    """Solve instances of one structure together; see the module docstring.

    Every problem must have the same `block_dims`, `n_scalars` and
    constraint senses.  `problems` is read `BATCH_SIZE` at a time (an
    iterator is never held whole), each group runs through one IPM over a
    leading problem axis, and each result equals what `solve` returns for
    that problem alone.  Never returns a silently wrong answer: any
    numerical breakdown surfaces as MaxIterations with diagnostics in
    `detail`, and residual fields always reflect the returned iterate.
    """
    opts = options or SolverOptions()
    todo = iter(problems)
    out, shape = [], None
    while chunk := list(itertools.islice(todo, BATCH_SIZE)):
        cleaned = [p.validate() for p in chunk]
        shape = shape or _structure(chunk[0])
        if any(_structure(p) != shape for p in chunk):
            raise ValueError("a batch needs one block_dims, n_scalars and constraint senses")
        out += _solve_chunk(chunk, cleaned, opts)
    return out


def _residuals(bt: _Batch):
    """Residuals of every row, and per row (pobj, mu, rel_p, rel_d, gap) as Python floats."""
    a = _sum(np.einsum("pkbij,pbij->pk", A, x) for A, x in zip(bt.A, bt.X))
    rp = bt.r - a - _mv(bt.G, bt.u)
    rds = [C - np.einsum("pk,pkbij->pbij", bt.y, A) - s for A, C, s in zip(bt.A, bt.C, bt.S)]
    rd_u = bt.c_u - _mv(bt.G.swapaxes(1, 2), bt.y) - bt.z
    sums = (
        _sum(np.einsum("pbij,pbij->p", C, x) for C, x in zip(bt.C, bt.X)) + _dot(bt.c_u, bt.u),
        _dot(bt.r, bt.y),
        _sum(np.einsum("pbij,pbij->p", x, s) for x, s in zip(bt.X, bt.S)) + _dot(bt.u, bt.z),
        _dot(rp, rp),
        _sum((rd * rd).reshape(len(rd), -1).sum(axis=1) for rd in rds) + _dot(rd_u, rd_u),
        bt.r_norm,
    )
    stats = [
        # cost data has unit norm after objective normalization, so the
        # relative dual residual denominator 1 + |C| is exactly 2
        (pobj, comp / bt.cone_dim, math.sqrt(rp2) / (1.0 + r_norm), math.sqrt(rd2) / 2.0,
         abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj)))
        for pobj, dobj, comp, rp2, rd2, r_norm in zip(*(v.tolist() for v in sums))
    ]
    return rp, rds, rd_u, stats


def _solve_chunk(problems, cleaned, opts):
    bt = _Batch(problems, cleaned)
    results = [None] * len(problems)

    def finish(ends, n_iter, rp, rds, rd_u, stats):
        """Package the rows in `ends` ({row: (status, detail)}) and drop them
        from the batch; returns this iteration's residuals of the rows left,
        or None when no row is left."""
        for i, (status, detail) in ends.items():
            p = bt.ids[i]
            results[p] = _package(
                problems[p], bt.groups, [x[i] for x in bt.X], bt.u[i], status, n_iter,
                *stats[i][2:], detail, opts,
            )
        if len(ends) == len(stats):
            return None
        rows = np.ones(len(stats), dtype=bool)
        rows[list(ends)] = False
        bt.keep(rows)
        return rp[rows], [rd[rows] for rd in rds], rd_u[rows], [st for st, k in zip(stats, rows) if k]

    for n_iter in range(opts.max_iters + 1):
        rp, rds, rd_u, stats = _residuals(bt)
        ends = {}
        for i, (_, _, rel_p, rel_d, gap) in enumerate(stats):
            if rel_p <= opts.tol_feas and rel_d <= opts.tol_feas and gap <= opts.tol_gap:
                ends[i] = (SdpStatus.OPTIMAL, "converged")
        for i, cert in _infeasibility_certificates(bt, ends).items():
            ends[i] = (SdpStatus.INFEASIBLE, cert)
        # primal-ray (unboundedness) test on the normalized iterate direction:
        # d = (X, u)/|iterate| has A(d) ~ 0 and strictly negative cost.  The
        # raw primal residual is unusable here (catastrophic cancellation once
        # the iterate diverges), so everything is scaled by the cone norm.
        cone = _sum(x.sum(axis=1).trace(axis1=1, axis2=2) for x in bt.X) + bt.u.sum(axis=1)
        for i, (cone_norm, r_norm) in enumerate(zip(cone.tolist(), bt.r_norm.tolist())):
            pobj = stats[i][0]
            if (
                cone_norm > 1e9 * (1.0 + r_norm)
                and i not in ends
                and pobj / cone_norm <= -1e-10
                and float(np.linalg.norm(rp[i])) / cone_norm <= 1e-9
            ):
                ends[i] = (
                    SdpStatus.UNBOUNDED,
                    "objective diverging along a primal feasible ray "
                    f"(iterate norm {cone_norm:.2e}, objective {pobj:.2e})",
                )
        if n_iter == opts.max_iters:
            for i in range(len(stats)):
                ends.setdefault(i, (SdpStatus.MAX_ITERATIONS, "iteration cap reached"))
        if ends:
            left = finish(ends, n_iter, rp, rds, rd_u, stats)
            if left is None:
                break
            rp, rds, rd_u, stats = left

        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            broken = _ipm_step(bt, rp, rds, rd_u, [st[1] for st in stats], opts)
        if broken:
            ends = {i: (SdpStatus.MAX_ITERATIONS, f"numerical breakdown: {msg}") for i, msg in broken.items()}
            if finish(ends, n_iter, rp, rds, rd_u, stats) is None:
                break
    return results


def _infeasibility_certificates(bt: _Batch, skip) -> dict:
    """Farkas ray check on the normalized dual iterate of each row not in `skip`.

    If y with r.y > 0 satisfies sum_k y_k A_kb <= 0 (PSD order) and G^T y <= 0
    then no primal feasible point exists; tolerances are relative to |y|_1
    (rows are unit-normalized at assembly).  Returns {row: certificate}.
    """
    ry = _dot(bt.r, bt.y)
    rows = [i for i, v in enumerate(ry.tolist()) if v > 1e-8 and i not in skip]
    if not rows:
        return {}
    sel = slice(None) if len(rows) == len(ry) else rows
    yn = bt.y[sel] / ry[sel, None]
    worst = [-math.inf] * len(rows)
    for A in bt.A:
        zb = np.einsum("pk,pkbij->pbij", yn, A[sel])
        top = np.linalg.eigvalsh(_sym(zb)).reshape(len(rows), -1).max(axis=1).tolist()
        worst = [max(w, t) for w, t in zip(worst, top)]
    if bt.n_u:
        gvs = _mv(bt.G[sel].swapaxes(1, 2), yn).max(axis=1).tolist()
    else:
        gvs = [-math.inf] * len(rows)
    return {
        i: (
            "Farkas dual ray certificate: with y normalized to r.y = 1, "
            f"max eig of adjoint {w:.2e} and max scalar column {gv:.2e} "
            f"are within {tol:.1e} of the nonpositive cone"
        )
        for i, w, gv, tol in zip(rows, worst, gvs, (1e-9 * t for t in np.abs(yn).sum(axis=1).tolist()))
        if max(w, gv) <= tol
    }


def _ipm_step(bt: _Batch, rp, rds, rd_u, mu: list, opts) -> dict:
    """One Mehrotra predictor-corrector step for every problem of the batch.

    Returns {row: error} for the problems that broke down; those keep their
    iterate.
    """
    k_total = bt.k_total
    n = len(mu)
    sinvs, ms = [], np.zeros((n, k_total, k_total))
    for A, x, chol in zip(bt.A, bt.X, bt.chol):
        chol_s = chol[:, x.shape[1]:]
        linv = np.linalg.solve(chol_s, np.eye(x.shape[-1]))
        sinv = _sym(linv.swapaxes(-1, -2) @ linv)
        sinvs.append(sinv)
        if k_total:
            # einsum "bpq,kbqr,brs,lbsp->kl" in its planner's order; do not reorder
            t = x[:, None] @ A @ sinv[:, None]
            ms += (A.reshape(n, k_total, -1) @ t.transpose(0, 2, 4, 3, 1).reshape(n, -1, k_total)).swapaxes(1, 2)
    d = bt.u / bt.z
    ms += (bt.G * d[:, None, :]) @ bt.G.swapaxes(1, 2)
    ms = (ms + ms.swapaxes(1, 2)) / 2.0
    ms_chol, broken = _factor_psd(ms)
    ms_chol_t = ms_chol.swapaxes(1, 2)

    # Complementarity right-hand sides are kept as (sigma*mu, correction)
    # rather than as R_c = sigma*mu*I - X S - correction: forming X S and
    # multiplying back by S^-1 rebuilds -X with an error of order
    # cond(S)*eps*|X|, which swamps X's small eigenvalues near convergence
    # and stalls the primal step.  The -X term is therefore used exactly.
    def x_part(x, sinv, sigma_mu, corr, ds):
        """sigma*mu*S^-1 - X - (corr + X dS) S^-1 for one group's stacks."""
        return sigma_mu * sinv - x - (corr + x @ ds) @ sinv

    def u_part(sigma_mu, corr_u, dz):
        return sigma_mu / bt.z - bt.u - (corr_u + bt.u * dz) / bt.z

    def directions(smu_x, smu_u, corrs, corr_u):
        """`smu_x` and `smu_u` hold sigma*mu shaped for the blocks and the scalars."""
        h = rp.copy()
        for A, x, sinv, corr, rd in zip(bt.A, bt.X, sinvs, corrs, rds):
            h -= _adjoint_dot(A, x_part(x, sinv, smu_x, corr, rd))
        h -= _mv(bt.G, u_part(smu_u, corr_u, rd_u))
        dy = np.linalg.solve(ms_chol_t, np.linalg.solve(ms_chol, h[:, :, None]))[:, :, 0]
        dss, dxs = [], []
        for A, x, sinv, corr, rd in zip(bt.A, bt.X, sinvs, corrs, rds):
            ds = rd - np.einsum("pk,pkbij->pbij", dy, A)
            dss.append(ds)
            dxs.append(_sym(x_part(x, sinv, smu_x, corr, ds)))
        dz = rd_u - _mv(bt.G.swapaxes(1, 2), dy)
        du = u_part(smu_u, corr_u, dz)
        return dy, dxs, dss, du, dz

    uz = np.concatenate((bt.u, bt.z), axis=1)

    def step_lengths(dxs, dss, du, dz, frac):
        """Per problem (ap, ad), as Python floats."""
        steps = [
            _max_steps(chol, np.concatenate((dx, ds), axis=1))
            for chol, dx, ds in zip(bt.chol, dxs, dss)
        ]
        vec = _max_step_vec(uz, np.concatenate((du, dz), axis=1))
        ap = [min(1.0, *[frac * st[i][0] for st in steps], frac * vec[i][0]) for i in range(n)]
        ad = [min(1.0, *[frac * st[i][1] for st in steps], frac * vec[i][1]) for i in range(n)]
        return ap, ad

    dy_a, dxs_a, dss_a, du_a, dz_a = directions(0.0, 0.0, [0.0] * len(bt.X), 0.0)
    ap, ad = (np.array(a) for a in step_lengths(dxs_a, dss_a, du_a, dz_a, 1.0))
    ap4, ad4 = ap[:, None, None, None], ad[:, None, None, None]
    comp_aff = _sum(
        np.einsum("pbij,pbij->p", x + ap4 * dx, s + ad4 * ds)
        for x, dx, s, ds in zip(bt.X, dxs_a, bt.S, dss_a)
    ) + _dot(bt.u + ap[:, None] * du_a, bt.z + ad[:, None] * dz_a)
    sigma_mu = []
    for i, (c, m) in enumerate(zip(comp_aff.tolist(), mu)):
        if i in broken:  # its direction is a placeholder; the cube could overflow
            sigma_mu.append(0.0)
            continue
        mu_aff = c / bt.cone_dim
        sigma = min(1.0, max((mu_aff / m) ** 3, 1e-10)) if m > 0 else 0.1
        sigma_mu.append(sigma * m)

    smu = np.array(sigma_mu)
    dy, dxs, dss, du, dz = directions(
        smu[:, None, None, None], smu[:, None], [dx @ ds for dx, ds in zip(dxs_a, dss_a)], du_a * dz_a
    )
    ap, ad = step_lengths(dxs, dss, du, dz, opts.step_frac)
    for i, (p, d) in enumerate(zip(ap, ad)):
        if not (math.isfinite(p) and math.isfinite(d)) or p <= 0 or d <= 0:
            broken.setdefault(i, "degenerate step length")
    rows = [i for i in range(n) if i not in broken]
    for i in _advance(bt, rows, dy, dxs, dss, du, dz, np.array(ap), np.array(ad)):
        broken[i] = "step could not maintain cone interiority"
    return broken


def _advance(bt, rows, dy, dxs, dss, du, dz, ap, ad) -> list:
    """Move the iterate of each row in `rows` by the steps (ap, ad).

    Rounding in the boundary-step eigensolves can push the new iterate just
    outside the cone on ill-conditioned instances, so a row whose new
    iterate is not strictly interior halves its steps until it is.  All rows
    are tried at once first; if any fails, each is retried on its own.
    Returns the rows that found no interior iterate.
    """
    halves = [x.shape[1] for x in bt.X]

    def trial(sel, a_p, a_d):
        a_p4, a_d4 = a_p[:, None, None, None], a_d[:, None, None, None]
        stacks = [
            _sym(np.concatenate((x[sel] + a_p4 * dx[sel], s[sel] + a_d4 * ds[sel]), axis=1))
            for x, dx, s, ds in zip(bt.X, dxs, bt.S, dss)
        ]
        nu = bt.u[sel] + a_p[:, None] * du[sel]
        nz = bt.z[sel] + a_d[:, None] * dz[sel]
        chol = _cone_factors(stacks, (nu, nz))
        return None if chol is None else (stacks, nu, nz, chol)

    if len(rows) == len(ap):
        got = trial(slice(None), ap, ad)
        if got is not None:
            stacks, bt.u, bt.z, bt.chol = got
            bt.X = [st[:, :h] for st, h in zip(stacks, halves)]
            bt.S = [st[:, h:] for st, h in zip(stacks, halves)]
            bt.y = bt.y + ad[:, None] * dy
            return []
    stuck = []
    for i in rows:
        sel = slice(i, i + 1)
        a_p, a_d = ap[sel], ad[sel]
        for _ in range(30):
            got = trial(sel, a_p, a_d)
            if got is not None:
                break
            a_p, a_d = a_p * 0.5, a_d * 0.5
        else:
            stuck.append(i)
            continue
        stacks, nu, nz, chol = got
        for g, (st, h) in enumerate(zip(stacks, halves)):
            bt.X[g][i], bt.S[g][i], bt.chol[g][i] = st[0, :h], st[0, h:], chol[g][0]
        bt.u[i], bt.z[i] = nu[0], nz[0]
        bt.y[i] = bt.y[i] + a_d[0] * dy[i]
    return stuck


def _package(problem, groups, xs, u, status, n_iter, rel_p, rel_d, gap, detail, opts):
    """The solution of one problem from its rows `xs` (per group of the
    layout `groups`) and `u`."""
    blocks = [None] * len(problem.block_dims)
    for (_, ids), x in zip(groups, xs):
        for pos, b in enumerate(ids):
            blocks[b] = _unembed(x[pos])
    scal = u[: problem.n_scalars].copy()
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
