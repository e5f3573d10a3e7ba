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
computes a problem's entries as a batch of one does (LAPACK and BLAS work
matrix by matrix, einsum keeps its inner loops, per-problem scalars are
Python floats; einsum over a group of one block runs problem by problem),
so each result is bit-identical to solving that problem alone.  A group
holds the blocks of one embedded dimension, with X and S stacked: the
interiority test factors the stack (X, S) once, and the next iteration
inverts that factor L once: L^-1 gives S^-1 and the four step-length tests,
each lambda_min(L^-1 d L^-T) by matmul.  The Schur matrix is factored once
per iteration, for the predictor and the corrector, and its contraction is
written as the matmuls einsum's planner picks for it.  These forms are fixed
on purpose: a contraction reordered, even into one equal in exact
arithmetic, rounds differently and moves the iterates.  One was changed on
purpose, the step tests' L^-1 for two triangular solves: it moved no status
or iteration count, and objectives by at most 5.2e-9 relative (< TOL_GAP).

The kernels are called without their Python wrappers, which cost as much as
the kernel on these small stacks; kernel and inputs are the same, so the
bits are too.  `_solve`, `_eigvalsh` and `_cholesky` call numpy's LAPACK
gufuncs (`numpy.linalg._umath_linalg`), every einsum is numpy's C
`c_einsum` (what `np.einsum` runs when it plans nothing), and the
iteration's reductions call the ufunc `reduce` (`np.minimum.reduce`, ...)
that `ndarray.min/max/sum/all/any` reach through Python.  A failed LAPACK
kernel returns NaN for its matrix instead of raising for the stack: a NaN
step length ends its row as a numerical breakdown, and the interiority
back-off and the Schur jitter retry act on the rows whose Cholesky factor
has a NaN, in one stacked call per try.  The failure sets the FP invalid
flag, so one errstate covers a batch's whole IPM.

No temporary is larger than 16 rows of A, the coefficient stack of shape
(n, K, B, 2N, 2N) per group and the largest array a batch holds: the
embedding at assembly, the Schur assembly, the Farkas check's gather of
live rows and the in-place compaction of A when rows leave each work
`_ROWS` = 16 rows at a time, and a problem is released once assembled.  So
a batch's memory grows with its per-row state, not with copies of A.

Statuses (no homogeneous self-dual embedding): every status other than
Optimal is certified or MaxIterations.  Infeasible comes only from a Farkas
ray certificate on the normalized dual iterate, Unbounded only from the
mirrored primal-ray test, both checked every iteration.  A solve that does
neither runs to `MAX_ITERS` (or stops on a numerical breakdown) and ends
MaxIterations; the solution's `detail` records which indicator fired.
"""

from __future__ import annotations

import functools
import itertools
import json
import marshal
import math
import operator
from dataclasses import dataclass
from enum import Enum

import numpy as np
from numpy.linalg import _umath_linalg

try:
    from numpy._core._multiarray_umath import c_einsum
except ImportError:  # numpy 1.x
    from numpy.core._multiarray_umath import c_einsum

_SENSES = (">=", "<=", "=")
_HERM_TOL = 1e-10


class SdpStatus(str, Enum):
    OPTIMAL = "Optimal"
    INFEASIBLE = "Infeasible"
    UNBOUNDED = "Unbounded"
    MAX_ITERATIONS = "MaxIterations"


# Stopping rule and step rule.  Read at call time, so a test may patch them.
TOL_FEAS = 1e-8
TOL_GAP = 1e-8
TOL_PSD = 1e-9
MAX_ITERS = 100
# fraction of the distance to the cone boundary taken per step
STEP_FRAC = 0.98


# LAPACK kernels without the `np.linalg` wrapper; see the module docstring
def _solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """`np.linalg.solve(a, b)` for real stacks, b a (broadcast) stack of matrices."""
    return _umath_linalg.solve(a, b, signature="dd->d")


def _eigvalsh(a: np.ndarray) -> np.ndarray:
    """`np.linalg.eigvalsh(a)` for real symmetric or complex Hermitian stacks."""
    return _umath_linalg.eigvalsh_lo(a, signature="D->d" if a.dtype.kind == "c" else "d->d")


def _cholesky(a: np.ndarray) -> np.ndarray:
    """`np.linalg.cholesky(a)` for real stacks, except that a matrix that does
    not factor gets an all-NaN factor instead of a LinAlgError for the stack.
    That failure sets the FP invalid flag: call it under errstate(invalid=...)."""
    return _umath_linalg.cholesky_lo(a, signature="d->d")


@functools.cache
def _eye(n: int) -> np.ndarray:
    """`np.eye(n)`, made once and read-only."""
    eye = np.eye(n)
    eye.flags.writeable = False
    return eye


def _factored(factors: np.ndarray) -> np.ndarray:
    """Per entry of a `_cholesky` stack's leading axis, whether its matrices
    factored: a NaN anywhere set the invalid flag that `np.linalg.cholesky` raises on."""
    return ~np.logical_or.reduce(np.isnan(factors), axis=tuple(range(1, factors.ndim)))


def _clean_herm(arrays: list) -> tuple[np.ndarray, list]:
    """Check complex square arrays of one shape and make them Hermitian, all at once.

    Returns the stack of Hermitian parts (A + A^H) / 2 and, per array, None
    or the words of its error: "non-finite entries" or "not Hermitian" (an
    array whose deviation from A^H exceeds `_HERM_TOL` times 1 + max|A|).
    """
    a = np.stack(arrays)
    finite = np.isfinite(a).all(axis=(1, 2))  # complex isfinite: both parts finite
    if not finite.all():
        # zero them before the symmetry test, whose inf - inf would warn
        a = np.where(finite[:, None, None], a, 0.0)
    a_h = a.conj().swapaxes(1, 2)
    herm = np.abs(a - a_h).max(axis=(1, 2)) <= _HERM_TOL * (1.0 + np.abs(a).max(axis=(1, 2)))
    errors = [
        None if h else "not Hermitian" if f else "non-finite entries"
        for f, h in zip(finite.tolist(), (finite & herm).tolist())
    ]
    return (a + a_h) / 2.0, errors


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
        standard form from these.  The arrays are checked and cleaned in one
        stacked pass per block dimension.  An array object that several
        blocks share (`build_sdp` passes one per row to all of its blocks) is
        cleaned once per block dimension, and those blocks share the cleaned
        matrix.  The first error in reading order is raised, and an error of
        an array names the first block where the array appears.
        """
        dims = tuple(int(d) for d in self.block_dims)
        if any(d < 1 for d in dims):
            raise ValueError("block dimensions must be >= 1")
        if self.n_scalars < 0:
            raise ValueError("n_scalars must be >= 0")
        if len(dims) == 0 and self.n_scalars == 0:
            raise ValueError("problem has no variables")
        # each distinct (array, dim) once, in reading order: (array, dim, block name)
        arrays = []
        # (id, dim) -> index into arrays; every keyed array lives in self while this runs
        seen = {}

        def parts():
            yield "objective", self.obj_blocks, self.obj_scalars
            for k, con in enumerate(self.constraints):
                if not isinstance(con, SdpConstraint):
                    raise TypeError(f"constraint {k} is not an SdpConstraint")
                yield f"constraint {k}", con.blocks, con.scalars

        # the walk stops at the first error that is not an array's, but an
        # array read before it may still fail, and then its error comes first
        block_at, error = [], None
        try:
            for name, blocks, scalars in parts():
                block_at.append({})
                for b, mat in blocks.items():
                    if not 0 <= b < len(dims):
                        raise ValueError(f"{name} references unknown block {b}")
                    key = (id(mat), dims[b])
                    if key not in seen:
                        seen[key] = len(arrays)
                        arrays.append((mat, dims[b], f"{name} block {b}"))
                    block_at[-1][b] = seen[key]
                for j, v in scalars.items():
                    if not 0 <= j < self.n_scalars:
                        raise ValueError(f"{name} references unknown scalar {j}")
                    if not math.isfinite(float(v)):
                        raise ValueError(
                            "objective scalar coefficients must be finite" if name == "objective"
                            else f"{name}: non-finite scalar coefficient"
                        )
        except (TypeError, ValueError) as exc:
            error = exc

        cleaned = [None] * len(arrays)
        errors = [None] * len(arrays)
        by_dim = {}
        for i, (mat, dim, _) in enumerate(arrays):
            a = np.asarray(mat, dtype=np.complex128)
            if a.shape == (dim, dim):
                by_dim.setdefault(dim, []).append((i, a))
            else:
                errors[i] = f"expected shape {(dim, dim)}, got {a.shape}"
        for group in by_dim.values():
            stack, errs = _clean_herm([a for _, a in group])
            for (i, _), h, err in zip(group, stack, errs):
                cleaned[i], errors[i] = h, err
        for (_, _, what), err in zip(arrays, errors):
            if err is not None:
                raise ValueError(f"{what}: {err}")
        if error is not None:
            raise error
        obj_blocks, *con_blocks = ({b: cleaned[i] for b, i in at.items()} for at in block_at)
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
    """m x m Hermitian -> 2m x 2m real symmetric [[P, -Q], [Q, P]], over a stack."""
    m = h.shape[-1]
    out = np.empty(h.shape[:-2] + (2 * m, 2 * m))
    out[..., :m, :m] = out[..., m:, m:] = h.real
    out[..., :m, m:] = -h.imag
    out[..., m:, :m] = h.imag
    return out


def _unembed(x: np.ndarray) -> np.ndarray:
    """Inverse map over a stack: tr(embed(A)/2 . X) = tr(A . unembed(X)) for symmetric X."""
    m = x.shape[-1] // 2
    w = (x[..., :m, :m] + x[..., m:, m:]) / 2.0 + 1j * (x[..., m:, :m] - x[..., :m, m:]) / 2.0
    return (w + w.conj().swapaxes(-1, -2)) / 2.0


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


# Rows of A per temporary: no array the size of a batch's A stack is made
# besides the stack itself; see the module docstring.
_ROWS = 16


def _row_blocks(n: int) -> list:
    """Slices that cover rows 0..n-1, `_ROWS` at a time."""
    return [slice(lo, lo + _ROWS) for lo in range(0, n, _ROWS)]


def _take_rows(a: np.ndarray, idx: list) -> np.ndarray:
    """`a[idx]` for ascending row indices, as a view when they are consecutive."""
    return a[idx[0]:idx[-1] + 1] if idx[-1] - idx[0] == len(idx) - 1 else a[idx]


def _sym(a):
    return (a + a.swapaxes(-1, -2)) / 2.0


def _sum(terms: list):
    """`sum(terms)` without its leading `0 +`, which changes only a -0.0
    total; the terms summed here (einsum reductions, sums of squares, traces
    of interior iterates) are never -0.0.  A single term comes back as it is."""
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
        return np.stack([c_einsum("kbij,bji->k", ai, mi) for ai, mi in zip(a, m)])
    return c_einsum("pkbij,pbji->pk", a, m)


def _max_steps(linv: np.ndarray, d: np.ndarray) -> list:
    """Per problem, the largest a with X + a dX PSD and with S + a dS PSD; inf if unbounded.

    `linv` holds the inverses L^-1 of the Cholesky factors L of one group's
    stacks (X, S) and `d` the matching stacks (dX, dS).  X + a dX is PSD
    while I + a L^-1 dX L^-T is, so a reaches -1 / lambda_min(L^-1 dX L^-T),
    as in SDPT3; the two halves share one chain of calls.
    """
    lam = _eigvalsh(_sym(linv @ d @ linv.swapaxes(-1, -2)))
    worst = np.minimum.reduce(lam.reshape(len(lam), 2, -1), axis=2).tolist()
    return [[math.inf if w >= -1e-14 else 1.0 / (-w) for w in pair] for pair in worst]


def _max_step_vec(v: np.ndarray, dv: np.ndarray) -> list:
    """Per row of v = (u, z), the largest a with v + a dv >= 0 on each half; inf if unbounded."""
    ratio = np.where(dv < 0, v / -dv, np.inf)
    return np.minimum.reduce(ratio.reshape(len(v), 2, -1), axis=2, initial=np.inf).tolist()


def _factor_psd(m: np.ndarray):
    """Cholesky factors of a stack of (K, K) matrices; a matrix that does not
    factor is retried with escalating jitter, base * 1e-13 and then 1e3 times
    the last, where base is max(tr / K, 1).  Returns (factors, {row: error});
    a row that broke down gets an identity placeholder."""
    # + 0.0 clears negative zeros: each matrix factored is m + jitter * I, jitter 0 first
    factors = _cholesky(m + 0.0)
    bad = (~_factored(factors)).nonzero()[0]
    if not len(bad):
        return factors, {}
    k = m.shape[-1]
    base = np.array([max(float(np.trace(mi)) / k, 1.0) for mi in m[bad]])
    jitter = base * 1e-13
    for _ in range(3):
        f = _cholesky(m[bad] + jitter[:, None, None] * _eye(k))
        ok = _factored(f)
        factors[bad[ok]] = f[ok]
        bad, base, jitter = bad[~ok], base[~ok], jitter[~ok]
        jitter = base * (jitter / base * 1e3)
    factors[bad] = _eye(k)
    return factors, dict.fromkeys(bad.tolist(), "Schur complement factorization failed")


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
        # per group, index columns (problem, [constraint,] position) and matrices of its
        # blocks; a tuple per matrix would outlive assembly on CPython's tuple free list
        c_at = [([], [], []) for _ in self.groups]
        a_at = [([], [], [], []) for _ in self.groups]
        for p, (problem, (obj_blocks, con_blocks)) in enumerate(zip(problems, cleaned)):
            for b, mat in obj_blocks.items():
                g, pos = where[b]
                for col, v in zip(c_at[g], (p, pos, mat)):
                    col.append(v)
            for j, v in problem.obj_scalars.items():
                self.c_u[p, j] = float(v)
            slack_col = problem.n_scalars
            for k, con in enumerate(problem.constraints):
                for b, mat in con_blocks[k].items():
                    g, pos = where[b]
                    for col, v in zip(a_at[g], (p, k, pos, mat)):
                        col.append(v)
                for j, v in con.scalars.items():
                    self.G[p, k, j] = float(v)
                self.r[p, k] = float(con.rhs)
                if con.sense != "=":
                    self.G[p, k, slack_col] = -1.0 if con.sense == ">=" else 1.0
                    slack_col += 1
        for dest, (*idx, mats) in zip(self.C + self.A, c_at + a_at):
            if not mats:
                continue
            # at most `_ROWS` rows' worth of matrices per call: the stack and
            # its embedding are temporaries of that size
            step = _ROWS * math.prod(dest.shape[1:-2])
            for lo in range(0, len(mats), step):
                dest[tuple(i[lo:lo + step] for i in idx)] = _embed(np.stack(mats[lo:lo + step])) / 2.0
        for p in range(n):
            self._normalize(p)
        self.r_norm = np.array([np.linalg.norm(r) for r in self.r])
        self.ids = np.arange(n)

        self.X, self.S = [], []
        for (dim, _), a, c in zip(self.groups, self.A, self.C):
            an = np.sqrt(c_einsum("pkbij,pkbij->pkb", a, a))  # (P, K, B)
            cn = np.sqrt(c_einsum("pbij,pbij->pb", c, c))
            # with no constraint, the maxima over rows are their initial values
            ratio = (1.0 + np.abs(self.r))[:, :, None] / (1.0 + an)
            xi = np.maximum(dim * np.maximum.reduce(ratio, axis=1, initial=0.0), max(10.0, math.sqrt(dim)))
            eta = np.maximum(np.maximum.reduce(an, axis=1, initial=10.0), cn)
            eye = _eye(dim)
            self.X.append(xi[:, :, None, None] * eye)
            self.S.append(eta[:, :, None, None] * eye)
        ones = np.ones((n, self.n_u))
        self.u = ones * np.maximum.reduce(np.abs(self.r), axis=1, initial=10.0)[:, None]
        self.z = ones * np.maximum.reduce(np.abs(self.c_u), axis=1, initial=10.0)[:, None]
        self.y = np.zeros((n, k_total))
        # positive multiples of I: these always factor
        self.chol = [_cholesky(np.concatenate((x, s), axis=1)) for x, s in zip(self.X, self.S)]

    def _normalize(self, p: int) -> None:
        """Scale row p in place.  Each expression runs on that problem's own
        contiguous views, so it rounds as it does for a batch of one."""
        a, c = [A[p] for A in self.A], [C[p] for C in self.C]
        # row scaling: unit-norm constraint rows; primal solution is invariant
        sq = _sum([c_einsum("kbij,kbij->k", ag, ag) for ag in a])
        norms = np.sqrt(sq + c_einsum("kj,kj->k", self.G[p], self.G[p]))
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
        """Drop every row not selected by the boolean mask `rows`.

        Each A stack is compacted in place, `_ROWS` rows at a time, and
        becomes the C-contiguous view of its live rows: a live row only
        moves forward, past rows already read, and the rows before the
        first dropped one stay where they are.
        """
        live = np.flatnonzero(rows)
        for a in self.A:
            for lo in range(int(np.argmin(rows)), len(live), _ROWS):
                src = live[lo:lo + _ROWS]
                a[lo:lo + len(src)] = a[src]
        self.A = [a[:len(live)] for a in self.A]
        for name in ("C", "X", "S", "chol"):
            setattr(self, name, [a[rows] for a in getattr(self, name)])
        for name in ("G", "c_u", "r", "r_norm", "u", "z", "y", "ids"):
            setattr(self, name, getattr(self, name)[rows])


# Problems per batched IPM run.  `tools/batch_curve.py --repeat 7` on the
# 150 stage solves of one `longterm` trial (3 RRHs, 3 ITs, 7 ETs; 2 shared
# CPUs, numpy 2.4, one BLAS thread), which `longterm_stage` splits into the
# fewest near-equal batches (3 x 50 at 64):
#   size                  1     16     32     64     75    150
#   ms per solve       6.82   2.28   2.05   1.86   1.82   1.73
#   peak RSS rise (MB) 0.62   0.75   1.36   2.26   3.46   7.59
# Past 32 time falls slowly (7% from 64 to 150) and memory grows fast.
BATCH_SIZE = 64


def solve(problem: SdpProblem) -> SdpSolution:
    """Solve one instance: `solve_batch` on a batch of one."""
    return solve_batch([problem])[0]


def solve_key(problem: SdpProblem) -> bytes:
    """Bytes that pin `solve(problem)`: equal keys, equal solutions.

    The key spells out the block dimensions, the scalar count, each
    coefficient array's block index, dtype, shape and raw bytes, and each
    constraint's scalar coefficients, sense and rhs.  Compared whole, as a
    dict key is, a match is exact; two spellings of one value (a float64
    and a complex128 array) only cost a second solve.  The solver constants
    are not part of the key: a store must not outlive a change to them.
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


def solve_batch(problems) -> list[SdpSolution]:
    """Solve instances of one structure together; see the module docstring.

    Every problem must have the same `block_dims`, `n_scalars` and
    constraint senses.  `problems` is read `BATCH_SIZE` at a time (an
    iterator is never held whole), each group runs through one IPM over a
    leading problem axis, and each result equals what `solve` returns for
    that problem alone.  Never returns a silently wrong answer: any
    numerical breakdown surfaces as MaxIterations with diagnostics in
    `detail`, and residual fields always reflect the returned iterate.
    """
    todo = iter(problems)
    out, shape = [], None
    while chunk := list(itertools.islice(todo, BATCH_SIZE)):
        cleaned = [p.validate() for p in chunk]
        shape = shape or _structure(chunk[0])
        if any(_structure(p) != shape for p in chunk):
            raise ValueError("a batch needs one block_dims, n_scalars and constraint senses")
        bt = _Batch(chunk, cleaned)
        # once assembled, a problem is only read for what `_package` reads
        objectives = [(len(p.block_dims), p.n_scalars, p.obj_blocks, p.obj_scalars) for p in chunk]
        del chunk, cleaned
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            out += _solve_chunk(bt, objectives)
    return out


def _residuals(bt: _Batch):
    """Residuals of every row, and per row (pobj, mu, rel_p, rel_d, gap) as Python floats."""
    a = _sum([c_einsum("pkbij,pbij->pk", A, x) for A, x in zip(bt.A, bt.X)])
    rp = bt.r - a - _mv(bt.G, bt.u)
    rds = [C - c_einsum("pk,pkbij->pbij", bt.y, A) - s for A, C, s in zip(bt.A, bt.C, bt.S)]
    rd_u = bt.c_u - _mv(bt.G.swapaxes(1, 2), bt.y) - bt.z
    sums = (
        _sum([c_einsum("pbij,pbij->p", C, x) for C, x in zip(bt.C, bt.X)]) + _dot(bt.c_u, bt.u),
        _dot(bt.r, bt.y),
        _sum([c_einsum("pbij,pbij->p", x, s) for x, s in zip(bt.X, bt.S)]) + _dot(bt.u, bt.z),
        _dot(rp, rp),
        _sum([np.add.reduce((rd * rd).reshape(len(rd), -1), axis=1) for rd in rds]) + _dot(rd_u, rd_u),
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


def _solve_chunk(bt: _Batch, objectives: list) -> list:
    """Run the IPM on every row of `bt`; `objectives[p]` holds problem p's
    (block count, scalar count, objective blocks, objective scalars)."""
    results = [None] * len(objectives)

    def finish(ends, n_iter, rp, rds, rd_u, stats):
        """Package the rows in `ends` ({row: (status, detail)}) and drop them
        from the batch; returns this iteration's residuals of the rows left,
        or None when no row is left."""
        for i, (status, detail) in ends.items():
            p = bt.ids[i]
            results[p] = _package(
                objectives[p], bt.groups, [x[i] for x in bt.X], bt.u[i], status, n_iter,
                *stats[i][2:], detail,
            )
        if len(ends) == len(stats):
            return None
        rows = np.ones(len(stats), dtype=bool)
        rows[list(ends)] = False
        bt.keep(rows)
        return rp[rows], [rd[rows] for rd in rds], rd_u[rows], [st for st, k in zip(stats, rows) if k]

    for n_iter in range(MAX_ITERS + 1):
        rp, rds, rd_u, stats = _residuals(bt)
        ends = {}
        for i, (_, _, rel_p, rel_d, gap) in enumerate(stats):
            if rel_p <= TOL_FEAS and rel_d <= TOL_FEAS and gap <= TOL_GAP:
                ends[i] = (SdpStatus.OPTIMAL, "converged")
        for i, cert in _infeasibility_certificates(bt, ends).items():
            ends[i] = (SdpStatus.INFEASIBLE, cert)
        # primal-ray (unboundedness) test on the normalized iterate direction:
        # d = (X, u)/|iterate| has A(d) ~ 0 and strictly negative cost.  The
        # raw primal residual is unusable here (catastrophic cancellation once
        # the iterate diverges), so everything is scaled by the cone norm.
        cone = _sum([np.add.reduce(x, axis=1).trace(axis1=1, axis2=2) for x in bt.X])
        cone = cone + np.add.reduce(bt.u, axis=1)
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
        if n_iter == MAX_ITERS:
            for i in range(len(stats)):
                ends.setdefault(i, (SdpStatus.MAX_ITERATIONS, "iteration cap reached"))
        if ends:
            left = finish(ends, n_iter, rp, rds, rd_u, stats)
            if left is None:
                break
            rp, rds, rd_u, stats = left

        broken = _ipm_step(bt, rp, rds, rd_u, [st[1] for st in stats])
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
        parts = [
            c_einsum("pk,pkbij->pbij", yn[blk], _take_rows(A, rows[blk])) for blk in _row_blocks(len(rows))
        ]
        zb = parts[0] if len(parts) == 1 else np.concatenate(parts)
        top = np.maximum.reduce(_eigvalsh(_sym(zb)).reshape(len(rows), -1), axis=1).tolist()
        worst = [max(w, t) for w, t in zip(worst, top)]
    if bt.n_u:
        gvs = np.maximum.reduce(_mv(bt.G[sel].swapaxes(1, 2), yn), axis=1).tolist()
    else:
        gvs = [-math.inf] * len(rows)
    tols = (1e-9 * np.add.reduce(np.abs(yn), axis=1)).tolist()
    return {
        i: (
            "Farkas dual ray certificate: with y normalized to r.y = 1, "
            f"max eig of adjoint {w:.2e} and max scalar column {gv:.2e} "
            f"are within {tol:.1e} of the nonpositive cone"
        )
        for i, w, gv, tol in zip(rows, worst, gvs, tols)
        if max(w, gv) <= tol
    }


def _ipm_step(bt: _Batch, rp, rds, rd_u, mu: list) -> dict:
    """One Mehrotra predictor-corrector step for every problem of the batch.

    Returns {row: error} for the problems that broke down; those keep their
    iterate.
    """
    k_total = bt.k_total
    n = len(mu)
    linvs = [_solve(chol, _eye(chol.shape[-1])) for chol in bt.chol]
    sinvs, ms = [], np.zeros((n, k_total, k_total))
    for A, x, linv in zip(bt.A, bt.X, linvs):
        linv_s = linv[:, x.shape[1]:]
        sinv = _sym(linv_s.swapaxes(-1, -2) @ linv_s)
        sinvs.append(sinv)
        if not k_total:
            continue
        # einsum "bpq,kbqr,brs,lbsp->kl" in its planner's order; do not
        # reorder.  `_ROWS` problems at a time: t and its transposed copy
        # are the size of their rows of A
        for rows in _row_blocks(n):
            a = A[rows]
            m = len(a)
            t = x[rows, None] @ a @ sinv[rows, None]
            ms[rows] += (
                a.reshape(m, k_total, -1) @ t.transpose(0, 2, 4, 3, 1).reshape(m, -1, k_total)
            ).swapaxes(1, 2)
        del a, t
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
        dy = _solve(ms_chol_t, _solve(ms_chol, h[:, :, None]))[:, :, 0]
        dss, dxs = [], []
        for A, x, sinv, corr, rd in zip(bt.A, bt.X, sinvs, corrs, rds):
            ds = rd - c_einsum("pk,pkbij->pbij", dy, A)
            dss.append(ds)
            dxs.append(_sym(x_part(x, sinv, smu_x, corr, ds)))
        dz = rd_u - _mv(bt.G.swapaxes(1, 2), dy)
        du = u_part(smu_u, corr_u, dz)
        return dy, dxs, dss, du, dz

    uz = np.concatenate((bt.u, bt.z), axis=1)

    def step_lengths(dxs, dss, du, dz, frac):
        """Per problem (ap, ad), as Python floats.  A row with a NaN cone step
        (a failed kernel) is marked broken; `min` would drop that NaN."""
        steps = [
            _max_steps(linv, np.concatenate((dx, ds), axis=1))
            for linv, dx, ds in zip(linvs, dxs, dss)
        ]
        steps.append(_max_step_vec(uz, np.concatenate((du, dz), axis=1)))
        ap, ad = [], []
        for i in range(n):
            p, d = zip(*(st[i] for st in steps))
            if any(map(math.isnan, p + d)):
                broken.setdefault(i, "non-finite step length")
            ap.append(min(1.0, *[frac * v for v in p]))
            ad.append(min(1.0, *[frac * v for v in d]))
        return ap, ad

    dy_a, dxs_a, dss_a, du_a, dz_a = directions(0.0, 0.0, [0.0] * len(bt.X), 0.0)
    ap, ad = (np.array(a) for a in step_lengths(dxs_a, dss_a, du_a, dz_a, 1.0))
    ap4, ad4 = ap[:, None, None, None], ad[:, None, None, None]
    comp_aff = _sum([
        c_einsum("pbij,pbij->p", x + ap4 * dx, s + ad4 * ds)
        for x, dx, s, ds in zip(bt.X, dxs_a, bt.S, dss_a)
    ]) + _dot(bt.u + ap[:, None] * du_a, bt.z + ad[:, None] * dz_a)
    sigma_mu = []
    for i, (c, m) in enumerate(zip(comp_aff.tolist(), mu)):
        if i in broken:  # its direction is a placeholder or NaN; the cube could overflow
            sigma_mu.append(0.0)
            continue
        mu_aff = c / bt.cone_dim
        sigma = min(1.0, max((mu_aff / m) ** 3, 1e-10)) if m > 0 else 0.1
        sigma_mu.append(sigma * m)

    smu = np.array(sigma_mu)
    corrs, corr_u = [dx @ ds for dx, ds in zip(dxs_a, dss_a)], du_a * dz_a
    # release what the corrector's step-length test, the step's memory peak, does not read
    del dy_a, dxs_a, dss_a, du_a, dz_a
    dy, dxs, dss, du, dz = directions(smu[:, None, None, None], smu[:, None], corrs, corr_u)
    del sinvs, ms_chol, ms_chol_t
    ap, ad = step_lengths(dxs, dss, du, dz, STEP_FRAC)
    for i, (p, d) in enumerate(zip(ap, ad)):
        if p <= 0 or d <= 0:
            broken.setdefault(i, "degenerate step length")
    rows = [i for i in range(n) if i not in broken]
    for i in _advance(bt, rows, dy, dxs, dss, du, dz, np.array(ap), np.array(ad)):
        broken[i] = "step could not maintain cone interiority"
    return broken


def _advance(bt, rows, dy, dxs, dss, du, dz, ap, ad) -> list:
    """Move the iterate of each row in `rows` by the steps (ap, ad).

    Rounding in the boundary-step eigensolves can push the new iterate just
    outside the cone on ill-conditioned instances, so a row whose new
    iterate is not strictly interior (its (X, S) stacks finite and
    factoring, its (u, z) positive and finite) halves its steps, up to 30
    tries; a row that passes keeps its step.  Returns the rows that found
    no interior iterate.
    """
    halves = [x.shape[1] for x in bt.X]
    todo = np.array(rows, dtype=np.intp)
    a_p, a_d = ap[todo], ad[todo]
    # A first try of every row reads the iterates whole, and if all pass, the
    # new X and S are views of the stacks tested, with their memory layout:
    # einsum's loop order depends on it.  Otherwise rows are written in place.
    sel = slice(None) if len(todo) == len(ap) else todo
    for _ in range(30):
        if not len(todo):
            break
        a_p4, a_d4 = a_p[:, None, None, None], a_d[:, None, None, None]
        stacks = [
            _sym(np.concatenate((x[sel] + a_p4 * dx[sel], s[sel] + a_d4 * ds[sel]), axis=1))
            for x, dx, s, ds in zip(bt.X, dxs, bt.S, dss)
        ]
        nu = bt.u[sel] + a_p[:, None] * du[sel]
        nz = bt.z[sel] + a_d[:, None] * dz[sel]
        chol = [_cholesky(st) for st in stacks]
        uz = np.concatenate((nu, nz), axis=1)
        ok = np.logical_and.reduce((uz > 0.0) & (uz < math.inf), axis=1)
        for st, c in zip(stacks, chol):
            ok &= np.logical_and.reduce(np.isfinite(st), axis=(1, 2, 3)) & _factored(c)
        if isinstance(sel, slice) and np.logical_and.reduce(ok):
            bt.X = [st[:, :h] for st, h in zip(stacks, halves)]
            bt.S = [st[:, h:] for st, h in zip(stacks, halves)]
            bt.u, bt.z, bt.chol = nu, nz, chol
            bt.y = bt.y + a_d[:, None] * dy
            return []
        done = todo[ok]
        for g, (st, c, h) in enumerate(zip(stacks, chol, halves)):
            bt.X[g][done], bt.S[g][done], bt.chol[g][done] = st[ok, :h], st[ok, h:], c[ok]
        bt.u[done], bt.z[done] = nu[ok], nz[ok]
        bt.y[done] = bt.y[done] + a_d[ok, None] * dy[done]
        todo, a_p, a_d = todo[~ok], a_p[~ok] * 0.5, a_d[~ok] * 0.5
        sel = todo
    return todo.tolist()


def _package(objective, groups, xs, u, status, n_iter, rel_p, rel_d, gap, detail):
    """The solution of one problem from its rows `xs` (per group of the
    layout `groups`) and `u`; `objective` is as in `_solve_chunk`."""
    n_blocks, n_scalars, obj_blocks, obj_scalars = objective
    ws = [_unembed(x) for x in xs]
    blocks = [None] * n_blocks
    for (_, ids), w in zip(groups, ws):
        for pos, b in enumerate(ids):
            blocks[b] = w[pos]
    scal = u[:n_scalars].copy()
    obj = 0.0
    for b, mat in obj_blocks.items():
        obj += float(np.real(np.trace(np.asarray(mat, dtype=np.complex128) @ blocks[b])))
    for j, v in obj_scalars.items():
        obj += float(v) * float(scal[j])
    if status == SdpStatus.OPTIMAL:
        # an Optimal iterate is finite, and min over finite floats is exact,
        # so taking it per group gives the per-block minimum
        worst = min((float(_eigvalsh(w).min()) for w in ws), default=0.0)
        if worst < -TOL_PSD:
            status = SdpStatus.MAX_ITERATIONS
            detail = f"returned block eigenvalue {worst:.2e} below -TOL_PSD"
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
