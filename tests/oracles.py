"""Known-optimum SDP instance generator shared by the solver tests and the
acceptance suite.

Construction: each PSD block gets a positive definite cost C_b and a single
rank-one floor constraint tr(h_b h_b^H W_b) >= c_b.  Whitening V =
C^(1/2) W C^(1/2) turns the block into min tr(V) s.t. tr(g g^H V) >= c with
g = C^(-1/2) h, whose optimum is the rank-one V* = (c/|g|^4) g g^H with value
c/|g|^2 = c / (h^H C^(-1) h).  Scalars get cost d_j > 0 and a floor x_j >=
b_j, contributing d_j b_j.  The instance is then disguised with random
coupling rows that hold at the known optimizer with slack (inequalities) or
exactly (equalities); added constraints keep the optimizer feasible while
only shrinking the feasible set, so the optimal value is unchanged and known
in closed form.

`mixed_outcome_batch` is a fixed set of one structure whose problems end
each way a solve can end, for the batch tests and `tools/compare_solves.py`.
"""

import numpy as np

from swiptcran.sdp import SdpConstraint, SdpProblem


def rand_herm_psd(rng, n, cond=4.0):
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, _ = np.linalg.qr(m)
    lam = np.exp(rng.uniform(-np.log(cond) / 2, np.log(cond) / 2, n))
    return (q * lam) @ q.conj().T


def rand_herm(rng, n):
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (m + m.conj().T) / 2


def oracle_instance(seed, max_dim=3):
    """Returns (problem, optimal_value, optimal_blocks, optimal_scalars)."""
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0x04AC1E]))
    n_blocks = int(rng.integers(1, 4))
    dims = [int(rng.integers(1, max_dim + 1)) for _ in range(n_blocks)]
    n_scalars = int(rng.integers(0, 3))

    obj_blocks, constraints = {}, []
    w_star, value = [], 0.0
    for b, n in enumerate(dims):
        cost = rand_herm_psd(rng, n)
        obj_blocks[b] = cost
        h = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        c = float(rng.uniform(0.5, 4.0))
        cinv = np.linalg.inv(cost)
        quad = float(np.real(h.conj() @ cinv @ h))
        g = cinv @ h
        wb = (c / quad**2) * np.outer(g, g.conj())
        constraints.append(SdpConstraint({b: np.outer(h, h.conj())}, {}, ">=", c))
        w_star.append(wb)
        value += c / quad

    obj_scalars = {}
    x_star = np.zeros(n_scalars)
    for j in range(n_scalars):
        d = float(rng.uniform(0.5, 3.0))
        bound = float(rng.uniform(0.2, 2.0))
        obj_scalars[j] = d
        constraints.append(SdpConstraint({}, {j: 1.0}, ">=", bound))
        x_star[j] = bound
        value += d * bound

    # coupling rows through/around the known optimizer: never cut it off
    for _ in range(int(rng.integers(1, 4))):
        blocks = {}
        for b, n in enumerate(dims):
            if rng.random() < 0.7:
                blocks[b] = rand_herm(rng, n)
        scalars = {
            j: float(rng.standard_normal()) for j in range(n_scalars) if rng.random() < 0.5
        }
        lhs = sum(
            float(np.real(np.trace(m @ w_star[b]))) for b, m in blocks.items()
        ) + sum(v * x_star[j] for j, v in scalars.items())
        sense = rng.choice([">=", "<=", "="], p=[0.4, 0.4, 0.2])
        margin = float(rng.uniform(0.1, 1.0))
        rhs = {">=": lhs - margin, "<=": lhs + margin, "=": lhs}[sense]
        if not blocks and not scalars:
            continue
        constraints.append(SdpConstraint(blocks, scalars, str(sense), rhs))

    problem = SdpProblem(
        block_dims=tuple(dims),
        n_scalars=n_scalars,
        obj_blocks=obj_blocks,
        obj_scalars=obj_scalars,
        constraints=tuple(constraints),
    )
    return problem, value, w_star, x_star


def _two_equality_rows(cost, rows):
    """min tr(cost X) over one 2x2 block s.t. tr(m X) = r for each (m, r) in rows."""
    return SdpProblem(
        (2,), 0, {0: cost}, {}, tuple(SdpConstraint({0: m}, {}, "=", r) for m, r in rows)
    )


def mixed_outcome_batch():
    eye = np.eye(2, dtype=complex)
    e11 = np.diag([1.0, 0.0]).astype(complex)
    e22 = np.diag([0.0, 1.0]).astype(complex)
    off = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    a = np.array([[1.0, 0.5], [0.5, 2.0]], dtype=complex)
    return [
        _two_equality_rows(eye, [(e11, 1.0), (e22, 2.0)]),  # Optimal, value 3
        _two_equality_rows(eye, [(eye, 1.0), (eye, 2.0)]),  # Farkas-certified Infeasible
        # a pins X_11 and Re X_12 only, so X_22 grows along a ray of cost -1
        _two_equality_rows(np.diag([1.0, -1.0]).astype(complex), [(e11, 1.0), (off, 0.0)]),
        # the same row twice: the Schur matrix is singular and needs jitter
        _two_equality_rows(eye, [(a, 1.0), (a, 1.0)]),
        _two_equality_rows(eye, [(e11, 2.0), (off, 0.5)]),  # Optimal
    ]
