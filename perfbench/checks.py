"""Output checks that do not use the program's own code.

Each check takes plain numbers and arrays, recomputes what the output must
satisfy with numpy, and returns a list of failure messages (empty when the
output passes).  The tolerances follow from the solver's stopping rule; the
derivation is in README.md next to this file.
"""

import math

import numpy as np

MW_PER_W = 1e3
D_MIN_M = 1.0
# SolverOptions defaults: an Optimal solve has relative primal residual
# <= TOL_FEAS and blocks with no eigenvalue below -TOL_PSD
TOL_FEAS = 1e-8
TOL_PSD = 1e-9
# rounding allowance, relative to the magnitude of the terms a value sums:
# the same formula evaluated in another order
ARITH_RTOL = 1e-12
# 100 x tol_gap: how far (relative) the all-MET cost may fall as p_amin rises
MONOTONE_RTOL = 1e-6
BRUTE_ATOL_MW = 1e-6


def steering_load(n_it: int, sinr_min: float) -> float:
    """Sum over ITs of gamma/(1+gamma): the relaxed SDP needs this <= N."""
    return n_it * sinr_min / (1.0 + sinr_min)


def nearest_rrh(rrh_xy: np.ndarray, et_xy: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index of each ET's closest RRH (lowest index on ties) and the distance."""
    d = np.linalg.norm(rrh_xy[:, None, :] - et_xy[None, :, :], axis=2)
    n = np.argmin(d, axis=0)
    return n, d[n, np.arange(d.shape[1])]


def check_solve(p: dict, rrh_xy, et_xy, h_id, h_et, fet_mask: int, blocks,
                report_objective: float, sdp_objective: float,
                primal_residual: float) -> list[str]:
    """Recompute every floor, the PSD cones and the objective of one Optimal solve.

    `p` holds the workload parameters in watts (sinr_min, p_amin, p_fmin,
    eta, alpha_abs, p_en, beta, gamma, noise_power); `blocks` are the U_D
    N x N covariance blocks in milliwatts; bit e of `fet_mask` marks ET e
    free; `primal_residual` is the relative primal residual the solver
    reports, at most TOL_FEAS.  A floor row may fall short by its share of
    that residual, `primal_residual * (1 + |r_s|) * |row|`, with |row| the
    norm the solver divides the row by, plus rounding.
    """
    w = np.asarray(blocks, dtype=complex)
    n_it, n_rrh = w.shape[0], w.shape[1]
    sinr, eta = p["sinr_min"], p["eta"]
    noise, p_amin, p_fmin = (MW_PER_W * p[k] for k in ("noise_power", "p_amin", "p_fmin"))
    p_en = MW_PER_W * np.asarray(p["p_en"], dtype=float)
    fet = [(fet_mask >> e) & 1 == 1 for e in range(h_et.shape[1])]
    n_near, d_near = nearest_rrh(np.asarray(rrh_xy), np.asarray(et_xy))
    d_near = np.maximum(d_near, D_MIN_M)

    # rows as (label, lhs - rhs, rhs, squared row norm, magnitude of the terms)
    rows = []
    q_it = np.real(np.einsum("ni,bnm,mi->ib", h_id.conj(), w, h_id))  # h_i^H W_b h_i
    for i in range(n_it):
        g2 = float(np.sum(np.abs(h_id[:, i]) ** 2))
        lhs = q_it[i, i] / sinr - (q_it[i].sum() - q_it[i, i])
        rows.append((f"SINR floor of IT {i}", lhs - noise, noise,
                     g2 * g2 / 2 * (1 / sinr**2 + n_it - 1) + 1, np.abs(q_it[i]).sum() + noise))
    for e in range(h_et.shape[1]):
        if fet[e]:
            gain = eta * d_near[e] ** (-p["alpha_abs"])
            lhs = gain * float(np.real(w[:, n_near[e], n_near[e]]).sum())
            rows.append((f"FET {e} harvest floor", lhs - p_fmin, p_fmin,
                         n_it * gain**2 / 2 + 1, abs(lhs) + p_fmin))
        else:
            h = h_et[:, e]
            g2 = float(np.sum(np.abs(h) ** 2))
            lhs = eta * float(np.real(np.einsum("n,bnm,m->", h.conj(), w, h)))
            rows.append((f"MET {e} harvest floor", lhs - p_amin, p_amin,
                         n_it * (eta * g2) ** 2 / 2 + 1, abs(lhs) + p_amin))
    balance_sq = n_it / 2 + 2  # one unit entry per block, the purchased power, the slack
    norms_sq = [r[3] for r in rows] + [balance_sq] * n_rrh
    rhs = [r[2] for r in rows] + list(p_en)
    rs = math.sqrt(sum(b * b / s for b, s in zip(rhs, norms_sq)))
    residual = min(primal_residual, TOL_FEAS)
    tol_of = lambda sq: residual * (1.0 + rs) * math.sqrt(sq)  # noqa: E731

    failures = []
    if not primal_residual <= TOL_FEAS:
        failures.append(f"Optimal solve with relative primal residual {primal_residual:.1e}")
    for label, slack, _, sq, mag in rows:
        tol = tol_of(sq) + ARITH_RTOL * mag
        if slack < -tol:
            failures.append(f"{label} short by {-slack:.3e} mW (tolerance {tol:.1e})")
    for b in range(n_it):
        lam = float(np.linalg.eigvalsh((w[b] + w[b].conj().T) / 2).min())
        if lam < -TOL_PSD:
            failures.append(f"block {b} has eigenvalue {lam:.3e} < -{TOL_PSD:g}")

    p_op = np.real(np.einsum("bnn->n", w))
    objective = p["gamma"] * float(p_op.sum()) + p["beta"] * float(np.maximum(0.0, p_op - p_en).sum())
    if not abs(report_objective - objective) <= ARITH_RTOL * abs(objective):
        failures.append(f"reported objective {report_objective!r} mW, recomputed {objective!r}")
    # the balance rows hold the SDP's purchased-power scalars at
    # u_n >= max(0, p_op,n - p_en,n) - e_n, so its objective cannot be below f
    # by more than beta * sum e_n
    short = objective - sdp_objective
    allowed = p["beta"] * n_rrh * tol_of(balance_sq) + ARITH_RTOL * abs(objective)
    if short > allowed:
        failures.append(f"SDP objective {sdp_objective!r} mW is {short:.3e} below the "
                        f"recomputed {objective!r} (allowed {allowed:.1e})")
    return failures


def _f(row, key) -> float:
    return float(row[key]) if row[key] != "" else math.nan


def check_row(row: dict, p: dict, infeasible_by_load: bool) -> list[str]:
    """Status and objective identity of one CSV row."""
    where = f"row trial {row['trial']} slot {row['slot']} {row['algorithm']} {row['sweep_value']}"
    status = row["status"]
    if status not in ("Optimal", "Infeasible"):
        return [f"{where}: status {status}"]
    if infeasible_by_load and status != "Infeasible":
        return [f"{where}: status {status} although the steering load rules out any beamforming"]
    if row["stage"] == "training":
        return []  # the training row carries a division, not an objective
    obj = _f(row, "objective_mw")
    if status == "Infeasible":
        return [] if math.isnan(obj) else [f"{where}: Infeasible row with objective {obj!r}"]
    expected = p["beta"] * _f(row, "p_pu_total_mw") + p["gamma"] * _f(row, "p_op_total_mw")
    if not abs(obj - expected) <= ARITH_RTOL * max(1.0, abs(expected)):
        return [f"{where}: objective_mw {obj!r} != beta*p_pu + gamma*p_op = {expected!r}"]
    return []


def check_brute(rows: list[dict]) -> list[str]:
    """Per trial, the brute-force objective is no worse than either baseline."""
    by_trial: dict[str, dict[str, dict]] = {}
    for row in rows:
        by_trial.setdefault(row["trial"], {})[row["algorithm"]] = row
    failures = []
    for trial, algs in by_trial.items():
        if not {"brute", "all-fet", "all-met"} <= algs.keys():
            failures.append(f"trial {trial}: missing brute or baseline row")
            continue
        base = [_f(algs[a], "objective_mw") for a in ("all-fet", "all-met")
                if algs[a]["status"] == "Optimal"]
        if algs["brute"]["status"] != "Optimal":
            if base:
                failures.append(f"trial {trial}: brute {algs['brute']['status']} but a baseline solved")
            continue
        brute = _f(algs["brute"], "objective_mw")
        if base and not brute <= min(base) + BRUTE_ATOL_MW:
            failures.append(f"trial {trial}: brute {brute!r} mW above baseline {min(base)!r} mW")
    return failures


def check_sweep(rows: list[dict]) -> list[str]:
    """Per draw: all-FET rows do not depend on p_amin, all-MET cost does not fall as it rises."""
    series: dict[tuple, list[dict]] = {}
    for row in rows:
        series.setdefault((row["trial"], row["algorithm"]), []).append(row)
    failures = []
    for (trial, alg), group in series.items():
        group = sorted(group, key=lambda r: float(r["sweep_value"]))
        if alg == "all-fet":
            keys = ("status", "objective_mw", "p_op_total_mw", "p_pu_total_mw", "division_bitmask")
            if len({tuple(r[k] for k in keys) for r in group}) != 1:
                failures.append(f"trial {trial}: all-FET rows differ across p_amin")
        elif alg == "all-met":
            for lo, hi in zip(group, group[1:]):
                a, b = _f(lo, "objective_mw"), _f(hi, "objective_mw")
                if lo["status"] == "Infeasible" and hi["status"] == "Optimal":
                    failures.append(f"trial {trial}: all-MET solves at {hi['sweep_value']} "
                                    f"dBm but not at {lo['sweep_value']} dBm")
                elif hi["status"] == lo["status"] == "Optimal" and b < a * (1 - MONOTONE_RTOL):
                    failures.append(f"trial {trial}: all-MET cost falls from {a!r} to {b!r} mW "
                                    f"as p_amin rises to {hi['sweep_value']} dBm")
    return failures


def check_longterm(rows: list[dict], n_et: int) -> list[str]:
    """Each long-term variant runs under its own fixed division."""
    frozen = {r["trial"]: r["division_bitmask"] for r in rows if r["stage"] == "training"}
    expected = {"all-fet": str((1 << n_et) - 1), "all-met": "0"}
    failures = []
    for row in rows:
        if row["stage"] != "longterm":
            continue
        want = frozen.get(row["trial"]) if row["algorithm"] == "frozen-hybrid" else expected.get(row["algorithm"])
        if row["division_bitmask"] != want:
            failures.append(f"trial {row['trial']} slot {row['slot']} {row['algorithm']}: "
                            f"division {row['division_bitmask']}, expected {want}")
    return failures
