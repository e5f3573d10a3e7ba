"""Self-contained invariant suite: solver accuracy, recovery soundness,
division optimality sandwich, range identities, and determinism.

Each check is independent and reports the seed needed to reproduce any
failure; the CLI `validate` subcommand runs them all and exits nonzero if
any fail.
"""

from dataclasses import dataclass

import numpy as np

from .beamform import (
    GroupDivision,
    SystemParams,
    build_sdp,
    compute_sinr,
    fet_harvest,
    free_charge_range,
    met_harvest,
    power_report,
    recover_beamformers,
)
from .division import (
    Instance,
    Termination,
    algorithm1,
    algorithm2,
    baseline_all_fet,
    baseline_all_met,
    brute_force,
    update_division,
)
from .sdp import SdpConstraint, SdpProblem, SdpStatus, solve, verify
from .topology import draw_channels, generate_topology


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _known_optimum_instance(seed: int) -> tuple[SdpProblem, float]:
    """Rank-one-floor instance whose optimum is known in closed form.

    min tr(C W) + d x  s.t.  tr(h h^H W) >= c, x >= b  has optimum
    c / (h^H C^-1 h) + d b for positive definite C.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x5E1F]))
    n = int(rng.integers(2, 4))
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, _ = np.linalg.qr(m)
    lam = rng.uniform(0.5, 2.0, n)
    cost = (q * lam) @ q.conj().T
    h = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    c = float(rng.uniform(0.5, 3.0))
    d = float(rng.uniform(0.5, 2.0))
    b = float(rng.uniform(0.2, 1.5))
    quad = float(np.real(h.conj() @ np.linalg.solve(cost, h)))
    problem = SdpProblem(
        block_dims=(n,),
        n_scalars=1,
        obj_blocks={0: cost},
        obj_scalars={0: d},
        constraints=(
            SdpConstraint({0: np.outer(h, h.conj())}, {}, ">=", c),
            SdpConstraint({}, {0: 1.0}, ">=", b),
        ),
    )
    return problem, c / quad + d * b


def check_solver_accuracy(n_instances: int = 10) -> CheckResult:
    """Closed-form objectives are met to 1e-6 with residuals under 1e-7."""
    for seed in range(n_instances):
        problem, expected = _known_optimum_instance(seed)
        solution = solve(problem)
        if solution.status is not SdpStatus.OPTIMAL:
            return CheckResult(
                "solver-accuracy", False, f"seed {seed}: status {solution.status.value}"
            )
        rel = abs(solution.objective_value - expected) / max(1.0, abs(expected))
        report = verify(problem, solution)
        if rel > 1e-6 or report.max_violation > 1e-7:
            return CheckResult(
                "solver-accuracy",
                False,
                f"seed {seed}: relative error {rel:.2e}, violation {report.max_violation:.2e}",
            )
    return CheckResult("solver-accuracy", True, f"{n_instances} closed-form instances")


def check_recovery_soundness(seed: int = 11) -> CheckResult:
    """Recovered beams satisfy the original floors; objective near the bound."""
    topology = generate_topology(seed=seed, n_rrh=3, n_it=3, n_et=7)
    channels = draw_channels(topology, seed=seed, slot=0)
    params = SystemParams()
    division = GroupDivision.all_met(topology.n_et)
    problem = build_sdp(topology, channels, division, params)
    solution = solve(problem)
    if solution.status is not SdpStatus.OPTIMAL:
        return CheckResult("recovery-soundness", False, f"seed {seed}: solve failed")
    beams = recover_beamformers(solution, problem).scaled(1.0 / 1e3)
    rel = 1e-5
    for i in range(topology.n_it):
        sinr = compute_sinr(beams, channels, i, params)
        if sinr < params.sinr_min * (1 - rel):
            return CheckResult(
                "recovery-soundness", False, f"seed {seed}: IT {i} SINR {sinr:.6f}"
            )
    for j in division.met_set:
        harvest = met_harvest(beams, channels, j, params)
        if harvest < params.p_amin * (1 - rel):
            return CheckResult(
                "recovery-soundness", False, f"seed {seed}: MET {j} harvest {harvest:.3e}"
            )
    recovered = power_report(beams, params)
    if recovered.objective > solution.objective_value * (1 + 1e-4):
        return CheckResult(
            "recovery-soundness",
            False,
            f"seed {seed}: recovered objective {recovered.objective:.9f} "
            f"exceeds bound {solution.objective_value:.9f}",
        )
    return CheckResult("recovery-soundness", True, f"seed {seed}, 3 ITs, 7 METs")


def check_division_sandwich(seed: int = 21) -> CheckResult:
    """Brute force lower-bounds both algorithms and both baselines."""
    topology = generate_topology(seed=seed, n_rrh=3, n_it=2, n_et=4)
    channels = draw_channels(topology, seed=seed, slot=0)
    instance = Instance(topology, channels, SystemParams())
    oracle = brute_force(instance)
    if oracle.termination is not Termination.FIXED_POINT:
        return CheckResult(
            "division-sandwich", False, f"seed {seed}: oracle ended {oracle.termination.value}"
        )
    rivals = [
        run(instance) for run in (algorithm1, algorithm2, baseline_all_fet, baseline_all_met)
    ]
    for result in rivals:
        if result.report.feasible and oracle.report.objective > result.report.objective + 1e-6:
            return CheckResult(
                "division-sandwich",
                False,
                f"seed {seed}: oracle {oracle.report.objective:.9f} above "
                f"{result.report.objective:.9f}",
            )
    return CheckResult("division-sandwich", True, f"seed {seed}, 4 ETs, 16 divisions")


def check_range_identities() -> CheckResult:
    """Harvest/range inversion and strict monotonicity of the range."""
    params = SystemParams()
    prev = -1.0
    for p_op in (1e-4, 1e-2, 0.5, 1.0, 2.0, 3.0):
        r = free_charge_range(p_op, params)
        if r > 0:
            back = fet_harvest(p_op, r, params)
            if abs(back - params.p_fmin) > 1e-9 * params.p_fmin:
                return CheckResult(
                    "range-identities", False, f"p_op {p_op}: inversion residual {back:.3e}"
                )
        if r <= prev:
            return CheckResult("range-identities", False, f"p_op {p_op}: range not increasing")
        prev = r
    return CheckResult("range-identities", True, "inversion within 1e-9 over 6 powers")


def check_power_clamp(seed: int = 11) -> CheckResult:
    """The solver leaves no slack in purchased power: P_pu = max(0, P_op - P_en)."""
    topology = generate_topology(seed=seed, n_rrh=3, n_it=3, n_et=7)
    channels = draw_channels(topology, seed=seed, slot=0)
    for p_en in ((2.0, 2.5, 3.0), (0.002, 0.002, 0.002)):
        params = SystemParams(p_en=p_en)
        problem = build_sdp(topology, channels, GroupDivision.all_met(topology.n_et), params)
        solution = solve(problem)
        if solution.status is not SdpStatus.OPTIMAL:
            return CheckResult("power-clamp", False, f"seed {seed}, p_en {p_en}: solve failed")
        report = power_report(solution, params)
        slack = float(np.max(np.abs(solution.scalar_values / 1e3 - report.p_pu)))
        if slack > 1e-7:
            return CheckResult(
                "power-clamp", False, f"seed {seed}, p_en {p_en}: clamp slack {slack:.2e} W"
            )
    return CheckResult("power-clamp", True, f"seed {seed}, two supply regimes, slack <= 1e-7")


def check_division_invariants(seed: int = 14) -> CheckResult:
    """History ET counts, terminal repeats, idempotence, iteration bounds."""
    topology = generate_topology(seed=seed, n_rrh=3, n_it=3, n_et=5)
    channels = draw_channels(topology, seed=seed, slot=0)
    instance = Instance(topology, channels, SystemParams())
    for name, run in (("alg1", algorithm1), ("alg2", algorithm2)):
        result = run(instance)
        if result.iterations > 50:
            return CheckResult(
                "division-invariants", False, f"seed {seed} {name}: {result.iterations} rounds"
            )
        for division, _ in result.history:
            if division.n_et != topology.n_et:
                return CheckResult(
                    "division-invariants",
                    False,
                    f"seed {seed} {name}: a division in history covers {division.n_et} ETs, "
                    f"the topology has {topology.n_et}",
                )
        if result.termination is Termination.FIXED_POINT:
            if result.history[-1][0] != result.history[-2][0]:
                return CheckResult(
                    "division-invariants", False, f"seed {seed} {name}: missing terminal repeat"
                )
            again, _ = update_division(instance, result.final_division)
            if again != result.final_division:
                return CheckResult(
                    "division-invariants", False, f"seed {seed} {name}: fixed point not idempotent"
                )
    return CheckResult("division-invariants", True, f"seed {seed}, both algorithms")


def check_determinism(seed: int = 33) -> CheckResult:
    """Same seed gives bit-identical topology, channels, and run outcome."""
    runs = []
    for _ in range(2):
        topology = generate_topology(seed=seed, n_rrh=3, n_it=3, n_et=5)
        channels = draw_channels(topology, seed=seed, slot=0)
        result = algorithm2(Instance(topology, channels, SystemParams()))
        runs.append((topology, channels, result))
    (t1, c1, r1), (t2, c2, r2) = runs
    if t1.rrh_positions != t2.rrh_positions or t1.et_positions != t2.et_positions:
        return CheckResult("determinism", False, f"seed {seed}: topology differs")
    if not np.array_equal(c1.h_et, c2.h_et) or not np.array_equal(c1.h_id, c2.h_id):
        return CheckResult("determinism", False, f"seed {seed}: channels differ")
    if r1.report.objective != r2.report.objective or r1.final_division != r2.final_division:
        return CheckResult("determinism", False, f"seed {seed}: run outcome differs")
    return CheckResult("determinism", True, f"seed {seed} reproduced bit-identically")


def run_all_checks() -> list[CheckResult]:
    return [
        check_solver_accuracy(),
        check_recovery_soundness(),
        check_division_sandwich(),
        check_range_identities(),
        check_power_clamp(),
        check_division_invariants(),
        check_determinism(),
    ]
