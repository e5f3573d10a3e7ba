"""Beamforming instance construction, recovery, and power accounting.

Builds the joint beamforming / purchased-power SDP for a given energy-user
group division, recovers per-IT beamformers from the block solution, and
derives all reported power quantities (operational power, purchased power,
free charge ranges).

Unit convention: `SystemParams` and `PowerReport` power fields are in watts.
The SDP instance itself is scaled to milliwatts so that harvest floors
(1e-5 W) and green supply (a few W) stay within six orders of magnitude of
each other; `PowerReport.objective` is kept in the instance's milliwatt
scale so it is directly comparable to `SdpSolution.objective_value`.
Recovered beamformers are in the instance units (amplitudes in sqrt-mW);
use `BeamformerSet.scaled(1e-3)` for watt-scale amplitudes.
"""

from dataclasses import dataclass, field

import numpy as np

from .sdp import (
    SdpConstraint,
    SdpProblem,
    SdpSolution,
    SdpStatus,
    solve,
    solve_batch,
)
from .topology import D_MIN_M, assigned_rrh

MW_PER_W = 1e3
RANK_TOL = 1e-4
N_CANDIDATES = 200
_RANDOMIZATION_SEED = 0x03E6A


class RecoveryFailed(RuntimeError):
    """No feasible beamformer candidate could be extracted from the blocks."""


@dataclass(frozen=True)
class SystemParams:
    """Physical-layer and cost parameters. All powers in watts.

    `p_en` is the per-RRH green harvest (length N). `p_fmin <= p_amin`:
    users that gave up CSI cannot demand more than the assisted floor.
    """

    sinr_min: float = 20.0
    p_amin: float = 10 ** (-1.7) / MW_PER_W  # -17 dBm
    p_fmin: float = 1e-5  # -20 dBm
    eta: float = 0.8
    alpha_abs: float = 2.5
    p_en: tuple[float, ...] = (2.0, 2.5, 3.0)
    beta: float = 1.0
    gamma: float = 1.0
    noise_power: float = 1e-7

    def __post_init__(self):
        object.__setattr__(self, "p_en", tuple(float(p) for p in self.p_en))
        if not self.sinr_min > 0:
            raise ValueError("sinr_min must be positive")
        if not (0 <= self.p_fmin <= self.p_amin):
            raise ValueError("need 0 <= p_fmin <= p_amin")
        if not 0 < self.eta <= 1:
            raise ValueError("eta must lie in (0, 1]")
        if not self.alpha_abs > 0:
            raise ValueError("alpha_abs must be positive")
        if any(p < 0 for p in self.p_en):
            raise ValueError("green supply must be nonnegative")
        if not (self.beta > 0 and self.gamma > 0):
            raise ValueError("cost weights must be positive")
        if not self.noise_power > 0:
            raise ValueError("noise_power must be positive")


@dataclass(frozen=True)
class GroupDivision:
    """Division of ETs 0..n_et-1: `fet_set` holds the free (FET) ones and
    every other ET is CSI-assisted (MET)."""

    n_et: int
    fet_set: frozenset[int] = field(default_factory=frozenset)

    def __post_init__(self):
        object.__setattr__(self, "fet_set", frozenset(int(e) for e in self.fet_set))
        if self.n_et < 0 or not self.fet_set <= set(range(self.n_et)):
            raise ValueError(f"fet_set must be a subset of range({self.n_et})")

    @property
    def met_set(self) -> frozenset[int]:
        return frozenset(range(self.n_et)) - self.fet_set

    def validate_for(self, n_et: int) -> None:
        if self.n_et != n_et:
            raise ValueError(f"division covers {self.n_et} ETs, not {n_et}")

    @classmethod
    def all_met(cls, n_et: int) -> "GroupDivision":
        return cls(n_et)

    @classmethod
    def all_fet(cls, n_et: int) -> "GroupDivision":
        return cls(n_et, frozenset(range(n_et)))

    @classmethod
    def from_bitmask(cls, mask: int, n_et: int) -> "GroupDivision":
        """Bit e set means ET e is free (FET)."""
        if not 0 <= mask < (1 << n_et):
            raise ValueError("bitmask out of range")
        return cls(n_et, frozenset(e for e in range(n_et) if mask >> e & 1))

    def to_bitmask(self) -> int:
        return sum(1 << e for e in self.fet_set)


@dataclass(frozen=True)
class BeamformerSet:
    """Per-IT beamforming vectors; column i of `omega` serves IT i."""

    omega: np.ndarray

    def __post_init__(self):
        om = np.asarray(self.omega, dtype=complex)
        if om.ndim != 2:
            raise ValueError("omega must be an N x U_D matrix")
        if not np.all(np.isfinite(om.view(float))):
            raise ValueError("omega entries must be finite")
        object.__setattr__(self, "omega", om)

    def scaled(self, power_factor: float) -> "BeamformerSet":
        """Rescale so that beam powers change by `power_factor`."""
        return BeamformerSet(self.omega * np.sqrt(power_factor))


@dataclass(frozen=True)
class PowerReport:
    """Per-RRH power accounting; powers in watts, objective in milliwatts.

    The fields hold a solved point only when `status` is Optimal.  Otherwise
    `status` says why not: `Infeasible` is certified (no feasible
    beamforming exists), while `MaxIterations` means the solver stopped
    without converging and feasibility is unknown.
    """

    p_op: np.ndarray
    p_pu: np.ndarray
    ranges: np.ndarray
    objective: float
    status: SdpStatus = SdpStatus.OPTIMAL

    def __post_init__(self):
        for name in ("p_op", "p_pu", "ranges"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))

    @property
    def feasible(self) -> bool:
        """True when the fields hold a solved (Optimal) point."""
        return self.status is SdpStatus.OPTIMAL


def _met_channel(channels, et_index: int) -> np.ndarray:
    h_et = channels.h_et
    if et_index >= h_et.shape[1]:
        raise ValueError(f"no channel column for MET {et_index}")
    return h_et[:, et_index]


def build_sdp(topology, channels, division: GroupDivision, params: SystemParams) -> SdpProblem:
    """Assemble the group-division beamforming SDP in milliwatt units.

    Blocks: one PSD matrix W_i (N x N) per IT. Scalars: purchased power
    P_pu[n] per RRH, nonnegative by cone membership. Constraint order:
    per-IT SINR floors, per-MET harvest floors (ascending ET index),
    per-FET harvest floors (ascending ET index), per-RRH power balance.
    FET channel columns are never read; their floor uses only the assigned
    RRH distance.
    """
    n_rrh, n_it = topology.n_rrh, topology.n_it
    if n_it < 1:
        raise ValueError("at least one IT is required")
    if len(params.p_en) != n_rrh:
        raise ValueError("p_en length must match the RRH count")
    division.validate_for(topology.n_et)

    noise_mw = params.noise_power * MW_PER_W
    p_amin_mw = params.p_amin * MW_PER_W
    p_fmin_mw = params.p_fmin * MW_PER_W
    p_en_mw = np.asarray(params.p_en) * MW_PER_W

    constraints = []
    for i in range(n_it):
        h = channels.h_id[:, i]
        big_h = np.outer(h, h.conj())
        blocks = {j: -big_h for j in range(n_it)}
        blocks[i] = big_h / params.sinr_min
        constraints.append(SdpConstraint(blocks, {}, ">=", noise_mw))

    for j in sorted(division.met_set):
        h = _met_channel(channels, j)
        gain = params.eta * np.outer(h, h.conj())
        constraints.append(
            SdpConstraint({i: gain for i in range(n_it)}, {}, ">=", p_amin_mw)
        )

    for j in sorted(division.fet_set):
        n, dist = assigned_rrh(topology, j)
        d = max(dist, D_MIN_M)
        sel = np.zeros((n_rrh, n_rrh))
        sel[n, n] = params.eta * d ** (-params.alpha_abs)
        constraints.append(
            SdpConstraint({i: sel for i in range(n_it)}, {}, ">=", p_fmin_mw)
        )

    for n in range(n_rrh):
        sel = np.zeros((n_rrh, n_rrh))
        sel[n, n] = 1.0
        constraints.append(
            SdpConstraint({i: sel for i in range(n_it)}, {n: -1.0}, "<=", float(p_en_mw[n]))
        )

    return SdpProblem(
        block_dims=(n_rrh,) * n_it,
        n_scalars=n_rrh,
        obj_blocks={i: params.gamma * np.eye(n_rrh) for i in range(n_it)},
        obj_scalars={n: params.beta for n in range(n_rrh)},
        constraints=tuple(constraints),
    )


def _candidate_finish(problem, beams, tol=1e-9):
    """Scale beams by a common factor and complete scalars so every row holds.

    Returns (scale, scalar_values, objective) or None when the candidate
    cannot be repaired. Supports the shape produced by `build_sdp`: ">=" rows
    touch only blocks, "<=" rows carry at most one scalar with negative
    coefficient, no "=" rows among randomization-relevant constraints.
    """
    quads = []
    for con in problem.constraints:
        q = sum(
            float(np.real(beams[b].conj() @ a @ beams[b])) for b, a in con.blocks.items()
        )
        quads.append(q)

    scale = 1.0
    for con, q in zip(problem.constraints, quads):
        if con.sense != ">=":
            continue
        if con.scalars:
            return None
        if con.rhs <= 0:
            if q < con.rhs:
                return None
            continue
        if q <= tol * con.rhs:
            return None
        scale = max(scale, con.rhs / q)

    scalars = np.zeros(problem.n_scalars)
    for con, q in zip(problem.constraints, quads):
        lhs = q * scale
        if con.sense == ">=":
            continue
        if con.sense == "=":
            if con.scalars or abs(lhs - con.rhs) > 1e-6 * max(1.0, abs(con.rhs)):
                return None
            continue
        if not con.scalars:
            if lhs > con.rhs + tol * max(1.0, abs(con.rhs)):
                return None
            continue
        if len(con.scalars) != 1:
            return None
        (j, coeff), = con.scalars.items()
        if coeff >= 0:
            return None
        scalars[j] = max(scalars[j], (lhs - con.rhs) / -coeff)

    objective = scale * sum(
        float(np.real(beams[b].conj() @ c @ beams[b]))
        for b, c in problem.obj_blocks.items()
    ) + sum(c * scalars[j] for j, c in problem.obj_scalars.items())
    return scale, scalars, objective


def recover_beamformers(solution: SdpSolution, problem: SdpProblem) -> BeamformerSet:
    """Extract one beamforming vector per PSD block.

    Blocks whose dominant eigenvalue carries at least (1 - RANK_TOL) of the
    trace yield the scaled principal eigenvector; otherwise Gaussian
    randomization draws `N_CANDIDATES` vectors from each such block's
    covariance, repairs each candidate set by minimal common rescaling plus
    scalar completion, and keeps the cheapest feasible one.
    """
    if solution.status is not SdpStatus.OPTIMAL:
        raise ValueError("recovery requires an Optimal solution")

    eig_beams, needs_random = [], []
    for b, w in enumerate(solution.block_values):
        lam, vec = np.linalg.eigh((w + w.conj().T) / 2)
        lam = np.clip(lam, 0.0, None)
        trace = float(lam.sum())
        if trace <= 0:
            eig_beams.append(np.zeros(w.shape[0], dtype=complex))
            continue
        eig_beams.append(np.sqrt(lam[-1]) * vec[:, -1])
        if lam[-1] < (1 - RANK_TOL) * trace:
            needs_random.append(b)

    finish = _candidate_finish(problem, eig_beams)
    if not needs_random and finish is not None:
        scale, _, _ = finish
        return BeamformerSet(np.column_stack(eig_beams) * np.sqrt(scale))

    rng = np.random.default_rng(_RANDOMIZATION_SEED)
    factors = {}
    for b in needs_random:
        w = solution.block_values[b]
        lam, vec = np.linalg.eigh((w + w.conj().T) / 2)
        factors[b] = vec * np.sqrt(np.clip(lam, 0.0, None))

    best = None
    if finish is not None:
        best = (finish[2], eig_beams, finish[0])
    for _ in range(N_CANDIDATES):
        beams = list(eig_beams)
        for b, fac in factors.items():
            z = rng.standard_normal(fac.shape[1]) + 1j * rng.standard_normal(fac.shape[1])
            beams[b] = fac @ (z / np.sqrt(2))
        finish = _candidate_finish(problem, beams)
        if finish is None:
            continue
        scale, _, objective = finish
        if best is None or objective < best[0]:
            best = (objective, beams, scale)

    if best is None:
        raise RecoveryFailed("no feasible beamformer candidate found")
    _, beams, scale = best
    return BeamformerSet(np.column_stack(beams) * np.sqrt(scale))


def compute_sinr(beamformers: BeamformerSet, channels, it_index: int, params: SystemParams) -> float:
    """Received SINR of one IT under the full beam set."""
    h = channels.h_id[:, it_index]
    gains = np.abs(h.conj() @ beamformers.omega) ** 2
    interference = float(gains.sum() - gains[it_index])
    return float(gains[it_index] / (params.noise_power + interference))


def met_harvest(beamformers: BeamformerSet, channels, et_index: int, params: SystemParams) -> float:
    """Energy harvested by a CSI-assisted ET across all IT beams, in watts."""
    h = _met_channel(channels, et_index)
    return float(params.eta * np.sum(np.abs(h.conj() @ beamformers.omega) ** 2))


def fet_harvest(p_op_assigned_rrh: float, distance: float, params: SystemParams) -> float:
    """Expected harvest of a free ET at `distance` from its assigned RRH."""
    if distance <= 0:
        raise ValueError("distance must be positive")
    return params.eta * p_op_assigned_rrh * distance ** (-params.alpha_abs)


def free_charge_range(p_op: float, params: SystemParams) -> float:
    """Largest distance at which a free ET still meets its harvest floor."""
    if p_op < 0:
        raise ValueError("p_op must be nonnegative")
    supply = params.eta * p_op
    if supply < params.p_fmin:
        return 0.0
    return float((supply / params.p_fmin) ** (1.0 / params.alpha_abs))


def initial_green_range(params: SystemParams) -> np.ndarray:
    """Free charge range of each RRH when spending only its green supply."""
    return np.array([free_charge_range(p, params) for p in params.p_en])


def power_report(source, params: SystemParams) -> PowerReport:
    """Summarize per-RRH powers from an SDP solution or a beamformer set.

    `source` is either an Optimal `SdpSolution` (blocks in mW) or a
    `BeamformerSet` in watt-scale amplitudes.
    """
    if isinstance(source, BeamformerSet):
        p_op = np.sum(np.abs(source.omega) ** 2, axis=1)
    elif isinstance(source, SdpSolution):
        if source.status is not SdpStatus.OPTIMAL:
            raise ValueError("power_report requires an Optimal solution")
        n_rrh = source.block_values[0].shape[0]
        p_op = np.zeros(n_rrh)
        for w in source.block_values:
            p_op += np.real(np.diag(w))
        p_op /= MW_PER_W
    else:
        raise TypeError("source must be an SdpSolution or BeamformerSet")

    p_en = np.asarray(params.p_en)
    if p_en.shape != p_op.shape:
        raise ValueError("p_en length must match the RRH count")
    p_pu = np.maximum(0.0, p_op - p_en)
    objective = MW_PER_W * float(params.beta * p_pu.sum() + params.gamma * p_op.sum())
    ranges = np.array([free_charge_range(p, params) for p in p_op])
    return PowerReport(p_op=p_op, p_pu=p_pu, ranges=ranges, objective=objective)


def unsolved_report(n_rrh: int, status: SdpStatus) -> PowerReport:
    """NaN placeholder for a division whose SDP ended with a non-Optimal status."""
    if status is SdpStatus.OPTIMAL:
        raise ValueError("an Optimal solve has a real report; use power_report")
    nan = np.full(n_rrh, np.nan)
    return PowerReport(
        p_op=nan,
        p_pu=nan.copy(),
        ranges=nan.copy(),
        objective=float("nan"),
        status=status,
    )


def _division_report(topology, solution: SdpSolution, params: SystemParams) -> PowerReport:
    """The power report of an Optimal solve, else a NaN report carrying the
    solver's status, so a solve that ran out of iterations is never reported
    as infeasible."""
    if solution.status is SdpStatus.OPTIMAL:
        return power_report(solution, params)
    return unsolved_report(topology.n_rrh, solution.status)


def solve_division(
    topology,
    channels,
    division: GroupDivision,
    params: SystemParams,
    problem: SdpProblem | None = None,
) -> tuple[PowerReport, SdpSolution]:
    """Solve the SDP for one division: `problem` if the caller built it
    already with `build_sdp` on the same arguments, else a new build."""
    if problem is None:
        problem = build_sdp(topology, channels, division, params)
    solution = solve(problem)
    return _division_report(topology, solution, params), solution


def solve_division_batch(topology, requests, params: SystemParams) -> list[PowerReport]:
    """Solve each (channels, division) pair of the iterable `requests` as
    one `solve_batch`, which builds the SDPs a batch at a time.

    Every division of one topology gives the same SDP structure, so the
    pairs may mix divisions.  Report i equals the report `solve_division`
    gives for the i-th pair.
    """
    problems = (build_sdp(topology, channels, division, params) for channels, division in requests)
    return [_division_report(topology, sol, params) for sol in solve_batch(problems)]
