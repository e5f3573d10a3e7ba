"""Two-stage protocol: training to estimate FET affinity, then a frozen run.

During training every ET reports CSI each slot and the chosen single-slot
division algorithm runs on fresh fading; the fraction of slots an ET ends up
free determines its frozen role.  In the long-term stage the division stays
fixed, frozen FETs stop reporting CSI, and each slot solves the same problem
with their channel columns structurally removed (zeroed): free-terminal
floors depend only on geometry, so the solves are bit-identical whatever
those columns contained.  Both stages evaluate divisions through
`division.evaluate_all`, one `Instance` per slot (and per frozen division
in the long-term stage).
"""

from dataclasses import dataclass

import numpy as np

# this module calls no solve_division, but perfbench/tracing.py wraps
# longterm.solve_division, so the name stays a module attribute
from .beamform import GroupDivision, PowerReport, SystemParams, power_report, solve_division  # noqa: F401
from .division import DivisionRunResult, Instance, algorithm1, algorithm2, evaluate_all, solve_openings
from .sdp import SdpStatus
from .topology import ChannelRealization, draw_channels

ALGORITHMS = {"alg1": algorithm1, "alg2": algorithm2}

Q_TRAINING = 10
DIVISION_THRESHOLD = 0.5


@dataclass(frozen=True)
class TrainingResult:
    """Per-ET FET frequency over training plus the frozen division.

    `fet_frequency` divides by the number of training slots (unsolved
    slots, infeasible or not converged, count as never-FET); `slots_used` is
    the number of solved slots that actually contributed.  `status` is
    `Optimal` when any slot solved.  Otherwise no division can be frozen
    (`frozen_division` then means nothing), and `status` is `Infeasible`
    when every slot was certified infeasible, else the status of the first
    slot whose solve did not converge.
    """

    fet_frequency: np.ndarray
    frozen_division: GroupDivision
    slots_used: int
    status: SdpStatus

    def __post_init__(self):
        object.__setattr__(
            self, "fet_frequency", np.asarray(self.fet_frequency, dtype=float)
        )

    @property
    def feasible(self) -> bool:
        """True when some slot solved, so `frozen_division` holds."""
        return self.status is SdpStatus.OPTIMAL


def mask_fet_channels(channels: ChannelRealization, division: GroupDivision) -> ChannelRealization:
    """Zero the channel columns of free terminals: they are silent uplink."""
    h_et = channels.h_et.copy()
    for j in division.fet_set:
        h_et[:, j] = 0.0
    return ChannelRealization(h_id=channels.h_id, h_et=h_et)


def training_stage(
    topology,
    seed: int,
    q_training: int = Q_TRAINING,
    threshold: float = DIVISION_THRESHOLD,
    params: SystemParams | None = None,
    algorithm: str = "alg2",
) -> TrainingResult:
    """Estimate each ET's FET frequency over `q_training` fading slots.

    The search `ALGORITHMS[algorithm]` runs once per slot on that slot's
    draw.  Every slot's opening division is solved first, as one batch
    (`division.solve_openings`); a name with no `division.OPENINGS` entry
    solves nothing up front.  The frozen division assigns FET
    to every ET whose frequency reaches `threshold`; an exact tie freezes as
    FET (the CSI-free mode is cheaper).  A training in which no slot solves
    is an outcome, not an error: the result's `status` reports it.
    """
    if q_training < 1:
        raise ValueError("q_training must be at least 1")
    if not 0 <= threshold <= 1:
        raise ValueError("threshold must lie in [0, 1]")
    params = params or SystemParams()
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}; pick from {sorted(ALGORITHMS)}")
    run = ALGORITHMS[algorithm]

    instances = [
        Instance(topology, draw_channels(topology, seed, slot, alpha_abs=params.alpha_abs), params)
        for slot in range(q_training)
    ]
    solve_openings((instance, algorithm) for instance in instances)
    counts = np.zeros(topology.n_et)
    slots_used = 0
    unsolved = None
    for instance in instances:
        result: DivisionRunResult = run(instance)
        if not result.report.feasible:
            if result.report.status is not SdpStatus.INFEASIBLE:
                unsolved = unsolved or result.report.status
            continue
        slots_used += 1
        for j in result.final_division.fet_set:
            counts[j] += 1
    frequency = counts / q_training
    fet = frozenset(j for j in range(topology.n_et) if frequency[j] >= threshold)
    status = SdpStatus.OPTIMAL if slots_used else unsolved or SdpStatus.INFEASIBLE
    return TrainingResult(frequency, GroupDivision(topology.n_et, fet), slots_used, status)


def longterm_stage(
    topology,
    seed: int,
    divisions: list[GroupDivision],
    q_longterm: int,
    params: SystemParams | None = None,
) -> list[list[PowerReport]]:
    """Run `q_longterm` slots under each frozen division of `divisions`,
    with silent FETs; returns one list of slot reports per entry, in order.

    Each slot is drawn once and shared by every division.  Frozen FET
    channel columns are zeroed before each build: their floors are
    geometric, so results cannot depend on what those ETs would have
    reported.  Each distinct division is evaluated once, and all its
    (division, slot) problems go to one `evaluate_all` call, which builds
    and solves each distinct one once, in the fewest near-equal batches
    (all divisions of a topology share one SDP structure); each slot's
    report is the `power_report` of its solution, equal to what
    `solve_division` gives for that slot alone.  Unsolved
    slots yield NaN reports with `feasible` false and the solver's status
    (`Infeasible` or `MaxIterations`) in `status`.
    """
    if q_longterm < 0:
        raise ValueError("q_longterm must be nonnegative")
    params = params or SystemParams()
    distinct = list(dict.fromkeys(divisions))
    for division in distinct:
        division.validate_for(topology.n_et)
    draws = [draw_channels(topology, seed, slot, alpha_abs=params.alpha_abs) for slot in range(q_longterm)]
    solutions = evaluate_all(
        (Instance(topology, mask_fet_channels(ch, division), params), division)
        for division in distinct
        for ch in draws
    )
    reports = [power_report(solution, params) for solution in solutions]
    by_division = {d: reports[i * q_longterm:(i + 1) * q_longterm] for i, d in enumerate(distinct)}
    return [by_division[d] for d in divisions]
