"""Two-stage protocol: training to estimate FET affinity, then a frozen run.

During training every ET reports CSI each slot and the chosen single-slot
division algorithm runs on fresh fading; the fraction of slots an ET ends up
free determines its frozen role.  In the long-term stage the division stays
fixed, frozen FETs stop reporting CSI, and each slot solves the same problem
with their channel columns structurally removed (zeroed): free-terminal
floors depend only on geometry, so the solves are bit-identical whatever
those columns contained.
"""

from dataclasses import dataclass

import numpy as np

# the stage no longer calls solve_division, but perfbench/tracing.py wraps
# longterm.solve_division, so the name stays a module attribute
from .beamform import (  # noqa: F401
    GroupDivision,
    PowerReport,
    SystemParams,
    solve_division,
    solve_division_batch,
)
from .division import DivisionRunResult, Instance, algorithm1, algorithm2
from .sdp import SdpStatus, SolverOptions
from .topology import ChannelRealization, draw_channels

ALGORITHMS = {"alg1": algorithm1, "alg2": algorithm2}

Q_TRAINING = 10
DIVISION_THRESHOLD = 0.5


class TrainingFailure(RuntimeError):
    """No training slot solved; no division can be frozen.

    `status` is `Infeasible` when every slot was certified infeasible, and
    otherwise the status of the first slot whose solve did not converge.
    """

    def __init__(self, message: str, status: SdpStatus):
        super().__init__(message)
        self.status = status


@dataclass(frozen=True)
class TrainingResult:
    """Per-ET FET frequency over training plus the frozen division.

    `fet_frequency` divides by the number of training slots (unsolved
    slots, infeasible or not converged, count as never-FET); `slots_used` is
    the number of solved slots that actually contributed.
    """

    fet_frequency: np.ndarray
    frozen_division: GroupDivision
    slots_used: int

    def __post_init__(self):
        object.__setattr__(
            self, "fet_frequency", np.asarray(self.fet_frequency, dtype=float)
        )


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
    options: SolverOptions | None = None,
) -> TrainingResult:
    """Estimate each ET's FET frequency over `q_training` fading slots.

    `algorithm` (a name in `ALGORITHMS`, or a callable taking an `Instance`)
    runs once per slot on that slot's draw.  The frozen division assigns FET
    to every ET whose frequency reaches `threshold`; an exact tie freezes as
    FET (the CSI-free mode is cheaper).
    """
    if q_training < 1:
        raise ValueError("q_training must be at least 1")
    if not 0 <= threshold <= 1:
        raise ValueError("threshold must lie in [0, 1]")
    params = params or SystemParams()
    if callable(algorithm):
        run = algorithm
    elif algorithm in ALGORITHMS:
        run = ALGORITHMS[algorithm]
    else:
        raise ValueError(f"unknown algorithm {algorithm!r}; pick from {sorted(ALGORITHMS)}")

    counts = np.zeros(topology.n_et)
    slots_used = 0
    unsolved = None
    for slot in range(q_training):
        channels = draw_channels(topology, seed, slot, alpha_abs=params.alpha_abs)
        result: DivisionRunResult = run(Instance(topology, channels, params, options))
        if not result.report.feasible:
            if result.report.status is not SdpStatus.INFEASIBLE:
                unsolved = unsolved or result.report.status
            continue
        slots_used += 1
        for j in result.final_division.fet_set:
            counts[j] += 1
    if slots_used == 0:
        if unsolved is None:
            raise TrainingFailure(
                f"all {q_training} training slots were infeasible", SdpStatus.INFEASIBLE
            )
        raise TrainingFailure(
            f"no training slot solved among {q_training} "
            f"(some ended {unsolved.value}, feasibility unknown)",
            unsolved,
        )

    frequency = counts / q_training
    fet = frozenset(j for j in range(topology.n_et) if frequency[j] >= threshold)
    frozen = GroupDivision(topology.n_et, fet)
    return TrainingResult(fet_frequency=frequency, frozen_division=frozen, slots_used=slots_used)


def longterm_stage(
    topology,
    seed: int,
    division: GroupDivision,
    q_longterm: int,
    params: SystemParams | None = None,
    options: SolverOptions | None = None,
) -> list[PowerReport]:
    """Run `q_longterm` slots under a frozen division with silent FETs.

    Frozen FET channel columns are zeroed before each build: their floors
    are geometric, so results cannot depend on what those ETs would have
    reported.  Every slot has the same SDP structure, so the slots are
    solved together as one batch; each report equals what `solve_division`
    gives for its slot alone.  Unsolved slots yield NaN reports with
    `feasible` false and the solver's status (`Infeasible` or
    `MaxIterations`) in `status`.
    """
    if q_longterm < 0:
        raise ValueError("q_longterm must be nonnegative")
    params = params or SystemParams()
    division.validate_for(topology.n_et)
    draws = (
        mask_fet_channels(draw_channels(topology, seed, slot, alpha_abs=params.alpha_abs), division)
        for slot in range(q_longterm)
    )
    return solve_division_batch(topology, draws, division, params, options)
