"""Energy-user group division: iterative updating, oracle, and baselines.

The division loop alternates solving the beamforming SDP under the current
MET/FET split with a range-based reclassification of every ET, refined by
explicit two-way solves for terminals sitting near a free charge range
boundary.  Two initializations are provided (all-MET and green-range based),
plus an exhaustive brute-force oracle and the two fixed baselines.

Every search runs on an `Instance`: one channel draw with its parameters,
which solves each division at most once however many searches and rounds
ask for it.
"""

import logging
from dataclasses import dataclass
from enum import Enum

from .beamform import (
    GroupDivision,
    PowerReport,
    SystemParams,
    initial_green_range,
    solve_division,
    unsolved_report,
)
from .sdp import SdpSolution, SdpStatus, SolverOptions
from .topology import D_MIN_M, assigned_rrh

POOR_CHANNEL_FACTOR = 0.05
BOUNDARY_BAND = 0.05
MAX_DIVISION_ITERS = 50
BRUTE_FORCE_CAP = 12

_log = logging.getLogger(__name__)


class Termination(str, Enum):
    FIXED_POINT = "FixedPoint"
    CYCLE_BROKEN = "CycleBroken"
    INFEASIBLE = "Infeasible"
    ITERATION_CAP = "IterationCap"
    # a division proved infeasible mid-run; the search returns the last solved round
    INFEASIBLE_REVERTED = "InfeasibleReverted"
    # an SDP solve ended without converging, so feasibility is unknown
    NOT_CONVERGED = "NotConverged"

    @classmethod
    def for_failure(cls, status: SdpStatus) -> "Termination":
        """Termination of a run that ends on a solve with non-Optimal `status`."""
        return cls.INFEASIBLE if status is SdpStatus.INFEASIBLE else cls.NOT_CONVERGED


class InfeasibleDivision(RuntimeError):
    """The SDP under the requested division has no feasible point."""

    status = SdpStatus.INFEASIBLE


class UnsolvedDivision(RuntimeError):
    """The SDP under the requested division stopped without converging.

    Unlike `InfeasibleDivision` this says nothing about feasibility; `status`
    holds the solver's non-Optimal, non-Infeasible status.
    """

    def __init__(self, message: str, status: SdpStatus):
        super().__init__(message)
        self.status = status


@dataclass(frozen=True)
class DivisionRunResult:
    """Outcome of one division search.

    `history` records every solved division in round order as
    (division, objective); a terminal repeat entry marks FixedPoint and
    CycleBroken endings.  `iterations` counts solve rounds, terminal repeat
    excluded.
    """

    final_division: GroupDivision
    report: PowerReport
    iterations: int
    history: tuple
    termination: Termination


class Instance:
    """One channel draw's division problem: topology, channels, params, options.

    `evaluate(division)` returns `solve_division`'s (PowerReport, SdpSolution)
    and keeps it for the instance's lifetime, keyed by the division's bitmask,
    so every search run on one instance solves each division once.  Callers
    share the returned objects and must not modify them.
    """

    def __init__(
        self,
        topology,
        channels,
        params: SystemParams,
        options: SolverOptions | None = None,
    ):
        self.topology = topology
        self.channels = channels
        self.params = params
        self.options = options
        self._solved: dict[int, tuple[PowerReport, SdpSolution]] = {}

    def evaluate(self, division: GroupDivision) -> tuple[PowerReport, SdpSolution]:
        division.validate_for(self.topology.n_et)
        key = division.to_bitmask()
        if key not in self._solved:
            self._solved[key] = solve_division(
                self.topology, self.channels, division, self.params, self.options
            )
        return self._solved[key]


def _assigned_distance(topology, et_index: int) -> tuple[int, float]:
    n, dist = assigned_rrh(topology, et_index)
    return n, max(dist, D_MIN_M)


def _classify_by_ranges(topology, ranges) -> GroupDivision:
    """FET iff the assigned-RRH distance falls inside that RRH's range."""
    met, fet = set(), set()
    for j in range(topology.n_et):
        n, d = _assigned_distance(topology, j)
        (fet if d <= ranges[n] else met).add(j)
    return GroupDivision(met_set=frozenset(met), fet_set=frozenset(fet))


def channel_check(
    topology,
    channels,
    division: GroupDivision,
    params: SystemParams,
    poor_channel_factor: float = POOR_CHANNEL_FACTOR,
) -> GroupDivision:
    """Demote METs whose assigned-RRH link is far below its path-loss mean.

    A unit-variance fading draw has mean power gain d^(-alpha); METs whose
    realized gain falls under `poor_channel_factor` times that are moved to
    the FET set, where only geometry matters.
    """
    met, fet = set(division.met_set), set(division.fet_set)
    for j in sorted(division.met_set):
        n, d = _assigned_distance(topology, j)
        gain = abs(channels.h_et[n, j]) ** 2
        if gain < poor_channel_factor * d ** (-params.alpha_abs):
            met.remove(j)
            fet.add(j)
    return GroupDivision(met_set=frozenset(met), fet_set=frozenset(fet))


def boundary_refine(
    instance: Instance,
    division: GroupDivision,
    ranges,
    boundary_band: float = BOUNDARY_BAND,
) -> GroupDivision:
    """Re-decide ETs within `boundary_band` (relative) of their RRH's range.

    Each boundary terminal is evaluated under both assignments, holding all
    others fixed, and the cheaper solved option is committed before moving
    to the next index (ties prefer FET).  If neither assignment solves to
    optimality (infeasible, or not converged) the current one is kept.
    """
    topology = instance.topology
    met, fet = set(division.met_set), set(division.fet_set)
    for j in range(topology.n_et):
        n, d = _assigned_distance(topology, j)
        if not abs(d - ranges[n]) < boundary_band * ranges[n]:
            continue
        as_met = GroupDivision(frozenset(met | {j}), frozenset(fet - {j}))
        as_fet = GroupDivision(frozenset(met - {j}), frozenset(fet | {j}))
        rep_met, _ = instance.evaluate(as_met)
        rep_fet, _ = instance.evaluate(as_fet)
        if not rep_met.feasible and not rep_fet.feasible:
            if rep_met.status is rep_fet.status is SdpStatus.INFEASIBLE:
                why = "infeasible both ways"
            else:
                why = f"unsolved ({rep_met.status.value} as MET, {rep_fet.status.value} as FET)"
            _log.warning("boundary ET %d %s; keeping assignment", j, why)
            continue
        if rep_fet.feasible and (not rep_met.feasible or rep_fet.objective <= rep_met.objective):
            met.discard(j)
            fet.add(j)
        else:
            fet.discard(j)
            met.add(j)
    return GroupDivision(met_set=frozenset(met), fet_set=frozenset(fet))


def update_division(
    instance: Instance,
    prev: GroupDivision,
    boundary_band: float = BOUNDARY_BAND,
) -> tuple[GroupDivision, PowerReport]:
    """One division update round.

    Evaluates `prev`, reclassifies every ET against the resulting free charge
    ranges, refines boundary terminals, and returns the new division
    together with the report of `prev`.  Raises `InfeasibleDivision` only
    for a certified infeasible solve and `UnsolvedDivision` for one that did
    not converge.
    """
    report, _ = instance.evaluate(prev)
    if report.status is SdpStatus.INFEASIBLE:
        raise InfeasibleDivision(f"division {prev} admits no feasible beamforming")
    if not report.feasible:
        raise UnsolvedDivision(
            f"division {prev}: solver ended with {report.status.value}", report.status
        )
    division = _classify_by_ranges(instance.topology, report.ranges)
    division = boundary_refine(instance, division, report.ranges, boundary_band)
    return division, report


def _single_result(
    division: GroupDivision,
    report: PowerReport,
    termination: Termination = Termination.FIXED_POINT,
) -> DivisionRunResult:
    """A one-round result: `division` with its terminal repeat when `report`
    solved, else a single NaN entry and the failure's termination."""
    if not report.feasible:
        return DivisionRunResult(
            final_division=division,
            report=report,
            iterations=1,
            history=((division, float("nan")),),
            termination=Termination.for_failure(report.status),
        )
    history = ((division, report.objective), (division, report.objective))
    return DivisionRunResult(division, report, 1, history, termination)


def _iterate(initial: GroupDivision, update_fn, max_iters: int, n_rrh: int) -> DivisionRunResult:
    """Drive `update_fn` to a fixed point, cycle, infeasibility, or the cap.

    A division that fails to solve mid-run reverts to the last solved round:
    an infeasible one ends as InfeasibleReverted, a non-converged one as
    NotConverged.  A failure in the first round has nothing to revert to and
    returns a NaN report with the solver's status.
    """
    rounds: list[tuple[GroupDivision, PowerReport]] = []
    group = initial
    for _ in range(max_iters):
        try:
            nxt, report = update_fn(group)
        except (InfeasibleDivision, UnsolvedDivision) as exc:
            status = exc.status
            if not rounds:
                return _single_result(group, unsolved_report(n_rrh, status))
            termination = (
                Termination.INFEASIBLE_REVERTED
                if status is SdpStatus.INFEASIBLE
                else Termination.NOT_CONVERGED
            )
            last_group, last_report = rounds[-1]
            return DivisionRunResult(
                final_division=last_group,
                report=last_report,
                iterations=len(rounds),
                history=tuple((g, r.objective) for g, r in rounds),
                termination=termination,
            )
        rounds.append((group, report))
        if nxt == group:
            history = tuple((g, r.objective) for g, r in rounds) + ((group, report.objective),)
            return DivisionRunResult(group, report, len(rounds), history, Termination.FIXED_POINT)
        seen = [g for g, _ in rounds]
        if nxt in seen:
            start = seen.index(nxt)
            cycle = rounds[start:]
            best_group, best_report = min(cycle, key=lambda gr: gr[1].objective)
            history = tuple((g, r.objective) for g, r in rounds) + (
                (nxt, rounds[start][1].objective),
            )
            return DivisionRunResult(
                best_group, best_report, len(rounds), history, Termination.CYCLE_BROKEN
            )
        group = nxt
    last_group, last_report = rounds[-1]
    return DivisionRunResult(
        final_division=last_group,
        report=last_report,
        iterations=len(rounds),
        history=tuple((g, r.objective) for g, r in rounds),
        termination=Termination.ITERATION_CAP,
    )


def _run_iterative(
    instance: Instance,
    initial: GroupDivision,
    poor_channel_factor: float,
    boundary_band: float,
    max_division_iters: int,
) -> DivisionRunResult:
    start = channel_check(
        instance.topology, instance.channels, initial, instance.params, poor_channel_factor
    )

    def update(prev: GroupDivision):
        return update_division(instance, prev, boundary_band)

    return _iterate(start, update, max_division_iters, instance.topology.n_rrh)


def algorithm1(
    instance: Instance,
    poor_channel_factor: float = POOR_CHANNEL_FACTOR,
    boundary_band: float = BOUNDARY_BAND,
    max_division_iters: int = MAX_DIVISION_ITERS,
) -> DivisionRunResult:
    """Iterative division starting from the all-MET assumption."""
    return _run_iterative(
        instance,
        GroupDivision.all_met(instance.topology.n_et),
        poor_channel_factor,
        boundary_band,
        max_division_iters,
    )


def algorithm2(
    instance: Instance,
    poor_channel_factor: float = POOR_CHANNEL_FACTOR,
    boundary_band: float = BOUNDARY_BAND,
    max_division_iters: int = MAX_DIVISION_ITERS,
) -> DivisionRunResult:
    """Iterative division seeded by each RRH's green-energy-only range."""
    topology = instance.topology
    green = initial_green_range(instance.params)
    met, fet = set(), set()
    for j in range(topology.n_et):
        n, d = _assigned_distance(topology, j)
        (fet if d <= green[n] else met).add(j)
    initial = GroupDivision(met_set=frozenset(met), fet_set=frozenset(fet))
    return _run_iterative(
        instance, initial, poor_channel_factor, boundary_band, max_division_iters
    )


def brute_force(instance: Instance, brute_force_cap: int = BRUTE_FORCE_CAP) -> DivisionRunResult:
    """Exhaustive search over all 2^U_E divisions; the optimality oracle.

    The minimum is certified only if every division solved or was certified
    infeasible.  When any solve did not converge the cheapest solved division
    is still returned, but with termination NotConverged.
    """
    n_et = instance.topology.n_et
    if n_et > brute_force_cap:
        raise ValueError(f"{n_et} ETs exceed the brute force cap of {brute_force_cap}")
    best: tuple[GroupDivision, PowerReport] | None = None
    unsolved = None
    for mask in range(1 << n_et):
        division = GroupDivision.from_bitmask(mask, n_et)
        report, _ = instance.evaluate(division)
        if not report.feasible:
            if report.status is not SdpStatus.INFEASIBLE:
                unsolved = unsolved or report.status
        elif best is None or report.objective < best[1].objective:
            best = (division, report)
    if best is None:
        status = unsolved or SdpStatus.INFEASIBLE
        return _single_result(
            GroupDivision.all_met(n_et), unsolved_report(instance.topology.n_rrh, status)
        )
    termination = Termination.FIXED_POINT if unsolved is None else Termination.NOT_CONVERGED
    return _single_result(*best, termination)


def baseline_all_fet(instance: Instance) -> DivisionRunResult:
    """Fixed division treating every ET as free; infeasibility is a valid outcome."""
    division = GroupDivision.all_fet(instance.topology.n_et)
    return _single_result(division, instance.evaluate(division)[0])


def baseline_all_met(instance: Instance) -> DivisionRunResult:
    """Fixed division keeping every ET CSI-assisted."""
    division = GroupDivision.all_met(instance.topology.n_et)
    return _single_result(division, instance.evaluate(division)[0])
