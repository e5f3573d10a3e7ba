"""Energy-user group division: iterative updating, oracle, and baselines.

The division loop alternates solving the beamforming SDP under the current
MET/FET split with a range-based reclassification of every ET, refined by
explicit two-way solves for terminals sitting near a free charge range
boundary.  Two initializations are provided (all-MET and green-range based),
plus an exhaustive brute-force oracle and the two fixed baselines.

Every search runs on an `Instance`: one channel draw with its parameters.
Its solutions live in a store keyed by the SDP's content, so each distinct
SDP is solved at most once however many searches, rounds and instances
sharing the store ask for it.
"""

import logging
from dataclasses import dataclass
from enum import Enum

from .beamform import (
    GroupDivision,
    PowerReport,
    SystemParams,
    _division_report,
    build_sdp,
    initial_green_range,
    solve_division,
    unsolved_report,
)
from .sdp import SdpSolution, SdpStatus, SolverOptions, solve_key
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

    `evaluate(division)` returns `solve_division`'s (PowerReport, SdpSolution).
    It builds the division's SDP and looks its `sdp.solve_key` up in
    `store`, a dict from key to SdpSolution; only a miss is solved.  The
    key pins the solution but not the parameters the report reads, so each
    call derives the report with the instance's own params.  Instances of
    one draw may share a store: a sweep value that leaves a division's SDP
    unchanged then reuses its solution.  Callers share the returned
    solutions and must not modify them.
    """

    def __init__(
        self,
        topology,
        channels,
        params: SystemParams,
        options: SolverOptions | None = None,
        store: dict | None = None,
    ):
        self.topology = topology
        self.channels = channels
        self.params = params
        self.options = options
        self.store: dict[bytes, SdpSolution] = {} if store is None else store

    def evaluate(self, division: GroupDivision) -> tuple[PowerReport, SdpSolution]:
        problem = build_sdp(self.topology, self.channels, division, self.params)
        key = solve_key(problem, self.options)
        if key in self.store:
            solution = self.store[key]
            return _division_report(self.topology, solution, self.params), solution
        # a miss goes through the module global, which the benchmark's tracer
        # wraps; it builds the SDP again (about 0.14 ms against a solve of ~30)
        report, solution = solve_division(
            self.topology, self.channels, division, self.params, self.options
        )
        self.store[key] = solution
        return report, solution


def _assigned_distance(topology, et_index: int) -> tuple[int, float]:
    n, dist = assigned_rrh(topology, et_index)
    return n, max(dist, D_MIN_M)


def _classify_by_ranges(topology, ranges) -> GroupDivision:
    """FET iff the assigned-RRH distance falls inside that RRH's range."""
    fet = set()
    for j in range(topology.n_et):
        n, d = _assigned_distance(topology, j)
        if d <= ranges[n]:
            fet.add(j)
    return GroupDivision(topology.n_et, fet)


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
    fet = set(division.fet_set)
    for j in sorted(division.met_set):
        n, d = _assigned_distance(topology, j)
        gain = abs(channels.h_et[n, j]) ** 2
        if gain < poor_channel_factor * d ** (-params.alpha_abs):
            fet.add(j)
    return GroupDivision(division.n_et, fet)


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
    fet = set(division.fet_set)
    for j in range(topology.n_et):
        n, d = _assigned_distance(topology, j)
        if not abs(d - ranges[n]) < boundary_band * ranges[n]:
            continue
        as_met = GroupDivision(division.n_et, fet - {j})
        as_fet = GroupDivision(division.n_et, fet | {j})
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
            fet.add(j)
        else:
            fet.discard(j)
    return GroupDivision(division.n_et, fet)


def update_division(
    instance: Instance, prev: GroupDivision
) -> tuple[GroupDivision | None, PowerReport]:
    """One division update round.

    Evaluates `prev`, reclassifies every ET against the resulting free charge
    ranges, refines boundary terminals, and returns the new division
    together with the report of `prev`.  When `prev` does not solve the new
    division is None and the report carries the solver's status.
    """
    report, _ = instance.evaluate(prev)
    if not report.feasible:
        return None, report
    division = _classify_by_ranges(instance.topology, report.ranges)
    division = boundary_refine(instance, division, report.ranges)
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


def _iterate(initial: GroupDivision, update_fn, max_iters: int) -> DivisionRunResult:
    """Drive `update_fn` to a fixed point, cycle, infeasibility, or the cap.

    A division that fails to solve mid-run reverts to the last solved round:
    an infeasible one ends as InfeasibleReverted, a non-converged one as
    NotConverged.  A failure in the first round has nothing to revert to and
    returns that round's NaN report with the solver's status.
    """
    if max_iters < 1:
        raise ValueError("max_iters must be at least 1")
    rounds: list[tuple[GroupDivision, PowerReport]] = []

    def result(group, report, termination, *terminal_repeat) -> DivisionRunResult:
        history = tuple((g, r.objective) for g, r in rounds) + terminal_repeat
        return DivisionRunResult(group, report, len(rounds), history, termination)

    group = initial
    for _ in range(max_iters):
        nxt, report = update_fn(group)
        if not report.feasible:
            if not rounds:
                return _single_result(group, report)
            if report.status is SdpStatus.INFEASIBLE:
                return result(*rounds[-1], Termination.INFEASIBLE_REVERTED)
            return result(*rounds[-1], Termination.NOT_CONVERGED)
        rounds.append((group, report))
        if nxt == group:
            return result(group, report, Termination.FIXED_POINT, (group, report.objective))
        seen = [g for g, _ in rounds]
        if nxt in seen:
            start = seen.index(nxt)
            best = min(rounds[start:], key=lambda gr: gr[1].objective)
            return result(*best, Termination.CYCLE_BROKEN, (nxt, rounds[start][1].objective))
        group = nxt
    return result(*rounds[-1], Termination.ITERATION_CAP)


def _run_iterative(instance: Instance, initial: GroupDivision) -> DivisionRunResult:
    start = channel_check(instance.topology, instance.channels, initial, instance.params)

    def update(prev: GroupDivision):
        return update_division(instance, prev)

    return _iterate(start, update, MAX_DIVISION_ITERS)


def algorithm1(instance: Instance) -> DivisionRunResult:
    """Iterative division starting from the all-MET assumption."""
    return _run_iterative(instance, GroupDivision.all_met(instance.topology.n_et))


def algorithm2(instance: Instance) -> DivisionRunResult:
    """Iterative division seeded by each RRH's green-energy-only range."""
    initial = _classify_by_ranges(instance.topology, initial_green_range(instance.params))
    return _run_iterative(instance, initial)


def brute_force(instance: Instance) -> DivisionRunResult:
    """Exhaustive search over all 2^U_E divisions; the optimality oracle.

    The minimum is certified only if every division solved or was certified
    infeasible.  When any solve did not converge the cheapest solved division
    is still returned, but with termination NotConverged.
    """
    n_et = instance.topology.n_et
    if n_et > BRUTE_FORCE_CAP:
        raise ValueError(f"{n_et} ETs exceed the brute force cap of {BRUTE_FORCE_CAP}")
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
