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

from . import beamform
from .beamform import (
    GroupDivision,
    PowerReport,
    SystemParams,
    initial_green_range,
    power_report,
    solve_division,
    unsolved_report,
)
from .sdp import SdpSolution, SdpStatus, solve_key
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
    """One channel draw's division problem: topology, channels and params.

    `evaluate(division)` returns `solve_division`'s (PowerReport, SdpSolution).
    The first call for a division builds its SDP and looks its
    `sdp.solve_key` up in `store`, a dict from key to SdpSolution; only a
    miss is solved, from the problem already built.  The key pins the
    solution but not the parameters the report reads, so the report is
    derived with the instance's own params.  Instances of one draw may
    share a store: a sweep value that leaves a division's SDP unchanged
    then reuses its solution.  Each answer is also kept in `memo`, keyed by
    the division: one instance is one (topology, channels, params), so a
    repeated call returns the same report and solution objects without a
    build, a key or a new report.  Callers share the returned reports and
    solutions and must not modify them.
    """

    def __init__(self, topology, channels, params: SystemParams, store: dict | None = None):
        self.topology = topology
        self.channels = channels
        self.params = params
        self.store: dict[bytes, SdpSolution] = {} if store is None else store
        self.memo: dict[GroupDivision, tuple[PowerReport, SdpSolution]] = {}

    def evaluate(self, division: GroupDivision) -> tuple[PowerReport, SdpSolution]:
        if division in self.memo:
            return self.memo[division]
        # both calls go through names the benchmark's tracer wraps: the
        # builder as `beamform.build_sdp`, a miss as this module's global
        problem = beamform.build_sdp(self.topology, self.channels, division, self.params)
        key = solve_key(problem)
        if key in self.store:
            solution = self.store[key]
            answer = power_report(solution, self.params), solution
        else:
            answer = solve_division(self.topology, self.channels, division, self.params, problem)
            self.store[key] = answer[1]
        self.memo[division] = answer
        return answer


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
) -> GroupDivision:
    """Demote METs whose assigned-RRH link is far below its path-loss mean.

    A unit-variance fading draw has mean power gain d^(-alpha); METs whose
    realized gain falls under `POOR_CHANNEL_FACTOR` times that are moved to
    the FET set, where only geometry matters.
    """
    fet = set(division.fet_set)
    for j in sorted(division.met_set):
        n, d = _assigned_distance(topology, j)
        gain = abs(channels.h_et[n, j]) ** 2
        if gain < POOR_CHANNEL_FACTOR * d ** (-params.alpha_abs):
            fet.add(j)
    return GroupDivision(division.n_et, fet)


def _cheapest(candidates) -> tuple[GroupDivision, PowerReport] | None:
    """The first (division, report) pair of least objective among those
    that solved, or None if none solved.  Callers list the candidates in
    their order of preference, so a tie goes to the earlier one."""
    best = None
    for division, report in candidates:
        if report.feasible and (best is None or report.objective < best[1].objective):
            best = (division, report)
    return best


def boundary_refine(instance: Instance, division: GroupDivision, ranges) -> GroupDivision:
    """Re-decide ETs within `BOUNDARY_BAND` (relative) of their RRH's range.

    Each boundary terminal is evaluated under both assignments, holding all
    others fixed, and the cheaper solved option is committed before moving
    to the next index (ties prefer FET).  If neither assignment solves to
    optimality (infeasible, or not converged) the current one is kept.
    """
    topology = instance.topology
    fet = set(division.fet_set)
    for j in range(topology.n_et):
        n, d = _assigned_distance(topology, j)
        if not abs(d - ranges[n]) < BOUNDARY_BAND * ranges[n]:
            continue
        as_met = GroupDivision(division.n_et, fet - {j})
        as_fet = GroupDivision(division.n_et, fet | {j})
        rep_met, _ = instance.evaluate(as_met)
        rep_fet, _ = instance.evaluate(as_fet)
        best = _cheapest([(as_fet, rep_fet), (as_met, rep_met)])
        if best is None:
            if rep_met.status is rep_fet.status is SdpStatus.INFEASIBLE:
                why = "infeasible both ways"
            else:
                why = f"unsolved ({rep_met.status.value} as MET, {rep_fet.status.value} as FET)"
            _log.warning("boundary ET %d %s; keeping assignment", j, why)
            continue
        fet = set(best[0].fet_set)
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


def _run_result(rounds, termination, *terminal_repeat, final=None) -> DivisionRunResult:
    """The result of solved `rounds` of (division, report): it ends on `final`,
    by default the last round, and its history is every round, then the
    `terminal_repeat` entry if given."""
    history = tuple((g, r.objective) for g, r in rounds) + terminal_repeat
    return DivisionRunResult(*(final or rounds[-1]), len(rounds), history, termination)


def _single_result(
    division: GroupDivision,
    report: PowerReport,
    termination: Termination = Termination.FIXED_POINT,
) -> DivisionRunResult:
    """A one-round result: `division` with its terminal repeat when `report`
    solved, else a single NaN entry and the failure's termination."""
    rounds = [(division, report)]
    if not report.feasible:
        return _run_result(rounds, Termination.for_failure(report.status))
    return _run_result(rounds, termination, (division, report.objective))


def _iterate(initial: GroupDivision, update_fn) -> DivisionRunResult:
    """Drive `update_fn` to a fixed point, cycle, infeasibility, or the cap
    of `MAX_DIVISION_ITERS` rounds.

    A division that fails to solve mid-run reverts to the last solved round:
    an infeasible one ends as InfeasibleReverted, a non-converged one as
    NotConverged.  A failure in the first round has nothing to revert to and
    returns that round's NaN report with the solver's status.
    """
    rounds: list[tuple[GroupDivision, PowerReport]] = []
    group = initial
    for _ in range(MAX_DIVISION_ITERS):
        nxt, report = update_fn(group)
        if not report.feasible:
            if not rounds:
                return _single_result(group, report)
            if report.status is SdpStatus.INFEASIBLE:
                return _run_result(rounds, Termination.INFEASIBLE_REVERTED)
            return _run_result(rounds, Termination.NOT_CONVERGED)
        rounds.append((group, report))
        if nxt == group:
            return _run_result(rounds, Termination.FIXED_POINT, (group, report.objective))
        seen = [g for g, _ in rounds]
        if nxt in seen:
            start = seen.index(nxt)
            repeat = (nxt, rounds[start][1].objective)
            return _run_result(rounds, Termination.CYCLE_BROKEN, repeat, final=_cheapest(rounds[start:]))
        group = nxt
    return _run_result(rounds, Termination.ITERATION_CAP)


def _run_iterative(instance: Instance, initial: GroupDivision) -> DivisionRunResult:
    start = channel_check(instance.topology, instance.channels, initial, instance.params)

    def update(prev: GroupDivision):
        return update_division(instance, prev)

    return _iterate(start, update)


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
    divisions = (GroupDivision.from_bitmask(mask, n_et) for mask in range(1 << n_et))
    tried = [(division, instance.evaluate(division)[0]) for division in divisions]
    unsolved = [r.status for _, r in tried if r.status not in (SdpStatus.OPTIMAL, SdpStatus.INFEASIBLE)]
    best = _cheapest(tried)
    if best is None:
        status = unsolved[0] if unsolved else SdpStatus.INFEASIBLE
        return _single_result(
            GroupDivision.all_met(n_et), unsolved_report(instance.topology.n_rrh, status)
        )
    termination = Termination.NOT_CONVERGED if unsolved else Termination.FIXED_POINT
    return _single_result(*best, termination)


def baseline_all_fet(instance: Instance) -> DivisionRunResult:
    """Fixed division treating every ET as free; infeasibility is a valid outcome."""
    division = GroupDivision.all_fet(instance.topology.n_et)
    return _single_result(division, instance.evaluate(division)[0])


def baseline_all_met(instance: Instance) -> DivisionRunResult:
    """Fixed division keeping every ET CSI-assisted."""
    division = GroupDivision.all_met(instance.topology.n_et)
    return _single_result(division, instance.evaluate(division)[0])
