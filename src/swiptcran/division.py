"""Energy-user group division: iterative updating, oracle, and baselines.

The division loop alternates solving the beamforming SDP under the current
MET/FET split with a range-based reclassification of every ET, refined by
explicit two-way solves for terminals sitting near a free charge range
boundary.  Two initializations are provided (all-MET and green-range based),
plus an exhaustive brute-force oracle and the two fixed baselines.

Every search runs on an `Instance`: one channel draw with its parameters.
`evaluate_all` is the one place that evaluates divisions, for the
searches, their openings and the long-term stage: each distinct SDP,
keyed by what it is built from (`beamform.sdp_key`), is built and solved
at most once however many searches, rounds and instances sharing a store
ask for it.  Each search except brute force opens with a division known
before any solve (`OPENINGS`), so `solve_openings` can evaluate the
openings of many searches in one call.
"""

import logging
from dataclasses import dataclass
from enum import Enum

from . import beamform, sdp
from .beamform import (
    GroupDivision,
    PowerReport,
    SystemParams,
    initial_green_range,
    power_report,
    sdp_key,
    solve_division,
    unsolved_report,
)
from .sdp import SdpSolution, SdpStatus
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

    `evaluate(division)` is `evaluate_all` on one pair.  `store` maps an
    SDP's `beamform.sdp_key` to its SdpSolution; instances of one draw may
    share it, so a sweep value that leaves a division's SDP unchanged
    reuses its solution.  The key pins the solution but not every parameter
    the report reads, so each answer's report is made from the asking
    instance's own params.  Callers share the returned solutions and must
    not modify them.
    """

    def __init__(self, topology, channels, params: SystemParams, store: dict | None = None):
        self.topology = topology
        self.channels = channels
        self.params = params
        self.store: dict[tuple, SdpSolution] = {} if store is None else store

    def evaluate(self, division: GroupDivision) -> tuple[PowerReport, SdpSolution]:
        return evaluate_all([(self, division)])[0]


def evaluate_all(asks) -> list[tuple[PowerReport, SdpSolution]]:
    """Answer each (instance, division) pair of `asks`, in order, with what
    `solve_division` gives for it alone.

    Every pair is keyed by `sdp_key` first, with no build.  A pair whose
    key is not in its asker's store is a miss; each missed key is built
    and solved once, and every asker's store takes the solution.  The
    misses are built in the fewest near-equal batches of at most
    `sdp.BATCH_SIZE` (150 as 3 x 50), each once the batch ahead of it is
    solved.  A batch is solved as one `sdp.solve_batch` (a lone miss by
    `solve_division`), which equals solving alone and takes problems of
    one structure: the instances of one call share their RRH, IT and ET
    counts.  Each report is made from its asker's params.
    """
    keyed = [(inst, d, sdp_key(inst.topology, inst.channels, d, inst.params)) for inst, d in asks]
    misses: dict[tuple, tuple[Instance, GroupDivision]] = {}
    for inst, d, key in keyed:
        if key not in inst.store:
            misses.setdefault(key, (inst, d))
    keys = list(misses)
    n = len(keys)
    chunks = -(-n // sdp.BATCH_SIZE)
    solved: dict[tuple, SdpSolution] = {}
    for c in range(chunks):
        batch = keys[c * n // chunks:(c + 1) * n // chunks]
        asked = [misses[key] for key in batch]
        # built through the module attribute, which the benchmark's tracer wraps
        problems = [beamform.build_sdp(i.topology, i.channels, d, i.params) for i, d in asked]
        if len(batch) == 1:
            # a lone miss is solved through this module's global, the one
            # name the benchmark's tracer counts solves at
            [(inst, d)] = asked
            solutions = [solve_division(inst.topology, inst.channels, d, inst.params, problems[0])[1]]
        else:
            solutions = sdp.solve_batch(problems)
        solved.update(zip(batch, solutions))
    answers = []
    for inst, _, key in keyed:
        solution = inst.store.setdefault(key, solved.get(key))
        answers.append((power_report(solution, inst.params), solution))
    return answers


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


def _channel_checked(instance: Instance, division: GroupDivision) -> GroupDivision:
    return channel_check(instance.topology, instance.channels, division, instance.params)


# the first division each search evaluates, named as in `run.algorithms`;
# brute force opens with every division and has no entry
OPENINGS = {
    "alg1": lambda instance: _channel_checked(instance, GroupDivision.all_met(instance.topology.n_et)),
    "alg2": lambda instance: _channel_checked(
        instance, _classify_by_ranges(instance.topology, initial_green_range(instance.params))
    ),
    "all-fet": lambda instance: GroupDivision.all_fet(instance.topology.n_et),
    "all-met": lambda instance: GroupDivision.all_met(instance.topology.n_et),
}


def solve_openings(asks) -> None:
    """Evaluate, in one `evaluate_all` call, the openings of the searches
    `asks` names as (instance, search name) pairs; a name without an entry
    in `OPENINGS` is skipped.  A search run afterwards returns what it
    returns without this call, and one on an instance that shares an asked
    instance's draw, params and store finds its opening solved there."""
    evaluate_all((inst, OPENINGS[name](inst)) for inst, name in asks if name in OPENINGS)


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


def _run_iterative(instance: Instance, name: str) -> DivisionRunResult:
    def update(prev: GroupDivision):
        return update_division(instance, prev)

    return _iterate(OPENINGS[name](instance), update)


def algorithm1(instance: Instance) -> DivisionRunResult:
    """Iterative division starting from the all-MET assumption, channel-checked."""
    return _run_iterative(instance, "alg1")


def algorithm2(instance: Instance) -> DivisionRunResult:
    """Iterative division seeded by each RRH's green-energy-only range,
    channel-checked."""
    return _run_iterative(instance, "alg2")


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


def _fixed(instance: Instance, name: str) -> DivisionRunResult:
    division = OPENINGS[name](instance)
    return _single_result(division, instance.evaluate(division)[0])


def baseline_all_fet(instance: Instance) -> DivisionRunResult:
    """Fixed division treating every ET as free; infeasibility is a valid outcome."""
    return _fixed(instance, "all-fet")


def baseline_all_met(instance: Instance) -> DivisionRunResult:
    """Fixed division keeping every ET CSI-assisted."""
    return _fixed(instance, "all-met")
