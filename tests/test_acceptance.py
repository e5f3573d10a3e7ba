"""Acceptance suite: one test per release criterion.

Each test is self-contained and prints one pass/fail line under `pytest -v`.
Criterion 3 exercises the reference-scale load (3 RRHs, 4 ITs, 13 dB SINR
floors); that load is infeasible for every channel realization, because four
interference-coupled SINR floors of gamma = 20 carry a steering load of
4 * gamma/(1+gamma) = 3.81 > 3 = N, so the test documents the blocking fact
rather than hiding it.  Criteria 4-6 therefore run the division machinery at
3 ITs, where the problem is feasible and every claim is checkable.
"""

import time

import numpy as np
import pytest
from scipy import stats

from oracles import oracle_instance
from swiptcran.beamform import (
    MW_PER_W,
    GroupDivision,
    SystemParams,
    build_sdp,
    compute_sinr,
    met_harvest,
    recover_beamformers,
)
from swiptcran.config import dbm_to_watts
from swiptcran.division import (
    Instance,
    algorithm1,
    algorithm2,
    baseline_all_fet,
    baseline_all_met,
    brute_force,
)
from swiptcran.longterm import (
    longterm_stage,
    mask_fet_channels,
    training_stage,
)
from swiptcran.sdp import SdpStatus, solve, verify
from swiptcran.topology import ChannelRealization, draw_channels, generate_topology
from swiptcran.validate import run_all_checks

PARAMS = SystemParams()


def _instance(seed: int, n_it: int, n_et: int):
    topo = generate_topology(seed=seed, n_rrh=3, n_it=n_it, n_et=n_et)
    return topo, draw_channels(topo, seed=seed, slot=0)


def test_criterion_1_solver_closed_form_family():
    """100 known-optimum SDPs: rel error <= 1e-6, residual <= 1e-7, < 50 ms each."""
    worst_rel, worst_viol, worst_ms = 0.0, 0.0, 0.0
    for seed in range(100):
        problem, value, _, _ = oracle_instance(seed)
        start = time.perf_counter()
        solution = solve(problem)
        ms = (time.perf_counter() - start) * 1e3
        assert solution.status is SdpStatus.OPTIMAL, f"seed {seed}: {solution.status}"
        rel = abs(solution.objective_value - value) / max(1.0, abs(value))
        report = verify(problem, solution, tol=1e-7)
        worst_rel = max(worst_rel, rel)
        worst_viol = max(worst_viol, report.max_violation)
        worst_ms = max(worst_ms, ms)
        assert rel <= 1e-6, f"seed {seed}: relative objective error {rel:.3e}"
        assert report.max_violation <= 1e-7, f"seed {seed}: violation {report.max_violation:.3e}"
        assert ms < 50.0, f"seed {seed}: solve took {ms:.1f} ms"
    print(
        f"100 instances: worst rel err {worst_rel:.3e}, "
        f"worst violation {worst_viol:.3e}, worst solve {worst_ms:.1f} ms"
    )


def test_criterion_2_single_rrh_single_it_closed_form():
    """1 RRH / 1 IT / 0 ET: minimum power equals sinr_min * noise / |h|^2."""
    params = SystemParams(p_en=(2.0,))
    for seed in range(50):
        topo = generate_topology(seed=seed, n_rrh=1, n_it=1, n_et=0)
        ch = draw_channels(topo, seed=seed, slot=0)
        problem = build_sdp(topo, ch, GroupDivision.all_met(0), params)
        solution = solve(problem)
        assert solution.status is SdpStatus.OPTIMAL, f"seed {seed}: {solution.status}"
        trace_w = float(np.real(np.trace(solution.block_values[0]))) / MW_PER_W
        gain = float(np.abs(ch.h_id[0, 0]) ** 2)
        expected = params.sinr_min * params.noise_power / gain
        rel = abs(trace_w - expected) / expected
        assert rel <= 1e-6, f"seed {seed}: tr(W) off by {rel:.3e} relative"


def test_criterion_3_relaxation_tightness_at_reference_load():
    """200 instances at 3 RRH / 4 IT / 7 MET: eigenvector recovery on >= 95%.

    Expected to fail: this load is infeasible for every realization (steering
    load 4 * 20/21 = 3.81 exceeds the 3 RRHs), so no instance can reach the
    recovery stage.  The assertion message carries the measured counts.
    """
    n_instances = 200
    eig_ok = rand_ok = optimal = infeasible_certified = 0
    inflation_bound = True
    for seed in range(n_instances):
        topo, ch = _instance(seed, n_it=4, n_et=7)
        problem = build_sdp(topo, ch, GroupDivision.all_met(7), PARAMS)
        solution = solve(problem)
        if solution.status is not SdpStatus.OPTIMAL:
            if solution.status is SdpStatus.INFEASIBLE and solution.detail:
                infeasible_certified += 1
            continue
        optimal += 1
        beams = recover_beamformers(solution, problem).scaled(1.0 / MW_PER_W)
        floors_met = all(
            compute_sinr(beams, ch, i, PARAMS) >= PARAMS.sinr_min * (1 - 1e-5)
            for i in range(4)
        ) and all(
            met_harvest(beams, ch, j, PARAMS) >= PARAMS.p_amin * (1 - 1e-5)
            for j in range(7)
        )
        if not floors_met:
            continue
        spectra = [np.linalg.eigvalsh(w) for w in solution.block_values]
        rank_one = all(s[-1] >= (1 - 1e-4) * s.sum() for s in spectra)
        if rank_one:
            eig_ok += 1
        else:
            rand_ok += 1
            recovered_mw = float(np.sum(np.abs(beams.omega) ** 2)) * MW_PER_W
            inflation_bound &= recovered_mw <= 1.05 * solution.objective_value

    assert eig_ok >= 0.95 * n_instances, (
        f"dominant-eigenvector recovery succeeded on {eig_ok}/{n_instances} instances "
        f"({optimal} solved to optimality, {infeasible_certified} certified infeasible): "
        "four interference-coupled SINR floors of 13 dB carry a combined steering load "
        "of 4*20/21 = 3.81, which exceeds what 3 single-antenna RRHs can deliver, so "
        "every realization at this scale is infeasible by construction"
    )
    assert inflation_bound, "randomization fallback exceeded 5% objective inflation"
    assert rand_ok <= 0.05 * n_instances


def test_criterion_4_oracle_sandwich():
    """50 instances, 4 ETs: heuristics within 1e-6 mW of brute force, and no
    worse than the better fixed baseline on >= 80%; total under 5 minutes."""
    start = time.perf_counter()
    n_instances = 50
    beats_baseline = {"alg1": 0, "alg2": 0}
    for seed in range(n_instances):
        instance = Instance(*_instance(seed, n_it=3, n_et=4), PARAMS)
        oracle = brute_force(instance)
        fet = baseline_all_fet(instance)
        met = baseline_all_met(instance)
        baseline_objs = [
            r.report.objective for r in (fet, met) if r.report.feasible
        ]
        best_baseline = min(baseline_objs) if baseline_objs else None
        for name, alg in (("alg1", algorithm1), ("alg2", algorithm2)):
            result = alg(instance)
            if oracle.report.feasible and result.report.feasible:
                gap = result.report.objective - oracle.report.objective
                assert gap >= -1e-6, f"seed {seed}: {name} beat the exhaustive oracle by {-gap:.3e} mW"
            assert oracle.report.feasible or not result.report.feasible, (
                f"seed {seed}: {name} claimed feasibility the exhaustive search disproved"
            )
            if best_baseline is None or (
                result.report.feasible and result.report.objective <= best_baseline + 1e-6
            ):
                beats_baseline[name] += 1
    elapsed = time.perf_counter() - start
    for name, count in beats_baseline.items():
        assert count >= 0.8 * n_instances, (
            f"{name} matched the better baseline on only {count}/{n_instances} instances"
        )
    assert elapsed < 300.0, f"sandwich runtime {elapsed:.1f} s exceeds 5 minutes"
    print(f"sandwich: {beats_baseline} over {n_instances} instances in {elapsed:.1f} s")


def test_criterion_5_assisted_floor_sweep_trend():
    """Sweeping the assisted floor over {-20,-18,-17,-15} dBm with 200 paired
    trials, each hybrid algorithm's mean advantage over all-MET is
    non-decreasing and strictly positive at -15 dBm (paired test, p < 0.05)."""
    values_dbm = (-20.0, -18.0, -17.0, -15.0)
    n_trials = 200
    params_by_value = [
        SystemParams(p_amin=dbm_to_watts(v)) for v in values_dbm
    ]

    objective = {
        name: np.full((len(values_dbm), n_trials), np.nan)
        for name in ("alg1", "alg2", "all-met")
    }
    for trial in range(n_trials):
        topo, ch = _instance(trial, n_it=3, n_et=7)
        # one store per draw, as `cli.run_sweep` shares: an SDP no p_amin
        # value changes is solved once
        store = {}
        for k, params in enumerate(params_by_value):
            instance = Instance(topo, ch, params, store)
            runs = {
                "alg1": algorithm1(instance),
                "alg2": algorithm2(instance),
                "all-met": baseline_all_met(instance),
            }
            for name, result in runs.items():
                if result.report.feasible:
                    objective[name][k, trial] = result.report.objective

    for name in ("alg1", "alg2"):
        paired = ~np.isnan(objective[name]).any(axis=0)
        paired &= ~np.isnan(objective["all-met"]).any(axis=0)
        n_paired = int(paired.sum())
        assert n_paired >= 0.9 * n_trials, f"{name}: only {n_paired} fully feasible trials"
        advantage = objective["all-met"][:, paired] - objective[name][:, paired]
        means = advantage.mean(axis=1)
        for k in range(len(values_dbm) - 1):
            assert means[k + 1] >= means[k] - 1e-9, (
                f"{name}: mean advantage fell from {means[k]:.4f} to {means[k + 1]:.4f} mW "
                f"between {values_dbm[k]} and {values_dbm[k + 1]} dBm"
            )
        result = stats.ttest_rel(
            objective["all-met"][-1, paired], objective[name][-1, paired],
            alternative="greater",
        )
        assert means[-1] > 0, f"{name}: advantage at -15 dBm is {means[-1]:.4f} mW"
        assert result.pvalue < 0.05, f"{name}: paired p-value {result.pvalue:.3g}"
        print(
            f"{name}: advantage over all-MET {np.round(means, 3)} mW across "
            f"{values_dbm} dBm, n={n_paired}, p={result.pvalue:.2e}"
        )


def test_criterion_6_longterm_cumulative_trend():
    """Training (10 slots) then 50 frozen slots over 20 trials: frozen-hybrid
    cumulative consumption <= all-MET at the final slot (paired, p < 0.05);
    the all-FET slot infeasibility rate is printed."""
    n_trials = 20
    q_training, q_longterm = 10, 50
    hybrid_cum, all_met_cum = [], []
    all_fet_infeasible = all_fet_slots = 0
    trained = 0
    for trial in range(n_trials):
        topo = generate_topology(seed=trial, n_rrh=3, n_it=3, n_et=7)
        training = training_stage(topo, seed=1000 + trial, q_training=q_training, params=PARAMS)
        if not training.feasible:
            continue
        trained += 1
        divisions = {
            "hybrid": training.frozen_division,
            "all-met": GroupDivision.all_met(7),
            "all-fet": GroupDivision.all_fet(7),
        }
        stage = longterm_stage(
            topo, seed=2000 + trial, divisions=list(divisions.values()), q_longterm=q_longterm,
            params=PARAMS,
        )
        cums = {}
        for name, reports in zip(divisions, stage):
            cums[name] = sum(r.objective for r in reports if r.feasible)
            if name == "all-fet":
                all_fet_slots += len(reports)
                all_fet_infeasible += sum(1 for r in reports if not r.feasible)
        hybrid_cum.append(cums["hybrid"])
        all_met_cum.append(cums["all-met"])

    assert trained >= 0.9 * n_trials, f"training failed on {n_trials - trained} trials"
    hybrid = np.array(hybrid_cum)
    all_met = np.array(all_met_cum)
    result = stats.ttest_rel(all_met, hybrid, alternative="greater")
    fet_rate = all_fet_infeasible / all_fet_slots if all_fet_slots else float("nan")
    print(
        f"cumulative after {q_longterm} slots: hybrid {hybrid.mean():.1f} mW vs "
        f"all-MET {all_met.mean():.1f} mW over {trained} trials, p={result.pvalue:.2e}; "
        f"all-FET slot infeasibility rate {fet_rate:.3f}"
    )
    assert hybrid.mean() <= all_met.mean(), (
        f"frozen-hybrid mean {hybrid.mean():.2f} mW exceeds all-MET {all_met.mean():.2f} mW"
    )
    assert result.pvalue < 0.05, f"paired p-value {result.pvalue:.3g}"


def test_criterion_7_invariant_suite():
    """The built-in validation suite reports zero failures."""
    results = run_all_checks()
    failed = [r for r in results if not r.passed]
    assert not failed, "; ".join(f"{r.name}: {r.detail}" for r in failed)
    assert len(results) == 7


def test_criterion_8_fet_csi_isolation(monkeypatch):
    """Garbling (a fortiori zeroing) frozen-FET channel columns changes no
    long-term-stage output bit."""
    import swiptcran.longterm as lt

    topo = generate_topology(seed=3, n_rrh=3, n_it=3, n_et=7)
    training = training_stage(topo, seed=1003, q_training=10, params=PARAMS)
    assert training.feasible, f"training ended {training.status.value}"
    division = training.frozen_division
    assert division.fet_set, "frozen division has no FETs; pick another seed"

    (baseline,) = longterm_stage(topo, seed=2003, divisions=[division], q_longterm=10, params=PARAMS)

    real_draw = lt.draw_channels

    def garbled_draw(topology, seed, slot, alpha_abs=2.5):
        ch = real_draw(topology, seed, slot, alpha_abs)
        h_et = ch.h_et.copy()
        for j in division.fet_set:
            h_et[:, j] = 1e9 * (1.0 - 1.0j)
        return ChannelRealization(h_id=ch.h_id, h_et=h_et)

    monkeypatch.setattr(lt, "draw_channels", garbled_draw)
    (garbled,) = longterm_stage(topo, seed=2003, divisions=[division], q_longterm=10, params=PARAMS)

    monkeypatch.setattr(
        lt, "draw_channels",
        lambda topology, seed, slot, alpha_abs=2.5: mask_fet_channels(
            real_draw(topology, seed, slot, alpha_abs), division
        ),
    )
    (prezeroed,) = longterm_stage(topo, seed=2003, divisions=[division], q_longterm=10, params=PARAMS)

    for other in (garbled, prezeroed):
        assert len(other) == len(baseline)
        for ra, rb in zip(baseline, other):
            assert ra.feasible == rb.feasible
            np.testing.assert_array_equal(ra.p_op, rb.p_op)
            np.testing.assert_array_equal(ra.p_pu, rb.p_pu)
            np.testing.assert_array_equal(ra.ranges, rb.ranges)
            assert ra.objective == rb.objective or (
                np.isnan(ra.objective) and np.isnan(rb.objective)
            )
