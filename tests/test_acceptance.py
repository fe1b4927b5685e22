"""Acceptance suite: every shipped guarantee checked at desk scale.

Each test prints one PASS line (visible with ``pytest -s`` or in the captured
output) and enforces its stated runtime budget where one exists. The heavy
trial batches are shared across criteria through module-scoped fixtures.
"""

from __future__ import annotations

import csv
import math
import random
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import pytest

from coci import (
    ConfidenceBox,
    EstimatorKind,
    arm_is_candidate,
    build_instance,
    compute_lambda,
    compute_reward_gaps,
    estimate,
    greedy_osa,
    hardness_report,
    make_best_arm_oracle,
    make_osa_oracle,
    make_top_k_oracle,
    run_coci,
)
from coci.core import ProblemInstance
from coci.harness import load_config, emit_results, run_experiment, trial_seed
from coci.osa import OsaSpec

from _reference import exact_osa_optimum, lattice_candidate

CONFIG_DIR = Path(__file__).parent.parent / "configs"
WORKERS = 2
TRIALS = 200
DELTA = 0.05


@dataclass(frozen=True)
class Fixture:
    name: str
    instance: ProblemInstance
    master_seed: int


def _fixtures() -> dict[str, Fixture]:
    return {
        "best-arm": Fixture(
            "best-arm m=3",
            build_instance(make_best_arm_oracle(3), (0.8, 0.5, 0.2), EstimatorKind.MEAN),
            20240601,
        ),
        "top-2": Fixture(
            "top-2 m=4",
            build_instance(make_top_k_oracle(4, 2), (0.9, 0.7, 0.3, 0.1), EstimatorKind.MEAN),
            20240602,
        ),
        "osa": Fixture(
            "osa m=3 k=10",
            build_instance(
                make_osa_oracle((5, 1, 1), 10), (0.25, 0.01, 0.01), EstimatorKind.VARIANCE
            ),
            20240603,
        ),
    }


def _one_trial(args):
    instance, delta, seed, h_lambda, lambda_lower = args
    return run_coci(
        instance, delta, seed=seed, h_lambda=h_lambda, lambda_lower=lambda_lower
    )


def _run_batch(fixture: Fixture, trials: int, delta: float):
    report = hardness_report(
        fixture.instance.oracle, fixture.instance.true_params.values, epsilon=0.01
    )
    assert all(v > 0 for v in report.lambda_lower), "fixture flip radii must be resolvable"
    tasks = [
        (
            fixture.instance,
            delta,
            trial_seed(fixture.master_seed, i),
            report.h_lambda,
            report.lambda_lower,
        )
        for i in range(trials)
    ]
    with ProcessPoolExecutor(max_workers=WORKERS) as pool:
        results = list(pool.map(_one_trial, tasks, chunksize=max(1, trials // (4 * WORKERS))))
    return report, results


@pytest.fixture(scope="module")
def trial_batches():
    batches = {}
    start = time.perf_counter()
    for key, fixture in _fixtures().items():
        report, results = _run_batch(fixture, TRIALS, DELTA)
        batches[key] = (fixture, report, results)
    elapsed = time.perf_counter() - start
    return batches, elapsed


def test_c01_greedy_allocation_exactness():
    # 10^4 random instances, m <= 4, k <= 12, n_i <= 3, theta on the 0.1
    # grid: the greedy allocation equals the exact leading optimum from
    # enumeration in every single case, in under a minute.
    rng = random.Random(314159)
    grid = [j / 10 for j in range(11)]
    start = time.perf_counter()
    checked = 0
    for _ in range(10_000):
        m = rng.randint(1, 4)
        k = rng.randint(m, 12)
        n = tuple(rng.randint(1, 3) for _ in range(m))
        theta = tuple(rng.choice(grid) for _ in range(m))
        got = greedy_osa(OsaSpec(n, k), theta)
        want = exact_osa_optimum(n, k, theta)
        assert got == want, f"mismatch on n={n}, k={k}, theta={theta}: {got} != {want}"
        checked += 1
    elapsed = time.perf_counter() - start
    assert checked == 10_000
    assert elapsed < 60.0, f"exactness sweep took {elapsed:.1f}s"
    print(f"\nPASS criterion 1: greedy allocation exact on {checked} instances ({elapsed:.1f}s)")


def test_c02_tight_base_instance():
    start = time.perf_counter()
    spec = OsaSpec((20, 1, 1), 33)
    theta = (1.0, 1.0, 1.0)
    got = greedy_osa(spec, theta)
    want = exact_osa_optimum(spec.n, spec.k, theta)
    assert got == (29, 2, 2)
    assert want == (29, 2, 2)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"\nPASS criterion 2: tight-base fixture yields (29, 2, 2) ({elapsed:.2f}s)")


def test_c03_sampler_correctness(trial_batches):
    batches, elapsed = trial_batches
    rates = {}
    for key, (fixture, _, results) in batches.items():
        errors = sum(not r.correct for r in results)
        rates[key] = errors / len(results)
        assert rates[key] <= DELTA, f"{fixture.name}: error rate {rates[key]}"
    assert elapsed < 300.0, f"trial batches took {elapsed:.1f}s"
    print(
        f"\nPASS criterion 3: error rates {rates} over {TRIALS} trials/fixture "
        f"at delta={DELTA} ({elapsed:.1f}s)"
    )


def test_c04_round_bound(trial_batches):
    batches, _ = trial_batches
    checked = 0
    for key, (fixture, report, results) in batches.items():
        for r in results:
            if not r.xi_held:
                continue
            checked += 1
            assert r.converged, f"{fixture.name}: non-convergence under held coverage"
            assert r.rounds <= r.bound_value, (
                f"{fixture.name}: {r.rounds} rounds over bound {r.bound_value}"
            )
    assert checked > 0
    print(f"\nPASS criterion 4: round bound held on all {checked} coverage-true trials")


def test_c05_radius_stopping_lemma(trial_batches):
    batches, _ = trial_batches
    checked = 0
    for key, (fixture, report, results) in batches.items():
        for r in results:
            if not r.xi_held:
                continue
            checked += 1
            assert r.lemma_violations == 0, fixture.name
    assert checked > 0
    print(
        f"\nPASS criterion 5: no pulls below half the flip radius on {checked} "
        "coverage-true trials"
    )


def test_c06_coverage_frequency():
    # 2000 independent runs at delta = 0.2 on the best-arm fixture: the
    # all-rounds coverage event must hold in at least 80% of them.
    fixture = _fixtures()["best-arm"]
    start = time.perf_counter()
    tasks = [
        (fixture.instance, 0.2, trial_seed(815, i), None, None) for i in range(2000)
    ]
    with ProcessPoolExecutor(max_workers=WORKERS) as pool:
        results = list(pool.map(_one_trial, tasks, chunksize=125))
    elapsed = time.perf_counter() - start
    frequency = sum(r.xi_held for r in results) / len(results)
    assert frequency >= 0.8, f"coverage frequency {frequency}"
    assert elapsed < 300.0, f"coverage sweep took {elapsed:.1f}s"
    print(f"\nPASS criterion 6: coverage frequency {frequency:.4f} >= 0.8 ({elapsed:.1f}s)")


def test_c07_strategy_agreement():
    # The two-corner test, corner enumeration (the same oracle declared not
    # bi-monotone) and a 21-point-per-axis lattice scan.
    specs = [make_top_k_oracle(3, 2), make_osa_oracle((2, 1, 1), 5)]
    rng = random.Random(2718)
    start = time.perf_counter()
    checks = 0
    for spec in specs:
        for _ in range(500):
            lower, upper = [], []
            for _ in range(spec.arm_count):
                center = rng.random()
                radius = rng.uniform(0.005, 0.45)
                lower.append(max(0.0, center - radius))
                upper.append(min(1.0, center + radius))
            box = ConfidenceBox(tuple(lower), tuple(upper))
            for i in range(spec.arm_count):
                answers = [
                    arm_is_candidate(spec, box, i),
                    arm_is_candidate(replace(spec, bi_monotone=False), box, i),
                    lattice_candidate(spec, box.lower, box.upper, i, 21),
                ]
                assert answers[0] == answers[1] == answers[2], (spec.name, box, i)
                checks += 1
    elapsed = time.perf_counter() - start
    print(
        f"\nPASS criterion 7: exact/corner/lattice strategies agree on {checks} "
        f"checks ({elapsed:.1f}s)"
    )


def test_c08_gap_width_inequality():
    # 50 random top-k instances: flip radius plus lattice tolerance covers
    # half the reward gap (exchange width 2).
    rng = random.Random(1618)
    epsilon = 0.01
    start = time.perf_counter()
    instances = 0
    while instances < 50:
        m = 3
        k = rng.choice([1, 2])
        theta = tuple(round(rng.uniform(0.05, 0.95), 3) for _ in range(m))
        if min(abs(a - b) for i, a in enumerate(theta) for b in theta[i + 1 :]) < 0.06:
            continue
        spec = make_top_k_oracle(m, k)
        est = compute_lambda(spec, theta, epsilon=epsilon)
        gaps = compute_reward_gaps(spec, theta)
        for lam, gap in zip(est.lower, gaps):
            assert lam + epsilon >= gap / 2 - 1e-12, (theta, k, lam, gap)
        instances += 1
    elapsed = time.perf_counter() - start
    print(
        f"\nPASS criterion 8: flip radius >= gap/2 within tolerance on "
        f"{instances} instances ({elapsed:.1f}s)"
    )


def test_c09_adaptive_beats_uniform():
    # One hard pair (gap 0.05) among six easy arms (gaps 0.45): paired runs
    # must show strictly fewer adaptive rounds on average.
    cfg = load_config(CONFIG_DIR / "adaptive_vs_uniform.json")
    start = time.perf_counter()
    result = run_experiment(cfg, workers=WORKERS)
    elapsed = time.perf_counter() - start
    modes = result.summary["modes"]
    mean_adaptive = modes["coci"]["mean_rounds"]
    mean_uniform = modes["uniform"]["mean_rounds"]
    assert modes["coci"]["trials"] == 100 and modes["uniform"]["trials"] == 100
    assert all(r.correct for r in result.records), "paired runs must identify the optimum"
    assert mean_adaptive < mean_uniform
    print(
        f"\nPASS criterion 9: adaptive mean rounds {mean_adaptive:.0f} < uniform "
        f"{mean_uniform:.0f} over 100 paired seeds ({elapsed:.0f}s)"
    )


def test_c10_estimator_unbiasedness():
    # 10^5 replications of s=5 samples from Bernoulli(0.3): grand means of
    # both estimators within three standard errors of 0.3 and 0.21.
    rng = np.random.default_rng(20240607)
    reps, s = 10**5, 5
    draws = (rng.random((reps, s)) < 0.3).astype(np.float64)
    means = draws.mean(axis=1)
    variances = draws.var(axis=1, ddof=1)

    for label, values, truth in [
        ("mean", means, 0.3),
        ("variance", variances, 0.21),
    ]:
        se = values.std(ddof=1) / math.sqrt(reps)
        deviation = abs(values.mean() - truth)
        assert deviation <= 3 * se, (label, deviation, se)

    # the vectorized formulas above must match the scalar estimator
    for row, mean_v, var_v in zip(draws[:200], means[:200], variances[:200]):
        assert estimate(EstimatorKind.MEAN, row) == pytest.approx(mean_v, rel=1e-12)
        assert estimate(EstimatorKind.VARIANCE, row) == pytest.approx(var_v, rel=1e-9, abs=1e-12)
    print("\nPASS criterion 10: estimator grand means within 3 standard errors")


def _csv_without_wall(path: Path) -> list[list[str]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    wall = rows[0].index("wall_ms")
    return [row[:wall] + row[wall + 1 :] for row in rows]


def test_c11_determinism(tmp_path):
    cfg = load_config(CONFIG_DIR / "quick.json")
    outputs = {}
    for label, workers in [("serial-1", 1), ("serial-2", 1), ("parallel", 4)]:
        result = run_experiment(cfg, workers=workers)
        out = tmp_path / label
        emit_results(result.records, result.summary, out, "csv")
        outputs[label] = out

    reference = _csv_without_wall(outputs["serial-1"] / "records.csv")
    for label in ["serial-2", "parallel"]:
        assert _csv_without_wall(outputs[label] / "records.csv") == reference

    summary_ref = (outputs["serial-1"] / "summary.json").read_bytes()
    for label in ["serial-2", "parallel"]:
        assert (outputs[label] / "summary.json").read_bytes() == summary_ref
    print("\nPASS criterion 11: result files identical across reruns and worker counts")
