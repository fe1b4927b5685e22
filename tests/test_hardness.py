import math
import random
import time
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from coci import (
    CapacityError,
    DegenerateInstanceError,
    QuadraticCost,
    WaterSpec,
    compute_lambda,
    compute_reward_gaps,
    h_from_lambda,
    h_uniform_from_lambda,
    hardness_report,
    make_best_arm_oracle,
    make_osa_oracle,
    make_top_k_oracle,
    make_water_oracle,
    sample_complexity_bound,
)

from _reference import enumerate_binary_gap


class TestComputeLambda:
    def test_two_arm_best_arm(self):
        est = compute_lambda(make_best_arm_oracle(2), (0.8, 0.2), epsilon=0.01)
        # flip needs both parameters to cross the midpoint 0.5
        assert est.lower == pytest.approx((0.30, 0.30), abs=1e-12)
        assert est.saturated == (False, False)

    def test_three_arm_best_arm(self):
        est = compute_lambda(make_best_arm_oracle(3), (0.9, 0.5, 0.1), epsilon=0.01)
        assert est.lower[1] == pytest.approx(0.20, abs=1e-12)
        assert est.lower[2] == pytest.approx(0.40, abs=1e-12)
        assert est.lower[0] == pytest.approx(0.20, abs=1e-12)

    def test_singleton_class_is_saturated(self):
        est = compute_lambda(make_best_arm_oracle(1), (0.3,), epsilon=0.05)
        assert est.lower == (1.0,)
        assert est.saturated == (True,)

    def test_osa_lambda_positive(self):
        est = compute_lambda(make_osa_oracle((5, 1, 1), 10), (0.25, 0.01, 0.01), epsilon=0.02)
        assert all(v > 0.05 for v in est.lower)
        assert not any(est.saturated)

    def test_capacity_check(self):
        # Only the lattice enumeration has a point limit.
        spec = replace(make_best_arm_oracle(5), bi_monotone=False)
        with pytest.raises(CapacityError):
            compute_lambda(spec, (0.5,) * 5, epsilon=0.01)

    def test_eight_arm_flip_radii(self):
        # Arms 0 and 1 trade places once 0.75 - r < 0.7 + r (arm 0 wins the
        # tie): r > 0.025, first on the grid at 0.03. An arm at 0.3 beats
        # arm 0 once r > 0.225, first at 0.23. One step below: 0.02, 0.22.
        theta = (0.75, 0.7) + (0.3,) * 6
        est = compute_lambda(make_best_arm_oracle(8), theta, epsilon=0.01)
        assert est.lower == pytest.approx((0.02, 0.02) + (0.22,) * 6, abs=1e-12)
        assert est.saturated == (False,) * 8

    def test_fine_grid_is_fast(self):
        theta = (0.75, 0.7) + (0.3,) * 6
        start = time.perf_counter()
        est = compute_lambda(make_best_arm_oracle(8), theta, epsilon=1e-9)
        assert time.perf_counter() - start < 1.0
        assert est.lower[0] == pytest.approx(0.025, abs=2e-9)
        assert est.lower[2] == pytest.approx(0.225, abs=2e-9)

    def test_flip_region_respected(self):
        # No parameter point strictly inside the reported radius flips the
        # decision component (1000 random draws per instance).
        spec = make_best_arm_oracle(3)
        theta = (0.9, 0.5, 0.1)
        est = compute_lambda(spec, theta, epsilon=0.01)
        y_star = spec.maximizer(theta)
        rng = random.Random(77)
        for _ in range(1000):
            i = rng.randrange(3)
            radius = est.lower[i] - 0.01
            point = tuple(
                min(1.0, max(0.0, t + rng.uniform(-radius, radius))) for t in theta
            )
            assert spec.maximizer(point)[i] == y_star[i]


class TestRewardGaps:
    def test_two_arm(self):
        gaps = compute_reward_gaps(make_best_arm_oracle(2), (0.8, 0.2))
        assert gaps == pytest.approx((0.6, 0.6))

    def test_top_two_of_three(self):
        gaps = compute_reward_gaps(make_top_k_oracle(3, 2), (0.9, 0.8, 0.1))
        assert gaps == pytest.approx((0.8, 0.7, 0.7))

    def test_degenerate_parameters(self):
        with pytest.raises(DegenerateInstanceError):
            compute_reward_gaps(make_best_arm_oracle(3), (0.5, 0.5, 0.2))

    def test_capacity_limit(self):
        # C(30, 15) decisions is past the 10^7 enumeration limit.
        with pytest.raises(CapacityError):
            compute_reward_gaps(make_top_k_oracle(30, 15), [0.5 + i / 100 for i in range(30)])

    def test_full_subset_has_no_disagreeing_decision(self):
        gaps = compute_reward_gaps(make_top_k_oracle(2, 2), (0.8, 0.2))
        assert gaps == (math.inf, math.inf)

    def test_matches_reference_enumeration(self):
        rng = random.Random(5)
        spec = make_top_k_oracle(4, 2)
        decisions = list(spec.enumerate_decisions())
        for _ in range(30):
            theta = sorted((rng.random() for _ in range(4)), reverse=True)
            theta = tuple(min(1.0, t + 0.05 * i) for i, t in enumerate(theta))
            try:
                gaps = compute_reward_gaps(spec, theta)
            except DegenerateInstanceError:
                continue
            _, want = enumerate_binary_gap(decisions, theta)
            assert gaps == pytest.approx(tuple(want))


class TestBound:
    def test_reference_value(self):
        # H=1, m=1, tau=1, delta=1: 2 + 12 ln 24 + 4 ln 4
        value = sample_complexity_bound(1.0, 1, 1, 1.0)
        assert value == pytest.approx(2 + 12 * math.log(24) + 4 * math.log(4), rel=1e-12)
        assert value == pytest.approx(45.68, abs=0.01)

    def test_monotone_in_hardness_and_confidence(self):
        assert sample_complexity_bound(2.0, 3, 1, 0.1) > sample_complexity_bound(1.0, 3, 1, 0.1)
        assert sample_complexity_bound(2.0, 3, 1, 0.05) > sample_complexity_bound(2.0, 3, 1, 0.1)

    def test_additive_arm_term(self):
        low = sample_complexity_bound(5.0, 3, 1, 0.1)
        high = sample_complexity_bound(5.0, 4, 1, 0.1)
        assert high - low == pytest.approx(2.0)


class TestHardnessMeasures:
    def test_adaptive_never_exceeds_uniform(self):
        rng = random.Random(3)
        for _ in range(50):
            lam = [rng.uniform(0.05, 1.0) for _ in range(rng.randint(1, 6))]
            assert h_from_lambda(lam) <= h_uniform_from_lambda(lam) + 1e-12

    def test_report_bundle(self):
        report = hardness_report(
            make_best_arm_oracle(2), (0.8, 0.2), epsilon=0.01, width=2, include_gaps=True
        )
        assert report.h_lambda == pytest.approx(2 / 0.09, rel=1e-9)
        assert report.h_uniform == pytest.approx(2 / 0.09, rel=1e-9)
        assert report.delta_gap == pytest.approx((0.6, 0.6))
        assert report.h_delta == pytest.approx(2 / 0.36, rel=1e-9)
        assert report.width == 2
        d = report.to_dict()
        assert d["lambda_lower"] == [0.3, 0.3]

    def test_gap_width_relation(self):
        # sum(1 / (radius + eps)^2) <= width^2 * sum(1 / gap^2)
        rng = random.Random(12)
        spec = make_top_k_oracle(3, 2)
        for _ in range(10):
            theta = tuple(sorted((rng.uniform(0.05, 0.95) for _ in range(3)), reverse=True))
            if min(a - b for a, b in zip(theta, theta[1:])) < 0.08:
                continue
            report = hardness_report(spec, theta, epsilon=0.02, width=2, include_gaps=True)
            upper = [v + report.grid_resolution for v in report.lambda_lower]
            assert h_from_lambda(upper) <= 4 * report.h_delta + 1e-9


_EPSILONS = (0.02, 0.05, 0.1, 0.3)
# Values drawn with repetition give exact ties; 0 and 1 put shells on the
# cube faces from the first step.
_THETA_POOL = (0.0, 0.05, 0.25, 0.3, 0.5, 0.62, 0.75, 0.9, 1.0)
# Lattice points the reference may enumerate per example.
_LATTICE_BUDGET = 200_000
_BI_MONOTONE_ORACLES = (
    [make_top_k_oracle(m, k) for m in range(1, 5) for k in range(1, m + 1)]
    + [make_osa_oracle((5, 1), 8), make_osa_oracle((2, 3), 5)]
    + [make_osa_oracle((5, 1, 1), 10), make_osa_oracle((1, 2, 1), 6)]
    + [
        make_water_oracle(
            WaterSpec(b=1.6, caps=(1.0, 1.0), costs=(QuadraticCost(), QuadraticCost()), grid_step=0.1)
        )
    ]
)


@st.composite
def _bisection_cases(draw):
    spec = draw(st.sampled_from(_BI_MONOTONE_ORACLES))
    m = spec.arm_count
    affordable = [e for e in _EPSILONS if (2 * math.ceil(1 / e) + 1) ** m <= _LATTICE_BUDGET]
    epsilon = draw(st.sampled_from(affordable))
    theta = tuple(draw(st.sampled_from(_THETA_POOL)) for _ in range(m))
    return spec, theta, epsilon


class TestBisection:
    def test_oracles_are_bi_monotone(self):
        assert all(spec.bi_monotone for spec in _BI_MONOTONE_ORACLES)

    @settings(max_examples=150, deadline=None)
    @given(_bisection_cases())
    def test_matches_lattice(self, case):
        spec, theta, epsilon = case
        lattice = compute_lambda(replace(spec, bi_monotone=False), theta, epsilon)
        assert compute_lambda(spec, theta, epsilon) == lattice
