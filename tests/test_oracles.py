import itertools
import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from coci import (
    DomainError,
    LinearCost,
    PowerCost,
    QuadraticCost,
    UsageError,
    WaterSpec,
    brute_force_maximizer,
    make_top_k_oracle,
    make_water_oracle,
    reward,
    water_bi_monotone,
    water_maximizer,
)
from coci.condition import candidate_on_bounds
from coci.oracles import _top_k_phi

from _reference import continuous_water_optimum, lattice_candidate


class TestTopK:
    def test_unique_maximum(self):
        assert _top_k_phi(3, 1, (0.8, 0.2, 0.5)) == (1.0, 0.0, 0.0)
        assert make_top_k_oracle(3, 1).maximizer((0.8, 0.2, 0.5)) == (1.0, 0.0, 0.0)

    def test_tie_break_by_index(self):
        assert make_top_k_oracle(3, 2).maximizer((0.5, 0.5, 0.5)) == (1.0, 1.0, 0.0)

    def test_two_of_four(self):
        assert make_top_k_oracle(4, 2).maximizer((0.1, 0.9, 0.3, 0.7)) == (0.0, 1.0, 0.0, 1.0)

    def test_bad_dimension(self):
        with pytest.raises(UsageError):
            _top_k_phi(3, 1, (0.5, 0.5))
        with pytest.raises(UsageError):
            make_top_k_oracle(3, 1).maximizer((0.5, 0.5))

    @pytest.mark.parametrize("m,k", [(3, 0), (3, 4)])
    def test_subset_size_out_of_range(self, m, k):
        with pytest.raises(UsageError):
            make_top_k_oracle(m, k)

    @pytest.mark.parametrize("m,k", [(4, True), (True, 1), (4, 1.0), (4.0, 1), (4, "1"), (np.float64(4), 1)])
    def test_non_integer_sizes_are_rejected(self, m, k):
        with pytest.raises(UsageError):
            make_top_k_oracle(m, k)

    def test_integer_types_are_read_exactly(self):
        spec = make_top_k_oracle(np.int64(4), np.uint8(2))
        assert spec.name == "top-2(m=4)" and spec.arm_count == 4 and type(spec.arm_count) is int

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_reward_matches_brute_force_on_grid(self, m):
        values = [j / 10 for j in range(11)]
        for k in range(1, m + 1):
            spec = make_top_k_oracle(m, k)
            for theta in itertools.product(values, repeat=m):
                fast = spec.maximizer(theta)
                brute = brute_force_maximizer(spec, theta)
                assert reward(spec, theta, fast) == reward(spec, theta, brute)


WATER_M1 = WaterSpec(b=0.0, caps=(1.0,), costs=(QuadraticCost(1.0),), grid_step=0.25)


class TestWaterMaximizer:
    def test_interior_optimum_on_grid(self):
        assert water_maximizer(WATER_M1, (1.0,)) == (0.5,)

    def test_constraint_forces_saturation(self):
        spec = WaterSpec(
            b=2.0, caps=(1.0, 1.0), costs=(LinearCost(0.0), LinearCost(0.0)), grid_step=0.5
        )
        for theta in [(0.0, 0.0), (1.0, 0.2), (0.3, 0.9)]:
            assert water_maximizer(spec, theta) == (1.0, 1.0)

    def test_small_enumeration(self):
        spec = WaterSpec(
            b=1.0,
            caps=(1.0, 1.0),
            costs=(PowerCost(0.5, 2), PowerCost(0.5, 2)),
            grid_step=0.5,
        )
        assert water_maximizer(spec, (1.0, 0.0)) == (1.0, 0.0)

    def test_infeasible(self):
        with pytest.raises(DomainError):
            WaterSpec(b=3.0, caps=(1.0, 1.0), costs=(QuadraticCost(), QuadraticCost()), grid_step=0.5)

    def test_non_finite_numbers_are_rejected(self):
        inf, nan = float("inf"), float("nan")
        for step in [inf, nan, 0.0]:
            with pytest.raises(UsageError):
                WaterSpec(b=1.0, caps=(1.0,), costs=(QuadraticCost(),), grid_step=step)
        for b, caps in [(nan, (1.0,)), (inf, (inf,)), (1.0, (inf,)), (0.5, (nan, 1.0))]:
            with pytest.raises(DomainError):
                WaterSpec(b=b, caps=caps, costs=(QuadraticCost(),) * len(caps), grid_step=0.5)

    @pytest.mark.parametrize(
        "b,caps,step",
        [
            (True, (1.0,), 0.5),
            (1.0, (True,), 0.5),
            (0.5, (1.0, False), 0.5),
            (1.0, (1.0,), True),
            (1.0, (1.0,), np.True_),
            ("1.0", (1.0,), 0.5),
            (1.0, ("1.0",), 0.5),
            (1.0, (1.0,), "0.5"),
        ],
    )
    def test_bools_and_strings_are_rejected(self, b, caps, step):
        with pytest.raises(UsageError):
            WaterSpec(b=b, caps=caps, costs=(QuadraticCost(),) * len(caps), grid_step=step)

    def test_off_grid_threshold(self):
        with pytest.raises(UsageError):
            WaterSpec(b=0.3, caps=(1.0,), costs=(QuadraticCost(),), grid_step=0.25)

    def test_tie_break_is_lexicographic(self):
        # Zero parameters and zero costs: every feasible allocation ties, so
        # the leading optimum is the lexicographically smallest feasible one.
        spec = WaterSpec(
            b=1.0, caps=(1.0, 1.0), costs=(LinearCost(0.0), LinearCost(0.0)), grid_step=0.5
        )
        oracle = make_water_oracle(spec)
        assert water_maximizer(spec, (0.0, 0.0)) == (0.0, 1.0)
        assert brute_force_maximizer(oracle, (0.0, 0.0)) == (0.0, 1.0)
        # Symmetric positive parameters: ties across mirrored allocations.
        assert water_maximizer(spec, (0.5, 0.5)) == brute_force_maximizer(
            oracle, (0.5, 0.5)
        )

    @pytest.mark.parametrize(
        "caps,step,m",
        [((1.0, 1.0), 0.2, 2), ((1.0, 1.0, 1.0), 0.25, 3)],
    )
    def test_matches_brute_force_decision_exact(self, caps, step, m):
        spec = WaterSpec(
            b=round(0.5 * sum(caps) / step) * step,
            caps=caps,
            costs=tuple(QuadraticCost(0.8) for _ in range(m)),
            grid_step=step,
        )
        oracle = make_water_oracle(spec)
        rng = random.Random(42)
        for _ in range(100):
            theta = tuple(rng.random() for _ in range(m))
            assert oracle.maximizer(theta) == brute_force_maximizer(oracle, theta)

    def test_matches_continuous_relaxation_within_grid_error(self):
        caps = (1.0, 1.0)
        coeffs = (1.0, 0.7)
        spec = WaterSpec(
            b=1.5,
            caps=caps,
            costs=(QuadraticCost(coeffs[0]), QuadraticCost(coeffs[1])),
            grid_step=0.05,
        )
        oracle = make_water_oracle(spec)
        rng = random.Random(9)
        for _ in range(25):
            theta = tuple(rng.random() for _ in range(2))
            y = water_maximizer(spec, theta)
            grid_value = reward(oracle, theta, y)
            cont_value = continuous_water_optimum(theta, caps, coeffs, spec.b)
            assert grid_value <= cont_value + 1e-12
            lipschitz = sum(t + 2 * a * c for t, a, c in zip(theta, coeffs, caps))
            assert cont_value - grid_value <= lipschitz * spec.grid_step


_THETAS = (0.0, 0.25, 0.5, 0.75, 1.0)


@st.composite
def _water_specs(draw):
    """Small water specs: quadratic, power (convex or concave, p < 1) or
    linear costs, caps of one grid step or more, and any budget from 0 to
    the total cap."""
    m = draw(st.integers(1, 3))
    step = draw(st.sampled_from([0.1, 0.25, 0.5]))
    caps = [step * draw(st.integers(1, round(1.0 / step))) for _ in range(m)]
    coefficients = st.sampled_from([0.5, 1.0, 2.0])
    cost = st.one_of(
        st.builds(QuadraticCost, coefficients),
        st.builds(PowerCost, coefficients, st.sampled_from([0.5, 0.8, 1.5, 2.0, 3.0])),
        st.builds(LinearCost, st.sampled_from([0.0, 0.25, 0.5])),
    )
    costs = [draw(cost) for _ in range(m)]
    total = sum(round(c / step) for c in caps)
    b = step * draw(st.integers(0, total))
    return WaterSpec(b=b, caps=tuple(caps), costs=tuple(costs), grid_step=step)


# Strictly convex costs with a budget spent exactly at theta = 1:
# configs/water.json, a tight quadratic, and the exact-tie regression spec.
_TIGHT_CONVEX = [
    WaterSpec(b=1.6, caps=(1.0, 1.0), costs=(QuadraticCost(),) * 2, grid_step=0.1),
    WaterSpec(b=1.8, caps=(1.0, 1.0), costs=(QuadraticCost(),) * 2, grid_step=0.1),
    WaterSpec(
        b=0.8,
        caps=(0.30000000000000004,) * 3,
        costs=(QuadraticCost(1.0), QuadraticCost(0.5), QuadraticCost(2.0)),
        grid_step=0.1,
    ),
]
# Concave DP terms without a tight budget or strictly convex costs: a loose
# budget, b = 0, linear costs, and concave costs capped at one grid step.
_CONCAVE_TERMS = [
    WaterSpec(b=0.2, caps=(1.0,), costs=(QuadraticCost(),), grid_step=0.2),
    WaterSpec(b=0.0, caps=(1.0, 1.0), costs=(QuadraticCost(), PowerCost(1.0, 3.0)), grid_step=0.25),
    WaterSpec(b=1.0, caps=(1.0, 1.0), costs=(LinearCost(0.0), LinearCost(0.25)), grid_step=0.5),
    WaterSpec(b=0.5, caps=(0.5, 0.5), costs=(PowerCost(1.0, 0.5), PowerCost(2.0, 0.8)), grid_step=0.5),
]
# Concave costs over two or more grid steps: corner enumeration serves.
_CONCAVE = WaterSpec(b=0.2, caps=(1.0, 1.0), costs=(PowerCost(1.0, 0.5),) * 2, grid_step=0.2)


class TestWaterBiMonotone:
    def test_quadratic_with_tight_budget(self):
        for spec in _TIGHT_CONVEX:
            assert water_bi_monotone(spec) is True

    @pytest.mark.parametrize("spec", _CONCAVE_TERMS, ids=["loose", "b=0", "linear", "one-step-concave"])
    def test_concave_terms_are_declared(self, spec):
        oracle = make_water_oracle(spec)
        assert oracle.bi_monotone is True
        rng = random.Random(3)
        for _ in range(20):
            lower, upper = zip(*(sorted((rng.random(), rng.random())) for _ in range(spec.m)))
            for i in range(spec.m):
                assert candidate_on_bounds(oracle, lower, upper, i) == lattice_candidate(
                    oracle, lower, upper, i, 9
                ), (lower, upper, i)

    def test_zero_cost_slack_budget(self):
        # A budget of 0 does not decide: zero costs give linear terms, which
        # are concave; concave costs over two grid steps give convex ones.
        zero = WaterSpec(b=0.0, caps=(1.0, 1.0), costs=(LinearCost(0.0),) * 2, grid_step=0.5)
        assert water_bi_monotone(zero) is True
        assert water_bi_monotone(replace(_CONCAVE, b=0.0)) is False

    def test_loose_budget_fails_sweep(self):
        # A non-binding requirement with concave costs: the terms are convex
        # in u, so the check declines whatever the budget.
        assert water_bi_monotone(_CONCAVE) is False
        assert water_bi_monotone(replace(_CONCAVE, b=1.8)) is False

    def test_mixed_derivative_directions(self):
        spec = WaterSpec(
            b=1.8,
            caps=(1.0, 1.0),
            costs=(QuadraticCost(1.0), PowerCost(1.0, 0.5)),
            grid_step=0.1,
        )
        assert water_bi_monotone(spec) is False

    def test_lattice_bi_monotonicity_when_declared(self):
        spec = WaterSpec(
            b=1.8, caps=(1.0, 1.0), costs=(QuadraticCost(), QuadraticCost()), grid_step=0.1
        )
        assert water_bi_monotone(spec)
        grid = [j / 4 for j in range(5)]
        phi = lambda th: water_maximizer(spec, th)  # noqa: E731
        for a in grid[:-1]:
            for b in grid:
                base = phi((a, b))
                up = phi((a + 0.25, b))
                assert up[0] >= base[0] and up[1] <= base[1]
                if b < 1.0:
                    side = phi((a, b + 0.25))
                    assert side[1] >= base[1] and side[0] <= base[0]

    def test_concave_costs_are_not_bi_monotone(self):
        # Regression: this spec meets b exactly on the whole lattice, but a
        # concave cost lets y_0 fall as theta_2 rises, so the two-corner test
        # would call arm 0 constant on a box where it varies.
        spec = WaterSpec(
            b=0.8,
            caps=(0.5, 0.5, 1.0),
            costs=(PowerCost(2.0, 0.8), PowerCost(1.0, 0.8), PowerCost(2.0, 0.5)),
            grid_step=0.1,
        )
        oracle = make_water_oracle(spec)
        assert oracle.bi_monotone is False
        lower, upper = (5 / 6, 1 / 6, 0.0), (1.0, 5 / 6, 1.0)
        assert oracle.maximizer(lower)[0] != oracle.maximizer((5 / 6, 1 / 6, 1.0))[0]
        assert candidate_on_bounds(oracle, lower, upper, 0) is True
        assert candidate_on_bounds(replace(oracle, bi_monotone=True), lower, upper, 0) is False

    # About three drawn specs in five are declared bi-monotone, loose and
    # zero budgets, linear costs and one-step concave caps among them.
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
    @given(spec=_water_specs(), seed=st.integers(0, 2**16))
    def test_declared_two_corner_test_matches_lattice(self, spec, seed):
        oracle = make_water_oracle(spec)
        assume(oracle.bi_monotone)
        rng = random.Random(seed)
        for _ in range(2):
            pairs = [sorted((rng.choice(_THETAS), rng.random())) for _ in range(spec.m)]
            lower, upper = zip(*pairs)
            for i in range(spec.m):
                assert candidate_on_bounds(oracle, lower, upper, i) == lattice_candidate(
                    oracle, lower, upper, i, 5
                ), (lower, upper, i)

    def test_exact_ties_break_lexicographically(self):
        # Regression: at theta = (0.25, 0.25, 0.75), units (2, 3, 3) and
        # (3, 3, 2) tie in exact arithmetic, and a float DP picked (3, 3, 2)
        # by rounding, so the declared two-corner test called arm 2 constant
        # on a box where a lattice point changes it.
        spec = WaterSpec(
            b=0.8,
            caps=(0.30000000000000004,) * 3,
            costs=(QuadraticCost(1.0), QuadraticCost(0.5), QuadraticCost(2.0)),
            grid_step=0.1,
        )
        oracle = make_water_oracle(spec)
        assert oracle.bi_monotone
        y = water_maximizer(spec, (0.25, 0.25, 0.75))
        assert tuple(round(v / spec.grid_step) for v in y) == (2, 3, 3)
        lower = (0.015053805075161741, 0.25, 0.75)
        upper = (0.25, 0.9989731587971157, 0.8385236012660758)
        assert candidate_on_bounds(oracle, lower, upper, 2) == lattice_candidate(oracle, lower, upper, 2, 5)

    def test_oracle_flag_propagates(self):
        assert make_water_oracle(_TIGHT_CONVEX[1]).bi_monotone is True
        assert make_water_oracle(_CONCAVE).bi_monotone is False
