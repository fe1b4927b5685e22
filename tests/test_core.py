import itertools
from dataclasses import replace

import numpy as np
import pytest

from coci import (
    Bernoulli,
    CapacityError,
    ConfidenceBox,
    DegenerateInstanceError,
    DomainError,
    EstimatorKind,
    ParameterVector,
    QuadraticCost,
    ScaledBeta,
    UsageError,
    WaterSpec,
    brute_force_maximizer,
    build_instance,
    make_best_arm_oracle,
    make_osa_oracle,
    make_top_k_oracle,
    make_water_oracle,
    reward,
)
from coci.core import scored_decisions


class TestTypes:
    def test_parameter_vector_validates_range(self):
        ParameterVector((0.0, 0.5, 1.0))
        with pytest.raises(DomainError):
            ParameterVector((0.5, 1.2))
        with pytest.raises(UsageError):
            ParameterVector(())

    def test_confidence_box_nesting(self):
        box = ConfidenceBox((0.1, 0.0), (0.4, 1.0))
        assert box.arm_count == 2
        assert box.contains((0.2, 0.5))
        assert not box.contains((0.5, 0.5))
        with pytest.raises(DomainError):
            ConfidenceBox((0.5,), (0.4,))
        with pytest.raises(DomainError):
            ConfidenceBox((-0.1,), (0.4,))
        with pytest.raises(UsageError):
            ConfidenceBox((0.1, 0.2), (0.4,))

    def test_oracle_arm_count_is_an_integer(self):
        oracle = make_best_arm_oracle(2)
        assert type(replace(oracle, arm_count=np.int64(2)).arm_count) is int
        for count in (2.5, True, "2", 0):
            with pytest.raises(UsageError):
                replace(oracle, arm_count=count)


class TestReward:
    def test_linear_terms(self):
        spec = make_top_k_oracle(2, 1)
        assert reward(spec, (0.5, 0.5), (1.0, 0.0)) == 0.5

    def test_allocation_terms(self):
        spec = make_osa_oracle((1, 1), 4)
        assert reward(spec, (0.2, 0.1), (2.0, 2.0)) == pytest.approx(-0.15, abs=1e-15)

    def test_zero_parameters(self):
        spec = make_top_k_oracle(2, 2)
        assert reward(spec, (0.0, 0.0), (1.0, 1.0)) == 0.0

    def test_dimension_mismatch(self):
        spec = make_top_k_oracle(3, 1)
        with pytest.raises(UsageError):
            reward(spec, (0.5, 0.5), (1.0, 0.0, 0.0))

    def test_nonmember_decision(self):
        spec = make_top_k_oracle(3, 1)
        with pytest.raises(DomainError):
            reward(spec, (0.5, 0.5, 0.5), (1.0, 1.0, 0.0))


class TestBruteForce:
    def test_best_arm(self):
        spec = make_best_arm_oracle(2)
        assert brute_force_maximizer(spec, (0.8, 0.2)) == (1.0, 0.0)

    def test_symmetric_allocation(self):
        spec = make_osa_oracle((1, 1, 1), 6)
        assert brute_force_maximizer(spec, (0.25, 0.25, 0.25)) == (2.0, 2.0, 2.0)

    def test_top_two(self):
        spec = make_top_k_oracle(3, 2)
        assert brute_force_maximizer(spec, (0.9, 0.1, 0.5)) == (1.0, 0.0, 1.0)

    def test_capacity_limit(self):
        spec = make_top_k_oracle(3, 2)
        with pytest.raises(CapacityError):
            brute_force_maximizer(spec, (0.9, 0.1, 0.5), limit=2)

    def test_scored_decisions_stream_the_class(self):
        spec = make_osa_oracle((1, 2, 1), 6)
        theta = (0.25, 0.1, 0.2)
        stream = scored_decisions(spec, theta)
        assert not isinstance(stream, (list, tuple))
        assert list(stream) == [(y, reward(spec, theta, y)) for y in spec.enumerate_decisions()]

    def test_determinism(self):
        spec = make_top_k_oracle(4, 2)
        theta = (0.3, 0.3, 0.3, 0.3)
        assert spec.maximizer(theta) == spec.maximizer(tuple(theta))


def _grid(m, step=0.25):
    values = [round(i * step, 10) for i in range(int(1 / step) + 1)]
    return itertools.product(values, repeat=m)


@pytest.mark.parametrize(
    "spec",
    [
        make_top_k_oracle(3, 2),
        make_best_arm_oracle(3),
        make_osa_oracle((2, 1), 5),
        make_water_oracle(
            WaterSpec(b=0.5, caps=(0.5, 0.5), costs=(QuadraticCost(), QuadraticCost()), grid_step=0.25)
        ),
    ],
    ids=["top2", "best-arm", "osa", "water"],
)
def test_oracle_matches_brute_force_reward(spec):
    # Both are optima, so rewards agree exactly; decisions may differ only
    # on ties.
    for theta in _grid(spec.arm_count):
        fast = spec.maximizer(theta)
        brute = brute_force_maximizer(spec, theta)
        assert reward(spec, theta, fast) == reward(spec, theta, brute), theta


class TestProblemInstance:
    def test_model_parameter_must_match(self):
        with pytest.raises(DomainError):
            build_instance(
                make_best_arm_oracle(2),
                (0.8, 0.2),
                EstimatorKind.MEAN,
                models=(Bernoulli(0.8), Bernoulli(0.3)),
            )

    def test_model_parameter_must_not_be_nan(self):
        # Shapes past half the largest float overflow their sum, so the
        # model's variance is NaN; no declared parameter matches it.
        with pytest.raises(DomainError):
            build_instance(
                make_best_arm_oracle(2),
                (0.0, 0.25),
                EstimatorKind.VARIANCE,
                models=(ScaledBeta(1e308, 1e308), Bernoulli(0.5)),
            )

    def test_unique_optimum_check(self):
        inst = build_instance(make_best_arm_oracle(2), (0.8, 0.2), EstimatorKind.MEAN)
        inst.check_unique_optimum()
        degenerate = build_instance(make_best_arm_oracle(2), (0.5, 0.5), EstimatorKind.MEAN)
        with pytest.raises(DegenerateInstanceError):
            degenerate.check_unique_optimum()

    def test_optimal_decision(self):
        inst = build_instance(make_top_k_oracle(3, 2), (0.9, 0.5, 0.1), EstimatorKind.MEAN)
        assert inst.optimal_decision() == (1.0, 1.0, 0.0)
