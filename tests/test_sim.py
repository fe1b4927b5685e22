import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from coci import (
    Bernoulli,
    DiscreteSupport,
    DomainError,
    EstimatorKind,
    PointMass,
    ScaledBeta,
    UsageError,
    arm_for_variance,
    build_instance,
    make_best_arm_oracle,
    sample,
)
from coci.sim import BufferedArm, arm_stream


class TestModels:
    def test_point_mass_constant(self):
        rng = np.random.default_rng(0)
        assert all(sample(PointMass(0.3), rng) == 0.3 for _ in range(20))

    def test_bernoulli_zero(self):
        rng = np.random.default_rng(0)
        assert all(sample(Bernoulli(0.0), rng) == 0.0 for _ in range(20))

    def test_bernoulli_mean_concentrates(self):
        rng = np.random.default_rng(12)
        draws = Bernoulli(0.5).draw(rng, 10**5)
        assert abs(draws.mean() - 0.5) <= 3 * 0.5 / np.sqrt(10**5)

    def test_discrete_support_moments(self):
        model = DiscreteSupport((0.0, 0.5, 1.0), (0.2, 0.5, 0.3))
        assert model.mean == pytest.approx(0.55)
        assert model.variance == pytest.approx(0.2 * 0.55**2 + 0.5 * 0.05**2 + 0.3 * 0.45**2)
        rng = np.random.default_rng(3)
        draws = model.draw(rng, 10**5)
        assert abs(draws.mean() - model.mean) < 0.01
        assert set(np.unique(draws)) <= {0.0, 0.5, 1.0}

    def test_beta_moments(self):
        model = ScaledBeta(2.0, 5.0)
        rng = np.random.default_rng(4)
        draws = model.draw(rng, 10**5)
        assert abs(draws.mean() - model.mean) < 0.01
        assert abs(draws.var() - model.variance) < 0.01
        assert draws.min() >= 0.0 and draws.max() <= 1.0

    def test_validation(self):
        with pytest.raises(DomainError):
            Bernoulli(1.2)
        with pytest.raises(DomainError):
            PointMass(-0.1)
        with pytest.raises(DomainError):
            DiscreteSupport((0.2, 0.4), (0.6, 0.6))
        with pytest.raises(DomainError):
            ScaledBeta(0.0, 1.0)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: DiscreteSupport((0.0, 1.0), (math.nan, 1.0)),
            lambda: ScaledBeta(math.nan, 1.0),
            lambda: ScaledBeta(1.0, math.inf),
        ],
        ids=["support-nan", "beta-nan", "beta-inf"],
    )
    def test_non_finite_parameters_rejected(self, make):
        with pytest.raises(DomainError):
            make()


class TestVarianceInverse:
    def test_maximum_variance(self):
        assert arm_for_variance(0.25).p == pytest.approx(0.5)

    def test_zero_variance(self):
        assert arm_for_variance(0.0).p == 0.0

    def test_solved_example(self):
        assert arm_for_variance(0.21).p == pytest.approx(0.3, abs=1e-12)

    def test_unattainable(self):
        with pytest.raises(DomainError):
            arm_for_variance(0.3)

    @pytest.mark.parametrize("target", [0.0, 0.05, 0.1, 0.16, 0.21, 0.25])
    def test_roundtrip(self, target):
        model = arm_for_variance(target)
        assert model.variance == pytest.approx(target, abs=1e-12)


class TestStreams:
    def test_same_key_same_stream(self):
        a = BufferedArm(Bernoulli(0.4), arm_stream((7, 3), 1))
        b = BufferedArm(Bernoulli(0.4), arm_stream((7, 3), 1))
        assert [a.next() for _ in range(50)] == [b.next() for _ in range(50)]

    def test_arms_are_independent_substreams(self):
        a = BufferedArm(Bernoulli(0.5), arm_stream((7,), 0))
        b = BufferedArm(Bernoulli(0.5), arm_stream((7,), 1))
        assert [a.next() for _ in range(64)] != [b.next() for _ in range(64)]

    def test_pull_order_invariance(self):
        # The j-th sample of an arm is the same no matter how pulls of the
        # arms interleave.
        first = BufferedArm(ScaledBeta(2, 3), arm_stream((11,), 0))
        eager = [first.next() for _ in range(10)]
        again = BufferedArm(ScaledBeta(2, 3), arm_stream((11,), 0))
        other = BufferedArm(ScaledBeta(2, 3), arm_stream((11,), 1))
        interleaved = []
        for j in range(10):
            other.next()
            interleaved.append(again.next())
        assert eager == interleaved

    @settings(max_examples=50, deadline=None)
    @given(
        model=st.sampled_from(
            [Bernoulli(0.3), ScaledBeta(2, 3), DiscreteSupport((0.0, 0.5, 1.0), (0.2, 0.3, 0.5)), PointMass(0.4)]
        ),
        steps=st.lists(
            st.tuples(st.integers(0, 2500), st.integers(0, 2500), st.integers(0, 3)), max_size=8
        ),
    )
    def test_read_ahead_matches_next(self, model, steps):
        # Peeks reach across the 1024-sample draw blocks, advance by part
        # of what they read, and mix with single draws.
        reference = BufferedArm(model, arm_stream((5,), 2))
        arm = BufferedArm(model, arm_stream((5,), 2))
        seen = []
        for ahead, take, singles in steps:
            take = min(take, ahead)
            window = arm.peek(ahead)
            assert len(window) == ahead
            arm.advance(take)
            seen.extend(float(v) for v in window[:take])
            seen.extend(arm.next() for _ in range(singles))
        assert seen == [reference.next() for _ in seen]

    def test_advance_past_read_ahead_rejected(self):
        arm = BufferedArm(Bernoulli(0.5), arm_stream((1,), 0))
        arm.peek(3)
        with pytest.raises(UsageError):
            arm.advance(2000)


def test_instance_builder_checks_parameters():
    inst = build_instance(make_best_arm_oracle(2), (0.8, 0.2), EstimatorKind.MEAN)
    assert [m.p for m in inst.arm_models] == [0.8, 0.2]
    inst_var = build_instance(
        make_best_arm_oracle(2), (0.25, 0.1), EstimatorKind.VARIANCE
    )
    for model, target in zip(inst_var.arm_models, (0.25, 0.1)):
        assert model.variance == pytest.approx(target, abs=1e-12)
