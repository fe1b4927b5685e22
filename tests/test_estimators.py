import itertools
import math

import pytest
from hypothesis import given, strategies as st

from coci import DomainError, EstimatorKind, UsageError, clamp_box, confidence_radius, estimate

GRID = (0.0, 0.25, 0.5, 0.75, 1.0)


class TestEstimate:
    def test_mean_examples(self):
        assert estimate(EstimatorKind.MEAN, [0.2, 0.4, 0.6]) == pytest.approx(0.4, abs=1e-15)

    def test_variance_two_points(self):
        assert estimate(EstimatorKind.VARIANCE, [0.0, 1.0]) == 0.5

    def test_variance_constant_samples(self):
        # Exactly representable constants give exactly zero; others only up
        # to cancellation noise, which is clamped at zero from below.
        assert estimate(EstimatorKind.VARIANCE, [0.5, 0.5, 0.5]) == 0.0
        v = estimate(EstimatorKind.VARIANCE, [0.3, 0.3, 0.3])
        assert 0.0 <= v < 1e-15

    def test_sample_count_preconditions(self):
        with pytest.raises(UsageError):
            estimate(EstimatorKind.MEAN, [])
        with pytest.raises(UsageError):
            estimate(EstimatorKind.VARIANCE, [0.5])

    def test_sample_range(self):
        with pytest.raises(DomainError):
            estimate(EstimatorKind.MEAN, [0.5, 1.5])

    def test_tau(self):
        assert EstimatorKind.MEAN.tau == 1
        assert EstimatorKind.VARIANCE.tau == 2

    @given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=30))
    def test_mean_stays_in_unit_interval(self, samples):
        assert 0.0 <= estimate(EstimatorKind.MEAN, samples) <= 1.0

    @given(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=30))
    def test_variance_nonnegative_and_bounded(self, samples):
        v = estimate(EstimatorKind.VARIANCE, samples)
        assert 0.0 <= v <= 1.0


@pytest.mark.parametrize("kind,min_s", [(EstimatorKind.MEAN, 1), (EstimatorKind.VARIANCE, 2)])
def test_bounded_differences(kind, min_s):
    # Replacing any single sample moves the estimate by at most 1/s;
    # exhaustive over all grid tuples with s <= 4.
    for s in range(min_s, 5):
        for samples in itertools.product(GRID, repeat=s):
            base = estimate(kind, samples)
            for j in range(s):
                for replacement in GRID:
                    perturbed = list(samples)
                    perturbed[j] = replacement
                    delta = abs(estimate(kind, perturbed) - base)
                    assert delta <= 1.0 / s + 1e-12, (kind, samples, j, replacement)


class TestConfidenceRadius:
    def test_formula_value(self):
        expected = math.sqrt(math.log(4 * 27 / 0.1) / 2.0)
        assert confidence_radius(3, 1, 1, 0.1) == pytest.approx(expected, rel=1e-12)
        assert confidence_radius(3, 1, 1, 0.1) == pytest.approx(1.86879, abs=1e-5)

    def test_pull_scaling(self):
        t = 10
        assert confidence_radius(t, 4, 1, 0.1) == pytest.approx(
            confidence_radius(t, 1, 1, 0.1) / 2.0, rel=1e-12
        )

    def test_monotone_in_round(self):
        radii = [confidence_radius(t, 3, 1, 0.2) for t in range(3, 40)]
        assert all(b > a for a, b in zip(radii, radii[1:]))

    def test_preconditions(self):
        with pytest.raises(UsageError):
            confidence_radius(3, 1, 1, 0.0)
        with pytest.raises(UsageError):
            confidence_radius(3, 1, 1, 1.0)
        with pytest.raises(UsageError):
            confidence_radius(0, 1, 1, 0.1)
        with pytest.raises(UsageError):
            confidence_radius(3, 0, 1, 0.1)
        with pytest.raises(UsageError):
            confidence_radius(3, 1, 3, 0.1)


class TestClampBox:
    def test_interior(self):
        box = clamp_box((0.5,), (0.2,))
        assert box.lower == (0.3,) and box.upper == (0.7,)

    def test_clamped_at_zero(self):
        box = clamp_box((0.1,), (0.5,))
        assert box.lower == (0.0,) and box.upper == (0.6,)

    def test_full_clamp(self):
        box = clamp_box((0.9,), (1.9,))
        assert box.lower == (0.0,) and box.upper == (1.0,)

    def test_dimension_mismatch(self):
        with pytest.raises(UsageError):
            clamp_box((0.5, 0.5), (0.2,))

    def test_radius_positive(self):
        with pytest.raises(UsageError):
            clamp_box((0.5,), (0.0,))

    @given(
        st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6),
        st.data(),
    )
    def test_box_always_valid(self, estimates, data):
        radii = data.draw(
            st.lists(
                st.floats(1e-9, 3.0), min_size=len(estimates), max_size=len(estimates)
            )
        )
        box = clamp_box(estimates, radii)
        for lo, hi in zip(box.lower, box.upper):
            assert 0.0 <= lo <= hi <= 1.0
