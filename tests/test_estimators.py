import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from coci import DomainError, EstimatorKind, UsageError, confidence_radius, estimate
from coci.estimators import estimate_from_sums, radius_from_logs

from _reference import clamp_box

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

    @given(
        kind=st.sampled_from(list(EstimatorKind)),
        runs=st.lists(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=40), min_size=1, max_size=8),
    )
    def test_array_sums_match_scalar_calls(self, kind, runs):
        # The sampler's block loop passes arrays of running sums; each entry
        # must equal the scalar call on the same sums, including the clamp
        # of a cancelled variance at zero.
        runs = runs + [[0.3] * 3, [1.0] * 7]
        totals = [sum(r) for r in runs]
        squares = [sum(x * x for x in r) for r in runs]
        counts = [len(r) for r in runs]
        got = estimate_from_sums(kind, np.array(totals), np.array(squares), np.array(counts))
        want = [estimate_from_sums(kind, *args) for args in zip(totals, squares, counts)]
        assert got.tolist() == want


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

    @given(
        st.lists(st.tuples(st.integers(1, 2**40), st.integers(1, 10**7)), min_size=1, max_size=8),
        st.sampled_from([1, 2]),
        st.floats(1e-12, 0.999),
    )
    def test_array_entries_equal_scalar_calls(self, cases, tau, delta):
        # The sampler evaluates whole blocks of radii at once; each entry
        # must be the public scalar radius bit for bit.
        cases = [(t + tau, p + tau) for t, p in cases]
        log_t = np.array([math.log(t) for t, _ in cases])
        pulls = np.array([p for _, p in cases])
        radii = radius_from_logs(math.log(4.0 / (tau * delta)), log_t, pulls)
        assert radii.tolist() == [confidence_radius(t, p, tau, delta) for t, p in cases]

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

    def test_t_is_an_integer(self):
        assert confidence_radius(np.int64(10), 2, 1, 0.1) == confidence_radius(10, 2, 1, 0.1)
        for t in (10.5, True, "10"):
            with pytest.raises(UsageError):
                confidence_radius(t, 1, 1, 0.1)

    def test_pulls_is_an_integer(self):
        assert confidence_radius(10, np.int64(2), 1, 0.1) == confidence_radius(10, 2, 1, 0.1)
        for pulls in (2.5, True, "2"):
            with pytest.raises(UsageError):
                confidence_radius(10, pulls, 1, 0.1)


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

    @given(
        st.integers(1, 2**40),
        st.integers(1, 2**40),
        st.sampled_from([1, 2]),
        st.floats(5e-308, 1.0, exclude_max=True),
    )
    def test_radius_positive(self, t, pulls, tau, delta):
        # The sampler's clip gives the scalar clamp's floats because every
        # radius it clamps with is positive.
        assume(math.isfinite(4.0 / (tau * delta)))
        assert confidence_radius(t + tau, pulls + tau, tau, delta) > 0.0

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
        # The sampler clamps with one clip per side; with positive radii it
        # gives the same floats, signs of zero included.
        est, rad = np.array(estimates), np.array(radii)
        assert np.array(box.lower).tobytes() == np.clip(est - rad, 0.0, 1.0).tobytes()
        assert np.array(box.upper).tobytes() == np.clip(est + rad, 0.0, 1.0).tobytes()
