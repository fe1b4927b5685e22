import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from coci import (
    CapacityError,
    ConfidenceBox,
    EstimatorKind,
    QuadraticCost,
    UsageError,
    WaterSpec,
    arm_is_candidate,
    build_instance,
    make_best_arm_oracle,
    make_osa_oracle,
    make_top_k_oracle,
    make_water_oracle,
    run_coci,
)
from coci.condition import candidate_on_bounds

from _reference import grid_points, lattice_candidate


def random_box(rng: random.Random, m: int) -> ConfidenceBox:
    lower, upper = [], []
    for _ in range(m):
        center = rng.random()
        radius = rng.uniform(0.01, 0.4)
        lower.append(max(0.0, center - radius))
        upper.append(min(1.0, center + radius))
    return ConfidenceBox(tuple(lower), tuple(upper))


def corners_only(spec):
    """The same oracle, declared not bi-monotone: its candidate test
    enumerates the box corners."""
    return replace(spec, bi_monotone=False)


def count_calls(spec):
    """``spec`` with a maximizer that counts its calls in ``calls[0]``."""
    calls = [0]

    def maximizer(theta):
        calls[0] += 1
        return spec.maximizer(theta)

    return replace(spec, maximizer=maximizer), calls


class TestTwoCornerExamples:
    def test_separated_intervals_not_candidate(self):
        spec = make_best_arm_oracle(2)
        box = ConfidenceBox((0.7, 0.1), (0.9, 0.3))
        assert arm_is_candidate(spec, box, 0) is False
        assert arm_is_candidate(spec, box, 1) is False

    def test_overlapping_intervals_candidate(self):
        spec = make_best_arm_oracle(2)
        box = ConfidenceBox((0.4, 0.4), (0.6, 0.6))
        assert arm_is_candidate(spec, box, 0) is True
        assert arm_is_candidate(spec, box, 1) is True

    def test_degenerate_box(self):
        spec = make_best_arm_oracle(3)
        box = ConfidenceBox((0.3, 0.6, 0.1), (0.3, 0.6, 0.1))
        for i in range(3):
            assert arm_is_candidate(spec, box, i) is False
            assert arm_is_candidate(corners_only(spec), box, i) is False
            assert lattice_candidate(spec, box.lower, box.upper, i, 21) is False


class TestErrors:
    def test_bi_monotone_requires_declaration(self):
        # An oracle that does not declare bi_monotone never gets the
        # two-corner test: all four corners of a constant box are evaluated.
        loose_water = make_water_oracle(
            WaterSpec(
                b=0.2,
                caps=(1.0, 1.0),
                costs=(QuadraticCost(), QuadraticCost()),
                grid_step=0.2,
            )
        )
        assert loose_water.bi_monotone is False
        spec, calls = count_calls(loose_water)
        box = ConfidenceBox((0.3, 0.5), (0.3, 0.5))
        assert arm_is_candidate(spec, box, 0) is False
        assert calls[0] == 4

    def test_corner_capacity(self):
        box = ConfidenceBox((0.4,) * 21, (0.6,) * 21)
        # The two-corner test has no arm limit; corner enumeration does.
        assert arm_is_candidate(make_best_arm_oracle(21), box, 0) is True
        spec = corners_only(make_best_arm_oracle(21))
        with pytest.raises(CapacityError):
            arm_is_candidate(spec, box, 0)
        # The sampler raises too, rather than fall back to a heuristic.
        theta = tuple(0.05 + 0.04 * i for i in range(21))
        instance = build_instance(spec, theta, EstimatorKind.MEAN)
        with pytest.raises(CapacityError):
            run_coci(instance, 0.1)

    def test_arm_index_range(self):
        spec = make_best_arm_oracle(2)
        box = ConfidenceBox((0.4, 0.4), (0.6, 0.6))
        with pytest.raises(UsageError):
            arm_is_candidate(spec, box, 2)


class TestDefaultStrategy:
    """The oracle's ``bi_monotone`` flag picks the candidate test."""

    def test_bi_monotone_preferred(self):
        spec, calls = count_calls(make_top_k_oracle(3, 2))
        box = ConfidenceBox((0.7, 0.5, 0.1), (0.9, 0.6, 0.3))
        assert arm_is_candidate(spec, box, 0) is False
        assert calls[0] == 2

    def test_corner_fallback(self):
        spec, calls = count_calls(corners_only(make_top_k_oracle(3, 2)))
        box = ConfidenceBox((0.7, 0.5, 0.1), (0.9, 0.6, 0.3))
        assert arm_is_candidate(spec, box, 0) is False
        assert calls[0] == 8
        loose_water = make_water_oracle(
            WaterSpec(b=0.2, caps=(1.0,), costs=(QuadraticCost(),), grid_step=0.2)
        )
        assert loose_water.bi_monotone is False
        box = ConfidenceBox((0.2,), (0.4,))
        assert arm_is_candidate(loose_water, box, 0) == lattice_candidate(
            loose_water, box.lower, box.upper, 0, 21
        )


@pytest.mark.parametrize(
    "spec",
    [make_top_k_oracle(3, 2), make_best_arm_oracle(3), make_osa_oracle((2, 1), 5)],
    ids=["top2", "best-arm", "osa"],
)
def test_strategy_agreement_sample(spec):
    rng = random.Random(17)
    for _ in range(60):
        box = random_box(rng, spec.arm_count)
        for i in range(spec.arm_count):
            answers = (
                arm_is_candidate(spec, box, i),
                arm_is_candidate(corners_only(spec), box, i),
                lattice_candidate(spec, box.lower, box.upper, i, 21),
            )
            assert len(set(answers)) == 1, (box, i, answers)


# Bounds drawn from the pool with repetition give exact ties between arms
# and zero-width intervals; 0 and 1 put bounds on the cube faces.
_BOUND_POOL = (0.0, 0.05, 0.25, 0.3, 0.5, 0.62, 0.75, 0.9, 1.0)
_PROPERTY_ORACLES = (
    [make_top_k_oracle(m, k) for m in range(1, 6) for k in range(1, m + 1)]
    + [make_osa_oracle((5, 1), 8), make_osa_oracle((2, 3), 5)]
    + [make_osa_oracle((5, 1, 1), 10), make_osa_oracle((1, 2, 1), 6)]
)


@st.composite
def _candidate_cases(draw):
    spec = draw(st.sampled_from(_PROPERTY_ORACLES))
    bound = st.one_of(st.sampled_from(_BOUND_POOL), st.floats(0.0, 1.0))
    pairs = [sorted((draw(bound), draw(bound))) for _ in range(spec.arm_count)]
    lower, upper = zip(*pairs)
    return spec, lower, upper


def test_property_oracles_are_bi_monotone():
    assert all(spec.bi_monotone for spec in _PROPERTY_ORACLES)


@settings(max_examples=300, deadline=None)
@given(_candidate_cases())
def test_candidate_test_matches_corners_and_lattice(case):
    spec, lower, upper = case
    for i in range(spec.arm_count):
        answer = candidate_on_bounds(spec, lower, upper, i)
        assert answer == candidate_on_bounds(corners_only(spec), lower, upper, i), i
        assert answer == lattice_candidate(spec, lower, upper, i, 4), i


def test_monotone_shrinkage():
    # Shrinking the box never turns a settled arm back into a candidate.
    spec = make_top_k_oracle(3, 2)
    rng = random.Random(23)
    for _ in range(200):
        box = random_box(rng, 3)
        shrunk_lower, shrunk_upper = [], []
        for lo, hi in zip(box.lower, box.upper):
            cut = rng.uniform(0.0, 0.5) * (hi - lo)
            keep = (hi - lo) - cut
            start = lo + rng.uniform(0.0, cut)
            shrunk_lower.append(start)
            shrunk_upper.append(start + keep)
        shrunk = ConfidenceBox(tuple(shrunk_lower), tuple(shrunk_upper))
        for i in range(3):
            before = arm_is_candidate(spec, box, i)
            after = arm_is_candidate(spec, shrunk, i)
            if not before:
                assert not after


def test_no_candidates_means_constant_decision():
    spec = make_top_k_oracle(2, 1)
    rng = random.Random(31)
    checked = 0
    for _ in range(300):
        box = random_box(rng, 2)
        if any(arm_is_candidate(spec, box, i) for i in range(2)):
            continue
        checked += 1
        decisions = {spec.maximizer(p) for p in grid_points(box.lower, box.upper, 9)}
        assert len(decisions) == 1
    assert checked > 10


@st.composite
def _stacked_boxes(draw):
    """A top-k oracle with m = 1..8 and any k, or an OSA oracle with
    m = 1..4, group sizes 1..6 and k = m..60, and a stack of boxes drawn
    like :func:`_candidate_cases`: ties, zero widths and 0/1 faces."""
    if draw(st.booleans()):
        m = draw(st.integers(1, 8))
        spec = make_top_k_oracle(m, draw(st.integers(1, m)))
    else:
        m = draw(st.integers(1, 4))
        n = draw(st.lists(st.integers(1, 6), min_size=m, max_size=m))
        spec = make_osa_oracle(n, draw(st.integers(m, 60)))
    bound = st.one_of(st.sampled_from(_BOUND_POOL), st.floats(0.0, 1.0))
    boxes = []
    for _ in range(draw(st.integers(1, 6))):
        pairs = [sorted((draw(bound), draw(bound))) for _ in range(m)]
        boxes.append(tuple(zip(*pairs)))
    return spec, boxes


@settings(max_examples=300, deadline=None)
@given(_stacked_boxes())
def test_candidate_mask_matches_two_corner_test(case):
    spec, boxes = case
    lower = np.array([lo for lo, _ in boxes]).T
    upper = np.array([hi for _, hi in boxes]).T
    mask = spec.candidate_mask(lower, upper)
    assert mask.shape == (spec.arm_count, len(boxes))
    for r, (lo, hi) in enumerate(boxes):
        for i in range(spec.arm_count):
            assert mask[i, r] == candidate_on_bounds(spec, lo, hi, i), (r, i)
