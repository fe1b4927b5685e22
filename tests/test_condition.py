import random

import pytest

from coci import (
    BiMonotone,
    CapacityError,
    ConfidenceBox,
    CornerEnumeration,
    GridScan,
    QuadraticCost,
    UsageError,
    WaterSpec,
    arm_is_candidate,
    default_strategy,
    make_best_arm_oracle,
    make_osa_oracle,
    make_top_k_oracle,
    make_water_oracle,
)

from _reference import grid_points

STRATEGIES = [BiMonotone(), CornerEnumeration(), GridScan(21)]


def random_box(rng: random.Random, m: int) -> ConfidenceBox:
    lower, upper = [], []
    for _ in range(m):
        center = rng.random()
        radius = rng.uniform(0.01, 0.4)
        lower.append(max(0.0, center - radius))
        upper.append(min(1.0, center + radius))
    return ConfidenceBox(tuple(lower), tuple(upper))


class TestTwoCornerExamples:
    def test_separated_intervals_not_candidate(self):
        spec = make_best_arm_oracle(2)
        box = ConfidenceBox((0.7, 0.1), (0.9, 0.3))
        assert arm_is_candidate(BiMonotone(), spec, box, 0) is False
        assert arm_is_candidate(BiMonotone(), spec, box, 1) is False

    def test_overlapping_intervals_candidate(self):
        spec = make_best_arm_oracle(2)
        box = ConfidenceBox((0.4, 0.4), (0.6, 0.6))
        assert arm_is_candidate(BiMonotone(), spec, box, 0) is True
        assert arm_is_candidate(BiMonotone(), spec, box, 1) is True

    def test_degenerate_box(self):
        spec = make_best_arm_oracle(3)
        box = ConfidenceBox((0.3, 0.6, 0.1), (0.3, 0.6, 0.1))
        for strategy in STRATEGIES:
            for i in range(3):
                assert arm_is_candidate(strategy, spec, box, i) is False


class TestErrors:
    def test_bi_monotone_requires_declaration(self):
        loose_water = make_water_oracle(
            WaterSpec(b=0.2, caps=(1.0,), costs=(QuadraticCost(),), grid_step=0.2)
        )
        assert loose_water.bi_monotone is False
        box = ConfidenceBox((0.2,), (0.4,))
        with pytest.raises(UsageError):
            arm_is_candidate(BiMonotone(), loose_water, box, 0)

    def test_corner_capacity(self):
        spec = make_best_arm_oracle(21)
        box = ConfidenceBox((0.4,) * 21, (0.6,) * 21)
        with pytest.raises(CapacityError):
            arm_is_candidate(CornerEnumeration(), spec, box, 0)

    def test_grid_resolution(self):
        with pytest.raises(UsageError):
            GridScan(1)

    def test_arm_index_range(self):
        spec = make_best_arm_oracle(2)
        box = ConfidenceBox((0.4, 0.4), (0.6, 0.6))
        with pytest.raises(UsageError):
            arm_is_candidate(BiMonotone(), spec, box, 2)


class TestDefaultStrategy:
    def test_bi_monotone_preferred(self):
        assert isinstance(default_strategy(make_top_k_oracle(3, 2)), BiMonotone)

    def test_corner_fallback(self):
        loose_water = make_water_oracle(
            WaterSpec(b=0.2, caps=(1.0,), costs=(QuadraticCost(),), grid_step=0.2)
        )
        assert isinstance(default_strategy(loose_water), CornerEnumeration)

    def test_grid_fallback_warns(self):
        from dataclasses import replace

        spec = replace(make_best_arm_oracle(21), bi_monotone=False)
        with pytest.warns(UserWarning):
            strategy = default_strategy(spec)
        assert isinstance(strategy, GridScan)


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
            answers = {repr(s): arm_is_candidate(s, spec, box, i) for s in STRATEGIES}
            assert len(set(answers.values())) == 1, (box, i, answers)


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
            before = arm_is_candidate(BiMonotone(), spec, box, i)
            after = arm_is_candidate(BiMonotone(), spec, shrunk, i)
            if not before:
                assert not after


def test_no_candidates_means_constant_decision():
    spec = make_top_k_oracle(2, 1)
    rng = random.Random(31)
    checked = 0
    for _ in range(300):
        box = random_box(rng, 2)
        scan = GridScan(9)
        if any(arm_is_candidate(scan, spec, box, i) for i in range(2)):
            continue
        checked += 1
        decisions = {spec.maximizer(p) for p in grid_points(box.lower, box.upper, 9)}
        assert len(decisions) == 1
    assert checked > 10
