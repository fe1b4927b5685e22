import math
import random
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from coci import (
    CapacityError,
    ConfidenceBox,
    EstimatorKind,
    PowerCost,
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
from coci.condition import (
    CERTIFY_RUN,
    _maximizer_columns,
    block_mask,
    candidate_on_bounds,
    certified_mask,
    run_bounds,
    two_corner_box_mask,
)
from coci.estimators import estimate_from_sums, radius_from_logs

from _reference import clamp_box, grid_points, lattice_candidate


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
        concave_water = make_water_oracle(
            WaterSpec(
                b=0.2,
                caps=(1.0, 1.0),
                costs=(PowerCost(1.0, 0.5), PowerCost(1.0, 0.5)),
                grid_step=0.2,
            )
        )
        assert concave_water.bi_monotone is False
        spec, calls = count_calls(concave_water)
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
        concave_water = make_water_oracle(
            WaterSpec(b=0.2, caps=(1.0,), costs=(PowerCost(1.0, 0.5),), grid_step=0.2)
        )
        assert concave_water.bi_monotone is False
        box = ConfidenceBox((0.2,), (0.4,))
        assert arm_is_candidate(concave_water, box, 0) == lattice_candidate(
            concave_water, box.lower, box.upper, 0, 21
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


def _loose_stack(draw, m):
    """A few boxes drawn like :func:`_candidate_cases` (ties, zero widths
    and 0/1 faces), as ``(lower, upper)`` arrays of shape (m, boxes)."""
    bound = st.one_of(st.sampled_from(_BOUND_POOL), st.floats(0.0, 1.0))
    pairs = [[sorted((draw(bound), draw(bound))) for _ in range(m)] for _ in range(draw(st.integers(1, 6)))]
    return np.array(pairs).transpose(2, 1, 0)


def _walk_stack(draw, m):
    """A stack shaped like the sampler's: a random walk of centres with
    shrinking radii, clipped at the 0/1 faces, over one to three certified
    runs of ``CERTIFY_RUN`` boxes."""
    boxes = draw(st.sampled_from([2 * CERTIFY_RUN + 5, 1, 9, CERTIFY_RUN, 3 * CERTIFY_RUN - 1]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    step = draw(st.sampled_from([0.0, 1e-3, 1e-2]))
    centre = rng.random((m, 1)) + np.cumsum(rng.normal(0.0, step, (m, boxes)), axis=1)
    radius = draw(st.sampled_from([0.02, 0.1, 0.3])) / np.sqrt(np.arange(1, boxes + 1))
    return np.clip(centre - radius, 0.0, 1.0), np.clip(centre + radius, 0.0, 1.0)


@st.composite
def _stacked_boxes(draw):
    """A top-k oracle with m = 1..12 and any k (k = m included), or an OSA
    oracle with m = 1..4, group sizes 1..6 and k = m..60, and a stack of
    boxes: a loose one (:func:`_loose_stack`) or, one time in three, a
    sampler-shaped one (:func:`_walk_stack`)."""
    if draw(st.booleans()):
        m = draw(st.integers(1, 12))
        spec = make_top_k_oracle(m, draw(st.integers(1, m)))
    else:
        m = draw(st.integers(1, 4))
        n = draw(st.lists(st.integers(1, 6), min_size=m, max_size=m))
        spec = make_osa_oracle(n, draw(st.integers(m, 60)))
    lower, upper = (_walk_stack if draw(st.integers(0, 2)) == 0 else _loose_stack)(draw, m)
    return spec, lower, upper


@settings(max_examples=300, deadline=None)
@given(_stacked_boxes())
def test_candidate_mask_matches_two_corner_test(case):
    spec, lower, upper = case
    mask = spec.candidate_mask(lower, upper)
    assert mask.shape == lower.shape
    for r in range(lower.shape[1]):
        lo, hi = lower[:, r].tolist(), upper[:, r].tolist()
        assert mask[:, r].tolist() == [candidate_on_bounds(spec, lo, hi, i) for i in range(spec.arm_count)], r


@pytest.mark.parametrize(
    "spec",
    [make_best_arm_oracle(5), make_top_k_oracle(5, 2), make_osa_oracle((5, 1, 1), 10)],
    ids=["best-arm", "top2", "osa"],
)
def test_candidate_mask_results_are_not_shared(spec):
    # Writing into a returned mask must not reach any state the next call
    # reads, such as the top-k tie mask cached per m.
    rng = np.random.default_rng(3)
    pool = np.array(_BOUND_POOL)
    m = spec.arm_count
    bounds = np.sort(rng.choice(pool, (2, m, 40)), axis=0)
    first = spec.candidate_mask(bounds[0], bounds[1])
    expected = first.copy()
    first[...] = ~first
    again = spec.candidate_mask(bounds[0], bounds[1])
    assert (again == expected).all()
    assert expected.any() and not expected.all()


@pytest.mark.parametrize("m, k", [(m, k) for m in (255, 256, 300) for k in (1, m - 1, m)])
def test_top_k_mask_counts_past_255_arms(m, k):
    # Past 255 arms a count no longer fits the smallest unsigned type; at
    # k = m the corner-b threshold m - 1 - k is -1. Box 0 is wide, box 1
    # ties on a quarter grid, and box 2 is disjoint, so that its row and
    # column counts run through every value from 0 to m - 1.
    spec = make_top_k_oracle(m, k)
    rng = np.random.default_rng(11)
    lower = 0.5 * rng.random((m, 3))
    lower[:, 1] = np.floor(4.0 * lower[:, 1]) / 4.0
    upper = lower + 0.5
    lower[:, 2] = rng.permutation(m) / m
    upper[:, 2] = lower[:, 2] + 0.5 / m
    mask = spec.candidate_mask(lower, upper)
    for r in range(3):
        lo, hi = lower[:, r].tolist(), upper[:, r].tolist()
        assert mask[:, r].tolist() == [candidate_on_bounds(spec, lo, hi, i) for i in range(m)]
    assert mask.any() == (k < m)


def _water(m, b, step):
    """A water oracle with quadratic costs and unit caps, declared
    bi-monotone."""
    return make_water_oracle(WaterSpec(b=b, caps=(1.0,) * m, costs=(QuadraticCost(1.0),) * m, grid_step=step))


#: Bi-monotone oracles without a mask of their own: the sampler checks
#: their blocks with the generic two-corner mask.
_MASKLESS_ORACLES = [
    _water(2, 1.6, 0.1),  # configs/water.json
    _water(3, 1.5, 0.5),
    _water(2, 1.0, 0.5),
] + [replace(make_top_k_oracle(m, k), candidate_mask=None) for m, k in ((4, 2), (3, 1))]


def _columns(spec):
    """A solver of parameter columns that calls ``spec.maximizer`` once
    per column."""
    return lambda theta: np.array([spec.maximizer(tuple(col)) for col in theta.T.tolist()]).T


def test_maskless_oracles_are_bi_monotone():
    assert all(spec.bi_monotone and spec.candidate_mask is None for spec in _MASKLESS_ORACLES)
    with pytest.raises(UsageError):
        block_mask(corners_only(_MASKLESS_ORACLES[1]), np.zeros((3, 1)), np.ones((3, 1)))


@st.composite
def _maskless_stacks(draw):
    """A bi-monotone oracle without its own mask and a stack of boxes:
    a loose one (:func:`_loose_stack`) or, three times in four, a
    sampler-shaped one (:func:`_walk_stack`)."""
    spec = draw(st.sampled_from(_MASKLESS_ORACLES))
    lower, upper = (_loose_stack if draw(st.integers(0, 3)) == 0 else _walk_stack)(draw, spec.arm_count)
    return spec, lower, upper


@settings(max_examples=200, deadline=None)
@given(_maskless_stacks())
def test_generic_mask_matches_two_corner_test(case):
    # The two-corner mask over per-column maximizer calls equals the
    # two-corner test box by box; settled by certified runs at the module
    # length, it equals itself unsettled, and it is the sampler's mask.
    spec, lower, upper = case
    box_mask = partial(two_corner_box_mask, _columns(spec))
    direct = box_mask(lower, upper)
    assert direct.shape == lower.shape and direct.dtype == bool
    for r in range(lower.shape[1]):
        lo, hi = lower[:, r].tolist(), upper[:, r].tolist()
        assert direct[:, r].tolist() == [candidate_on_bounds(spec, lo, hi, i) for i in range(spec.arm_count)], r
    assert (certified_mask(box_mask, lower, upper, CERTIFY_RUN) == direct).all()
    assert (block_mask(spec, lower, upper) == direct).all()


def test_generic_mask_solves_each_distinct_corner_once():
    # At m = 2 arm 0's first corner (upper_0, lower_1) is arm 1's second,
    # and the first and last boxes here are equal: 4 distinct corners of 12.
    spec, calls = count_calls(_MASKLESS_ORACLES[0])
    lower = np.array([[0.1, 0.2, 0.1], [0.3, 0.3, 0.3]])
    upper = lower + 0.25
    mask = two_corner_box_mask(partial(_maximizer_columns, spec), lower, upper)
    assert calls[0] == 4
    assert (mask == two_corner_box_mask(_columns(_MASKLESS_ORACLES[0]), lower, upper)).all()


@st.composite
def _sampler_stretches(draw):
    """A stretch of sampler states cut into runs, in Python floats: mean or
    variance estimates from running sums, arms with 1 to 5,000 pulls (small
    counts give radii clipped at the 0/1 faces), samples from point masses
    at 0, 1/2 or 1, Bernoulli, quarter-grid or uniform draws, picks in
    phases that leave some arms idle, and runs cut at random states (a
    pull then straddles a run edge) or every ``CERTIFY_RUN`` states with
    the last state a run of its own.

    Returns the arguments of :func:`run_bounds`, each state's box and
    (estimates, radii), and the runs as ranges of states. Each table row
    is padded with NaN past the arm's last count, which no bound may read.
    """
    m = draw(st.integers(1, 5))
    kind = draw(st.sampled_from([EstimatorKind.MEAN, EstimatorKind.VARIANCE]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    states = draw(st.sampled_from([1, 2, 5, 40, CERTIFY_RUN + 1, 2 * CERTIFY_RUN + 7]))
    pulls = [int(v) for v in rng.choice([kind.tau, 3, 40, 5000], m)]
    picks = []
    while len(picks) < states - 1:
        subset = np.flatnonzero(rng.random(m) < 0.5)
        subset = subset if len(subset) else [int(rng.integers(m))]
        picks += rng.choice(subset, int(rng.integers(1, states))).tolist()
    picks = picks[: states - 1]
    counts = np.zeros((m, states), dtype=np.int64)
    for s, i in enumerate(picks):
        counts[:, s + 1] = counts[:, s]
        counts[i, s + 1] += 1
    drawn = counts[:, -1].tolist()
    width = 1 + max(drawn) + int(rng.integers(0, 3))
    table = np.full((m, width), np.nan)
    for i in range(m):
        model = int(rng.integers(5))
        n = pulls[i] + drawn[i]
        if model == 0:
            xs = [float(rng.choice([0.0, 0.5, 1.0]))] * n
        elif model == 1:
            xs = (rng.random(n) < rng.random()).astype(float).tolist()
        elif model == 2:
            xs = (rng.integers(0, 5, n) / 4).tolist()
        else:
            xs = rng.random(n).tolist()
        total = total_sq = 0.0
        for c, x in enumerate(xs):
            total += x
            total_sq += x * x
            if c + 1 >= pulls[i]:
                table[i, c + 1 - pulls[i]] = estimate_from_sums(kind, total, total_sq, c + 1)
    t0 = sum(pulls)
    log_t = np.array([math.log(t0 + s) for s in range(states)])
    log_const = math.log(4.0 / (kind.tau * draw(st.floats(0.05, 0.6))))
    boxes, values = [], []
    for s in range(states):
        est = [float(table[i, counts[i, s]]) for i in range(m)]
        rad = [float(radius_from_logs(log_const, float(log_t[s]), pulls[i] + int(counts[i, s]))) for i in range(m)]
        boxes.append(clamp_box(est, rad))
        values.append((est, rad))
    if draw(st.booleans()):
        starts = sorted({0, *rng.integers(1, states, int(rng.integers(0, 6))).tolist()} if states > 1 else {0})
    else:
        starts = list(range(0, states - 1, CERTIFY_RUN)) + [states - 1]
    starts = np.array(sorted(set(starts)))
    ends = np.append(starts[1:], states) - 1
    args = (
        table, np.array(pulls), counts[:, starts], counts[:, ends], log_const,
        np.minimum.reduceat(log_t, starts), np.maximum.reduceat(log_t, starts),
    )
    return args, boxes, values, [range(a, b + 1) for a, b in zip(starts.tolist(), ends.tolist())]


@settings(max_examples=200, deadline=None)
@given(_sampler_stretches())
def test_run_bounds_nest_around_every_state_box(case):
    # The inner box lies in every state box of its run and the outer box
    # holds each of them; the estimate extremes are attained and the inner
    # radius is at most each state's. A one-state run's boxes are its box.
    args, boxes, values, runs = case
    lower, upper, e_min, e_max, r_in = run_bounds(*args)
    n = len(runs)
    assert lower.shape == upper.shape == (len(values[0][0]), 2 * n)
    assert not np.isnan(lower).any() and not np.isnan(upper).any()
    for j, run in enumerate(runs):
        inner = lower[:, j].tolist(), upper[:, j].tolist()
        outer = lower[:, n + j].tolist(), upper[:, n + j].tolist()
        for s in run:
            box, (est, rad) = boxes[s], values[s]
            for i in range(len(est)):
                assert outer[0][i] <= box.lower[i] <= inner[0][i], (j, s, i)
                assert inner[1][i] <= box.upper[i] <= outer[1][i], (j, s, i)
                assert r_in[i, j] <= rad[i]
        for i in range(len(e_min)):
            assert e_min[i, j] == min(values[s][0][i] for s in run)
            assert e_max[i, j] == max(values[s][0][i] for s in run)
        if len(run) == 1:
            box = boxes[run[0]]
            assert inner == outer == (list(box.lower), list(box.upper))
