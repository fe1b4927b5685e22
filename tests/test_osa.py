import math
import random
import tracemalloc
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from coci import DomainError, OsaSpec, UsageError, greedy_osa
from coci import condition, osa
from coci.condition import CERTIFY_RUN, candidate_on_bounds, certified_mask, two_corner_box_mask
from coci.osa import _bases, _enumerate_allocations, _greedy_osa_columns, _marginal_greater, make_osa_oracle

from _reference import exact_osa_optimum, greedy_from_ones


def _base(spec, theta):
    """The threshold base of one parameter vector, as a tuple of ints."""
    return tuple(int(v) for v in _bases(spec, np.array([theta], dtype=float).T)[:, 0])


class TestSpec:
    def test_budget_below_group_count(self):
        with pytest.raises(DomainError):
            OsaSpec((1, 1, 1), 2)

    def test_bad_group_size(self):
        with pytest.raises(UsageError):
            OsaSpec((1, 0), 4)

    def test_theta_out_of_range(self):
        with pytest.raises(DomainError):
            greedy_osa(OsaSpec((1, 1), 4), (0.5, 1.5))

    def test_integer_inputs_are_not_truncated(self):
        # Fractional sizes or budgets and bools are rejected, not cast to int.
        for n, k in [((2.7, 1), 5), ((2, 1), 5.5), ((True, 2), 3), ((2, 1), True), (("2", 1), 5)]:
            with pytest.raises(UsageError):
                OsaSpec(n, k)
        with pytest.raises(UsageError):
            make_osa_oracle((2.7, 1), 5.5)
        # Integers of any type that has __index__, numpy's included, are read exactly.
        spec = OsaSpec((np.int64(2), np.uint8(1)), np.int32(5))
        assert spec == OsaSpec((2, 1), 5) and all(type(v) is int for v in spec.n + (spec.k,))
        assert make_osa_oracle((np.int64(2), 1), np.int64(5)).name == "osa(n=(2, 1), k=5)"


class TestKnownOptima:
    def test_tight_base_instance(self):
        # The threshold base is (27, 1, 1), four greedy steps below the
        # exact optimum (29, 2, 2).
        spec = OsaSpec((20, 1, 1), 33)
        theta = (1.0, 1.0, 1.0)
        assert _base(spec, theta) == (27, 1, 1)
        assert greedy_osa(spec, theta) == (29, 2, 2)
        assert exact_osa_optimum(spec.n, spec.k, theta) == (29, 2, 2)

    def test_symmetric(self):
        assert greedy_osa(OsaSpec((1, 1), 4), (0.25, 0.25)) == (2, 2)

    def test_all_zero_weights(self):
        # Every allocation ties at zero; the leading optimum is the full-
        # budget vector that loads the last group.
        spec = OsaSpec((1, 1), 5)
        assert greedy_osa(spec, (0.0, 0.0)) == (1, 4)
        assert exact_osa_optimum((1, 1), 5, (0.0, 0.0)) == (1, 4)

    def test_unbalanced_groups(self):
        spec = OsaSpec((3, 2, 1), 9)
        theta = (0.36, 0.16, 0.04)
        expected = exact_osa_optimum(spec.n, spec.k, theta)
        assert expected == (6, 2, 1)
        assert greedy_osa(spec, theta) == expected

    def test_single_nonzero_weight(self):
        assert greedy_osa(OsaSpec((1, 1), 6), (0.25, 0.0)) == (5, 1)

    def test_single_group(self):
        assert greedy_osa(OsaSpec((4,), 7), (0.3,)) == (7,)


def test_enumeration_lists_every_allocation_once_in_order():
    # Distinct valid allocations, comb(k, m) of them, are all there are.
    for m in range(1, 5):
        for k in range(m, 11):
            allocations = list(_enumerate_allocations(m, k))
            contains = make_osa_oracle((1,) * m, k).contains
            assert allocations == sorted(set(allocations)), (m, k)
            assert all(contains(y) for y in allocations), (m, k)
            assert len(allocations) == math.comb(k, m), (m, k)


class TestExactness:
    def test_random_instances_match_reference(self):
        rng = random.Random(20240610)
        for _ in range(400):
            m = rng.randint(1, 4)
            k = rng.randint(m, 12)
            n = tuple(rng.randint(1, 3) for _ in range(m))
            theta = tuple(rng.choice([j / 10 for j in range(11)]) for _ in range(m))
            got = greedy_osa(OsaSpec(n, k), theta)
            want = exact_osa_optimum(n, k, theta)
            assert got == want, (n, k, theta)

    def test_off_grid_parameters(self):
        rng = random.Random(99)
        for _ in range(150):
            m = rng.randint(1, 3)
            k = rng.randint(m, 10)
            n = tuple(rng.randint(1, 3) for _ in range(m))
            theta = tuple(rng.random() for _ in range(m))
            got = greedy_osa(OsaSpec(n, k), theta)
            want = exact_osa_optimum(n, k, theta)
            assert got == want, (n, k, theta)

    def test_cross_group_weight_collisions(self):
        # Weights n_i^2 theta_i that are equal in exact arithmetic but have
        # asymmetric floating-point images (9 * 0.1 != 0.9 as doubles) must
        # still tie-break identically in the greedy and the enumeration.
        cases = [
            ((3, 1), (0.1, 0.9)),
            ((1, 3), (0.9, 0.1)),
            ((2, 3), (0.9, 0.4)),
            ((3, 2), (0.4, 0.9)),
            ((1, 2), (0.4, 0.1)),
            ((3, 1, 2), (0.1, 0.9, 0.1)),
            ((2, 2, 1), (0.2, 0.2, 0.8)),
        ]
        for n, theta in cases:
            for k in range(len(n), 13):
                got = greedy_osa(OsaSpec(n, k), theta)
                want = exact_osa_optimum(n, k, theta)
                assert got == want, (n, k, theta, got, want)

    def test_base_vector_is_safe(self):
        # Every enumerated optimum dominates the base vector componentwise,
        # and a group whose parameter is 0 gets one sample.
        rng = random.Random(7)
        for _ in range(120):
            m = rng.randint(1, 3)
            k = rng.randint(m, 10)
            n = tuple(rng.randint(1, 3) for _ in range(m))
            theta = tuple(rng.choice([j / 10 for j in range(11)]) for _ in range(m))
            base = _base(OsaSpec(n, k), theta)
            optimum = exact_osa_optimum(n, k, theta)
            assert all(optimum[i] >= base[i] for i in range(m)), (n, k, theta)
            assert all(base[i] == 1 for i in range(m) if theta[i] == 0.0)
        assert _base(OsaSpec((1, 1), 6), (0.25, 0.0)) == (4, 1)

    def test_base_margin_covers_rounding(self):
        # At these parameters r_0 is just below 3 in exact arithmetic, and
        # its float image is just above: without the margin e, group 0's
        # base would be 4, one more than its marginals above the threshold.
        for k, t in [(9, 0.959802097401857), (11, 0.39156604681154256), (16, 0.1081030878628983)]:
            with localcontext(prec=60):
                a = Decimal(t).sqrt() * (k - 2) / (Decimal(t).sqrt() + 1)
                r = ((1 + 4 * a * a).sqrt() - 1) / 2
            assert r < 3 and _base(OsaSpec((1, 1), k), (t, 1.0))[0] == 3

    def test_budget_saturated(self):
        rng = random.Random(11)
        for _ in range(100):
            m = rng.randint(1, 4)
            k = rng.randint(m, 12)
            n = tuple(rng.randint(1, 3) for _ in range(m))
            theta = tuple(rng.choice([j / 10 for j in range(1, 11)]) for _ in range(m))
            assert sum(greedy_osa(OsaSpec(n, k), theta)) == k

    def test_increment_count_bound(self):
        rng = random.Random(13)
        for _ in range(200):
            m = rng.randint(1, 4)
            k = rng.randint(m, 12)
            n = tuple(rng.randint(1, 3) for _ in range(m))
            theta = tuple(rng.choice([j / 10 for j in range(11)]) for _ in range(m))
            base = _base(OsaSpec(n, k), theta)
            if not any(theta):
                # No greedy step: the slack goes to the last group.
                assert base == (1,) * m
                continue
            # The greedy loop's trip count: the budget the base leaves over.
            increments = k - sum(base)
            assert 0 <= increments <= 3 * m // 2 + 1, (n, k, theta)


class TestMaximizerWrapper:
    def test_delegates(self):
        spec = OsaSpec((1, 1), 6)
        oracle = make_osa_oracle(spec.n, spec.k)
        assert oracle.maximizer((0.25, 0.0)) == tuple(map(float, greedy_osa(spec, (0.25, 0.0))))

    def test_own_parameter_monotone(self):
        spec = OsaSpec((1, 1), 6)
        grid = [j / 10 for j in range(11)]
        for other in grid:
            previous = None
            for own in grid:
                y = greedy_osa(spec, (own, other))[0]
                if previous is not None:
                    assert y >= previous, (own, other)
                previous = y

    def test_bi_monotone_on_lattice(self):
        # Raising one parameter by a lattice step never lowers that group's
        # allocation and never raises any other group's.
        spec = OsaSpec((2, 1, 1), 7)
        grid = [j / 5 for j in range(6)]
        for a in grid:
            for b in grid:
                for c in grid:
                    base = greedy_osa(spec, (a, b, c))
                    for i, bumped in enumerate(
                        [(min(1.0, a + 0.2), b, c), (a, min(1.0, b + 0.2), c), (a, b, min(1.0, c + 0.2))]
                    ):
                        if bumped == (a, b, c):
                            continue
                        moved = greedy_osa(spec, bumped)
                        assert moved[i] >= base[i]
                        for j in range(3):
                            if j != i:
                                assert moved[j] <= base[j]


def _exact_sign(n2l, theta, levels, i, j):
    """The sign of marginal i minus marginal j, in rational arithmetic."""
    mi = Fraction(n2l[i]) * Fraction(theta[i]) / (levels[i] * (levels[i] + 1))
    mj = Fraction(n2l[j]) * Fraction(theta[j]) / (levels[j] * (levels[j] + 1))
    return (mi > mj) - (mi < mj)


class TestMarginalComparison:
    def test_large_products_compare_exactly(self):
        # n_i^2 y_j (y_j + 1) past 2^53 rounds on conversion to float; the
        # float products then order these two marginals the wrong way.
        args = ([4080067**2, 5674000**2], [0.08553402726544312, 0.15785635723597166], [22, 42], 0, 1)
        assert _exact_sign(*args) == -1
        assert _marginal_greater(*args) == -1

    def test_random_against_fractions(self):
        rng = random.Random(53)
        for _ in range(2000):
            n2l = [rng.choice([1, 4, 9, rng.randint(1, 10**7) ** 2]) for _ in range(2)]
            theta = [rng.choice([0.1, 0.4, 0.9, 1.0, rng.random()]) for _ in range(2)]
            levels = [rng.choice([1, 2, rng.randint(1, 10**4)]) for _ in range(2)]
            assert _marginal_greater(n2l, theta, levels, 0, 1) == _exact_sign(n2l, theta, levels, 0, 1)


_COLUMN_POOL = (0.0, 0.01, 0.1, 0.2, 0.25, 0.4, 0.5, 0.8, 0.9, 1.0)


@st.composite
def _column_cases(draw):
    """A spec (m = 1..4, small or very large group sizes, k = m..60) and a
    stack of parameter columns: all zero, all equal, or drawn from a pool
    with ties and faces, or at random."""
    m = draw(st.integers(1, 4))
    size = st.integers(1, 6) if draw(st.integers(0, 4)) else st.integers(10**7, 10**9)
    spec = OsaSpec(tuple(draw(st.lists(size, min_size=m, max_size=m))), draw(st.integers(m, 60)))
    value = st.one_of(st.sampled_from(_COLUMN_POOL), st.floats(0.0, 1.0))
    columns = []
    for _ in range(draw(st.integers(1, 12))):
        kind = draw(st.sampled_from(["zero", "equal", "mixed"]))
        if kind == "zero":
            columns.append([0.0] * m)
        elif kind == "equal":
            columns.append([draw(value)] * m)
        else:
            columns.append(draw(st.lists(value, min_size=m, max_size=m)))
    return spec, columns


@st.composite
def _step_mix_cases(draw):
    """A spec drawn as :func:`_column_cases` draws one, and a seed for
    :func:`_step_mix`."""
    m = draw(st.integers(1, 4))
    size = st.integers(1, 6) if draw(st.integers(0, 4)) else st.integers(10**7, 10**9)
    spec = OsaSpec(tuple(draw(st.lists(size, min_size=m, max_size=m))), draw(st.integers(m, 60)))
    return spec, draw(st.integers(0, 2**32 - 1))


def _step_mix(spec, seed):
    """An ``(m, N)`` stack of columns in random order: all-zero ones (no
    greedy step from the base), ones with one positive parameter (one step
    when k > m), all-equal ones, ones whose parameters copy each other, and
    random ones with zeros and pool values, which take the batch's most
    steps."""
    m = spec.m
    rng = np.random.default_rng(seed)
    pool = rng.random((m, 120))
    pool[rng.random(pool.shape) < 0.2] = 0.0
    picks = rng.random(pool.shape) < 0.3
    pool[picks] = rng.choice(_COLUMN_POOL, picks.sum())
    copies = pool[rng.integers(0, m, (m, 30)), np.arange(30)]
    single = np.diag(rng.random(m) * 0.9 + 0.1)
    equal = np.repeat(np.append(rng.choice(_COLUMN_POOL, 5), rng.random(5))[None], m, axis=0)
    theta = np.concatenate((pool, copies, single, equal, np.zeros((m, 4))), axis=1)
    return theta[:, rng.permutation(theta.shape[1])]


class TestBatchedSolver:
    @settings(max_examples=300, deadline=None)
    @given(_column_cases())
    def test_bases_are_below_the_textbook_greedy(self, case):
        spec, columns = case
        bases = _bases(spec, np.array(columns).T.reshape(spec.m, len(columns)))
        for c, column in enumerate(columns):
            base = bases[:, c].tolist()
            assert all(b == int(b) for b in base)
            assert all(b <= y for b, y in zip(base, greedy_from_ones(spec.n, spec.k, column))), column
            assert all(b == 1 for b, t in zip(base, column) if t == 0.0)
            assert sum(base) <= spec.k
            if any(column):
                assert spec.k - sum(base) <= 3 * spec.m // 2 + 1, column

    @settings(max_examples=300, deadline=None)
    @given(_column_cases())
    def test_scalar_base_equals_bases(self, case):
        # greedy_osa's scalar base and the batched one agree column by
        # column, whether _bases sees the columns alone or stacked.
        spec, columns = case
        bases = _bases(spec, np.array(columns).T.reshape(spec.m, len(columns)))
        for c, column in enumerate(columns):
            base = osa._base(spec, column)
            assert all(type(b) is int for b in base)
            assert base == bases[:, c].tolist() == _bases(spec, np.array([column]).T)[:, 0].tolist(), column

    @settings(max_examples=400, deadline=None)
    @given(_column_cases())
    def test_matches_greedy_osa_column_by_column(self, case):
        spec, columns = case
        got = _greedy_osa_columns(spec, np.array(columns).T.reshape(spec.m, len(columns)))
        assert got.shape == (spec.m, len(columns))
        for c, column in enumerate(columns):
            assert tuple(got[:, c].tolist()) == greedy_osa(spec, column), column

    @settings(max_examples=200, deadline=None)
    @given(_step_mix_cases())
    # n^2 (k - m + 1) (k - m + 2) reaches 2^53 here: the scan checks that
    # its integer products stay below it.
    @example((OsaSpec((10**8, 1, 3), 12), 0))
    def test_one_call_over_columns_of_every_step_count(self, case):
        # One call on columns in random order whose greedy steps from the
        # base run from 0 to the most; each step scans every column and
        # must leave the finished ones alone.
        spec, seed = case
        theta = _step_mix(spec, seed)
        steps = spec.k - _bases(spec, theta).sum(axis=0)
        steps[~theta.any(axis=0)] = 0
        assert 0 in steps and (spec.k == spec.m or 1 in steps), steps
        got = _greedy_osa_columns(spec, theta)
        for c, column in enumerate(theta.T.tolist()):
            assert tuple(got[:, c].tolist()) == greedy_osa(spec, column), (column, steps[c])

    def _scalar_calls(self, monkeypatch, spec, columns):
        calls = [0]

        def counted(spec, theta):
            calls[0] += 1
            return greedy_osa(spec, theta)

        monkeypatch.setattr(osa, "greedy_osa", counted)
        got = _greedy_osa_columns(spec, np.array(columns).T)
        for c, column in enumerate(columns):
            assert tuple(got[:, c].tolist()) == greedy_osa(spec, column)
        return calls[0]

    def test_premises(self, monkeypatch):
        # All-zero columns and equal parameters (floats that collide) are
        # solved in numpy, the latter by the integer products.
        assert self._scalar_calls(monkeypatch, OsaSpec((1, 1), 9), [[0.0, 0.0], [0.3, 0.3], [1.0, 1.0]]) == 0
        assert self._scalar_calls(monkeypatch, OsaSpec((1, 2, 2), 12), [[0.5, 0.5, 0.5], [0.1, 0.9, 0.9]]) == 0
        # 4 * 0.1 == 0.4 in floats: equal marginals, unequal parameters.
        assert self._scalar_calls(monkeypatch, OsaSpec((1, 2), 8), [[0.4, 0.1], [0.5, 0.1]]) == 1
        # n^2 y (y + 1) reaches 2^53: the scalar solves the column.
        assert self._scalar_calls(monkeypatch, OsaSpec((10**8, 1), 6), [[0.3, 0.6], [0.0, 0.6]]) == 1
        # From (m + 8) k = 2^40 on the batched solver's premises are not
        # proven: the scalar solves every column.
        assert self._scalar_calls(monkeypatch, OsaSpec((1, 3), 2**37), [[0.3, 0.6], [0.5, 0.5]]) == 2


class TestCandidateMask:
    def test_memory_stays_bounded_on_a_large_stack(self):
        # At m = 32 a box has 2 m^2 = 2,048 corner entries, so a stack of
        # 1,024 boxes is solved in two slices of 2^20 floats. The batched
        # solver holds a few arrays of a slice's shape at once; in one piece
        # each would hold 2^21 floats.
        m = 32
        oracle = make_osa_oracle((5,) + (1,) * (m - 1), 2 * m)
        rng = np.random.default_rng(7)
        center = 0.25 * rng.random((m, 1024))
        lower, upper = np.clip(center - 0.01, 0.0, 1.0), np.clip(center + 0.01, 0.0, 1.0)
        tracemalloc.start()
        try:
            mask = oracle.candidate_mask(lower, upper)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 8 * condition._MASK_CELLS
        assert mask.any() and not mask.all()
        for box in range(0, 1024, 97):
            lo, up = lower[:, box].tolist(), upper[:, box].tolist()
            for i in range(m):
                assert mask[i, box] == candidate_on_bounds(oracle, lo, up, i), (box, i)


def _osa_box_mask(spec):
    """The per-box two-corner mask of the OSA oracle: the batched greedy
    solves every corner."""
    return partial(two_corner_box_mask, partial(_greedy_osa_columns, spec))


@st.composite
def _walk_stacks(draw):
    """An OSA spec, a stack of boxes and a run length. The boxes follow a
    random walk of centres with shrinking radii, clamped to [0, 1] like the
    sampler's; some arms sit at zero weight (both bounds 0) or keep
    zero-width intervals."""
    m = draw(st.integers(1, 4))
    spec = OsaSpec(tuple(draw(st.lists(st.integers(1, 6), min_size=m, max_size=m))), draw(st.integers(m, 40)))
    boxes = draw(st.one_of(st.just(1), st.integers(2, 90)))
    run = draw(st.sampled_from([1, 2, 3, 4, 7, 16, CERTIFY_RUN]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    step = draw(st.sampled_from([0.0, 1e-4, 1e-2, 0.1]))
    centre = rng.random((m, 1)) + np.cumsum(rng.normal(0.0, step, (m, boxes)), axis=1)
    radius = draw(st.sampled_from([0.0, 0.01, 0.2, 1.0])) / np.sqrt(np.arange(1, boxes + 1))
    lower = np.maximum(0.0, np.minimum(1.0, centre - radius))
    upper = np.minimum(1.0, np.maximum(0.0, centre + radius))
    for i in range(m):
        kind = draw(st.sampled_from(["walk", "walk", "zero weight", "zero width"]))
        if kind == "zero weight":
            lower[i] = upper[i] = 0.0
        elif kind == "zero width":
            lower[i] = upper[i]
    return spec, lower, upper, run


@st.composite
def _emptied_stacks(draw):
    """A stack of :func:`_walk_stacks` twice over, with runs of two boxes
    or more, in which the first run and some others of two boxes or more
    hold a point interval at 0 on one arm at their first box and one above
    0 at their last, so that their intersections are empty."""
    spec, lower, upper, run = draw(_walk_stacks())
    lower, upper, run = np.tile(lower, 2), np.tile(upper, 2), max(run, 2)
    boxes = lower.shape[1]
    starts = [0] + draw(st.lists(st.sampled_from(range(0, boxes - 1, run)), max_size=4))
    for start in starts:
        last = min(start + run, boxes) - 1
        i = draw(st.integers(0, spec.m - 1))
        lower[i, start] = upper[i, start] = 0.0
        lower[i, last] = upper[i, last] = draw(st.sampled_from([1e-9, 0.3, 1.0]))
    return spec, lower, upper, run


class TestCertifiedMask:
    """The OSA candidate mask settles runs of boxes by their hull and
    intersection; it must equal the per-box two-corner mask box for box."""

    @settings(max_examples=300, deadline=None)
    @given(_walk_stacks())
    def test_matches_the_per_box_mask(self, case):
        spec, lower, upper, run = case
        box_mask = _osa_box_mask(spec)
        with mock.patch.object(condition, "CERTIFY_RUN", run):
            got = certified_mask(box_mask, lower, upper)
        assert got.shape == lower.shape and got.dtype == bool
        assert (got == box_mask(lower, upper)).all()

    @settings(max_examples=200, deadline=None)
    @given(_emptied_stacks())
    def test_matches_the_per_box_mask_across_empty_intersections(self, case):
        # Every run's intersection goes to the first call, empty or not;
        # the empty ones certify no arm.
        spec, lower, upper, run = case
        sizes = []

        def box_mask(lo, up):
            sizes.append(lo.shape[1])
            return _osa_box_mask(spec)(lo, up)

        with mock.patch.object(condition, "CERTIFY_RUN", run):
            got = certified_mask(box_mask, lower, upper)
        starts = np.arange(0, lower.shape[1], run)
        assert (np.maximum.reduceat(lower, starts, 1) > np.minimum.reduceat(upper, starts, 1)).any()
        assert sizes[0] == 2 * len(starts)
        assert (got == _osa_box_mask(spec)(lower, upper)).all()

    def test_oracle_mask_is_certified_at_the_module_run_length(self):
        # A stack that is not a multiple of the run length; the oracle's
        # mask equals the per-box mask and tests fewer boxes one by one.
        spec = OsaSpec((5, 1, 1), 10)
        sizes = []

        def box_mask(lower, upper):
            sizes.append(lower.shape[1])
            return _osa_box_mask(spec)(lower, upper)

        boxes = 5 * CERTIFY_RUN + 3
        rng = np.random.default_rng(5)
        centre = np.array([[0.25], [0.01], [0.01]]) + np.cumsum(rng.normal(0.0, 1e-3, (3, boxes)), axis=1)
        radius = 0.3 / np.sqrt(np.arange(1, boxes + 1))
        lower, upper = np.clip(centre - radius, 0.0, 1.0), np.clip(centre + radius, 0.0, 1.0)
        got = certified_mask(box_mask, lower, upper)
        assert (got == make_osa_oracle(spec.n, spec.k).candidate_mask(lower, upper)).all()
        assert (got == _osa_box_mask(spec)(lower, upper)).all()
        assert sizes[0] <= 2 * 6 and sum(sizes[1:]) < boxes

    def test_disjoint_intervals_leave_no_intersection(self):
        # Arm 0's intervals inside the run are disjoint, so the run's
        # intersection is empty, and no arm may be certified a candidate
        # from it: the first call tests the hull and the empty intersection,
        # and every arm that is a candidate on the hull goes to the per-box
        # call.
        spec = OsaSpec((5, 1, 1), 10)
        lower = np.array([[0.10, 0.30, 0.50, 0.52], [0.0, 0.0, 0.0, 0.0], [0.0, 0.01, 0.0, 0.0]])
        upper = np.array([[0.20, 0.40, 0.60, 0.62], [0.5, 0.5, 0.5, 0.5], [0.02, 0.02, 0.02, 0.02]])
        sizes = []

        def box_mask(lo, up):
            sizes.append(lo.shape[1])
            return _osa_box_mask(spec)(lo, up)

        with mock.patch.object(condition, "CERTIFY_RUN", 4):
            got = certified_mask(box_mask, lower, upper)
        assert sizes == [2, 4]
        expected = _osa_box_mask(spec)(lower, upper)
        assert (got == expected).all()
        assert expected.any() and not expected.all()
