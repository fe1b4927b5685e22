import math
import random

import pytest

from coci import DomainError, OsaSpec, UsageError, greedy_osa
from coci.osa import greedy_scratch, make_osa_oracle, marginal

from _reference import exact_osa_optimum


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


class TestKnownOptima:
    def test_tight_base_instance(self):
        # Large first group forces the base vector a full step below the
        # naive floors; the exact optimum is (29, 2, 2).
        spec = OsaSpec((20, 1, 1), 33)
        theta = (1.0, 1.0, 1.0)
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


class TestScratch:
    def test_zero_weight_conventions(self):
        scratch = greedy_scratch(OsaSpec((1, 1), 6), (0.25, 0.0))
        assert scratch.alpha[1] == 0.0
        assert scratch.delta_slack[1] == 0.0
        assert scratch.base[1] == 1
        assert scratch.positive == (True, False)
        assert scratch.budget == 5

    def test_slack_formula(self):
        spec = OsaSpec((20, 1, 1), 33)
        scratch = greedy_scratch(spec, (1.0, 1.0, 1.0))
        for i in range(3):
            a = scratch.alpha[i]
            c = math.ceil(a)
            expected = 0.0 if c * (c - 1) >= a * a else c - a
            assert scratch.delta_slack[i] == pytest.approx(expected, abs=1e-12)
        # alpha = (30, 1.5, 1.5) for this instance
        assert scratch.alpha == pytest.approx((30.0, 1.5, 1.5), abs=1e-9)
        assert scratch.delta_slack == pytest.approx((0.0, 0.5, 0.5), abs=1e-9)

    def test_base_within_one_step_of_formula(self):
        rng = random.Random(5)
        for _ in range(200):
            m = rng.randint(1, 4)
            spec = OsaSpec(tuple(rng.randint(1, 3) for _ in range(m)), rng.randint(m, 12))
            theta = tuple(rng.choice([j / 10 for j in range(11)]) for _ in range(m))
            scratch = greedy_scratch(spec, theta)
            total_slack = math.fsum(scratch.delta_slack)
            for i in range(m):
                if not scratch.positive[i]:
                    assert scratch.base[i] == 1
                    continue
                formula = max(
                    1, math.floor(scratch.alpha[i] - (total_slack - scratch.delta_slack[i]))
                )
                assert formula - 1 <= scratch.base[i] <= formula

    def test_marginals_strictly_decrease(self):
        spec = OsaSpec((2, 1), 8)
        theta = (0.4, 0.7)
        for i in range(2):
            values = [marginal(spec, theta, i, level) for level in range(1, 8)]
            assert all(b < a for a, b in zip(values, values[1:]))


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
        # Every enumerated optimum dominates the base vector componentwise.
        rng = random.Random(7)
        for _ in range(120):
            m = rng.randint(1, 3)
            k = rng.randint(m, 10)
            n = tuple(rng.randint(1, 3) for _ in range(m))
            theta = tuple(rng.choice([j / 10 for j in range(11)]) for _ in range(m))
            scratch = greedy_scratch(OsaSpec(n, k), theta)
            optimum = exact_osa_optimum(n, k, theta)
            assert all(optimum[i] >= scratch.base[i] for i in range(m)), (n, k, theta)

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
            scratch = greedy_scratch(OsaSpec(n, k), theta)
            positive = sum(scratch.positive)
            if positive == 0:
                continue  # no greedy step: the slack goes to the last group
            # The greedy loop's trip count: the budget the base leaves over.
            increments = k - sum(scratch.base)
            assert increments >= 0
            slack_bound = (positive - 1) * math.fsum(scratch.delta_slack) + positive + 1
            assert increments <= min(k, slack_bound)
            assert increments <= positive * positive + positive


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
