"""Independent reference oracles used by the tests.

These deliberately share no code with the library paths they check: the
allocation reference enumerates every feasible allocation and compares
objectives in exact integer arithmetic over the binary expansions of the
inputs, so its optima and tie-breaks are authoritative.
"""

from __future__ import annotations

import itertools
import math
from typing import Sequence


def iter_allocations(m: int, k: int):
    """All integer vectors y >= 1 with sum(y) <= k, in lexicographic order."""
    if m == 1:
        for v in range(1, k + 1):
            yield (v,)
        return
    for v in range(1, k - (m - 1) + 1):
        for rest in iter_allocations(m - 1, k - v):
            yield (v,) + rest


def exact_osa_optimum(n: Sequence[int], k: int, theta: Sequence[float]) -> tuple[int, ...]:
    """Leading optimum of sum(n_i^2 theta_i / y_i) by exact enumeration.

    Objectives are compared as integers over a common denominator, with the
    exact rational values of the float inputs. Ties prefer the larger total
    allocation (slack never helps), then the lexicographically smallest
    vector -- the documented leading-optimum order.
    """
    m = len(n)
    ratios = [float(t).as_integer_ratio() for t in theta]
    denom_lcm = math.lcm(*range(1, k + 1))
    shift = max(q.bit_length() - 1 for _, q in ratios)
    common = denom_lcm << shift

    weights = [n[i] * n[i] * ratios[i][0] for i in range(m)]
    term = [
        [0] + [weights[i] * (common // (ratios[i][1] * y)) for y in range(1, k + 1)]
        for i in range(m)
    ]

    best_obj = None
    best_key = None
    best_y = None
    for y in iter_allocations(m, k):
        obj = sum(term[i][y[i]] for i in range(m))
        key = (obj, -sum(y), y)
        if best_key is None or key < best_key:
            best_obj = obj
            best_key = key
            best_y = y
    assert best_y is not None and best_obj is not None
    return best_y


def continuous_water_optimum(
    theta: Sequence[float],
    caps: Sequence[float],
    quad_coeffs: Sequence[float],
    b: float,
) -> float:
    """Optimal value of sum(theta_i y - a_i y^2) s.t. sum(y) >= b, 0 <= y <= c.

    Closed-form multiplier search for strictly convex quadratic costs: each
    coordinate is y_i(lam) = clip((theta_i + lam) / (2 a_i), 0, c_i) with
    lam >= 0 only active when the unconstrained optimum undershoots b.
    """

    def coords(lam: float) -> list[float]:
        return [
            min(c, max(0.0, (t + lam) / (2.0 * a)))
            for t, a, c in zip(theta, quad_coeffs, caps)
        ]

    def value(ys) -> float:
        return sum(t * y - a * y * y for t, y, a in zip(theta, ys, quad_coeffs))

    free = coords(0.0)
    if sum(free) >= b:
        return value(free)
    lo, hi = 0.0, 1.0
    while sum(coords(hi)) < b:
        hi *= 2.0
        if hi > 1e9:
            raise AssertionError("infeasible continuous relaxation")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if sum(coords(mid)) < b:
            lo = mid
        else:
            hi = mid
    return value(coords(hi))


def enumerate_binary_gap(
    decisions: list[tuple[float, ...]],
    theta: Sequence[float],
) -> tuple[tuple[float, ...], list[float]]:
    """(optimal decision, per-arm gaps) for a linear binary class, brute force."""
    rewards = [sum(t * y for t, y in zip(theta, d)) for d in decisions]
    best = max(range(len(decisions)), key=lambda i: (rewards[i], decisions[i]))
    y_star = decisions[best]
    r_star = rewards[best]
    m = len(theta)
    gaps = []
    for i in range(m):
        alt = [
            rewards[j]
            for j, d in enumerate(decisions)
            if d[i] != y_star[i]
        ]
        gaps.append(r_star - max(alt) if alt else math.inf)
    return y_star, gaps


def grid_points(box_lower, box_upper, resolution: int):
    """Uniform lattice over a box, endpoints pinned exactly."""
    axes = []
    for a, b in zip(box_lower, box_upper):
        if a == b:
            axes.append([a])
        else:
            axes.append(
                [a]
                + [min(b, a + (b - a) * j / (resolution - 1)) for j in range(1, resolution - 1)]
                + [b]
            )
    return itertools.product(*axes)


def lattice_candidate(spec, box_lower, box_upper, i: int, resolution: int) -> bool:
    """True when the oracle's i-th component takes two values on the
    :func:`grid_points` lattice of the box (stopping at the first change)."""
    points = grid_points(box_lower, box_upper, resolution)
    first = spec.maximizer(next(points))[i]
    return any(spec.maximizer(p)[i] != first for p in points)


def lattice_candidates(spec, box_lower, box_upper, resolution: int) -> tuple[bool, ...]:
    """:func:`lattice_candidate` of every arm at once: each lattice point
    is evaluated once, and the scan stops when every arm has varied."""
    points = grid_points(box_lower, box_upper, resolution)
    first = spec.maximizer(next(points))
    varied = [False] * len(first)
    for p in points:
        y = spec.maximizer(p)
        if y != first:
            varied = [v or a != b for v, a, b in zip(varied, y, first)]
            if all(varied):
                break
    return tuple(varied)


def water_tight_on_lattice(spec) -> bool:
    """True when the water optimum spends exactly ``b`` at every point of
    the lattice {0, 1/4, 1/2, 3/4, 1}^m: 5^m dynamic programs, a brute-force
    cross-check of the one-point rule in ``water_bi_monotone``."""
    from coci import water_maximizer

    grid = (0.0, 0.25, 0.5, 0.75, 1.0)
    for theta in itertools.product(grid, repeat=spec.m):
        y = water_maximizer(spec, theta)
        if round(sum(y) / spec.grid_step) != spec.required_units:
            return False
    return True
