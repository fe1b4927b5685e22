"""Exact integral sample allocation for partitioned sampling.

Given m groups with sizes n_i, per-group variances theta_i, and a total
sample budget k, the offline problem is to pick integer sample counts
y_i >= 1 with sum(y) <= k minimizing sum(n_i^2 theta_i / y_i). Raising y_i
from y to y + 1 lowers the objective by the marginal n_i^2 theta_i /
(y (y + 1)), which strictly decreases in y. So the greedy that spends the
k - m samples above y = 1 on the largest marginals, ties to the later
group, returns the exact optimum, and among ties the lexicographically
first one. It returns the same answer from every base the optimum
dominates, and :func:`_bases` gives one about m steps away.

The threshold base. Let a_i = n_i sqrt(theta_i) (k - m) / sum_j n_j
sqrt(theta_j), the real optimum for a budget of k - m (a = 0 when every
theta is 0), and lambda = (sum_j n_j sqrt(theta_j) / (k - m))^2, so that
a_i^2 = n_i^2 theta_i / lambda. Group i's marginal at y is above lambda
exactly when y (y + 1) < a_i^2, that is for y < r_i = (sqrt(1 + 4 a_i^2)
- 1) / 2. That is ceil(r_i) - 1 < r_i <= a_i marginals of group i, at most
k - m over all groups, so the optimum takes all of them whatever the tie
rule: it dominates base_i = max(1, ceil(r_i - e)). The margin e = 1e-15 (m + 8) k
is about 9 times the float error of r_i in any order of the sum in a_i:
its terms are nonnegative, so each addition errs by at most half an ulp of
the total, in numpy's order in :func:`_bases` as in the index order of the
scalar form :func:`_base`. As r_i >= a_i - 1/2, the base
leaves at most floor(3 m / 2) + 1 greedy steps.

Marginal comparisons are exact: a single-rounding float product is used as a
monotone fast path, falling back to integer cross-multiplication over the
exact binary representation of the inputs whenever the floats collide or an
integer factor is too large to convert to float exactly. This keeps the
greedy's tie handling consistent with enumeration even on inputs where
mathematically equal marginals have unequal floating-point images.

The candidate mask is :func:`coci.condition.two_corner_box_mask`, settled
a run of boxes at a time by :func:`coci.condition.certified_mask`, with
:func:`_greedy_osa_columns` as its solver: a batched greedy over the
columns of an array, equal to :func:`greedy_osa` column by column.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import partial
from typing import Sequence

import numpy as np

from .condition import certified_mask, two_corner_box_mask
from .core import OracleSpec, integer_value
from .errors import DomainError, UsageError

#: Integers below this convert to float exactly, so a float product of one
#: with a parameter rounds once and is monotone in the exact product.
_EXACT_INT = 2**53
#: Below this (m + 8) k the batched solver's float64 allocations stay exact
#: and the base's margin e = 1e-15 (m + 8) k stays far below one sample;
#: from it on, :func:`greedy_osa` solves every column.
_BATCH_SIZE_LIMIT = 2**40


@dataclass(frozen=True)
class OsaSpec:
    """An allocation problem: group sizes ``n`` and sample budget ``k``."""

    n: tuple[int, ...]
    k: int

    def __post_init__(self) -> None:
        n = tuple(integer_value(v, "group size", low=1) for v in self.n)
        k = integer_value(self.k, "budget k")
        if k < len(n):
            raise DomainError(f"budget k={k} is below the group count {len(n)}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "k", k)

    @property
    def m(self) -> int:
        return len(self.n)


def _marginal_greater(
    n2l: Sequence[int],
    theta: Sequence[float],
    levels: Sequence[int],
    i: int,
    j: int,
) -> int:
    """Three-way comparison of the marginals of groups i and j.

    Returns +1, -1, or 0 for greater/less/equal, exactly with respect to the
    real values n_i^2 theta_i / (y_i (y_i + 1)). Cross-multiplied single-
    rounding float products decide all but collisions, while both integer
    factors are below 2^53; collisions and larger factors fall back to
    exact integer arithmetic on the binary expansions.
    """
    li = levels[i] * (levels[i] + 1)
    lj = levels[j] * (levels[j] + 1)
    ci = n2l[i] * lj
    cj = n2l[j] * li
    if ci < _EXACT_INT and cj < _EXACT_INT:
        a = ci * theta[i]
        b = cj * theta[j]
        if a > b:
            return 1
        if a < b:
            return -1
    pi, qi = theta[i].as_integer_ratio()
    pj, qj = theta[j].as_integer_ratio()
    lhs = ci * pi * qj
    rhs = cj * pj * qi
    if lhs > rhs:
        return 1
    if lhs < rhs:
        return -1
    return 0


def greedy_osa(spec: OsaSpec, theta: Sequence[float]) -> tuple[int, ...]:
    """Solve the allocation problem exactly; see the module docstring.

    Returns the leading optimal allocation: the lexicographically first
    vector among all optima that spend the full budget. The full budget is
    always spent (an allocation with slack is never strictly better).
    """
    m = spec.m
    theta = tuple(float(v) for v in theta)
    if len(theta) != m:
        raise UsageError(f"expected {m} parameters, got {len(theta)}")
    for i, v in enumerate(theta):
        if not (0.0 <= v <= 1.0):
            raise DomainError(f"parameter {i} is {v!r}, outside [0, 1]")

    y = _base(spec, theta)
    arms = [i for i in range(m) if theta[i] > 0.0]

    if not arms:
        # Every weight is zero: all allocations tie, and the leading one
        # puts the whole slack on the last group.
        y[m - 1] += spec.k - m
        return tuple(y)

    if sum(y) > spec.k:  # never expected; the base is provably under budget
        y = [1] * m

    n2l = [spec.n[i] * spec.n[i] for i in range(m)]
    for _ in range(spec.k - sum(y)):
        best = arms[0]
        for i in arms[1:]:
            # >= keeps the later index on ties: the leading optimum spends
            # tied budget on the highest-indexed group.
            if _marginal_greater(n2l, theta, y, i, best) >= 0:
                best = i
        y[best] += 1
    return tuple(y)


def _base(spec: OsaSpec, theta: Sequence[float]) -> list[int]:
    """:func:`_bases` of one column in Python floats, the sum in index order."""
    m, k = spec.m, spec.k
    a = [math.sqrt(v) * n for v, n in zip(theta, spec.n)]
    total = 0.0
    for v in a:
        total += v
    scale = (k - m) / (total if total else 1.0)  # every a is 0 where the total is
    cut = 1.0 + 2e-15 * (m + 8) * k
    return [max(1, math.ceil((math.sqrt(4.0 * (v * scale) * (v * scale) + 1.0) - cut) * 0.5)) for v in a]


def _bases(spec: OsaSpec, theta: np.ndarray) -> np.ndarray:
    """The threshold base of every column of the ``(m, N)`` array ``theta``,
    as floats (see the module docstring). The optimum dominates it, and it
    gives one sample to every group whose parameter is 0.
    """
    m, k = spec.m, spec.k
    a = np.sqrt(theta)
    a *= np.array(spec.n, dtype=np.float64)[:, None]
    total = a.sum(axis=0)
    a *= (k - m) / (total + (total == 0.0))  # every a is 0 where the total is
    r = np.sqrt(4.0 * a * a + 1.0)  # 2 r_i + 1
    r -= 1.0 + 2e-15 * (m + 8) * k
    r *= 0.5
    return np.maximum(np.ceil(r, out=r), 1.0, out=r)


def _greedy_osa_columns(spec: OsaSpec, theta: np.ndarray) -> np.ndarray:
    """:func:`greedy_osa` on every column of the ``(m, N)`` array ``theta``,
    returned as an ``(m, N)`` int array equal to it column by column.

    Every column starts from the threshold base :func:`_bases`, which the
    optimum dominates and which leaves at most floor(3 m / 2) + 1 steps (see
    the module docstring). From there one numpy step per greedy step serves
    every column still under budget, with the scalar's rules: arms in index
    order, ``>=`` to the later one, zero-weight arms at one sample, and an
    all-zero column's slack on the last group.

    The float comparison is the scalar's fast path and has its premises:
    both integer products below 2^53 and the two floats distinct. Floats
    that collide on equal parameters are decided by the integer products.
    A column that leaves the premises any other way is solved by
    :func:`greedy_osa`.
    """
    m, k = spec.m, spec.k
    theta = np.asarray(theta, dtype=np.float64)
    cols = theta.shape[1]
    out = np.empty((m, cols), dtype=np.int64)
    if (m + 8) * k >= _BATCH_SIZE_LIMIT:
        _solve_columns(spec, theta, out, range(cols))
        return out

    y = _bases(spec, theta)
    steps = k - y.sum(axis=0).astype(np.int64)
    zero = ~(theta > 0.0).any(axis=0)
    y[m - 1, zero] += k - m
    steps[zero] = 0
    bad = steps < 0  # never expected: the base is under budget

    # Columns sorted by steps, most first: each greedy step works on the
    # prefix of columns still under budget. Zero-weight arms (theta 0,
    # marginal 0) take part in the scan: they never beat a positive arm
    # and every positive arm beats them, so the scan picks what the
    # scalar's scan over positive arms picks.
    order = np.argsort(-steps)
    y, t, bad = np.take(y, order, axis=1), np.take(theta, order, axis=1), bad[order]
    at_least = np.cumsum(np.bincount(steps.clip(0), minlength=1)[::-1])[::-1]
    n2 = [float(v * v) for v in spec.n]
    big = max(spec.n) ** 2 * (k - m + 1) * (k - m + 2) >= _EXACT_INT
    arms = np.arange(m)[:, None]
    for w in at_least[1:].tolist():
        ys, ts = y[:, :w], t[:, :w]
        lv = ys * (ys + 1.0)
        best, bn2, blv, bt = np.zeros(w, dtype=np.int64), np.full(w, n2[0]), lv[0], ts[0]
        for i in range(1, m):
            ci = n2[i] * blv
            cb = bn2 * lv[i]
            lhs = ci * ts[i]
            rhs = cb * bt
            take = lhs > rhs
            same = lhs == rhs
            if big:
                # A zero parameter's product is exactly 0 however ci rounds.
                inexact = (ci >= _EXACT_INT) | (cb >= _EXACT_INT)
                bad[:w] |= inexact & (ts[i] > 0.0) & (bt > 0.0)
            if same.any():
                # Equal parameters: the integer products decide exactly.
                tie = same & (ts[i] == bt)
                bad[:w] |= same & ~tie
                take |= tie & (ci >= cb)
            best = np.where(take, i, best)
            bn2 = np.where(take, n2[i], bn2)
            blv = np.where(take, lv[i], blv)
            bt = np.where(take, ts[i], bt)
        ys += best == arms

    out[:, order] = y
    _solve_columns(spec, theta, out, order[bad])
    return out


def _solve_columns(spec: OsaSpec, theta: np.ndarray, out: np.ndarray, cols) -> None:
    """Solve the given columns of ``theta`` with :func:`greedy_osa`, into ``out``."""
    for col in cols:
        out[:, col] = greedy_osa(spec, theta[:, col].tolist())


def _osa_reward_term(n: tuple[int, ...], i: int, theta_i: float, y_i: float) -> float:
    return -(n[i] * n[i] * theta_i) / y_i


def _osa_phi(spec: OsaSpec, theta: Sequence[float]) -> tuple[float, ...]:
    return tuple(float(v) for v in greedy_osa(spec, theta))


def _osa_contains(m: int, k: int, y: Sequence[float]) -> bool:
    total = 0
    for v in y:
        iv = int(round(v))
        if abs(v - iv) > 1e-9 or iv < 1:
            return False
        total += iv
    return len(y) == m and total <= k


def _enumerate_allocations(m: int, k: int):
    """All integer allocations with y_i >= 1 and sum(y) <= k, lexicographic.

    Their prefix sums are the increasing m-tuples from 1..k, in the same
    lexicographic order."""
    for sums in itertools.combinations(range(1, k + 1), m):
        yield tuple(float(b - a) for a, b in zip((0,) + sums, sums))


def make_osa_oracle(n: Sequence[int], k: int) -> OracleSpec:
    """Package the allocation problem as an :class:`OracleSpec`.

    The leading optimum is component-wise non-decreasing in the group's own
    variance and non-increasing in every other group's variance, so the
    two-corner candidate test applies. ``candidate_mask`` is that test over
    a stack of boxes: runs of boxes settled by their hull and intersection
    where inclusion decides every arm, the rest box by box, every corner
    solved by the batched greedy :func:`_greedy_osa_columns`.
    """
    spec = OsaSpec(tuple(n), k)
    m = spec.m
    return OracleSpec(
        arm_count=m,
        name=f"osa(n={spec.n}, k={spec.k})",
        reward_term=partial(_osa_reward_term, spec.n),
        maximizer=partial(_osa_phi, spec),
        contains=partial(_osa_contains, m, spec.k),
        enumerate_decisions=partial(_enumerate_allocations, m, spec.k),
        decision_count=math.comb(spec.k, m),
        bi_monotone=True,
        candidate_mask=partial(certified_mask, partial(two_corner_box_mask, partial(_greedy_osa_columns, spec))),
    )
