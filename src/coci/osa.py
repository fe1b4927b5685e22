"""Exact integral sample allocation for partitioned sampling.

Given m groups with sizes n_i, per-group variances theta_i, and a total
sample budget k, the offline problem is to pick integer sample counts
y_i >= 1 with sum(y) <= k minimizing sum(n_i^2 theta_i / y_i). The greedy
solver below starts from a provably safe base allocation derived from the
real-valued optimum (y_i proportional to n_i sqrt(theta_i)) and spends the
remaining budget one unit at a time on the group with the largest marginal
decrease of the objective. It returns the exact integral optimum, and among
ties the lexicographically first one.

Marginal comparisons are exact: a single-rounding float product is used as a
monotone fast path, falling back to integer cross-multiplication over the
exact binary representation of the inputs whenever the floats collide or an
integer factor is too large to convert to float exactly. This keeps the
greedy's tie handling consistent with enumeration even on inputs where
mathematically equal marginals have unequal floating-point images.

The candidate test solves the problem at two corners of every box of a
stack at once (:func:`_osa_candidate_mask`): a batched greedy over the
columns of an array, equal to :func:`greedy_osa` column by column.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Sequence

import numpy as np

from .core import OracleSpec
from .errors import DomainError, UsageError

#: Absolute slack subtracted before flooring the base allocation, guarding
#: against one-ulp overshoot at exact integer boundaries. Undershooting by a
#: unit only costs one extra greedy step; overshooting would be incorrect.
_FLOOR_GUARD = 1e-9
#: Integers below this convert to float exactly, so a float product of one
#: with a parameter rounds once and is monotone in the exact product.
_EXACT_INT = 2**53
#: The batched solver's rounding margin grows like 1e-15 (m + 8) k and must
#: stay far below one sample; from this (m + 8) k on, :func:`greedy_osa`
#: solves every column.
_BATCH_SIZE_LIMIT = 2**40


@dataclass(frozen=True)
class OsaSpec:
    """An allocation problem: group sizes ``n`` and sample budget ``k``."""

    n: tuple[int, ...]
    k: int

    def __post_init__(self) -> None:
        n = tuple(int(v) for v in self.n)
        if any(v < 1 for v in n):
            raise UsageError(f"group sizes must be >= 1, got {n}")
        if self.k < len(n):
            raise DomainError(f"budget k={self.k} is below the group count {len(n)}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "k", int(self.k))

    @property
    def m(self) -> int:
        return len(self.n)


@dataclass(frozen=True)
class GreedyOsaScratch:
    """Intermediate quantities of the greedy solver, exposed for testing.

    ``alpha`` is the real-valued optimum restricted to the effective budget
    (groups with zero weight are pinned to one sample and excluded),
    ``delta_slack`` the per-group slack each dimension contributes to
    pushing down the base of the others, and ``base`` the starting integral
    allocation. ``budget`` is the budget available to the positive-weight
    groups.
    """

    z: float | None
    alpha: tuple[float, ...]
    delta_slack: tuple[float, ...]
    base: tuple[int, ...]
    positive: tuple[bool, ...]
    budget: int


def marginal(spec: OsaSpec, theta: Sequence[float], i: int, level: int) -> float:
    """Objective decrease from raising y_i from ``level`` to ``level + 1``."""
    if level < 1:
        raise UsageError("level must be >= 1")
    w = spec.n[i] * spec.n[i] * theta[i]
    return w / level - w / (level + 1)


def greedy_scratch(spec: OsaSpec, theta: Sequence[float]) -> GreedyOsaScratch:
    """Compute the base allocation and its ingredients."""
    m = spec.m
    positive = tuple(spec.n[i] * spec.n[i] * theta[i] > 0.0 for i in range(m))
    budget = spec.k - (m - sum(positive))

    a = [spec.n[i] * math.sqrt(theta[i]) if positive[i] else 0.0 for i in range(m)]
    total_a = math.fsum(a)
    z = 1.0 / total_a if total_a > 0.0 else None
    alpha = tuple(z * a[i] * budget if positive[i] else 0.0 for i in range(m)) if z else (0.0,) * m

    delta = []
    for i in range(m):
        if not positive[i]:
            delta.append(0.0)
            continue
        c = math.ceil(alpha[i])
        delta.append(0.0 if c * (c - 1) >= alpha[i] * alpha[i] else c - alpha[i])
    sum_delta = math.fsum(delta)

    base = []
    for i in range(m):
        if not positive[i]:
            base.append(1)
            continue
        others = sum_delta - delta[i]
        base.append(max(1, math.floor(alpha[i] - others - _FLOOR_GUARD)))
    return GreedyOsaScratch(z, alpha, tuple(delta), tuple(base), positive, budget)


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

    scratch = greedy_scratch(spec, theta)
    y = list(scratch.base)
    arms = [i for i in range(m) if scratch.positive[i]]

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


def _safe_bases(spec: OsaSpec, theta: np.ndarray, pos: np.ndarray) -> np.ndarray:
    """A base allocation for every column of ``theta``, never above
    :func:`greedy_scratch`'s base: its formula in numpy's float order, with
    every group's slack bounded from above and a margin for the rounding.
    Zero-weight groups get one sample.
    """
    m, k = spec.m, spec.k
    alpha = np.sqrt(theta)
    alpha *= np.array(spec.n, dtype=np.float64)[:, None]
    total = alpha.sum(axis=0)
    budget = k - m + pos.sum(axis=0)
    alpha *= np.divide(budget, total, out=np.zeros_like(total), where=total > 0.0)
    # err bounds how far alpha is from greedy_scratch's and the rounding of
    # sums of slacks. A group's slack is at most ceil - alpha + err over the
    # alphas within err of this one (ceil at least 1), and 0 when all of
    # them take greedy_scratch's zero branch (ceil (ceil - 1) >= alpha^2).
    # 3 err covers every rounding between this base's floor argument and
    # greedy_scratch's.
    err = 1e-6 + 1e-15 * (m + 8) * (k + m)
    c = np.ceil(alpha - err)
    np.maximum(c, 1.0, out=c)
    root = c - 1.0
    root *= c
    np.sqrt(root, out=root)
    root -= alpha
    slack = c
    slack -= alpha - err
    slack[(root >= 2.0 * err) | ~pos] = 0.0
    base = alpha
    base -= slack.sum(axis=0) + 3.0 * err
    base += slack
    np.floor(base, out=base)
    return np.maximum(base, 1.0, out=base)  # alpha is 0 at zero weight


def _greedy_osa_columns(spec: OsaSpec, theta: np.ndarray) -> np.ndarray:
    """:func:`greedy_osa` on every column of the ``(m, N)`` array ``theta``,
    returned as an ``(m, N)`` int array equal to it column by column.

    The greedy spends the budget on the increments of largest marginal,
    ties to the later group. Comparisons are exact and each group's
    marginals strictly decrease, so the answer is the same from every base
    the optimum dominates, such as :func:`_safe_bases`. From there one
    numpy step per greedy step serves every column still under budget,
    with the scalar's rules: arms in index order, ``>=`` to the later one,
    zero-weight arms at one sample, and an all-zero column's slack on the
    last group.

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

    pos = theta > 0.0
    y = _safe_bases(spec, theta, pos)
    steps = k - y.sum(axis=0).astype(np.int64)
    zero = ~pos.any(axis=0)
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


def _osa_candidate_mask(spec: OsaSpec, lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """The two-corner test of every arm on every box of a stack, at once.

    At corner a arm i's parameter sits at its upper bound and every other at
    its lower bound; corner b swaps the roles. All 2 m S corners of the S
    boxes are solved in one batched call, and arm i is a candidate when its
    own component differs between its two corners.
    """
    m, boxes = lower.shape
    arm = np.arange(m)
    corners = np.empty((m, 2, m, boxes))  # [param, corner, arm, box]
    corners[:, 0] = lower[:, None]
    corners[:, 1] = upper[:, None]
    corners[arm, 0, arm] = upper
    corners[arm, 1, arm] = lower
    y = _greedy_osa_columns(spec, corners.reshape(m, 2 * m * boxes)).reshape(m, 2, m, boxes)
    own = y[arm, :, arm]  # [arm, corner, box]
    return own[:, 0] != own[:, 1]


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
    """All integer allocations with y_i >= 1 and sum(y) <= k, lexicographic."""

    def rec(prefix: list[float], used: int, depth: int):
        if depth == m - 1:
            for v in range(1, k - used + 1):
                yield tuple(prefix + [float(v)])
            return
        for v in range(1, k - used - (m - depth - 1) + 1):
            prefix.append(float(v))
            yield from rec(prefix, used + v, depth + 1)
            prefix.pop()

    yield from rec([], 0, 0)


def make_osa_oracle(n: Sequence[int], k: int) -> OracleSpec:
    """Package the allocation problem as an :class:`OracleSpec`.

    The leading optimum is component-wise non-decreasing in the group's own
    variance and non-increasing in every other group's variance, so the
    two-corner candidate test applies. ``candidate_mask`` is that test over
    a stack of boxes, solved by the batched greedy (see
    :func:`_osa_candidate_mask`).
    """
    spec = OsaSpec(tuple(int(v) for v in n), int(k))
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
        candidate_mask=partial(_osa_candidate_mask, spec),
    )
