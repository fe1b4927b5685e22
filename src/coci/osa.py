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
exact binary representation of the inputs whenever the floats collide. This
keeps the greedy's tie handling consistent with enumeration even on inputs
where mathematically equal marginals have unequal floating-point images.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Sequence

from .core import OracleSpec
from .errors import DomainError, UsageError

#: Absolute slack subtracted before flooring the base allocation, guarding
#: against one-ulp overshoot at exact integer boundaries. Undershooting by a
#: unit only costs one extra greedy step; overshooting would be incorrect.
_FLOOR_GUARD = 1e-9


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
    rounding float products decide all but collisions; collisions fall back
    to exact integer arithmetic on the binary expansions.
    """
    li = levels[i] * (levels[i] + 1)
    lj = levels[j] * (levels[j] + 1)
    a = (n2l[i] * lj) * theta[i]
    b = (n2l[j] * li) * theta[j]
    if a > b:
        return 1
    if a < b:
        return -1
    pi, qi = theta[i].as_integer_ratio()
    pj, qj = theta[j].as_integer_ratio()
    lhs = n2l[i] * lj * pi * qj
    rhs = n2l[j] * li * pj * qi
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
    two-corner candidate test applies.
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
    )
