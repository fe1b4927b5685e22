"""Concrete maximization oracles: best-arm, top-k, and water planning.

The top-k oracle (best-arm is the k=1 case) picks the k largest parameters,
breaking ties toward smaller indices. The water-planning oracle maximizes
``sum(theta_i y_i - f_i(y_i))`` over per-source grids subject to a minimum
total allocation, via exact dynamic programming over the discretized
requirement; it is bi-monotone when every exact DP term is concave. All
oracles break reward ties toward the lexicographically smallest decision.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cache, partial
from numbers import Real
from typing import Callable, Sequence

import numpy as np

from .core import OracleSpec, integer_value
from .errors import DomainError, UsageError

_GRID_TOLERANCE = 1e-9


# ---------------------------------------------------------------------------
# Top-k / best-arm
# ---------------------------------------------------------------------------


def _top_k_phi(m: int, k: int, theta: Sequence[float]) -> tuple[float, ...]:
    """Indicator vector of the k largest parameters; ties keep lower indices."""
    if len(theta) != m:
        raise UsageError(f"expected {m} parameters, got {len(theta)}")
    order = sorted(range(m), key=lambda i: (-theta[i], i))
    y = [0.0] * m
    for i in order[:k]:
        y[i] = 1.0
    return tuple(y)


def _top_k_term(i: int, theta_i: float, y_i: float) -> float:
    return theta_i * y_i


def _top_k_contains(m: int, k: int, y: Sequence[float]) -> bool:
    if len(y) != m:
        return False
    ones = 0
    for v in y:
        if v == 1.0:
            ones += 1
        elif v != 0.0:
            return False
    return ones == k


def _enumerate_top_k(m: int, k: int):
    for subset in itertools.combinations(range(m), k):
        y = [0.0] * m
        for i in subset:
            y[i] = 1.0
        yield tuple(y)


@cache
def _tie_mask(m: int) -> np.ndarray:
    """``[i, j, 0]``: does arm j win a tie with arm i (j < i)? Read-only."""
    before = np.tri(m, k=-1, dtype=bool)[:, :, None]
    before.flags.writeable = False
    return before


def _top_k_candidate_mask(k: int, lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """The two-corner test of every arm on every box of a stack, at once.

    Arm i is in the top k at a corner when fewer than k other arms beat it
    there, where j beats i with a larger parameter or an equal one and a
    lower index (the oracle's tie rule). At corner a, arm i sits at its
    upper bound and every other arm at its lower bound; corner b swaps the
    roles. The arm is a candidate when the two answers differ.

    One tensor serves both corners: ``beats[i, j, box]`` is "arm j at its
    lower bound beats arm i at its upper bound", so row i counts the arms
    that beat i at corner a. Two distinct arms never tie under the rule,
    so "j at its upper bound beats i at its lower bound", the test at
    corner b, is exactly ``not beats[j, i]``. Arm i never beats itself
    (its lower bound is at most its upper one), so m - 1 minus column i's
    count is the number of arms beating i at corner b, and i is in the top
    k there when column i counts more than m - 1 - k.
    """
    m = lower.shape[0]
    # Counted in the smallest unsigned type that holds m, which numpy sums
    # far faster than bools.
    count = np.min_scalar_type(m)
    mine, theirs = np.ascontiguousarray(upper)[:, None], np.ascontiguousarray(lower)[None, :]
    beats = theirs > mine
    ties = theirs == mine  # masked in place: one temporary of the tensor's size
    ties &= _tie_mask(m)
    beats |= ties
    beats = beats.view(np.uint8)
    return (beats.sum(axis=1, dtype=count) < k) != (beats.sum(axis=0, dtype=count) > m - 1 - k)


def make_top_k_oracle(m: int, k: int) -> OracleSpec:
    """Top-k selection as an :class:`OracleSpec` (bi-monotone, own-direction up)."""
    m, k = integer_value(m, "arm count m"), integer_value(k, "subset size k")
    if not (1 <= k <= m):
        raise UsageError(f"need 1 <= k <= m, got k={k}, m={m}")
    return OracleSpec(
        arm_count=m,
        name=f"top-{k}(m={m})",
        reward_term=_top_k_term,
        maximizer=partial(_top_k_phi, m, k),
        contains=partial(_top_k_contains, m, k),
        enumerate_decisions=partial(_enumerate_top_k, m, k),
        decision_count=math.comb(m, k),
        bi_monotone=True,
        candidate_mask=partial(_top_k_candidate_mask, k),
    )


def make_best_arm_oracle(m: int) -> OracleSpec:
    """Single best-arm identification: top-k with k=1."""
    return make_top_k_oracle(m, 1)


# ---------------------------------------------------------------------------
# Water resource planning
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuadraticCost:
    """f(y) = a * y^2 (strictly increasing derivative for a > 0)."""

    a: float = 1.0

    def __call__(self, y: float) -> float:
        return self.a * y * y


@dataclass(frozen=True)
class PowerCost:
    """f(y) = a * y^p."""

    a: float = 1.0
    p: float = 2.0

    def __call__(self, y: float) -> float:
        return self.a * y**self.p


@dataclass(frozen=True)
class LinearCost:
    """f(y) = a * y (bi-monotone where rounding keeps its grid terms concave)."""

    a: float = 0.0

    def __call__(self, y: float) -> float:
        return self.a * y


@dataclass(frozen=True)
class WaterSpec:
    """Discretized allocation problem for pollutant removal across sources.

    ``b`` is the minimum total removal, ``caps`` the per-source maxima, and
    ``costs`` the per-source cost functions. Decisions live on per-source
    grids {0, step, 2 step, ..., cap_i}; ``b`` and every cap must be integer
    multiples of the step.
    """

    b: float
    caps: tuple[float, ...]
    costs: tuple[Callable[[float], float], ...]
    grid_step: float

    def __post_init__(self) -> None:
        if any(isinstance(v, bool) or not isinstance(v, Real) for v in (self.b, self.grid_step, *self.caps)):
            raise UsageError("b, caps and grid_step must be real numbers, not bools")
        caps = tuple(float(c) for c in self.caps)
        object.__setattr__(self, "caps", caps)
        object.__setattr__(self, "costs", tuple(self.costs))
        if len(self.costs) != len(caps):
            raise UsageError("need one cost function per source")
        if not (0 < self.grid_step < math.inf):
            raise UsageError(f"grid_step must be finite and positive, got {self.grid_step!r}")
        if not all(0 <= v < math.inf for v in (self.b,) + caps):
            raise DomainError("b and caps must be finite and nonnegative")
        for label, value in [("b", self.b)] + [(f"caps[{i}]", c) for i, c in enumerate(caps)]:
            units = value / self.grid_step
            if abs(units - round(units)) > _GRID_TOLERANCE:
                raise UsageError(f"{label}={value!r} is not a multiple of grid_step")
        if sum(caps) < self.b - _GRID_TOLERANCE:
            raise DomainError(f"infeasible: sum of caps {sum(caps)} is below b={self.b}")

    @property
    def m(self) -> int:
        return len(self.caps)

    @property
    def required_units(self) -> int:
        return round(self.b / self.grid_step)

    @property
    def cap_units(self) -> tuple[int, ...]:
        return tuple(round(c / self.grid_step) for c in self.caps)


def water_maximizer(spec: WaterSpec, theta: Sequence[float]) -> tuple[float, ...]:
    """Exact grid optimum of sum(theta_i y_i - f_i(y_i)) with sum(y) >= b.

    Dynamic program over (source, remaining required units); decisions may
    overshoot b when profitable. Among optima, returns the lexicographically
    smallest vector.

    The objective is exact: the sum over sources of theta_i * x - f_i(x),
    with x = u * step and f_i(x) the floats they compute to, taken as exact
    rationals. A float DP solves it unless, at a state the optimum passes
    through, another choice comes within the DP's rounding bound; then the
    same DP runs on the terms as integer numerators over one power-of-two
    denominator.
    """
    m = spec.m
    if len(theta) != m:
        raise UsageError(f"expected {m} parameters, got {len(theta)}")
    step = spec.grid_step
    need = spec.required_units
    caps = spec.cap_units

    terms = [
        [theta[i] * (u * step) - spec.costs[i](u * step) for u in range(caps[i] + 1)]
        for i in range(m)
    ]
    path, gap = _water_dp(terms, need)
    # Each float DP value is within (m + 1) * 2^-53 * S of the exact value
    # it stands for (each term rounds twice, each sum once), where S is the
    # sum over sources of max_u |theta_i x| + |f_i(x)|; ``scale`` bounds S
    # by |f_i(x)| <= |term| + |theta_i x|. A gap beyond twice that, with
    # slack for products that underflow, keeps the float choices exact.
    scale = sum(
        2 * abs(theta[i]) * caps[i] * step + max(max(row), -min(row)) for i, row in enumerate(terms)
    )
    if gap <= (m + 2) * (2.0**-52 * scale + 2.0**-1074):
        path, _ = _water_dp(_exact_terms(spec, theta), need)
    return tuple(u * step for u in path)


def _water_dp(terms, need: int) -> tuple[list[int], float]:
    """The units per source of the lexicographically smallest optimum over
    ``terms[i][u]`` (the value of u units of source i) with at least
    ``need`` units in all, and the smallest gap between the chosen value and
    another choice's at the states that optimum passes through."""
    # values[i][rho]: best achievable from source i onward when rho units
    # are still required, for every rho those sources can cover; the last
    # list is the empty suffix.
    values = [[0]]
    for row in reversed(terms):
        value = values[-1]
        last, units = len(value) - 1, range(len(row))
        new_value = []
        for rho in range(min(need, last + len(row) - 1) + 1):
            best = -math.inf
            for u in units[rho - last if rho > last else 0 :]:
                v = row[u] + value[rho - u if rho > u else 0]
                if v > best:
                    best = v
            new_value.append(best)
        values.append(new_value)
    values.reverse()
    if len(values[0]) <= need:
        raise DomainError("no feasible allocation meets the required total")

    path, gap, rho = [], math.inf, need
    for row, value in zip(terms, values[1:]):
        lo = max(0, rho - len(value) + 1)
        options = [row[u] + value[rho - u if rho > u else 0] for u in range(lo, len(row))]
        best = max(options)
        u = lo + options.index(best)  # the smallest u wins ties
        del options[u - lo]
        if options:
            gap = min(gap, best - max(options))
        path.append(u)
        rho = rho - u if rho > u else 0
    return path, gap


def _exact_terms(spec: WaterSpec, theta: Sequence[float]) -> list[list[int]]:
    """Every term theta_i * x - f_i(x) of the water DP, taken as an exact
    rational, as an integer numerator over one power-of-two denominator."""
    ratios = []
    for t, cost, cap in zip(theta, spec.costs, spec.cap_units):
        tn, td = t.as_integer_ratio()
        row = []
        for u in range(cap + 1):
            x = u * spec.grid_step
            (xn, xd), (cn, cd) = x.as_integer_ratio(), cost(x).as_integer_ratio()
            row.append((tn * xn * cd - cn * td * xd, td * xd * cd))
        ratios.append(row)
    denominator = max(d for row in ratios for _, d in row)
    return [[n * (denominator // d) for n, d in row] for row in ratios]


def water_bi_monotone(spec: WaterSpec) -> bool:
    """Whether every source's exact DP terms (:func:`_exact_terms`) are
    concave in its units at theta = 0 and 1, hence on all of [0, 1]: the
    terms are linear in theta.

    That makes the oracle bi-monotone. A separable concave objective on the
    M-natural-convex set {sum u >= need} within the caps is M-natural-
    concave (Murota, 2003), so its demand has gross substitutes (Fujishige
    and Yang, 2003): an optimum takes the ``need`` largest increments, then
    every further positive one, and raising theta_i raises only source i's
    increments, so y_i can only rise and every other y_j only fall, loose
    budget or not. The lexicographic tie rule is the limit of the unique
    optimum under a vanishing linear perturbation -eps * sum w_i u_i
    (w_1 >> ... >> w_m), which keeps every term concave. Where the test
    fails, corner enumeration serves: slower, never inexact.
    """
    for theta in (0.0, 1.0):
        for row in _exact_terms(spec, (theta,) * spec.m):
            steps = [b - a for a, b in zip(row, row[1:])]
            if any(later > earlier for earlier, later in zip(steps, steps[1:])):
                return False
    return True


def _water_term(spec: WaterSpec, i: int, theta_i: float, y_i: float) -> float:
    return theta_i * y_i - spec.costs[i](y_i)


def _water_contains(spec: WaterSpec, y: Sequence[float]) -> bool:
    if len(y) != spec.m:
        return False
    total_units = 0
    for v, cap in zip(y, spec.cap_units):
        units = v / spec.grid_step
        u = round(units)
        if abs(units - u) > _GRID_TOLERANCE or u < 0 or u > cap:
            return False
        total_units += u
    return total_units >= spec.required_units


def _enumerate_water(spec: WaterSpec):
    step = spec.grid_step
    grids = [[u * step for u in range(cap + 1)] for cap in spec.cap_units]
    need = spec.b - _GRID_TOLERANCE
    for y in itertools.product(*grids):
        if sum(y) >= need:
            yield y


def make_water_oracle(spec: WaterSpec) -> OracleSpec:
    """Package a water-planning problem as an :class:`OracleSpec`.

    The bi-monotonicity flag is :func:`water_bi_monotone`, an exact test of
    the costs on their grids that makes no maximizer call. Where it fails,
    the candidate test is corner enumeration.
    """
    return OracleSpec(
        arm_count=spec.m,
        name=f"water(m={spec.m}, b={spec.b})",
        reward_term=partial(_water_term, spec),
        maximizer=partial(water_maximizer, spec),
        contains=partial(_water_contains, spec),
        enumerate_decisions=partial(_enumerate_water, spec),
        decision_count=math.prod(c + 1 for c in spec.cap_units),
        bi_monotone=water_bi_monotone(spec),
    )
