"""Concrete maximization oracles: best-arm, top-k, and water planning.

The top-k oracle (best-arm is the k=1 case) picks the k largest parameters,
breaking ties toward smaller indices. The water-planning oracle maximizes
``sum(theta_i y_i - f_i(y_i))`` over per-source grids subject to a minimum
total allocation, via exact dynamic programming over the discretized
requirement. All oracles break reward ties toward the lexicographically
smallest decision vector.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Sequence

from .core import OracleSpec
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


def _best_arm_phi(m: int, theta: Sequence[float]) -> tuple[float, ...]:
    # Single-pass argmax (lowest index wins ties); hot path of the sampler.
    if len(theta) != m:
        raise UsageError(f"expected {m} parameters, got {len(theta)}")
    best = 0
    best_v = theta[0]
    for i in range(1, m):
        v = theta[i]
        if v > best_v:
            best = i
            best_v = v
    y = [0.0] * m
    y[best] = 1.0
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


def make_top_k_oracle(m: int, k: int) -> OracleSpec:
    """Top-k selection as an :class:`OracleSpec` (bi-monotone, own-direction up)."""
    if not (1 <= k <= m):
        raise UsageError(f"need 1 <= k <= m, got k={k}, m={m}")
    phi = partial(_best_arm_phi, m) if k == 1 else partial(_top_k_phi, m, k)
    return OracleSpec(
        arm_count=m,
        name=f"top-{k}(m={m})",
        reward_term=_top_k_term,
        maximizer=phi,
        contains=partial(_top_k_contains, m, k),
        enumerate_decisions=partial(_enumerate_top_k, m, k),
        decision_count=math.comb(m, k),
        bi_monotone=True,
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
    """f(y) = a * y (constant derivative: does not qualify as bi-monotone)."""

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
        caps = tuple(float(c) for c in self.caps)
        object.__setattr__(self, "caps", caps)
        object.__setattr__(self, "costs", tuple(self.costs))
        if len(self.costs) != len(caps):
            raise UsageError("need one cost function per source")
        if self.grid_step <= 0:
            raise UsageError(f"grid_step must be positive, got {self.grid_step!r}")
        if self.b < 0 or any(c < 0 for c in caps):
            raise DomainError("b and caps must be nonnegative")
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

    neg_inf = -math.inf
    # value[rho]: best achievable from the current source onward when rho
    # units are still required; entries start from the empty suffix.
    value = [neg_inf] * (need + 1)
    value[0] = 0.0
    choice: list[list[int]] = []
    for i in range(m - 1, -1, -1):
        new_value = [neg_inf] * (need + 1)
        new_choice = [0] * (need + 1)
        row = terms[i]
        for rho in range(need + 1):
            best = neg_inf
            best_u = 0
            for u in range(caps[i] + 1):
                nxt = value[rho - u if rho > u else 0]
                if nxt == neg_inf:
                    continue
                v = row[u] + nxt
                if v > best:  # strict: the smallest u wins ties
                    best = v
                    best_u = u
            new_value[rho] = best
            new_choice[rho] = best_u
        value = new_value
        choice.append(new_choice)
    choice.reverse()

    if value[need] == neg_inf:
        raise DomainError("no feasible allocation meets the required total")

    y = []
    rho = need
    for i in range(m):
        u = choice[i][rho]
        y.append(u * step)
        rho = rho - u if rho > u else 0
    return tuple(y)


def _derivative_direction(spec: WaterSpec, i: int) -> int | None:
    """+1/-1 when the cost's grid derivative is strictly monotone, else None."""
    step = spec.grid_step
    cap = spec.cap_units[i]
    diffs = [
        spec.costs[i]((u + 1) * step) - spec.costs[i](u * step) for u in range(cap)
    ]
    if len(diffs) < 2:
        return None
    if all(b > a for a, b in zip(diffs, diffs[1:])):
        return 1
    if all(b < a for a, b in zip(diffs, diffs[1:])):
        return -1
    return None


def water_bi_monotone(spec: WaterSpec) -> bool:
    """Conservative check that the water oracle is bi-monotone.

    True only when every cost derivative is strictly monotone in the same
    direction and a sweep over a coarse parameter lattice confirms that the
    minimum-total constraint is tight at the optimum everywhere. A false
    negative only routes the candidate test to slower corner enumeration.
    """
    directions = [_derivative_direction(spec, i) for i in range(spec.m)]
    if any(d is None for d in directions) or len(set(directions)) != 1:
        return False
    if spec.required_units == 0:
        return False

    grid = (0.0, 0.25, 0.5, 0.75, 1.0)
    step = spec.grid_step
    for theta in itertools.product(grid, repeat=spec.m):
        y = water_maximizer(spec, theta)
        total_units = round(sum(y) / step)
        if total_units != spec.required_units:
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

    The bi-monotonicity flag is established by :func:`water_bi_monotone` at
    build time; when the check fails, the condition module falls back to
    corner enumeration.
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
