"""Hardness quantities: flip radii, reward gaps, and round bounds.

The *flip radius* of arm i is the largest L-infinity perturbation of the
true parameters under which the i-th component of the leading optimal
decision cannot change. It is bracketed on a grid of step epsilon: shell s
is the box of half-width ``s epsilon`` around the true parameters, clamped
to the cube, and the value reported is one step below the first shell on
which component i flips (a lower bracket with +/- epsilon uncertainty).

For bi-monotone oracles that shell is found by bisection with the sampler's
own two-corner candidate test, which is exact on any box; the boxes nest,
so flipping within shell s is monotone in s. Other oracles enumerate the
lattice points of each shell, with a point limit. Shell-only evaluation is
exact for oracles whose decision regions are unions of boxes and
halfspaces, which covers every oracle shipped here; this is a documented
assumption. The lattice is also the reference the bisection is tested
against.

``h_adaptive = sum(1 / radius_i^2)`` governs the adaptive sampler's round
bound; ``h_uniform = m / min_i(radius_i^2)`` plays the same role for the
uniform ablation. For linear binary decision classes the per-arm reward gap
(optimal reward minus the best reward among decisions disagreeing with the
optimum at that coordinate) gives the classical gap-based hardness, linked
to the flip radius through the class's exchange width.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass
from typing import Optional, Sequence

from .condition import candidate_on_bounds
from .core import OracleSpec, scored_decisions, validate_parameters
from .errors import CapacityError, DegenerateInstanceError, UsageError

#: Analytic exchange width of top-k style classes (one element in, one out).
WIDTH_TOP_K = 2

_POINT_LIMIT = 2 * 10**9


@dataclass(frozen=True)
class LambdaEstimate:
    """Lower-bracketed flip radii with saturation flags.

    ``lower[i]`` is one lattice step below the first shell where component i
    flipped; the true radius lies in ``[lower[i], lower[i] + epsilon]``.
    ``saturated[i]`` marks arms whose component never flips inside the
    parameter cube; their radius is reported as 1.
    """

    lower: tuple[float, ...]
    saturated: tuple[bool, ...]
    epsilon: float


@dataclass(frozen=True)
class HardnessReport:
    """Bundle of hardness quantities for one instance."""

    lambda_lower: tuple[float, ...]
    saturated: tuple[bool, ...]
    h_lambda: float
    h_uniform: float
    grid_resolution: float
    delta_gap: Optional[tuple[float, ...]] = None
    h_delta: Optional[float] = None
    width: Optional[int] = None

    def to_dict(self) -> dict:
        return {k: list(v) if isinstance(v, tuple) else v for k, v in asdict(self).items()}


def _shell(center: Sequence[float], epsilon: float, s: int) -> tuple[list[float], list[float]]:
    """The bounds of shell s: ``center -/+ s epsilon``, clamped to the cube.
    The lattice's coordinate values are the bounds of shells 0, 1, 2, ..."""
    lower = [c - s * epsilon if c - s * epsilon > 0.0 else 0.0 for c in center]
    upper = [c + s * epsilon if c + s * epsilon < 1.0 else 1.0 for c in center]
    return lower, upper


def compute_lambda(
    spec: OracleSpec,
    theta_star: Sequence[float],
    epsilon: float = 0.01,
) -> LambdaEstimate:
    """Lower brackets of the per-arm flip radii on the epsilon-shell grid.

    Shell s is the box of :func:`_shell` (``theta* -/+ s epsilon``, clamped
    to the cube). Arm i's flip shell is the least s whose box holds a point
    where the i-th component differs from the optimum's; the bracket is one
    step below it.

    Bi-monotone oracles find it by bisection over s with the exact
    two-corner candidate test: the boxes nest, so "component i varies over
    box s" is monotone in s, and the least such s is exactly the lattice's
    first flip shell. Other oracles enumerate the lattice shell by shell,
    which raises ``CapacityError`` past ``_POINT_LIMIT`` points.
    """
    if not epsilon > 0:
        raise UsageError(f"epsilon must be positive, got {epsilon!r}")
    m = spec.arm_count
    center = validate_parameters(theta_star, m)
    if spec.bi_monotone:
        flip_shell = [_bisect_flip_shell(spec, center, epsilon, i) for i in range(m)]
    else:
        flip_shell = _lattice_flip_shells(spec, center, epsilon)
    return LambdaEstimate(
        tuple(1.0 if s is None else (s - 1) * epsilon for s in flip_shell),
        tuple(s is None for s in flip_shell),
        epsilon,
    )


def _bisect_flip_shell(spec: OracleSpec, center, epsilon: float, i: int) -> Optional[int]:
    """Least shell whose box lets component i vary; None when even the whole
    cube does not."""

    def varies(s: int) -> bool:
        return candidate_on_bounds(spec, *_shell(center, epsilon, s), i)

    lo, hi = 0, math.ceil(1.0 / epsilon) + 1  # box(0) is theta*; box(hi) is the cube
    if not varies(hi):
        return None
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if varies(mid):
            hi = mid
        else:
            lo = mid
    return hi


def _lattice_flip_shells(spec: OracleSpec, center, epsilon: float) -> list[Optional[int]]:
    """First lattice shell on which each component flips (None: never)."""
    m = len(center)
    worst_case = (2 * math.ceil(1.0 / epsilon) + 1) ** m
    if worst_case > _POINT_LIMIT:
        raise CapacityError(
            f"lattice over {m} arms at epsilon={epsilon} may visit {worst_case} points, "
            f"over the limit {_POINT_LIMIT}"
        )

    y_star = spec.maximizer(center)
    prefixes = [[c] for c in center]  # each coordinate's values in shell s-1
    flip_shell: list[Optional[int]] = [None] * m
    previous = _shell(center, epsilon, 0)
    for s in itertools.count(1):
        lower, upper = _shell(center, epsilon, s)
        # Each coordinate's new values: the faces that moved out from shell s-1.
        news = [
            [v for v, old in ((lo, lo_old), (up, up_old)) if v != old]
            for lo, up, lo_old, up_old in zip(lower, upper, *previous)
        ]
        if not any(news):
            return flip_shell  # shell s-1 is the cube
        previous = lower, upper
        open_arms = {i for i in range(m) if flip_shell[i] is None}
        for pivot in range(m):
            if not news[pivot]:
                continue
            # Coordinates before the pivot stay strictly inside shell s-1 so
            # no point is enumerated from two pivots.
            axes = prefixes[:pivot] + [news[pivot]]
            axes += [prefixes[j] + news[j] for j in range(pivot + 1, m)]
            for point in itertools.product(*axes):
                y = spec.maximizer(point)
                for i in list(open_arms):
                    if y[i] != y_star[i]:
                        flip_shell[i] = s
                        open_arms.discard(i)
                if not open_arms:
                    return flip_shell
        for prefix, new in zip(prefixes, news):
            prefix.extend(new)


def compute_reward_gaps(spec: OracleSpec, theta_star: Sequence[float]) -> tuple[float, ...]:
    """Per-arm reward gaps for binary decision classes, by enumeration.

    The gap of arm i is the optimal reward minus the best reward among
    decisions that disagree with the optimum at coordinate i (infinite when
    no decision disagrees there). Raises ``DegenerateInstanceError`` when
    the optimum is not unique, and ``CapacityError`` past the enumeration
    limit of :func:`~coci.core.scored_decisions`.
    """
    m = spec.arm_count
    center = validate_parameters(theta_star, m)
    y_star = spec.maximizer(center)
    r_star = math.fsum(spec.reward_term(i, center[i], y_star[i]) for i in range(m))

    best_disagree = [-math.inf] * m
    for y, r in scored_decisions(spec, center):
        if any(v not in (0.0, 1.0) for v in y):
            raise UsageError(f"decision class of {spec.name} is not binary")
        if tuple(y) == tuple(y_star):
            continue
        if r >= r_star:
            raise DegenerateInstanceError(
                f"optimum is not unique: {tuple(y)} matches the optimal reward"
            )
        for i in range(m):
            if y[i] != y_star[i] and r > best_disagree[i]:
                best_disagree[i] = r
    return tuple(
        r_star - b if b > -math.inf else math.inf for b in best_disagree
    )


def sample_complexity_bound(h_lambda: float, m: int, tau: int, delta: float) -> float:
    """Round bound 2m + 12 H ln(24 H) + 4 H ln(4 / (tau delta))."""
    if h_lambda <= 0:
        raise UsageError(f"h_lambda must be positive, got {h_lambda!r}")
    return (
        2.0 * m
        + 12.0 * h_lambda * math.log(24.0 * h_lambda)
        + 4.0 * h_lambda * math.log(4.0 / (tau * delta))
    )


def h_from_lambda(lower: Sequence[float]) -> float:
    """Adaptive hardness sum(1 / radius^2); infinite when a radius is 0."""
    if any(v < 0 for v in lower):
        raise UsageError("flip radii must be nonnegative")
    if any(v == 0 for v in lower):
        return math.inf
    return math.fsum(1.0 / (v * v) for v in lower)


def h_uniform_from_lambda(lower: Sequence[float]) -> float:
    """Uniform-sampling hardness m / min(radius)^2."""
    worst = min(lower)
    if worst == 0:
        return math.inf
    return len(lower) / (worst * worst)


def hardness_report(
    spec: OracleSpec,
    theta_star: Sequence[float],
    epsilon: float = 0.01,
    width: Optional[int] = None,
    include_gaps: bool = False,
) -> HardnessReport:
    """Compute the full hardness bundle for an instance."""
    est = compute_lambda(spec, theta_star, epsilon)
    gaps = None
    h_delta = None
    if include_gaps:
        gaps = compute_reward_gaps(spec, theta_star)
        finite = [g for g in gaps if math.isfinite(g)]
        h_delta = math.fsum(1.0 / (g * g) for g in finite) if finite else 0.0
    return HardnessReport(
        lambda_lower=est.lower,
        saturated=est.saturated,
        h_lambda=h_from_lambda(est.lower),
        h_uniform=h_uniform_from_lambda(est.lower),
        grid_resolution=epsilon,
        delta_gap=gaps,
        h_delta=h_delta,
        width=width,
    )
