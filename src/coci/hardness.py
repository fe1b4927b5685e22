"""Hardness quantities: flip radii, reward gaps, and round bounds.

The *flip radius* of arm i is the largest L-infinity perturbation of the
true parameters under which the i-th component of the leading optimal
decision cannot change. It is estimated by expanding lattice shells around
the true parameters and recording the first shell on which each component
flips; the value reported is one lattice step below that shell (a lower
bracket with +/- epsilon uncertainty). Shell-only evaluation is exact for
oracles whose decision regions are unions of boxes and halfspaces, which
covers every oracle shipped here; this is a documented assumption.

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
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .core import OracleSpec, scored_decisions, validate_parameters
from .errors import CapacityError, DegenerateInstanceError, UsageError

#: Analytic exchange width of top-k style classes (one element in, one out).
WIDTH_TOP_K = 2

_POINT_LIMIT = 2 * 10**9
_BATCH_CHUNK = 1 << 16


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
        return {
            "lambda_lower": list(self.lambda_lower),
            "saturated": list(self.saturated),
            "h_lambda": self.h_lambda,
            "h_uniform": self.h_uniform,
            "grid_resolution": self.grid_resolution,
            "delta_gap": list(self.delta_gap) if self.delta_gap is not None else None,
            "h_delta": self.h_delta,
            "width": self.width,
        }


def _coordinate_ladder(center: float, epsilon: float) -> list[list[float]]:
    """Values reachable from ``center`` keyed by generation (step count).

    Generation g holds ``center - g epsilon`` and ``center + g epsilon``
    while inside [0, 1]; the cube faces 0 and 1 enter once, at the first
    generation whose step would cross them.
    """
    ladder: list[list[float]] = [[center]]
    g = 0
    lo_done = center == 0.0
    hi_done = center == 1.0
    while not (lo_done and hi_done):
        g += 1
        values = []
        if not lo_done:
            v = center - g * epsilon
            if v > 0.0:
                values.append(v)
            else:
                values.append(0.0)
                lo_done = True
        if not hi_done:
            v = center + g * epsilon
            if v < 1.0:
                values.append(v)
            else:
                values.append(1.0)
                hi_done = True
        ladder.append(values)
    return ladder


def compute_lambda(
    spec: OracleSpec,
    theta_star: Sequence[float],
    epsilon: float = 0.01,
) -> LambdaEstimate:
    """Lower brackets of the per-arm flip radii via expanding lattice shells."""
    if epsilon <= 0:
        raise UsageError(f"epsilon must be positive, got {epsilon!r}")
    m = spec.arm_count
    center = validate_parameters(theta_star, m)
    worst_case = (2 * math.ceil(1.0 / epsilon) + 1) ** m
    if worst_case > _POINT_LIMIT:
        raise CapacityError(
            f"lattice over {m} arms at epsilon={epsilon} may visit {worst_case} points, "
            f"over the limit {_POINT_LIMIT}"
        )

    y_star = spec.maximizer(center)
    ladders = [_coordinate_ladder(center[i], epsilon) for i in range(m)]
    max_gen = max(len(lad) - 1 for lad in ladders)
    prefixes: list[list[float]] = [list(lad[0]) for lad in ladders]

    flip_shell: list[int | None] = [None] * m
    open_arms = set(range(m))

    for s in range(1, max_gen + 1):
        news = [lad[s] if s < len(lad) else [] for lad in ladders]
        _scan_shell(prefixes, news, spec, open_arms, y_star, flip_shell, s)
        for i in range(m):
            prefixes[i].extend(news[i])
        for i in list(open_arms):
            if flip_shell[i] is not None:
                open_arms.discard(i)
        if not open_arms:
            break

    lower = []
    saturated = []
    for i in range(m):
        if flip_shell[i] is None:
            lower.append(1.0)
            saturated.append(True)
        else:
            lower.append((flip_shell[i] - 1) * epsilon)
            saturated.append(False)
    return LambdaEstimate(tuple(lower), tuple(saturated), epsilon)


def _scan_shell(prefixes, news, spec, open_arms, y_star, flip_shell, s) -> None:
    """Evaluate all shell-s lattice points, recording first flips in place."""
    m = len(prefixes)
    for pivot in range(m):
        if not news[pivot]:
            continue
        # Coordinates before the pivot stay strictly inside shell s-1 so no
        # point is enumerated from two pivots.
        axes = [prefixes[j] for j in range(pivot)]
        axes.append(news[pivot])
        axes.extend(prefixes[j] + news[j] for j in range(pivot + 1, m))
        if any(not axis for axis in axes):
            continue
        if spec.batch_maximizer is not None:
            _scan_batch(axes, spec, open_arms, y_star, flip_shell, s)
        else:
            _scan_points(axes, spec, open_arms, y_star, flip_shell, s)


def _scan_points(axes, spec, open_arms, y_star, flip_shell, s) -> None:
    remaining = {i for i in open_arms if flip_shell[i] is None}
    if not remaining:
        return
    for point in itertools.product(*axes):
        y = spec.maximizer(point)
        for i in list(remaining):
            if y[i] != y_star[i]:
                flip_shell[i] = s
                remaining.discard(i)
        if not remaining:
            return


def _scan_batch(axes, spec, open_arms, y_star, flip_shell, s) -> None:
    sizes = [len(a) for a in axes]
    total = math.prod(sizes)
    ref = np.asarray(y_star, dtype=np.float64)
    arr_axes = [np.asarray(a, dtype=np.float64) for a in axes]
    remaining = [i for i in open_arms if flip_shell[i] is None]
    if not remaining:
        return
    for start in range(0, total, _BATCH_CHUNK):
        stop = min(start + _BATCH_CHUNK, total)
        idx = np.arange(start, stop)
        cols = []
        div = total
        for a, size in zip(arr_axes, sizes):
            div //= size
            cols.append(a[(idx // div) % size])
        points = np.column_stack(cols)
        decisions = spec.batch_maximizer(points)
        for i in list(remaining):
            if np.any(decisions[:, i] != ref[i]):
                flip_shell[i] = s
                remaining.remove(i)
        if not remaining:
            return


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
