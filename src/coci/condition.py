"""Candidate tests: does the oracle's i-th component vary over a box?

The sampler keeps an arm "in play" while the leading optimal decision
disagrees on coordinate i somewhere inside the confidence box. Deciding that
exactly is easy for bi-monotone oracles (two oracle calls on mixed corners);
for other oracles this module offers corner enumeration (exact whenever each
component attains its extremes at box corners) and a lattice scan heuristic.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass
from typing import Iterable, Sequence, Union

from .core import ConfidenceBox, OracleSpec
from .errors import CapacityError, UsageError

_CORNER_ARM_LIMIT = 20
_GRID_POINT_LIMIT = 10**7


@dataclass(frozen=True)
class BiMonotone:
    """Exact two-corner test; valid only for bi-monotone oracles."""


@dataclass(frozen=True)
class CornerEnumeration:
    """Evaluate the oracle at all 2^m box corners.

    Exact when every oracle component attains its extremes over the box at
    corners; otherwise it can miss interior variation (sound for keeping
    candidates, not for dropping them) and is documented as a heuristic.
    """


@dataclass(frozen=True)
class GridScan:
    """Evaluate the oracle on a uniform lattice (corners included).

    A heuristic used in tests and audits; ``resolution`` is the number of
    points per axis.
    """

    resolution: int = 21

    def __post_init__(self) -> None:
        if self.resolution < 2:
            raise UsageError("grid resolution must be >= 2")


ConditionStrategy = Union[BiMonotone, CornerEnumeration, GridScan]


def default_strategy(spec: OracleSpec) -> ConditionStrategy:
    """Pick the strongest applicable strategy for an oracle.

    Bi-monotone oracles get the exact two-corner test. Others fall back to
    corner enumeration up to 20 arms, then to a lattice scan with a loud
    warning (the general exact test is an open problem).
    """
    if spec.bi_monotone:
        return BiMonotone()
    if spec.arm_count <= _CORNER_ARM_LIMIT:
        return CornerEnumeration()
    warnings.warn(
        f"{spec.name}: not bi-monotone and too many arms for corner "
        "enumeration; falling back to a lattice-scan heuristic",
        stacklevel=2,
    )
    return GridScan()


def arm_is_candidate(
    strategy: ConditionStrategy,
    spec: OracleSpec,
    box: ConfidenceBox,
    i: int,
) -> bool:
    """True when the oracle's i-th component is not constant over the box."""
    if not (0 <= i < spec.arm_count):
        raise UsageError(f"arm index {i} out of range for {spec.arm_count} arms")
    if box.arm_count != spec.arm_count:
        raise UsageError("box dimension does not match the oracle")
    return candidate_on_bounds(strategy, spec, box.lower, box.upper, i)


def candidate_on_bounds(
    strategy: ConditionStrategy,
    spec: OracleSpec,
    lower: Sequence[float],
    upper: Sequence[float],
    i: int,
) -> bool:
    """Candidate test on raw interval bounds (no box validation).

    The sampler's hot loop calls this directly; :func:`arm_is_candidate` is
    the validated public entry point with identical semantics.
    """
    if isinstance(strategy, BiMonotone):
        if not spec.bi_monotone:
            raise UsageError(
                f"two-corner test requested but {spec.name} is not declared bi-monotone"
            )
        corner_a = list(lower)
        corner_a[i] = upper[i]
        corner_b = list(upper)
        corner_b[i] = lower[i]
        return spec.maximizer(corner_a)[i] != spec.maximizer(corner_b)[i]

    if isinstance(strategy, CornerEnumeration):
        if spec.arm_count > _CORNER_ARM_LIMIT:
            raise CapacityError(
                f"corner enumeration over {spec.arm_count} arms exceeds the "
                f"{_CORNER_ARM_LIMIT}-arm limit"
            )
        return _varies(spec, itertools.product(*zip(lower, upper)), i)

    if isinstance(strategy, GridScan):
        res = strategy.resolution
        if res**spec.arm_count > _GRID_POINT_LIMIT:
            raise CapacityError(
                f"lattice scan with {res} points/axis over {spec.arm_count} arms "
                "exceeds the point limit"
            )
        axes = []
        for a, b in zip(lower, upper):
            if a == b:
                axes.append([a])
            else:
                # interpolation can overshoot b by an ulp; pin the endpoints
                axes.append(
                    [a]
                    + [min(b, a + (b - a) * j / (res - 1)) for j in range(1, res - 1)]
                    + [b]
                )
        return _varies(spec, itertools.product(*axes), i)

    raise UsageError(f"unknown condition strategy {strategy!r}")


def _varies(spec: OracleSpec, points: Iterable[Sequence[float]], i: int) -> bool:
    """True when the oracle's i-th component takes two values over ``points``
    (evaluated in order, stopping at the first disagreement)."""
    points = iter(points)
    first = spec.maximizer(next(points))[i]
    return any(spec.maximizer(theta)[i] != first for theta in points)
