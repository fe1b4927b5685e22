"""Candidate tests: does the oracle's i-th component vary over a box?

The sampler keeps an arm "in play" while the leading optimal decision
disagrees on coordinate i somewhere inside the confidence box. The oracle
decides how that is tested. A bi-monotone oracle gets the exact two-corner
test: two oracle calls on mixed corners. Any other oracle gets corner
enumeration, which evaluates the 2^m box corners, up to 20 arms; past that
the test raises ``CapacityError`` rather than fall back to a heuristic.
"""

from __future__ import annotations

import itertools
from typing import Sequence

from .core import ConfidenceBox, OracleSpec
from .errors import CapacityError, UsageError

_CORNER_ARM_LIMIT = 20


def arm_is_candidate(spec: OracleSpec, box: ConfidenceBox, i: int) -> bool:
    """True when the oracle's i-th component is not constant over the box."""
    if not (0 <= i < spec.arm_count):
        raise UsageError(f"arm index {i} out of range for {spec.arm_count} arms")
    if box.arm_count != spec.arm_count:
        raise UsageError("box dimension does not match the oracle")
    return candidate_on_bounds(spec, box.lower, box.upper, i)


def candidate_on_bounds(
    spec: OracleSpec,
    lower: Sequence[float],
    upper: Sequence[float],
    i: int,
) -> bool:
    """Candidate test on raw interval bounds (no box validation).

    The sampler's hot loop calls this directly; :func:`arm_is_candidate` is
    the validated public entry point with identical semantics. Corner
    enumeration is exact when every oracle component attains its extremes
    over the box at corners; otherwise it can miss interior variation.
    """
    if spec.bi_monotone:
        corner_a = list(lower)
        corner_a[i] = upper[i]
        corner_b = list(upper)
        corner_b[i] = lower[i]
        return spec.maximizer(corner_a)[i] != spec.maximizer(corner_b)[i]

    if spec.arm_count > _CORNER_ARM_LIMIT:
        raise CapacityError(
            f"corner enumeration over {spec.arm_count} arms exceeds the "
            f"{_CORNER_ARM_LIMIT}-arm limit"
        )
    corners = itertools.product(*zip(lower, upper))
    first = spec.maximizer(next(corners))[i]
    return any(spec.maximizer(theta)[i] != first for theta in corners)
