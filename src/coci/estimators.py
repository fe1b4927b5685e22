"""Unbiased parameter estimators and the confidence radius.

Arms produce i.i.d. samples in [0, 1]; the target parameter of arm i is
either the mean or the variance of its distribution. Both estimators change
by at most 1/s when a single one of the s samples is replaced, which is what
drives the concentration behind the confidence radius.
"""

from __future__ import annotations

import enum
import math
from typing import Sequence

from .core import ConfidenceBox
from .errors import DomainError, UsageError

#: Sanity bound: variance estimates below this are a bug, not cancellation.
_GROSS_NEGATIVE = -1e-6


class EstimatorKind(enum.Enum):
    """Which parameter of the arm distribution is being estimated."""

    MEAN = 1
    VARIANCE = 2

    @property
    def tau(self) -> int:
        """Minimum number of samples the estimator needs (1 or 2)."""
        return self.value


def estimate(kind: EstimatorKind, samples: Sequence[float]) -> float:
    """Unbiased estimate of the mean or variance from samples in [0, 1].

    The mean estimator is the sample average. The variance estimator is
    ``(sum(x^2) - (sum(x))^2 / s) / (s - 1)``; it needs at least two samples.
    Tiny negative variance values produced by cancellation on (near-)constant
    samples are clamped to zero.
    """
    s = len(samples)
    if s < kind.tau:
        raise UsageError(f"{kind.name.lower()} estimator needs >= {kind.tau} samples, got {s}")
    total = 0.0
    total_sq = 0.0
    for x in samples:
        if not (0.0 <= x <= 1.0):
            raise DomainError(f"sample {x!r} outside [0, 1]")
        total += x
        total_sq += x * x
    return estimate_from_sums(kind, total, total_sq, s)


def estimate_from_sums(kind: EstimatorKind, total: float, total_sq: float, s: int) -> float:
    """Estimate from running sums; yields the same value as :func:`estimate`
    on the underlying samples accumulated in the same order."""
    if kind is EstimatorKind.MEAN:
        return total / s
    value = (total_sq - total * total / s) / (s - 1)
    if value < 0.0:
        # The estimator is nonnegative in exact arithmetic; negatives are
        # floating-point cancellation on (near-)constant samples.
        if value < _GROSS_NEGATIVE:
            raise AssertionError(f"variance estimate {value!r} is negative beyond cancellation")
        value = 0.0
    return value


def check_delta(delta: float, tau: int) -> None:
    """Raise ``UsageError`` unless ``0 < delta < 1`` and ``4 / (tau delta)``
    is finite; past that every radius is infinite and no run can stop."""
    if not (0.0 < delta < 1.0 and math.isfinite(4.0 / (tau * delta))):
        raise UsageError(f"delta must be in (0, 1) with finite radii, got {delta!r}")


def confidence_radius(t: int, pulls: int, tau: int, delta: float) -> float:
    """Confidence radius sqrt(ln(4 t^3 / (tau delta)) / (2 pulls)).

    ``t`` is the global round index (total samples so far), ``pulls`` the
    number of samples of the arm in question. Natural logarithm; the radius
    is strictly increasing in t and scales as 1/sqrt(pulls). Evaluated in the
    sampler's float order, so it equals the sampler's radii bit for bit.
    """
    if tau not in (1, 2):
        raise UsageError(f"tau must be 1 or 2, got {tau!r}")
    check_delta(delta, tau)
    if t < tau or pulls < tau:
        raise UsageError(f"need t >= tau and pulls >= tau, got t={t}, pulls={pulls}")
    return math.sqrt((math.log(4.0 / (tau * delta)) + 3.0 * math.log(t)) * (0.5 / pulls))


def clamp_box(estimates: Sequence[float], radii: Sequence[float]) -> ConfidenceBox:
    """Build the confidence box: per-arm intervals clipped to [0, 1]."""
    if len(estimates) != len(radii):
        raise UsageError("estimates and radii must have equal length")
    lower = []
    upper = []
    for e, r in zip(estimates, radii):
        if r <= 0.0:
            raise UsageError(f"radius {r!r} is not positive")
        lower.append(max(0.0, min(1.0, e - r)))
        upper.append(min(1.0, max(0.0, e + r)))
    return ConfidenceBox(tuple(lower), tuple(upper))
