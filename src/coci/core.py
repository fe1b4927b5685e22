"""Core domain types: parameter vectors, confidence boxes, oracles, and instances.

A problem is described by an :class:`OracleSpec`: a finite decision class
``Y`` of real vectors, a separable reward ``r(theta; y) = sum_i r_i(theta_i,
y_i)`` over an unknown parameter vector ``theta`` in ``[0, 1]^m``, and a
deterministic maximization oracle ``phi`` mapping any parameter vector to its
*leading* optimal decision (the unique representative the oracle returns when
several decisions tie).

Everything here is an immutable value; operations are pure functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional, Sequence

import math
import operator

import numpy as np

from .errors import CapacityError, DegenerateInstanceError, DomainError, UsageError

#: Default cap on the number of decisions brute-force enumeration will visit.
ENUMERATION_LIMIT = 10**7


def validate_parameters(values: Sequence[float], arm_count: int | None = None) -> tuple[float, ...]:
    """Validate a parameter vector: finite components, each in [0, 1].

    Returns the values as a tuple. ``arm_count``, when given, additionally
    pins the expected dimension.
    """
    out = tuple(float(v) for v in values)
    if arm_count is not None and len(out) != arm_count:
        raise UsageError(f"expected {arm_count} parameters, got {len(out)}")
    if len(out) < 1:
        raise UsageError("parameter vector must have at least one component")
    for i, v in enumerate(out):
        if not (0.0 <= v <= 1.0):
            raise DomainError(f"parameter {i} is {v!r}, outside [0, 1]")
    return out


def integer_value(value, label: str, low: int | None = None) -> int:
    """``value`` as an ``int``; a bool, a value that ``operator.index``
    refuses (a float, or an array but a 0-d one) or one below ``low`` is a
    :class:`UsageError`."""
    try:
        index = None if isinstance(value, bool) else operator.index(value)
    except TypeError:
        index = None
    if index is None:
        raise UsageError(f"{label} must be an integer, got {value!r}")
    if low is not None and index < low:
        raise UsageError(f"{label} must be >= {low}, got {value!r}")
    return index


@dataclass(frozen=True)
class ParameterVector:
    """A point theta in [0, 1]^m (true parameters or estimates)."""

    values: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", validate_parameters(self.values))

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self) -> Iterator[float]:
        return iter(self.values)

    def __getitem__(self, i: int) -> float:
        return self.values[i]


@dataclass(frozen=True)
class ConfidenceBox:
    """An axis-aligned box inside [0, 1]^m: per-arm confidence intervals."""

    lower: tuple[float, ...]
    upper: tuple[float, ...]

    def __post_init__(self) -> None:
        lo = tuple(float(v) for v in self.lower)
        hi = tuple(float(v) for v in self.upper)
        if len(lo) != len(hi):
            raise UsageError("lower and upper must have equal length")
        for i, (a, b) in enumerate(zip(lo, hi)):
            if not (0.0 <= a <= b <= 1.0):
                raise DomainError(f"interval {i} is [{a}, {b}], not nested in [0, 1]")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @property
    def arm_count(self) -> int:
        return len(self.lower)

    def contains(self, theta: Sequence[float]) -> bool:
        return all(a <= t <= b for a, t, b in zip(self.lower, theta, self.upper))


@dataclass(frozen=True)
class OracleSpec:
    """A maximization-oracle problem: decision class, reward terms, oracle.

    Parameters
    ----------
    arm_count:
        Number of arms m.
    name:
        Short identifier used in logs and error messages.
    reward_term:
        ``reward_term(i, theta_i, y_i)``: the i-th separable reward term.
    maximizer:
        Deterministic map from a parameter sequence to the leading optimal
        decision, returned as a tuple of floats. Equal inputs must yield
        identical outputs.
    contains:
        Membership predicate for the decision class.
    enumerate_decisions:
        Generator over the full decision class, or None when the class is
        not practically enumerable. The iteration order must be
        deterministic.
    decision_count:
        ``|Y|`` when known; used for capacity checks before enumerating.
    bi_monotone:
        True when each oracle component is monotone in its own parameter and
        oppositely monotone in every other parameter. Enables the two-corner
        candidate test.
    candidate_mask:
        Optional vectorized two-corner test of a bi-monotone oracle:
        ``candidate_mask(lower, upper)`` takes two float arrays of shape
        ``(m, n)``, a stack of n boxes with box r in column r, and returns
        the boolean ``(m, n)`` array whose entry ``[i, r]`` equals the
        two-corner test of arm i on box r. The top-k oracles (best-arm
        included) and the OSA oracle set it. On a bi-monotone oracle the
        sampler checks its guessed picks with it or, when it is None, with a
        generic mask of ``maximizer`` calls (see
        :func:`coci.condition.block_mask`); other oracles' picks are checked
        by corner enumeration one round at a time.
    batch_maximizer:
        Optional vectorized oracle over an (n, m) array of parameter rows,
        returning an (n, m) array of decisions. Must agree exactly with
        ``maximizer`` row by row. No shipped oracle sets it and the package
        never calls it.
    """

    arm_count: int
    name: str
    reward_term: Callable[[int, float, float], float]
    maximizer: Callable[[Sequence[float]], tuple[float, ...]]
    contains: Callable[[Sequence[float]], bool]
    enumerate_decisions: Optional[Callable[[], Iterable[tuple[float, ...]]]] = None
    decision_count: Optional[int] = None
    bi_monotone: bool = False
    candidate_mask: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None
    batch_maximizer: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "arm_count", integer_value(self.arm_count, "arm_count", low=1))


def reward(spec: OracleSpec, theta: Sequence[float], y: Sequence[float]) -> float:
    """Evaluate the separable reward sum(r_i(theta_i, y_i)).

    Raises ``UsageError`` on dimension mismatch and ``DomainError`` when the
    decision is not a member of the spec's decision class.
    """
    tvals = theta.values if isinstance(theta, ParameterVector) else tuple(theta)
    yvals = tuple(y)
    if len(tvals) != spec.arm_count or len(yvals) != spec.arm_count:
        raise UsageError(
            f"dimension mismatch: spec has {spec.arm_count} arms, "
            f"theta has {len(tvals)}, y has {len(yvals)}"
        )
    if not spec.contains(yvals):
        raise DomainError(f"decision {yvals} is not in the decision class of {spec.name}")
    # fsum: mathematically tied decisions must compare exactly equal, which
    # a left-to-right float sum does not guarantee.
    total = math.fsum(
        spec.reward_term(i, tvals[i], yvals[i]) for i in range(spec.arm_count)
    )
    if not np.isfinite(total):
        raise DomainError(f"reward is not finite for theta={tvals}, y={yvals}")
    return total


def scored_decisions(
    spec: OracleSpec,
    theta: Sequence[float],
    limit: int = ENUMERATION_LIMIT,
) -> Iterator[tuple[tuple[float, ...], float]]:
    """Stream ``(y, reward(theta; y))`` over the whole decision class, in
    its enumeration order, without materialising it.

    Rewards are ``fsum``-ed like :func:`reward`, so tied decisions compare
    equal. Raises ``UsageError`` when the class is not enumerable and
    ``CapacityError`` when it holds more than ``limit`` decisions.
    """
    if spec.enumerate_decisions is None:
        raise UsageError(f"decision class of {spec.name} is not enumerable")
    if spec.decision_count is not None and spec.decision_count > limit:
        raise CapacityError(
            f"decision class of {spec.name} has {spec.decision_count} elements, "
            f"over the enumeration limit {limit}"
        )
    tvals = theta.values if isinstance(theta, ParameterVector) else tuple(theta)
    if len(tvals) != spec.arm_count:
        raise UsageError(f"expected {spec.arm_count} parameters, got {len(tvals)}")
    for seen, y in enumerate(spec.enumerate_decisions(), 1):
        if seen > limit:
            raise CapacityError(f"enumeration of {spec.name} exceeded limit {limit}")
        yield y, math.fsum(spec.reward_term(i, tvals[i], y[i]) for i in range(spec.arm_count))


def brute_force_maximizer(
    spec: OracleSpec,
    theta: Sequence[float],
    limit: int = ENUMERATION_LIMIT,
) -> tuple[float, ...]:
    """Maximize the reward by enumerating the whole decision class.

    Ties are broken toward the lexicographically smallest decision vector,
    which matches the tie-break of every shipped analytic oracle. Intended
    as an independent check on the fast oracles, not as a production path.
    """
    best_y: tuple[float, ...] | None = None
    best_r = -np.inf
    for y, r in scored_decisions(spec, theta, limit):
        if r > best_r or (r == best_r and best_y is not None and y < best_y):
            best_r = r
            best_y = tuple(y)
    if best_y is None:
        raise DomainError(f"decision class of {spec.name} is empty")
    return best_y


@dataclass(frozen=True)
class ProblemInstance:
    """A full sampling problem: oracle, true parameters, and arm models.

    ``arm_models`` holds one sampling distribution per arm (see
    :mod:`coci.sim`); each model's mean or variance (per ``estimator_kind``)
    must equal the corresponding true parameter.
    """

    oracle: OracleSpec
    true_params: ParameterVector
    estimator_kind: "EstimatorKind"  # noqa: F821 - imported lazily to avoid a cycle
    arm_models: tuple = ()
    name: str = "instance"

    def __post_init__(self) -> None:
        if len(self.true_params) != self.oracle.arm_count:
            raise UsageError("true_params length must match the oracle arm count")
        if self.arm_models and len(self.arm_models) != self.oracle.arm_count:
            raise UsageError("need one arm model per arm")
        for i, model in enumerate(self.arm_models):
            got = model.parameter(self.estimator_kind)
            want = self.true_params[i]
            if not abs(got - want) <= 1e-12:
                raise DomainError(
                    f"arm {i}: model {self.estimator_kind.name.lower()} is {got!r}, "
                    f"declared parameter is {want!r}"
                )

    @property
    def arm_count(self) -> int:
        return self.oracle.arm_count

    def optimal_decision(self) -> tuple[float, ...]:
        """The leading optimal decision under the true parameters."""
        return self.oracle.maximizer(self.true_params.values)

    def check_unique_optimum(self) -> None:
        """Verify by enumeration that the true optimum is unique.

        Raises ``DegenerateInstanceError`` when two decisions tie for the
        optimum, and ``UsageError`` when the class is not enumerable.
        """
        best_r = -np.inf
        n_best = 0
        for _, r in scored_decisions(self.oracle, self.true_params.values):
            if r > best_r:
                best_r = r
                n_best = 1
            elif r == best_r:
                n_best += 1
        if n_best != 1:
            raise DegenerateInstanceError(
                f"instance {self.name}: {n_best} decisions tie for the optimum"
            )
