"""Seeded stochastic arm models on [0, 1] and instance builders.

Each arm model is an immutable description of a distribution supported on
[0, 1] with closed-form mean and variance, so instances can verify that the
declared parameter (mean or variance) matches the model exactly. Sampling is
driven by numpy generators; the engine derives one independent sub-stream
per arm from ``(seed, arm_index)``, which makes the sample an arm yields on
its j-th pull independent of *when* the pull happens. Paired runs of the
adaptive and uniform samplers therefore see identical arm randomness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .core import OracleSpec, ParameterVector, ProblemInstance
from .errors import DomainError, UsageError
from .estimators import EstimatorKind

_SAMPLE_BLOCK = 1024


class _Model:
    """Shared accessor: the model's parameter under an estimator kind."""

    def parameter(self, kind: EstimatorKind) -> float:
        return self.mean if kind is EstimatorKind.MEAN else self.variance


@dataclass(frozen=True)
class Bernoulli(_Model):
    """Coin flip on {0, 1} with success probability p."""

    p: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.p <= 1.0):
            raise DomainError(f"Bernoulli p={self.p!r} outside [0, 1]")

    @property
    def mean(self) -> float:
        return self.p

    @property
    def variance(self) -> float:
        return self.p * (1.0 - self.p)

    def draw(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return (rng.random(size) < self.p).astype(np.float64)


@dataclass(frozen=True)
class PointMass(_Model):
    """Deterministic arm: every sample equals v."""

    v: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.v <= 1.0):
            raise DomainError(f"PointMass v={self.v!r} outside [0, 1]")

    @property
    def mean(self) -> float:
        return self.v

    @property
    def variance(self) -> float:
        return 0.0

    def draw(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return np.full(size, self.v)


@dataclass(frozen=True)
class DiscreteSupport(_Model):
    """Finite support distribution on [0, 1]."""

    values: tuple[float, ...]
    probabilities: tuple[float, ...]

    def __post_init__(self) -> None:
        values = tuple(float(v) for v in self.values)
        probs = tuple(float(p) for p in self.probabilities)
        if len(values) != len(probs) or not values:
            raise UsageError("values and probabilities must be nonempty and equal-length")
        if any(not (0.0 <= v <= 1.0) for v in values):
            raise DomainError("support values must lie in [0, 1]")
        if not (all(0.0 <= p <= 1.0 for p in probs) and abs(sum(probs) - 1.0) <= 1e-12):
            raise DomainError("probabilities must be in [0, 1] and sum to 1")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "probabilities", probs)

    @property
    def mean(self) -> float:
        return math.fsum(p * v for p, v in zip(self.probabilities, self.values))

    @property
    def variance(self) -> float:
        mu = self.mean
        return math.fsum(p * (v - mu) ** 2 for p, v in zip(self.probabilities, self.values))

    def draw(self, rng: np.random.Generator, size: int) -> np.ndarray:
        cum = np.cumsum(self.probabilities)
        idx = np.searchsorted(cum, rng.random(size), side="right")
        idx = np.minimum(idx, len(self.values) - 1)
        return np.asarray(self.values, dtype=np.float64)[idx]


@dataclass(frozen=True)
class ScaledBeta(_Model):
    """Beta(a, b) distribution (already supported on [0, 1])."""

    a: float
    b: float

    def __post_init__(self) -> None:
        if not (0.0 < self.a < math.inf and 0.0 < self.b < math.inf):
            raise DomainError(f"Beta shape parameters must be positive and finite, got ({self.a!r}, {self.b!r})")

    @property
    def mean(self) -> float:
        return self.a / (self.a + self.b)

    @property
    def variance(self) -> float:
        s = self.a + self.b
        return self.a * self.b / (s * s * (s + 1.0))

    def draw(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.beta(self.a, self.b, size)


ArmModel = Union[Bernoulli, PointMass, DiscreteSupport, ScaledBeta]


def sample(model: ArmModel, rng: np.random.Generator) -> float:
    """One independent draw from the model, deterministic given rng state."""
    return float(model.draw(rng, 1)[0])


def arm_for_variance(target_var: float) -> Bernoulli:
    """A Bernoulli arm whose variance equals ``target_var``.

    Solves p(1-p) = v on the lower branch: p = (1 - sqrt(1 - 4v)) / 2. Only
    variances up to 0.25 are attainable on [0, 1] Bernoulli arms.
    """
    if not (0.0 <= target_var <= 0.25):
        raise DomainError(f"target variance {target_var!r} outside [0, 0.25]")
    p = (1.0 - math.sqrt(1.0 - 4.0 * target_var)) / 2.0
    return Bernoulli(p)


def arm_stream(seed_key: Sequence[int], arm: int) -> np.random.Generator:
    """The arm's private generator, derived from ``(*seed_key, arm)``."""
    return np.random.default_rng(np.random.SeedSequence(tuple(seed_key) + (arm,)))


class BufferedArm:
    """Blockwise sampler over one arm's private stream.

    Draws in blocks for speed; the emitted sequence matches successive
    single draws from the same generator. :meth:`peek` reads ahead without
    consuming and :meth:`advance` consumes; ``peek(n)`` then ``advance(n)``
    yields exactly what n calls of :meth:`next` would, because the
    generator is only ever asked for whole blocks, in the same order.
    """

    __slots__ = ("_model", "_rng", "_buffer", "_pos")

    def __init__(self, model: ArmModel, rng: np.random.Generator):
        self._model = model
        self._rng = rng
        self._buffer: np.ndarray = np.empty(0)
        self._pos = 0

    def next(self) -> float:
        value = self.peek(1)[0]
        self.advance(1)
        return float(value)

    def peek(self, n: int) -> np.ndarray:
        """The next ``n`` samples, without consuming them (a view of the buffer)."""
        end = self._pos + n
        if end > len(self._buffer):
            blocks = [self._buffer[self._pos :]]
            have = len(blocks[0])
            while have < n:
                blocks.append(self._model.draw(self._rng, _SAMPLE_BLOCK))
                have += _SAMPLE_BLOCK
            self._buffer = np.concatenate(blocks)
            self._pos = 0
            end = n
        return self._buffer[self._pos : end]

    def advance(self, n: int) -> None:
        """Consume ``n`` samples that :meth:`peek` has already read ahead."""
        if not 0 <= n <= len(self._buffer) - self._pos:
            raise UsageError(f"cannot advance {n} samples past the read-ahead")
        self._pos += n


def default_models(
    theta_star: Sequence[float], kind: EstimatorKind
) -> tuple[ArmModel, ...]:
    """Natural arm models for declared parameters.

    Mean parameters get Bernoulli(theta) arms; variance parameters get the
    Bernoulli arm with that variance (closed-form inverse, so the instance
    validation is exact).
    """
    if kind is EstimatorKind.MEAN:
        return tuple(Bernoulli(t) for t in theta_star)
    return tuple(arm_for_variance(t) for t in theta_star)


def build_instance(
    oracle: OracleSpec,
    theta_star: Sequence[float],
    kind: EstimatorKind,
    models: Sequence[ArmModel] | None = None,
    name: str = "instance",
) -> ProblemInstance:
    """Assemble and validate a problem instance."""
    params = ParameterVector(tuple(theta_star))
    if models is None:
        models = default_models(params.values, kind)
    return ProblemInstance(
        oracle=oracle,
        true_params=params,
        estimator_kind=kind,
        arm_models=tuple(models),
        name=name,
    )
