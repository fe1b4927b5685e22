"""The adaptive confidence-box sampler and its uniform-sampling ablation.

One run proceeds in rounds. After pulling every arm tau times (tau = 1 for
mean estimation, 2 for variance estimation), each round

1. recomputes every radius (they grow with the round index), the box, and
   which arms are *candidates* -- arms whose component of the leading
   optimal decision varies over the current confidence box;
2. stops and returns the decision at the box's lower corner when no
   candidate remains (the decision is then constant over the whole box);
3. otherwise pulls the candidate arm with the largest confidence radius
   (the uniform ablation pulls the largest-radius arm overall: round-robin).
   Every radius is sqrt(level * 0.5 / pulls) with one ``level`` for all
   arms, and each float step is monotone, so the largest radius is exactly
   the fewest pulls, ties to the lower index; arms are picked that way.

The candidate test follows the oracle: the exact two-corner test when it
is bi-monotone, corner enumeration otherwise (see :mod:`coci.condition`).

Runs are deterministic given (instance, delta, seed): each arm draws from
a private sub-stream keyed by (seed, arm index), so an arm's j-th sample
does not depend on when it is pulled.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

from .condition import candidate_on_bounds
from .core import ConfidenceBox, ProblemInstance
from .errors import UsageError
from .estimators import check_delta, estimate_from_sums
from .hardness import sample_complexity_bound
from .sim import BufferedArm, arm_stream

_DEFAULT_MAX_ROUNDS = 10**6


@dataclass(frozen=True)
class CociState:
    """One traced round: the sampler state after ``t`` total samples.

    ``candidates`` is the candidate set computed *from* this state (the set
    that decides whether round t+1 pulls or stops); ``pulled_arm`` and
    ``observation`` describe the pull that produced this state (None for the
    initialization snapshot).
    """

    t: int
    pulls: tuple[int, ...]
    estimates: tuple[float, ...]
    radii: tuple[float, ...]
    box: ConfidenceBox
    candidates: tuple[int, ...]
    pulled_arm: Optional[int]
    observation: Optional[float]


@dataclass(frozen=True)
class RunResult:
    """Outcome of one run.

    ``rounds`` equals the total number of samples drawn. ``xi_held`` records
    whether every estimate stayed within its confidence radius of the truth
    in every round (audited against the instance's true parameters).
    ``lemma_violations`` counts pulls of an arm whose previous-round radius
    had already shrunk below half its flip radius (only audited when
    ``lambda_lower`` is supplied). ``bound_value`` is the round bound implied
    by the supplied hardness, when any.
    """

    output: tuple[float, ...]
    rounds: int
    per_arm_pulls: tuple[int, ...]
    correct: bool
    xi_held: bool
    converged: bool
    mode: str
    seed: tuple[int, ...]
    bound_value: Optional[float] = None
    bound_satisfied: Optional[bool] = None
    lemma_violations: Optional[int] = None
    final_box: Optional[ConfidenceBox] = None
    trace: Optional[tuple[CociState, ...]] = None
    sample_log: Optional[tuple[tuple[float, ...], ...]] = None


def run_coci(instance: ProblemInstance, delta: float, **kwargs) -> RunResult:
    """Run the adaptive sampler; see the module docstring and :func:`_run`."""
    return _run(instance, delta, uniform=False, **kwargs)


def run_uniform(instance: ProblemInstance, delta: float, **kwargs) -> RunResult:
    """Uniform-sampling ablation: pull the largest-radius arm overall."""
    return _run(instance, delta, uniform=True, **kwargs)


def _run(
    instance: ProblemInstance,
    delta: float,
    *,
    seed: int | Sequence[int] = 0,
    max_rounds: int | None = None,
    uniform: bool,
    h_lambda: float | None = None,
    lambda_lower: Sequence[float] | None = None,
    record_trace: bool = False,
) -> RunResult:
    """One run of either sampler: each round pulls the fewest-pulled arm
    (candidate, for coci), ties to the lower index. That is exactly the
    largest-radius one, because all radii share the round's ``level``.

    ``max_rounds`` defaults to ten times the round bound implied by
    ``h_lambda`` (10^6 without one). ``lambda_lower`` enables the
    half-flip-radius pull audit; ``record_trace`` keeps every round and
    sample.
    """
    oracle = instance.oracle
    m = oracle.arm_count
    if not instance.arm_models:
        raise UsageError("instance has no arm models to sample from")
    kind = instance.estimator_kind
    tau = kind.tau
    check_delta(delta, tau)

    bound_value = None
    if h_lambda is not None and math.isfinite(h_lambda):
        bound_value = sample_complexity_bound(h_lambda, m, tau, delta)
    if max_rounds is None:
        max_rounds = math.ceil(10 * bound_value) if bound_value is not None else _DEFAULT_MAX_ROUNDS
    if max_rounds < tau * m:
        raise UsageError(f"max_rounds={max_rounds} cannot cover initialization ({tau * m})")

    lam_half = None
    if lambda_lower is not None:
        if len(lambda_lower) != m:
            raise UsageError("lambda_lower must have one entry per arm")
        lam_half = [v / 2.0 for v in lambda_lower]

    seed_key = (int(seed),) if isinstance(seed, int) else tuple(int(v) for v in seed)
    streams = [BufferedArm(instance.arm_models[i], arm_stream(seed_key, i)) for i in range(m)]
    theta_star = instance.true_params.values

    sums = [0.0] * m
    sums_sq = [0.0] * m
    sample_log: list[list[float]] | None = [[] for _ in range(m)] if record_trace else None
    for i in range(m):
        for _ in range(tau):
            x = streams[i].next()
            sums[i] += x
            sums_sq[i] += x * x
            if sample_log is not None:
                sample_log[i].append(x)
    pulls = [tau] * m
    est = [estimate_from_sums(kind, sums[i], sums_sq[i], tau) for i in range(m)]
    inv2 = [0.5 / tau] * m
    t = tau * m

    # Radii: sqrt((log(4 / (tau delta)) + 3 log t) / (2 pulls)).
    log_const = math.log(4.0 / (tau * delta))
    rad = [0.0] * m
    lower = [0.0] * m
    upper = [0.0] * m
    xi_held = True
    lemma_violations = 0 if lam_half is not None else None
    trace: list[CociState] | None = [] if record_trace else None
    j = x = None  # the pull that produced the current state
    last_candidate = 0
    arms = list(range(m))

    while True:
        level = log_const + 3.0 * math.log(t)
        for i in arms:
            r = math.sqrt(level * inv2[i])
            rad[i] = r
            e = est[i]
            lower[i] = max(0.0, min(1.0, e - r))
            upper[i] = min(1.0, max(0.0, e + r))
            if abs(e - theta_star[i]) > r:
                xi_held = False

        chosen = -1
        if trace is not None:
            # Full candidate set for the trace record.
            cands = tuple(i for i in arms if candidate_on_bounds(oracle, lower, upper, i))
            box = ConfidenceBox(tuple(lower), tuple(upper))
            trace.append(CociState(t, tuple(pulls), tuple(est), tuple(rad), box, cands, j, x))
            chosen = min(cands, key=pulls.__getitem__, default=-1)
        elif uniform:
            # Only emptiness matters for the uniform rule; check the last
            # known candidate first (no results are cached, just the order).
            if candidate_on_bounds(oracle, lower, upper, last_candidate):
                chosen = last_candidate
            else:
                for i in arms:
                    if i != last_candidate and candidate_on_bounds(oracle, lower, upper, i):
                        chosen = i
                        break
        else:
            # The first candidate by pull count has the largest radius.
            for i in sorted(arms, key=pulls.__getitem__):
                if candidate_on_bounds(oracle, lower, upper, i):
                    chosen = i
                    break

        if chosen < 0 or t >= max_rounds:
            break
        last_candidate = chosen
        j = pulls.index(min(pulls)) if uniform else chosen
        if lam_half is not None and rad[j] < lam_half[j]:
            lemma_violations += 1

        t += 1
        x = streams[j].next()
        sums[j] += x
        sums_sq[j] += x * x
        pulls[j] += 1
        inv2[j] = 0.5 / pulls[j]
        est[j] = estimate_from_sums(kind, sums[j], sums_sq[j], pulls[j])
        if sample_log is not None:
            sample_log[j].append(x)

    converged = chosen < 0
    output = oracle.maximizer(tuple(lower))
    return RunResult(
        output=tuple(output),
        rounds=t,
        per_arm_pulls=tuple(pulls),
        correct=tuple(output) == tuple(instance.optimal_decision()),
        xi_held=xi_held,
        converged=converged,
        mode="uniform" if uniform else "coci",
        seed=seed_key,
        bound_value=bound_value,
        bound_satisfied=(t <= bound_value) if bound_value is not None else None,
        lemma_violations=lemma_violations,
        final_box=ConfidenceBox(tuple(lower), tuple(upper)),
        trace=tuple(trace) if trace is not None else None,
        sample_log=tuple(tuple(s) for s in sample_log) if sample_log is not None else None,
    )


def audit_xi(trace: Sequence[CociState], true_params: Sequence[float]) -> bool:
    """True when every traced round kept all estimates within their radii.

    The trace must be complete: its rounds must be contiguous starting at
    the initialization round.
    """
    if not trace:
        raise UsageError("empty trace")
    start = trace[0].t
    truth = tuple(true_params)
    if len(truth) != len(trace[0].estimates):
        raise UsageError("true_params dimension does not match the trace")
    for offset, state in enumerate(trace):
        if state.t != start + offset:
            raise UsageError(f"trace is truncated or reordered at t={state.t}")
        for e, r, g in zip(state.estimates, state.radii, truth):
            if abs(e - g) > r:
                return False
    return True


def dump_trace(trace: Sequence[CociState], path: str | Path) -> None:
    """Write one JSON object per round: t, arm, observation, estimates,
    radii, and the candidate count."""
    with open(path, "w", encoding="utf-8") as fh:
        for state in trace:
            fh.write(
                json.dumps(
                    {
                        "t": state.t,
                        "arm": state.pulled_arm,
                        "observation": state.observation,
                        "estimates": list(state.estimates),
                        "radii": list(state.radii),
                        "candidates": len(state.candidates),
                    }
                )
            )
            fh.write("\n")
