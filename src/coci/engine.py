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

The rounds step in blocks. The candidate set rarely changes (a few dozen
times in a run of 60,000 rounds), so the next picks can be guessed: the
fewest-pulls rule over the last candidate set, or over all arms for the
uniform ablation. From the current state, one block guesses up to 1,024
picks and computes every state they lead to as arrays: pull counts,
running sums, estimates, radii, boxes, and the xi and half-flip-radius
audits. The arrays are exact because every float operation happens in the
order of a round-at-a-time loop: sums are sequential ``np.cumsum`` from
the current sums, one sample at a time; ``level`` comes from ``math.log``
(``np.log`` can differ from it in the last place); and numpy's elementwise
``+ - * / sqrt minimum maximum`` round exactly like Python floats. Samples
come from ``BufferedArm`` read-ahead, which yields exactly the sequence of
successive draws.

A block keeps the rounds up to the first state whose real pick differs
from the guess, or that stops, or that reaches ``max_rounds``. That state
depends only on picks already checked, so it is exact, and the next block
starts there. The picks are checked in one of two ways:

- with the oracle's vectorized ``candidate_mask``, on every state of the
  block at once, for untraced runs on a bi-monotone oracle that has one
  (best-arm, top-k and OSA). The verdict at the final state is the exact
  test on every arm, and a run whose mask disagrees with it raises;
- otherwise (traced runs, water and ``bi_monotone=False`` oracles) with
  the exact candidate test, one state at a time, testing arms in a fixed
  order: coci in pull order up to the first candidate, uniform the last
  candidate found first and then the others in index order, traced runs
  every arm. After a wrong coci guess the full candidate set at that
  state seeds the next guesses.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .condition import candidate_on_bounds
from .core import ConfidenceBox, ProblemInstance
from .errors import UsageError
from .estimators import check_delta, estimate_from_sums
from .hardness import sample_complexity_bound
from .sim import BufferedArm, arm_stream

_DEFAULT_MAX_ROUNDS = 10**6
#: Fewest and most rounds one block of the block loop speculates, and the
#: most entries of one (m, m, rounds) array in the top-k candidate mask.
_BLOCK_ROUNDS_MIN = 64
_BLOCK_ROUNDS = 1024
_BLOCK_CELLS = 1 << 20


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
    The rounds step in verified blocks (see the module docstring).

    ``max_rounds`` defaults to ten times the round bound implied by
    ``h_lambda`` (10^6 without one). ``lambda_lower`` enables the
    half-flip-radius pull audit; ``record_trace`` keeps every round, with
    its full candidate set, and each arm's samples.
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
    for i in range(m):
        for _ in range(tau):
            x = streams[i].next()
            sums[i] += x
            sums_sq[i] += x * x
    pulls = [tau] * m
    t = tau * m

    # Radii: sqrt((log(4 / (tau delta)) + 3 log t) / (2 pulls)).
    log_const = math.log(4.0 / (tau * delta))
    trace: list[CociState] | None = [] if record_trace else None
    t, pulls, lower, upper, xi_held, lemma_violations, converged = _run_blocks(
        oracle, kind, streams, theta_star, log_const, max_rounds, uniform, lam_half, trace,
        t, pulls, sums, sums_sq,
    )
    sample_log = None
    if record_trace:
        # Each arm's first pulls[i] samples, read again from a fresh stream.
        sample_log = tuple(
            tuple(BufferedArm(instance.arm_models[i], arm_stream(seed_key, i)).peek(pulls[i]).tolist())
            for i in range(m)
        )
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
        sample_log=sample_log,
    )


def _fewest_pulls_order(pulls: np.ndarray, allowed: np.ndarray, n: int) -> np.ndarray:
    """The first ``n`` picks of the fewest-pulls rule (ties to the lower
    index) over the ``allowed`` arms, each pick adding one pull.

    The rule visits count levels in turn: at level c it picks, in index
    order, every allowed arm that started with at most c pulls.
    """
    idx = np.flatnonzero(allowed)
    counts = pulls[idx]
    low = counts.min()
    # Each level picks at least one arm, and from the highest count on
    # every allowed arm; either bound covers n picks.
    levels = min(n, int(counts.max() - low) - (-n // len(idx)))
    picked = counts <= low + np.arange(levels)[:, None]
    return np.broadcast_to(idx, picked.shape)[picked][:n]


def _run_blocks(
    oracle, kind, streams, theta_star, log_const, max_rounds, uniform, lam_half, trace,
    t, pulls, sums, sums_sq,
):
    """The rounds of :func:`_run` in verified blocks (see the module
    docstring); returns ``(t, pulls, lower, upper, xi_held,
    lemma_violations, converged)`` at the state where the run stops.
    When ``trace`` is a list, one :class:`CociState` per round is appended.
    Untraced runs on a bi-monotone oracle with a ``candidate_mask``
    (best-arm, top-k, OSA) check a block's picks with the mask; the others
    with the exact test, one state at a time.

    Block arrays are arm-major: entry ``[i, s]`` belongs to arm i in the
    state after the block's first s guessed pulls.
    """
    m = len(pulls)
    use_mask = trace is None and oracle.bi_monotone and oracle.candidate_mask is not None
    arms = np.arange(m)[:, None]
    theta = np.asarray(theta_star, dtype=np.float64)[:, None]
    lam = np.asarray(lam_half, dtype=np.float64) if lam_half is not None else None
    pulls = np.asarray(pulls, dtype=np.int64)
    sums = np.asarray(sums, dtype=np.float64)
    sums_sq = np.asarray(sums_sq, dtype=np.float64)
    guess_from = np.ones(m, dtype=bool)  # all arms, or coci's last candidate set
    no_pick = np.iinfo(np.int64).max
    xi_held = True
    violations = 0
    most = max(1, min(_BLOCK_ROUNDS, _BLOCK_CELLS // (m * m)))
    size = min(most, _BLOCK_ROUNDS_MIN)
    # Exact checks only: the arm uniform tests first, whether the current
    # state's pick is already checked, and the pull that produced it.
    last_candidate = 0
    checked = False
    pulled = observation = None

    while True:
        size = min(size, max_rounds - t)
        guess = _fewest_pulls_order(pulls, guess_from, size + 1)
        counts = np.zeros((m, size + 1), dtype=np.int64)
        np.cumsum(guess[:size] == arms, axis=1, out=counts[:, 1:])
        block_pulls = pulls[:, None] + counts
        block_sums = np.empty((m, size + 1))
        block_sq = np.empty((m, size + 1))
        samples = [streams[i].peek(int(counts[i, size])) for i in range(m)]
        for i, x in enumerate(samples):
            # Sequential cumulative sums add one sample at a time.
            block_sums[i] = np.cumsum(np.concatenate(([sums[i]], x)))[counts[i]]
            block_sq[i] = np.cumsum(np.concatenate(([sums_sq[i]], x * x)))[counts[i]]
        est = estimate_from_sums(kind, block_sums, block_sq, block_pulls)
        logs = np.fromiter(map(math.log, range(t, t + size + 1)), np.float64, size + 1)
        rad = np.sqrt((log_const + 3.0 * logs) * (0.5 / block_pulls))
        lower = np.maximum(0.0, np.minimum(1.0, est - rad))
        upper = np.minimum(1.0, np.maximum(0.0, est + rad))

        if use_mask:
            mask = oracle.candidate_mask(lower, upper)
            if uniform:
                pick = block_pulls.argmin(axis=0)
            else:
                pick = np.where(mask, block_pulls, no_pick).argmin(axis=0)
            stop = ~mask.any(axis=0)
            stop[size] |= t + size >= max_rounds
            ends = stop | (pick != guess)
            last = int(ends.argmax()) if ends.any() else size
            stopped = stop[last]
            if not uniform:
                guess_from = mask[:, last]
        else:
            last, stopped = size, False
            for s in range(size + 1):
                if trace is not None and s > 0:
                    pulled = int(guess[s - 1])
                    observation = float(samples[pulled][counts[pulled, s] - 1])
                at_cap = t + s >= max_rounds
                if s == size and not at_cap:
                    break  # the next block checks this state first
                if s == 0 and checked:
                    continue
                lo, up = lower[:, s].tolist(), upper[:, s].tolist()
                p = block_pulls[:, s].tolist()
                cands = None
                if trace is not None:
                    cands = [i for i in range(m) if candidate_on_bounds(oracle, lo, up, i)]
                    chosen = min(cands, key=p.__getitem__, default=-1)
                    box = ConfidenceBox(tuple(lo), tuple(up))
                    trace.append(
                        CociState(
                            t + s, tuple(p), tuple(est[:, s].tolist()), tuple(rad[:, s].tolist()),
                            box, tuple(cands), pulled, observation,
                        )
                    )
                else:
                    if uniform:
                        order = [last_candidate] + [i for i in range(m) if i != last_candidate]
                    else:
                        order = sorted(range(m), key=p.__getitem__)
                    chosen = next((i for i in order if candidate_on_bounds(oracle, lo, up, i)), -1)
                if chosen < 0 or at_cap:
                    last, stopped, converged = s, True, chosen < 0
                    break
                last_candidate = chosen
                if not uniform and chosen != guess[s]:
                    # Guess on from the full candidate set here; its first
                    # guess is this state's pick, so it is already checked.
                    if cands is None:
                        cands = [i for i in range(m) if candidate_on_bounds(oracle, lo, up, i)]
                    guess_from = np.zeros(m, dtype=bool)
                    guess_from[cands] = True
                    last = s
                    break
            checked = last < size and not stopped

        if (np.abs(est[:, : last + 1] - theta) > rad[:, : last + 1]).any():
            xi_held = False
        if lam is not None:
            kept = guess[:last]
            violations += int(np.count_nonzero(rad[kept, np.arange(last)] < lam[kept]))
        for i in range(m):
            streams[i].advance(int(counts[i, last]))
        t += last
        pulls, sums, sums_sq = block_pulls[:, last], block_sums[:, last], block_sq[:, last]
        if stopped:
            lo, up = lower[:, last].tolist(), upper[:, last].tolist()
            if use_mask:
                # The verdict comes from the exact test; the mask must agree.
                converged = not any(candidate_on_bounds(oracle, lo, up, i) for i in range(m))
                if converged == mask[:, last].any():
                    raise AssertionError(f"{oracle.name}: the candidate mask disagrees with the two-corner test")
            return t, pulls.tolist(), lo, up, xi_held, violations if lam is not None else None, converged
        # Grow the block while guesses hold; after a miss, size it to twice
        # the stretch that held.
        size = min(most, max(_BLOCK_ROUNDS_MIN, 2 * last))


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
