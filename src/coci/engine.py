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

Runs are deterministic given (instance, delta, seed): each arm draws from
a private sub-stream keyed by (seed, arm index), so an arm's j-th sample
does not depend on when it is pulled.

The rounds step in blocks. The candidate set rarely changes (a few dozen
times in a run of 60,000 rounds), so the next picks can be guessed: the
fewest-pulls rule over the last candidate set, or over all arms for the
uniform ablation. From the current state, one block guesses up to 2,048
picks (8,192 in a stable stretch, see below) and computes the states they
lead to as arrays. Each arm's running sums come from one sequential
``np.cumsum`` along a row that holds its current sum and then its
read-ahead samples, so they add one sample at a time; sums of squares are
formed only for variance estimates, the one estimator that reads them.
They give a table of each arm's estimate after c more pulls, and a state's
estimates are read from it by its pull counts.
``level`` is read from a per-process table of ``math.log(t)`` values, grown
in fixed chunks as runs reach larger t (``np.log`` can differ from
``math.log`` in the last place). Every float operation happens as in a
round-at-a-time loop, so the arrays are exact: numpy's elementwise ``+ - *
/ sqrt`` round exactly like Python floats, and ``clip`` to [0, 1] gives
``max(0.0, min(1.0, x))`` for every float x but NaN and -0.0, which ``est -
rad`` and ``est + rad`` never are, estimates being finite and radii
positive. Samples come from ``BufferedArm`` read-ahead, which yields
exactly the sequence of successive draws.

A block keeps the rounds up to the first state whose real pick differs
from the guess, or that stops, or that reaches ``max_rounds``. That state
depends only on picks already checked, so it is exact, and the next block
starts there. A block costs about the same whatever its length, so a run's
first block takes the full 2,048 rounds; after a miss, the next one is
twice the stretch that held, and at least 64 rounds. The picks are checked:

- on a bi-monotone oracle, by the exact two-corner test of the block's
  states at once (:func:`coci.condition.block_mask`). A coci block ends at
  the first state whose fewest-pulls candidate is not the guess; a uniform
  guess is the fewest-pulls rule over all arms, the real pick by
  construction, so a uniform block ends only where it stops. The verdict
  at the final state is the exact test on every arm, and a run whose mask
  disagrees with it raises;
- on any other oracle, by corner enumeration one state at a time, testing
  arms in a fixed order: coci in pull order up to the first candidate,
  uniform the last candidate found first and then the rest in index order.
  After a wrong coci guess the full candidate set there seeds the guesses.

In a stable stretch (a block of at least the full size after
``_STABLE_BLOCKS`` blocks kept whole), a bi-monotone block first bounds each
run of ``CERTIFY_RUN`` states between an inner and an outer box
(:func:`coci.condition.run_bounds`) and tests them in one mask call. By
inclusion, that settles a uniform run where an arm is a candidate on its
nonempty inner box, and a coci run whose candidates are the guessed set in
every state; a settled run passes the xi audit by its extremes. Only open
runs and the last state take state boxes, checked in parts of at most the
full size up to the part where the block ends. Such a block costs mostly
its fixed per-block work, so one kept whole is followed by one twice its
size, up to 8,192 rounds; a miss falls back to the sizes above.

A traced run then records the kept states, rebuilt from the block's
estimate table, each with its full candidate set: from one mask call on
their boxes on a bi-monotone oracle, else from corner enumeration.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import compress
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import condition
from .condition import block_mask, candidate_on_bounds
from .core import ConfidenceBox, ProblemInstance, integer_value
from .errors import UsageError
from .estimators import check_delta, estimate_from_sums, radius_from_logs
from .hardness import sample_complexity_bound
from .sim import BufferedArm, arm_stream

_DEFAULT_MAX_ROUNDS = 10**6
#: Block sizes in rounds: full size (a run's first block, and the most after
#: a missed guess), the fewest after a missed guess, and the most in a
#: stable stretch. Each is also capped so that m * m * rounds stays within
#: _BLOCK_CELLS, the entries of one (m, m, boxes) array in the top-k mask.
_BLOCK_ROUNDS = 2048
_BLOCK_ROUNDS_MIN = 64
_STABLE_ROUNDS = 8192
_BLOCK_CELLS = 1 << 20
#: Blocks kept whole in a row before a block of at least the full size
#: takes the pre-pass.
_STABLE_BLOCKS = 2
#: Entries per chunk of the level table.
_LOG_CHUNK = 1 << 15
#: The level table: ``math.log(t)`` for t = 1, 2, ..., shared by every run
#: in the process. Chunk c holds t = c * _LOG_CHUNK + 1 to (c + 1) *
#: _LOG_CHUNK; chunks are read-only and only ever appended.
_LOG_TABLE: list[np.ndarray] = []


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
    After the set-up pulls, the rounds step in verified blocks (see the
    module docstring) until a block ends at a state that stops.

    ``seed`` is a nonnegative integer or a tuple or list of them.
    ``max_rounds`` defaults to ten times the round bound implied by
    ``h_lambda`` (10^6 without one). ``lambda_lower``, finite and
    nonnegative, enables the half-flip-radius pull audit; ``record_trace``
    keeps every round, with its full candidate set, and each arm's samples.

    The run keeps ``pulls``, ``sums`` and ``sums_sq`` as arrays over the
    arms. Block arrays are arm-major: entry ``[i, s]`` is arm i after the
    block's first s guessed pulls, or ``cols[s]`` in the per-state arrays.
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
    max_rounds = integer_value(max_rounds, "max_rounds")
    if max_rounds < tau * m:
        raise UsageError(f"max_rounds={max_rounds} cannot cover initialization ({tau * m})")

    lam = None  # half of each flip radius
    if lambda_lower is not None:
        if len(lambda_lower) != m:
            raise UsageError("lambda_lower must have one entry per arm")
        if not all(0.0 <= v < math.inf for v in lambda_lower):
            raise UsageError(f"lambda_lower entries must be finite and nonnegative, got {lambda_lower!r}")
        lam = np.asarray(lambda_lower, dtype=np.float64) / 2.0

    entries = seed if isinstance(seed, (tuple, list)) else (seed,)
    seed_key = tuple(integer_value(v, "seed", low=0) for v in entries)
    streams = [BufferedArm(instance.arm_models[i], arm_stream(seed_key, i)) for i in range(m)]
    theta = np.asarray(instance.true_params.values, dtype=np.float64)[:, None]

    sums, sums_sq = np.zeros(m), np.zeros(m)
    for i in range(m):
        for _ in range(tau):
            x = streams[i].next()
            sums[i] += x
            sums_sq[i] += x * x
    pulls = np.full(m, tau, dtype=np.int64)
    t = tau * m

    # The constant term of every radius (see estimators.radius_from_logs).
    log_const = math.log(4.0 / (tau * delta))
    trace: list[CociState] | None = [] if record_trace else None
    arms = np.arange(m)[:, None]
    squares = tau == 2  # only the variance estimate reads sums of squares
    guess_from = np.ones(m, dtype=bool)  # all arms, or coci's last candidate set
    no_pick = np.iinfo(np.int64).max
    xi_held = True
    violations = 0
    most = max(1, min(_BLOCK_ROUNDS, _BLOCK_CELLS // (m * m)))
    stable = max(most, min(_STABLE_ROUNDS, _BLOCK_CELLS // (m * m)))
    size = most
    whole = 0  # blocks kept whole since the run's start or its last miss
    last_candidate = 0  # corner enumeration: the arm uniform tests first

    while True:
        prepass = oracle.bi_monotone and size >= most and whole >= _STABLE_BLOCKS
        size = min(size, max_rounds - t)
        guess = _fewest_pulls_order(pulls, guess_from, size + 1)
        counts = np.zeros((m, size + 1), dtype=np.int64)
        np.cumsum(guess[:size] == arms, axis=1, out=counts[:, 1:])
        # Row i of layer 0: arm i's running sum, then its read-ahead
        # samples; layer 1, for variance estimates only, the same for
        # squares. One cumsum along the rows adds one sample at a time;
        # table[i, c] is arm i's estimate after c more pulls.
        drawn = counts[:, size].tolist()
        width = 1 + max(drawn)
        rows = np.zeros((1 + squares, m, width))
        rows[0, :, 0] = sums
        for i in range(m):
            rows[0, i, 1 : 1 + drawn[i]] = streams[i].peek(drawn[i])
        if squares:
            np.multiply(rows[0], rows[0], out=rows[1])
            rows[1, :, 0] = sums_sq
        running = np.cumsum(rows, axis=2)
        table = estimate_from_sums(kind, running[0], running[-1], pulls[:, None] + np.arange(width))
        logs = _logs(t, t + size + 1)

        # The states that take per-state boxes, in parts checked in turn up
        # to the one where the block ends; ``lone`` holds the last state's
        # values and mask when the pre-pass leaves only it.
        parts, lone = [slice(None)], None
        if prepass:
            starts = np.append(np.arange(0, size, condition.CERTIFY_RUN), size)  # the last state alone
            run_lo, run_up, e_min, e_max, r_in = condition.run_bounds(
                table, pulls, counts[:, starts], counts[:, np.append(starts[1:] - 1, size)], log_const,
                np.minimum.reduceat(logs, starts), np.maximum.reduceat(logs, starts),
            )
            # Inner boxes, then outer ones; an empty inner box settles nothing.
            settled = block_mask(oracle, run_lo, run_up)
            inner, outer = np.split(settled & (run_lo <= run_up).all(axis=0), 2, axis=1)
            # Uniform: no state of the run stops. Coci: every state's candidate
            # set is guess_from, so each pick is the guess.
            shut = inner.any(axis=0) if uniform else np.where(guess_from[:, None], inner, ~outer).all(axis=0)
            shut &= (np.maximum(e_max - theta, theta - e_min) <= r_in).all(axis=0)
            if shut[:-1].all():
                # Only the last state is left, and its run's inner box is its box.
                parts = [[size]]
                lone = (
                    pulls[:, None] + counts[:, -1:], e_min[:, -1:], r_in[:, -1:], run_lo[:, -1:], run_up[:, -1:],
                    outer[:, -1:],
                )
            else:
                shut[-1] = False
                cols = np.flatnonzero(np.repeat(~shut, np.diff(starts, append=size + 1)))
                # Parts of at most a full-size block bound a grown block's state arrays.
                parts = np.split(cols, range(most, len(cols), most))

        if oracle.bi_monotone:
            for cols in parts:
                if lone is None:
                    block_pulls, est, rad, lower, upper = _states(table, pulls, counts, logs, log_const, cols)
                    mask = block_mask(oracle, lower, upper)
                else:
                    block_pulls, est, rad, lower, upper, mask = lone
                stop = ~mask.any(axis=0)
                stop[-1] |= cols is parts[-1] and t + size >= max_rounds  # the last part ends at state size
                if uniform:
                    ends = stop  # the guess is the fewest-pulls rule over all arms
                else:
                    pick = np.where(mask, block_pulls, no_pick).argmin(axis=0)
                    ends = stop | (pick != guess[cols])
                k = int(ends.argmax()) if ends.any() else len(ends) - 1
                if ends[k] or cols is parts[-1]:
                    break
                # The block runs on past this part, so every state of it is kept.
                if (np.abs(est - theta) > rad).any():
                    xi_held = False
            last, stopped = int(cols[k]) if prepass else k, stop[k]  # column k holds state last
            if not uniform:
                guess_from = mask[:, k]
        else:
            block_pulls, est, rad, lower, upper = _states(table, pulls, counts, logs, log_const, slice(None))
            last, stopped = size, False
            for s in range(size + 1):
                at_cap = t + s >= max_rounds
                if s == size and not at_cap:
                    break  # the next block checks this state first
                lo, up = lower[:, s].tolist(), upper[:, s].tolist()
                if uniform:
                    order = [last_candidate] + [i for i in range(m) if i != last_candidate]
                else:
                    order = sorted(range(m), key=block_pulls[:, s].tolist().__getitem__)
                chosen = next((i for i in order if candidate_on_bounds(oracle, lo, up, i)), -1)
                if chosen < 0 or at_cap:
                    last, stopped, converged = s, True, chosen < 0
                    break
                last_candidate = chosen
                if not uniform and chosen != guess[s]:
                    # Guess on from the full candidate set here.
                    guess_from = np.array([candidate_on_bounds(oracle, lo, up, i) for i in range(m)])
                    last = s
                    break
            k = last
        # The settled runs before the last state passed their xi bound.
        if (np.abs(est[:, : k + 1] - theta) > rad[:, : k + 1]).any():
            xi_held = False

        if trace is not None:
            first = 1 if trace else 0  # a later block's state 0 is recorded
            kept_states = _states(table, pulls, counts, logs, log_const, slice(first, last + 1))
            if oracle.bi_monotone:  # one mask call gives every kept state's candidate set
                sets = block_mask(oracle, *kept_states[3:]).T.tolist()
            for s, (p, e, r, lo, up) in enumerate(zip(*(v.T.tolist() for v in kept_states)), first):
                if oracle.bi_monotone:
                    cands = tuple(compress(range(m), sets[s - first]))
                else:
                    cands = tuple(i for i in range(m) if candidate_on_bounds(oracle, lo, up, i))
                j = int(guess[s - 1]) if s else None  # the pull that led here
                x = float(rows[0, j, counts[j, s]]) if s else None
                trace.append(CociState(t + s, tuple(p), tuple(e), tuple(r), ConfidenceBox(lo, up), cands, j, x))
        if lam is not None:  # the radius of each kept pull's arm in the state it is pulled from
            kept = guess[:last]
            before = radius_from_logs(log_const, logs[:last], pulls[kept] + counts[kept, np.arange(last)])
            violations += int(np.count_nonzero(before < lam[kept]))
        for i in range(m):
            streams[i].advance(int(counts[i, last]))
        t += last
        pulls = block_pulls[:, k]
        at_last = running[:, arms[:, 0], counts[:, last]]
        sums, sums_sq = at_last[0], at_last[-1]
        if stopped:
            lo, up = lower[:, k].tolist(), upper[:, k].tolist()
            if oracle.bi_monotone:
                # The verdict comes from the exact test; the mask must agree.
                converged = not any(candidate_on_bounds(oracle, lo, up, i) for i in range(m))
                if converged == mask[:, k].any():
                    raise AssertionError(f"{oracle.name}: the candidate mask disagrees with the two-corner test")
            break
        # A pre-passed block kept whole doubles, up to the stable cap; after
        # a miss, the next block is twice the stretch that held.
        whole = whole + 1 if last == size else 0
        size = min(stable, 2 * size) if prepass and last == size else min(most, max(_BLOCK_ROUNDS_MIN, 2 * last))

    sample_log = None
    if record_trace:
        # Each arm's first pulls[i] samples, read again from a fresh stream.
        sample_log = tuple(
            tuple(BufferedArm(instance.arm_models[i], arm_stream(seed_key, i)).peek(p).tolist())
            for i, p in enumerate(pulls.tolist())
        )
    output = tuple(oracle.maximizer(tuple(lo)))
    return RunResult(
        output=output,
        rounds=t,
        per_arm_pulls=tuple(pulls.tolist()),
        correct=output == tuple(instance.optimal_decision()),
        xi_held=xi_held,
        converged=converged,
        mode="uniform" if uniform else "coci",
        seed=seed_key,
        bound_value=bound_value,
        bound_satisfied=(t <= bound_value) if bound_value is not None else None,
        lemma_violations=violations if lam is not None else None,
        final_box=ConfidenceBox(tuple(lo), tuple(up)),
        trace=tuple(trace) if trace is not None else None,
        sample_log=sample_log,
    )


def _states(table: np.ndarray, pulls: np.ndarray, counts: np.ndarray, logs: np.ndarray, log_const: float, cols):
    """The pulls, estimates, radii and box sides (lower, upper) of a block's states ``cols``."""
    at = counts[:, cols]
    state_pulls = pulls[:, None] + at
    est = table.ravel()[at + np.arange(len(pulls))[:, None] * table.shape[1]]
    rad = radius_from_logs(log_const, logs[cols], state_pulls)
    return state_pulls, est, rad, np.clip(est - rad, 0.0, 1.0), np.clip(est + rad, 0.0, 1.0)


def _logs(start: int, stop: int) -> np.ndarray:
    """``math.log(t)`` for t in ``range(start, stop)``, ``1 <= start <
    stop``, read from the level table, which first grows by whole chunks up
    to the one holding ``stop - 1``. The entries come from ``math.log``:
    ``np.log`` can differ from it in the last place."""
    lo, hi = start - 1, stop - 1  # table indices
    while len(_LOG_TABLE) * _LOG_CHUNK < hi:
        base = len(_LOG_TABLE) * _LOG_CHUNK + 1
        chunk = np.fromiter(map(math.log, range(base, base + _LOG_CHUNK)), np.float64, _LOG_CHUNK)
        chunk.flags.writeable = False
        _LOG_TABLE.append(chunk)
    parts = [
        _LOG_TABLE[c][max(lo - c * _LOG_CHUNK, 0) : hi - c * _LOG_CHUNK]
        for c in range(lo // _LOG_CHUNK, (hi - 1) // _LOG_CHUNK + 1)
    ]
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


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
