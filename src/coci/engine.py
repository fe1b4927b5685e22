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
picks (up to 32,768 in a stable stretch, see below) and computes the states
they lead to as arrays, only those it reads. It builds no pick sequence: the
rule visits pull-count levels in turn, so each arm's count after any
number of picks, and the pick that follows, come from the levels at
which the allowed arms join it (:func:`_pick_counts`). They depend only
on the allowed arms' pull counts past their fewest, so a block that reads
them at every state takes them from a per-process cache keyed by those
(:func:`_plan`): one read-only entry per key holds the most states read,
a smaller block reads a prefix of it, and the least recently read entries
go once the entries pass ``_PLAN_CELLS`` (2^16) cells, m per state.
A run keeps one read-ahead of samples across blocks. Each arm's running
sums come from one sequential ``np.cumsum``, in place, along a row that
holds its sum at ``base`` pulls and then its next samples, so they add one
sample at a time; sums of squares are formed only for variance estimates,
the one estimator that reads them. They give a table of each arm's
estimate after c pulls past ``base``, and a state's estimates are read
from it at column ``pulls - base``. A block reuses the read-ahead while
every arm's column at its state ``size`` is one the arm has (``cover``,
its pulls past ``base`` at state ``size`` of the block that built it).
Otherwise the arms' streams consume their pulls since ``base`` and the
read-ahead is built again from the current state. So a coci block that
keeps a few rounds of a flipping candidate set, and the shorter block
after it, mostly read on in the read-ahead of an earlier block.
``level`` is read from a per-process table of ``math.log(t)`` values, one
array filled in fixed chunks as runs reach larger t (``np.log`` can differ
from ``math.log`` in the last place). It and the plan cache are shared by
the runs of a process, and one lock guards their updates, so runs in
threads read what they would read alone. Every float operation happens as in a
round-at-a-time loop, so the arrays are exact: numpy's elementwise ``+ - *
/ sqrt`` round exactly like Python floats, and ``clip`` to [0, 1] gives
``max(0.0, min(1.0, x))`` for every float x but NaN and -0.0, which ``est -
rad`` and ``est + rad`` never are, estimates being finite and radii
positive. Samples come from ``BufferedArm`` read-ahead, which yields
exactly the sequence of successive draws.

A block of ``size`` rounds checks its states 0 to ``size - 1`` and leaves
state ``size`` to the next block, which checks it first. The one exception
is the round cap: a block whose state ``size`` reaches ``max_rounds``
checks that state itself and, kept whole, stops there. A block ends at the
first checked state whose real pick differs from the guess, or that stops,
and is otherwise kept whole, ending at state ``size``. The state where it
ends depends only on picks already checked, so it is exact, and the next
block starts there (a wrong guess at the cap leaves it to a block of no
rounds, which checks it and stops). A coci block ended by a wrong guess
guesses on from the full candidate set there; a block kept whole keeps its
guess. A block costs about the same whatever its length, so a run's first
block takes the full 2,048 rounds; after a miss, the next one is twice the
stretch that held, and at least 64 rounds. The picks are checked:

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

In a stable stretch (a block of at least the full size after
``_STABLE_BLOCKS`` blocks kept whole), an untraced bi-monotone block first
bounds each run of ``_PREPASS_RUN`` (1,024) of its checked states between
an inner and an outer box (:func:`coci.condition.run_bounds`) and tests them in one mask
call; a cap state joins the last run, which is then left open. By
inclusion, that settles a uniform run where an arm is a candidate on its
nonempty inner box, and a coci run whose candidates are the guessed set in
every state; a settled run passes the xi audit by its extremes. Only open
runs take state boxes, checked a run at a time (and at most the full size)
up to the part where the block ends. So such a block reads pull counts
only at its run cuts, its open states and state ``size``. It costs mostly
its fixed per-block work, so one kept whole is followed by one twice its
size, while its estimate table, m rows by about rounds / k pulls of its k
allowed arms, stays within ``_STABLE_CELLS`` (2^15) cells: uniform blocks
reach 32,768 rounds, coci ones guessing from two of eight arms 8,192. A
miss falls back to the sizes above.

A traced run takes no pre-pass, as a trace needs every state's box, so its
blocks stay within the full size. Each block writes the JSON lines of its
states 0 to ``last - 1``, and of state ``last`` where the run stops (the
next block writes it otherwise), in one ``write`` call from the arrays its
check formed (:func:`_trace_lines`). A line holds ``t``, the pulled
``arm`` and its ``observation`` (null in the first state), ``pulls``,
``estimates``, ``radii``, the box sides ``lower`` and ``upper`` and
``candidates``, the full candidate set as arm indices: the check's mask on
a bi-monotone oracle, else corner enumeration. A pull is the guess from
the state before, and its sample is read in the arm's read-ahead: a stream
advances only where a block builds it, before its check.
"""

from __future__ import annotations

import math
import threading
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import chain, compress
from numbers import Real
from pathlib import Path
from typing import Optional

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
#: a missed guess) and the fewest after a missed guess. Both are also capped
#: so that m * m * (rounds + 1) stays within _BLOCK_CELLS, the entries of one
#: (m, m, boxes) array in the top-k mask over a block's states, which also
#: bounds the pre-pass's run count.
_BLOCK_ROUNDS = 2048
_BLOCK_ROUNDS_MIN = 64
_BLOCK_CELLS = 1 << 20
#: Cells of a stable block's estimate table: m rows by about rounds / k
#: pulls of the k allowed arms. A stable block doubles up to this cap.
_STABLE_CELLS = 1 << 15
#: States per run of the pre-pass. Of 256 to 4,096 (with cell caps of 2^15
#: to 2^17), 1,024 and 2^15 ran fastest for uniform on the m = 8 best-arm
#: instance, and within 5% of the fastest for coci: a run costs one
#: reduceat segment per arm and two mask boxes, and a longer one is left
#: open more often. certified_mask keeps its own run length.
_PREPASS_RUN = 1024
#: Blocks kept whole in a row before a block of at least the full size
#: takes the pre-pass.
_STABLE_BLOCKS = 2
#: Cells (m x states) of the pick plans cached by :func:`_plan`, at most.
_PLAN_CELLS = 1 << 16
#: The pick plans: (counts, picks) of :func:`_pick_counts` at states 0 to
#: n, read-only, keyed by the allowed arms' pull counts past their fewest
#: (-1 for an arm not allowed), least recently read first.
_PLANS: dict[bytes, tuple[np.ndarray, np.ndarray]] = {}
#: Entries per chunk of the level table.
_LOG_CHUNK = 1 << 15
#: The level table: ``math.log(t)`` at index t - 1 for t = 1 up to its
#: length, a whole number of chunks, shared by every run in the process. It
#: is a read-only view of the start of its buffer (``_LOG_TABLE.base``),
#: whose entries past it are not filled yet.
_LOG_TABLE = np.empty(0)
#: Guards the growth of the level table and the plan cache's updates, for
#: runs in threads of one process.
_LOCK = threading.Lock()
#: One line of a trace file, as ``json.dumps`` writes the state's dict: the
#: ``str`` of an int, a finite float or a list of them is its JSON text.
_TRACE_LINE = (
    '{"t": %d, "arm": %s, "observation": %s, "pulls": %s, "estimates": %s, "radii": %s, "lower": %s, "upper": %s, '
    '"candidates": %s}\n'
)


@dataclass(frozen=True)
class RunResult:
    """Outcome of one run.

    ``output`` is the oracle's decision at the final box's lower corner, and
    ``correct`` whether it equals the decision at the true parameters.
    ``rounds`` equals the total number of samples drawn, and
    ``per_arm_pulls`` splits them by arm. ``xi_held`` records whether every
    estimate stayed within its confidence radius of the truth in every
    round (audited against the instance's true parameters). ``converged``
    is True when the run stopped because the candidate test left no arm on
    the final box, and False when it reached ``max_rounds`` with one left.
    ``mode`` is ``"coci"`` or ``"uniform"``, and ``seed`` the seed key of
    the arms' streams as a tuple. ``bound_value`` is the round bound implied
    by the supplied hardness, when any, and ``bound_satisfied`` whether
    ``rounds`` stayed within it (None without one).
    ``lemma_violations`` counts pulls of an arm whose previous-round radius
    had already shrunk below half its flip radius (only audited when
    ``lambda_lower`` is supplied). ``final_box`` is the confidence box of
    the last state.
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
    trace_path: str | Path | None = None,
) -> RunResult:
    """One run of either sampler: each round pulls the fewest-pulled arm
    (candidate, for coci), ties to the lower index. That is exactly the
    largest-radius one, because all radii share the round's ``level``.
    After the set-up pulls, the rounds step in verified blocks (see the
    module docstring) until a block ends at a state that stops. Each block
    leaves its state ``size`` to the next block unless that state is the
    round cap, and audits xi on the checked states it keeps.

    ``seed`` is a nonnegative integer or a nonempty tuple or list of them.
    ``max_rounds`` defaults to ten times the round bound implied by
    ``h_lambda`` (10^6 without one). ``lambda_lower``, finite and
    nonnegative, enables the half-flip-radius pull audit. ``trace_path``
    names a file that the run writes every round to, one JSON line per
    state with its full candidate set (see the module docstring).

    The run keeps ``pulls`` as an array over the arms, and its read-ahead
    as ``running``, ``table``, ``base`` and ``cover``. Block arrays are
    arm-major: entry ``[i, s]`` is arm i after the block's first s guessed
    pulls, or ``cols[s]`` in the per-state arrays.
    """
    oracle = instance.oracle
    m = oracle.arm_count
    if not instance.arm_models:
        raise UsageError("instance has no arm models to sample from")
    kind = instance.estimator_kind
    tau = kind.tau
    check_delta(delta, tau)

    bound_value = None
    if h_lambda is not None and h_lambda != math.inf:  # None and +inf set no bound
        bound_value = sample_complexity_bound(h_lambda, m, tau, delta)
    if max_rounds is None:
        max_rounds = math.ceil(10 * bound_value) if bound_value is not None else _DEFAULT_MAX_ROUNDS
    max_rounds = integer_value(max_rounds, "max_rounds")
    if max_rounds < tau * m:
        raise UsageError(f"max_rounds={max_rounds} cannot cover initialization ({tau * m})")

    lam = None  # half of each flip radius
    if lambda_lower is not None:
        if not isinstance(lambda_lower, (Sequence, np.ndarray)) or len(lambda_lower) != m:
            raise UsageError(f"lambda_lower must be a sequence with one entry per arm, got {lambda_lower!r}")
        if not all(isinstance(v, Real) and not isinstance(v, bool) and 0.0 <= v < math.inf for v in lambda_lower):
            raise UsageError(f"lambda_lower entries must be finite nonnegative numbers, got {lambda_lower!r}")
        lam = np.asarray(lambda_lower, dtype=np.float64) / 2.0

    entries = seed if isinstance(seed, (tuple, list)) else (seed,)
    if not entries:
        raise UsageError("seed must hold at least one integer")
    seed_key = tuple(integer_value(v, "seed", low=0) for v in entries)
    streams = [BufferedArm(instance.arm_models[i], arm_stream(seed_key, i)) for i in range(m)]
    theta = np.asarray(instance.true_params.values, dtype=np.float64)[:, None]

    sums = np.zeros((2, m))  # each arm's sum and sum of squares
    for i in range(m):
        for _ in range(tau):
            x = streams[i].next()
            sums[0, i] += x
            sums[1, i] += x * x
    pulls = np.full(m, tau, dtype=np.int64)
    t = tau * m
    # The read-ahead (see the module docstring), empty: the first block builds it.
    running, base, cover = sums[:, :, None], pulls, np.full(m, -1)

    # The constant term of every radius (see estimators.radius_from_logs).
    log_const = math.log(4.0 / (tau * delta))
    arms = np.arange(m)
    squares = tau == 2  # only the variance estimate reads sums of squares
    guess_from = np.ones(m, dtype=bool)  # all arms, or coci's last candidate set
    no_pick = np.iinfo(np.int64).max
    xi_held = True
    violations = 0
    most = max(1, min(_BLOCK_ROUNDS, _BLOCK_CELLS // (m * m) - 1))
    # The most rounds whose pre-pass mask call, two boxes for each run, fits
    # one (m, m, boxes) array of _BLOCK_CELLS.
    longest = _PREPASS_RUN * (_BLOCK_CELLS // (2 * m * m))
    size = most
    whole = 0  # blocks kept whole since the run's start or its last miss
    last_candidate = 0  # corner enumeration: the arm uniform tests first

    trace = open(trace_path, "w", encoding="utf-8") if trace_path is not None else None
    into = "null", "null"  # the pull into a block's state 0: its arm and sample, none in the run's first
    try:
        while True:
            prepass = trace is None and oracle.bi_monotone and size >= most and whole >= _STABLE_BLOCKS
            size = min(size, max_rounds - t)
            # The block checks states 0 to size - 1 and leaves state size to the
            # next block, unless that state is the round cap: then it checks it.
            capped = t + size == max_rounds
            checked = size + capped
            logs = _logs(t, t + size + 1)
            allowed = guess_from
            # Pull counts, and the guess from each state, are read only where
            # they are needed: first at every state, or at a pre-passed
            # block's run cuts (each run's first and last state) and state
            # size; then at the states that its runs leave open.
            if prepass:
                cuts = np.append(np.arange(0, size or 1, _PREPASS_RUN), checked)  # the cap joins the last run
                at, guessed = _pick_counts(pulls, allowed, np.concatenate((cuts[:-1], cuts[1:] - 1, [size])))
            else:
                at, guessed = _plan(pulls, allowed, size)
            ahead = at[:, -1]  # each arm's pulls past ``pulls`` at state size
            shift = pulls - base  # each arm's column of the current state in the read-ahead
            if (shift + ahead > cover).any():
                # The block needs a column some arm lacks: consume the pulls
                # since the last build and read ahead anew from here. Row i of
                # layer 0: arm i's running sum, then its read-ahead samples;
                # layer 1, for variance estimates only, the same for squares.
                # One cumsum along the rows adds one sample at a time, in place;
                # table[i, c] is arm i's estimate after c pulls past base[i].
                taken = shift.tolist()
                for i in range(m):
                    streams[i].advance(taken[i])
                sums = running[:, arms, taken]
                base, cover, shift = pulls, ahead, np.zeros_like(pulls)
                drawn = cover.tolist()
                width = 1 + max(drawn)
                rows = np.zeros((1 + squares, m, width))
                rows[0, :, 0] = sums[0]
                for i in range(m):
                    rows[0, i, 1 : 1 + drawn[i]] = streams[i].peek(drawn[i])
                if squares:
                    np.multiply(rows[0], rows[0], out=rows[1])
                    rows[1, :, 0] = sums[-1]
                running = np.cumsum(rows, axis=2, out=rows)
                table = estimate_from_sums(kind, running[0], running[-1], base[:, None] + np.arange(width))

            # The checked states that take per-state boxes, in parts checked in
            # turn up to the one where the block ends.
            if prepass:
                run_lo, run_up, e_min, e_max, r_in = condition.run_bounds(
                    table, base, *np.split(at[:, :-1] + shift[:, None], 2, axis=1), log_const,
                    np.minimum.reduceat(logs[:checked], cuts[:-1]), np.maximum.reduceat(logs[:checked], cuts[:-1]),
                )
                # Inner boxes, then outer ones; an empty inner box settles nothing.
                settled = block_mask(oracle, run_lo, run_up)
                inner, outer = np.split(settled & (run_lo <= run_up).all(axis=0), 2, axis=1)
                # Uniform: no state of the run stops. Coci: every state's candidate
                # set is the allowed one, so each pick is the guess.
                shut = inner.any(axis=0) if uniform else np.where(allowed[:, None], inner, ~outer).all(axis=0)
                shut &= (np.maximum(e_max - theta, theta - e_min) <= r_in).all(axis=0)
                shut[-1] &= not capped  # the cap state takes its own box
                cols = np.flatnonzero(np.repeat(~shut, np.diff(cuts)))
                # Parts of at most one run, and a full-size block, keep a grown
                # block's state arrays small beside its estimate table.
                step = min(most, _PREPASS_RUN)
                parts = [cols[i : i + step] for i in range(0, len(cols), step)]
            else:
                at, guessed = at[:, :checked], guessed[:checked]
                parts = [np.arange(checked)]

            last, stopped = size, capped  # unless a checked state ends the block first
            if oracle.bi_monotone:
                for cols in parts:
                    if prepass:
                        at, guessed = _pick_counts(pulls, allowed, cols)
                    block_pulls, est, rad, lower, upper = _states(table, pulls, at, shift, logs[cols], log_const)
                    mask = block_mask(oracle, lower, upper)
                    stop = ~mask.any(axis=0)
                    if uniform:
                        ends = stop  # the guess is the fewest-pulls rule over all arms
                    else:
                        ends = stop | (np.where(mask, block_pulls, no_pick).argmin(axis=0) != guessed)
                    k = int(ends.argmax()) if ends.any() else len(ends) - 1
                    if (np.abs(est[:, : k + 1] - theta) > rad[:, : k + 1]).any():  # the states kept
                        xi_held = False
                    if ends[k]:
                        last, stopped = int(cols[k]), stop[k]  # column k holds state last
                        if not uniform:
                            guess_from = mask[:, k]
                        break
            else:
                block_pulls, est, rad, lower, upper = _states(table, pulls, at, shift, logs[:checked], log_const)
                for s in range(checked):
                    lo, up = lower[:, s].tolist(), upper[:, s].tolist()
                    if uniform:
                        order = [last_candidate] + [i for i in range(m) if i != last_candidate]
                    else:
                        order = sorted(range(m), key=block_pulls[:, s].tolist().__getitem__)
                    chosen = next((i for i in order if candidate_on_bounds(oracle, lo, up, i)), -1)
                    if chosen < 0 or t + s >= max_rounds:
                        last, stopped, converged = s, True, chosen < 0
                        break
                    last_candidate = chosen
                    if not uniform and chosen != guessed[s]:
                        # Guess on from the full candidate set here.
                        guess_from = np.array([candidate_on_bounds(oracle, lo, up, i) for i in range(m)])
                        last, stopped = s, False  # before the cap, if the block reaches it
                        break
                k = last
                if (np.abs(est[:, : k + 1] - theta) > rad[:, : k + 1]).any():
                    xi_held = False

            if trace is not None:
                # States 0 to last - 1, and last where the run stops (see the module docstring).
                picks = guessed[:last]
                reads = shift[picks] + at[picks, np.arange(last)]
                seen = np.empty(last)
                for i in range(m):
                    seen[picks == i] = streams[i].peek(cover[i])[reads[picks == i]]
                n = last + stopped
                if oracle.bi_monotone:  # the check's mask holds the full candidate sets
                    sets = mask[:, :n]
                else:
                    boxes = list(zip(lower[:, :n].T.tolist(), upper[:, :n].T.tolist()))
                    sets = np.array([[candidate_on_bounds(oracle, *box, i) for box in boxes] for i in range(m)], bool)
                trace.write(_trace_lines(t, into, picks, seen, sets, block_pulls, est, rad, lower, upper))
                into = (picks[-1].item(), seen[-1].item()) if last else into  # the pull into the next state 0
            if lam is not None:  # the radius of each kept pull's arm in the state it is pulled from
                kept, n = _next_picks(pulls, allowed, np.arange(last))
                before = radius_from_logs(log_const, logs[:last], n)
                violations += int(np.count_nonzero(before < lam[kept]))
            t += last
            pulls = pulls + ahead if last == size else block_pulls[:, k]
            if stopped:
                lo, up = lower[:, k].tolist(), upper[:, k].tolist()
                if oracle.bi_monotone:
                    # The verdict comes from the exact test; the mask must agree.
                    converged = not any(candidate_on_bounds(oracle, lo, up, i) for i in range(m))
                    if converged == mask[:, k].any():
                        raise AssertionError(f"{oracle.name}: the candidate mask disagrees with the two-corner test")
                break
            # A pre-passed block kept whole doubles up to the cap on its estimate
            # table's cells for the next block's k allowed arms, and on its
            # pre-pass's boxes; after a miss, the next block is twice the
            # stretch that held.
            whole = whole + 1 if last == size else 0
            if prepass and last == size:
                stable = min(_STABLE_CELLS * int(guess_from.sum()) // m, longest)
                size = min(2 * size, max(most, stable))
            else:
                size = min(most, max(_BLOCK_ROUNDS_MIN, 2 * last))
    finally:
        if trace is not None:
            trace.close()

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
    )


def _states(
    table: np.ndarray, pulls: np.ndarray, at: np.ndarray, shift: np.ndarray, logs: np.ndarray, log_const: float
):
    """The pulls, estimates, radii and box sides (lower, upper) of a block's
    states with pull counts ``at`` past ``pulls`` and levels ``logs``; each
    arm's estimate at ``pulls`` is in column ``shift`` of the table."""
    state_pulls = pulls[:, None] + at
    est = table.ravel()[at + (shift + np.arange(len(pulls)) * table.shape[1])[:, None]]
    rad = radius_from_logs(log_const, logs, state_pulls)
    return state_pulls, est, rad, np.clip(est - rad, 0.0, 1.0), np.clip(est + rad, 0.0, 1.0)


def _trace_lines(t: int, into: tuple, picks: np.ndarray, seen: np.ndarray, sets: np.ndarray, *states) -> str:
    """Trace-file lines of the states of rounds t on, one per column of the
    (m, n) candidate mask ``sets``: ``into`` is the pull into the first state
    (arm and sample), ``picks`` and ``seen`` those into the next, ``states``
    the pulls, estimates, radii and box sides. Under tracemalloc, making an
    object scans its frame's line table, so a short function makes these."""
    m, n = sets.shape
    pulled = chain([into], zip(picks.tolist(), seen.tolist()))
    lines = zip(range(t, t + n), pulled, *(v[:, :n].T.tolist() for v in states), sets.T.tolist())
    return "".join(_TRACE_LINE % (s, *p, *v, list(compress(range(m), c))) for s, p, *v, c in lines)


def _logs(start: int, stop: int) -> np.ndarray:
    """``math.log(t)`` for t in ``range(start, stop)``, ``1 <= start <
    stop``, as a read-only view of the level table, which first grows by
    whole chunks up to the one holding ``stop - 1``. The entries come from
    ``math.log``: ``np.log`` can differ from it in the last place. A buffer
    too small for them is replaced by one twice the filled entries, or the
    entries needed if more, and the filled ones are copied; only entries up
    to the chunk reached are computed."""
    global _LOG_TABLE
    if len(_LOG_TABLE) < stop - 1:
        with _LOCK:
            table = _LOG_TABLE
            have, need = len(table), -(-(stop - 1) // _LOG_CHUNK) * _LOG_CHUNK
            if have < need:  # not yet grown by another thread
                buffer = table.base
                if buffer is None or len(buffer) < need:
                    buffer = np.empty(max(need, 2 * have))
                    buffer[:have] = table
                buffer[have:need] = np.fromiter(map(math.log, range(have + 1, need + 1)), np.float64, need - have)
                table = buffer[:need]
                table.flags.writeable = False
                _LOG_TABLE = table
    return _LOG_TABLE[start - 1 : stop - 1]


def _next_picks(pulls: np.ndarray, allowed: np.ndarray, cols) -> tuple[np.ndarray, np.ndarray]:
    """Pick ``cols[j]``, counted from 0, of the fewest-pulls rule over the
    ``allowed`` arms: its arm and that arm's pulls before it, as two arrays.

    Allowed arm i joins at level ``pulls[i] - min(pulls[allowed])``, level
    L picks the arms joined by then in index order, each holding
    ``min(pulls[allowed]) + L`` pulls, and from the last join on every
    level picks all k allowed arms. So the picks before the last join are
    listed one by one, up to the largest column (each level picks at least
    one arm), and later ones follow from their column alone.
    """
    idx = np.flatnonzero(allowed)
    join = pulls[idx]
    low = join.min()
    join = join - low
    cols = np.asarray(cols, dtype=np.int64)
    levels = min(int(join.max()), int(cols.max(initial=0)) + 1)
    if levels:
        early_level, early_pos = np.nonzero(join <= np.arange(levels)[:, None])  # in pick order
        level, pos = np.divmod(cols - len(early_level), len(idx))
        level += levels
        early = cols < len(early_level)
        at = cols[early]
        level[early], pos[early] = early_level[at], early_pos[at]
    else:  # every allowed arm has joined
        level, pos = np.divmod(cols, len(idx))
    return idx[pos], level + low


def _plan(pulls: np.ndarray, allowed: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_pick_counts` at states 0 to ``size``, read from the plan
    cache (see the module docstring). The counts and pick after s picks do
    not depend on later picks, so a key's entry serves every smaller size.
    A plan of more than ``_PLAN_CELLS`` cells is not kept."""
    key = np.where(allowed, pulls - pulls[allowed].min(), -1).tobytes()
    with _LOCK:
        plan = _PLANS.pop(key, None)
        if plan is None or plan[1].size <= size:
            plan = _pick_counts(pulls, allowed, np.arange(size + 1))
            cells = plan[0].size
            if cells > _PLAN_CELLS:
                return plan
            held = sum(counts.size for counts, _ in _PLANS.values())
            while held + cells > _PLAN_CELLS:
                held -= _PLANS.pop(next(iter(_PLANS)))[0].size
            for array in plan:
                array.flags.writeable = False
        _PLANS[key] = plan  # the most recently read
    return plan[0][:, : size + 1], plan[1][: size + 1]


def _pick_counts(pulls: np.ndarray, allowed: np.ndarray, cols) -> tuple[np.ndarray, np.ndarray]:
    """Each arm's pull count after the first ``cols[j]`` picks of the
    fewest-pulls rule over the ``allowed`` arms, as an ``(m, len(cols))``
    array, and the arm of pick ``cols[j]``, the next one. Up to that pick,
    of arm a holding n pulls, an allowed arm i has had ``n - pulls[i]``
    picks, one more if ``i < a``, or none if that is negative (it is yet
    to join); an arm not allowed has had none. A block that reads them at
    all its states reads them through the plan cache (:func:`_plan`); the
    pre-pass's run cuts and its open parts call this directly."""
    arm, n = _next_picks(pulls, allowed, cols)
    counts = n - np.where(allowed, pulls, 1 << 62)[:, None]
    counts += np.arange(len(pulls))[:, None] < arm
    return np.maximum(counts, 0, out=counts), arm
