"""Independent reference implementations used by the tests.

The oracle references share no code with the library paths they check:
the allocation reference enumerates every feasible allocation and compares
objectives in exact integer arithmetic over the binary expansions of the
inputs, so its optima and tie-breaks are authoritative, and
:func:`greedy_from_ones` is the textbook greedy in exact fractions.
:func:`scalar_run` is the sampler one round at a time, the slow exact path
that the engine's block loop must equal; with ``record_trace`` it also
returns its trace, one :class:`CociState` per round, which
:func:`render_trace` writes in the engine's trace-file format and
:func:`read_trace` reads back. :func:`fewest_pulls_picks` makes the
fewest-pulls rule's picks one at a time.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import asdict, dataclass
from fractions import Fraction
from pathlib import Path
from typing import Optional, Sequence

from coci import ConfidenceBox, RunResult, UsageError
from coci.condition import candidate_on_bounds
from coci.estimators import check_delta, estimate_from_sums
from coci.hardness import sample_complexity_bound
from coci.sim import BufferedArm, arm_stream


@dataclass(frozen=True)
class CociState:
    """One round of a trace: the sampler state after ``t`` total samples.

    ``arm`` and ``observation`` describe the pull that produced this state
    (None for the first state, after the set-up pulls); ``lower`` and
    ``upper`` are the sides of its box, and ``candidates`` is the candidate
    set computed *from* it (the set that decides whether round t+1 pulls or
    stops). The fields are the keys of a trace-file line, in order.
    """

    t: int
    arm: Optional[int]
    observation: Optional[float]
    pulls: tuple[int, ...]
    estimates: tuple[float, ...]
    radii: tuple[float, ...]
    lower: tuple[float, ...]
    upper: tuple[float, ...]
    candidates: tuple[int, ...]


def render_trace(trace: Sequence[CociState]) -> bytes:
    """The trace-file bytes of ``trace``: one ``json.dumps`` line per state."""
    return "".join(json.dumps(asdict(state)) + "\n" for state in trace).encode()


def read_trace(path: str | Path) -> tuple[CociState, ...]:
    """The states of a trace file. Its rounds must be contiguous and
    nonempty: a truncated or reordered trace raises ``UsageError``."""
    with open(path, encoding="utf-8") as fh:
        trace = tuple(
            CociState(**{k: tuple(v) if isinstance(v, list) else v for k, v in json.loads(line).items()})
            for line in fh
        )
    if not trace:
        raise UsageError("empty trace")
    for offset, state in enumerate(trace):
        if state.t != trace[0].t + offset:
            raise UsageError(f"trace is truncated or reordered at t={state.t}")
    return trace


def audit_xi(trace: Sequence[CociState], true_params: Sequence[float]) -> bool:
    """True when every traced round kept all estimates within their radii
    of ``true_params``: the event xi, recomputed from a trace that
    :func:`read_trace` read from a trace file."""
    if len(true_params) != len(trace[0].estimates):
        raise UsageError("true_params dimension does not match the trace")
    return all(
        abs(e - g) <= r for state in trace for e, r, g in zip(state.estimates, state.radii, true_params)
    )


def iter_allocations(m: int, k: int):
    """All integer vectors y >= 1 with sum(y) <= k, in lexicographic order."""
    if m == 1:
        for v in range(1, k + 1):
            yield (v,)
        return
    for v in range(1, k - (m - 1) + 1):
        for rest in iter_allocations(m - 1, k - v):
            yield (v,) + rest


def exact_osa_optimum(n: Sequence[int], k: int, theta: Sequence[float]) -> tuple[int, ...]:
    """Leading optimum of sum(n_i^2 theta_i / y_i) by exact enumeration.

    Objectives are compared as integers over a common denominator, with the
    exact rational values of the float inputs. Ties prefer the larger total
    allocation (slack never helps), then the lexicographically smallest
    vector -- the documented leading-optimum order.
    """
    m = len(n)
    ratios = [float(t).as_integer_ratio() for t in theta]
    denom_lcm = math.lcm(*range(1, k + 1))
    shift = max(q.bit_length() - 1 for _, q in ratios)
    common = denom_lcm << shift

    weights = [n[i] * n[i] * ratios[i][0] for i in range(m)]
    term = [
        [0] + [weights[i] * (common // (ratios[i][1] * y)) for y in range(1, k + 1)]
        for i in range(m)
    ]

    best_obj = None
    best_key = None
    best_y = None
    for y in iter_allocations(m, k):
        obj = sum(term[i][y[i]] for i in range(m))
        key = (obj, -sum(y), y)
        if best_key is None or key < best_key:
            best_obj = obj
            best_key = key
            best_y = y
    assert best_y is not None and best_obj is not None
    return best_y


def greedy_from_ones(n: Sequence[int], k: int, theta: Sequence[float]) -> tuple[int, ...]:
    """The textbook allocation greedy: from y = 1, each of the k - m other
    samples goes to the group of largest marginal n_i^2 theta_i / (y_i (y_i
    + 1)), compared as exact fractions, ties to the later group. An all-zero
    theta ties everywhere and so puts the slack on the last group.
    """
    m = len(n)
    weights = [n[i] * n[i] * Fraction(theta[i]) for i in range(m)]
    y = [1] * m
    for _ in range(k - m):
        best = max(range(m), key=lambda i: (weights[i] / (y[i] * (y[i] + 1)), i))
        y[best] += 1
    return tuple(y)


def continuous_water_optimum(
    theta: Sequence[float],
    caps: Sequence[float],
    quad_coeffs: Sequence[float],
    b: float,
) -> float:
    """Optimal value of sum(theta_i y - a_i y^2) s.t. sum(y) >= b, 0 <= y <= c.

    Closed-form multiplier search for strictly convex quadratic costs: each
    coordinate is y_i(lam) = clip((theta_i + lam) / (2 a_i), 0, c_i) with
    lam >= 0 only active when the unconstrained optimum undershoots b.
    """

    def coords(lam: float) -> list[float]:
        return [
            min(c, max(0.0, (t + lam) / (2.0 * a)))
            for t, a, c in zip(theta, quad_coeffs, caps)
        ]

    def value(ys) -> float:
        return sum(t * y - a * y * y for t, y, a in zip(theta, ys, quad_coeffs))

    free = coords(0.0)
    if sum(free) >= b:
        return value(free)
    lo, hi = 0.0, 1.0
    while sum(coords(hi)) < b:
        hi *= 2.0
        if hi > 1e9:
            raise AssertionError("infeasible continuous relaxation")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if sum(coords(mid)) < b:
            lo = mid
        else:
            hi = mid
    return value(coords(hi))


def enumerate_binary_gap(
    decisions: list[tuple[float, ...]],
    theta: Sequence[float],
) -> tuple[tuple[float, ...], list[float]]:
    """(optimal decision, per-arm gaps) for a linear binary class, brute force."""
    rewards = [sum(t * y for t, y in zip(theta, d)) for d in decisions]
    best = max(range(len(decisions)), key=lambda i: (rewards[i], decisions[i]))
    y_star = decisions[best]
    r_star = rewards[best]
    m = len(theta)
    gaps = []
    for i in range(m):
        alt = [
            rewards[j]
            for j, d in enumerate(decisions)
            if d[i] != y_star[i]
        ]
        gaps.append(r_star - max(alt) if alt else math.inf)
    return y_star, gaps


def grid_points(box_lower, box_upper, resolution: int):
    """Uniform lattice over a box, endpoints pinned exactly."""
    axes = []
    for a, b in zip(box_lower, box_upper):
        if a == b:
            axes.append([a])
        else:
            axes.append(
                [a]
                + [min(b, a + (b - a) * j / (resolution - 1)) for j in range(1, resolution - 1)]
                + [b]
            )
    return itertools.product(*axes)


def lattice_candidate(spec, box_lower, box_upper, i: int, resolution: int) -> bool:
    """True when the oracle's i-th component takes two values on the
    :func:`grid_points` lattice of the box (stopping at the first change)."""
    points = grid_points(box_lower, box_upper, resolution)
    first = spec.maximizer(next(points))[i]
    return any(spec.maximizer(p)[i] != first for p in points)


def lattice_candidates(spec, box_lower, box_upper, resolution: int) -> tuple[bool, ...]:
    """:func:`lattice_candidate` of every arm at once: each lattice point
    is evaluated once, and the scan stops when every arm has varied."""
    points = grid_points(box_lower, box_upper, resolution)
    first = spec.maximizer(next(points))
    varied = [False] * len(first)
    for p in points:
        y = spec.maximizer(p)
        if y != first:
            varied = [v or a != b for v, a, b in zip(varied, y, first)]
            if all(varied):
                break
    return tuple(varied)


def fewest_pulls_picks(pulls: Sequence[int], allowed: Sequence[bool], n: int) -> list[int]:
    """The first ``n`` picks of the fewest-pulls rule, one at a time: each
    the allowed arm with the fewest pulls, ties to the lower index, which
    then holds one pull more."""
    counts = list(pulls)
    picks = []
    for _ in range(n):
        pick = min((i for i in range(len(counts)) if allowed[i]), key=counts.__getitem__)
        counts[pick] += 1
        picks.append(pick)
    return picks


def clamp_box(estimates: Sequence[float], radii: Sequence[float]) -> ConfidenceBox:
    """The confidence box in Python floats: each interval ``[e - r, e +
    r]`` clipped to [0, 1] as ``max(0.0, min(1.0, e - r))`` and ``min(1.0,
    max(0.0, e + r))``, the form :func:`scalar_run` uses."""
    lower = tuple(max(0.0, min(1.0, e - r)) for e, r in zip(estimates, radii))
    upper = tuple(min(1.0, max(0.0, e + r)) for e, r in zip(estimates, radii))
    return ConfidenceBox(lower, upper)


def scalar_run(
    instance,
    delta: float,
    *,
    uniform: bool,
    seed=0,
    max_rounds=None,
    h_lambda=None,
    lambda_lower=None,
    record_trace: bool = False,
):
    """``run_coci`` (or ``run_uniform`` when ``uniform``) one round at a
    time: every round recomputes the radii and the box in Python floats and
    runs the exact candidate tests in the engine's order, coci in pull order
    up to the first candidate, uniform the last candidate first, traced runs
    every arm. Returns the ``RunResult``, or with ``record_trace`` the pair
    of it and the run's trace, one :class:`CociState` per round."""
    oracle = instance.oracle
    m = oracle.arm_count
    if not instance.arm_models:
        raise UsageError("instance has no arm models to sample from")
    kind = instance.estimator_kind
    tau = kind.tau
    check_delta(delta, tau)

    bound_value = None
    if h_lambda is not None and h_lambda != math.inf:
        bound_value = sample_complexity_bound(h_lambda, m, tau, delta)
    if max_rounds is None:
        max_rounds = math.ceil(10 * bound_value) if bound_value is not None else 10**6
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

    log_const = math.log(4.0 / (tau * delta))
    arms = list(range(m))
    trace: list[CociState] | None = [] if record_trace else None

    est = [estimate_from_sums(kind, sums[i], sums_sq[i], tau) for i in range(m)]
    inv2 = [0.5 / tau] * m
    rad = [0.0] * m
    lower = [0.0] * m
    upper = [0.0] * m
    xi_held = True
    lemma_violations = 0 if lam_half is not None else None
    j = x = None  # the pull that produced the current state
    last_candidate = 0

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
            trace.append(CociState(t, j, x, tuple(pulls), tuple(est), tuple(rad), tuple(lower), tuple(upper), cands))
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

    output = oracle.maximizer(tuple(lower))
    result = RunResult(
        output=tuple(output),
        rounds=t,
        per_arm_pulls=tuple(pulls),
        correct=tuple(output) == tuple(instance.optimal_decision()),
        xi_held=xi_held,
        converged=chosen < 0,
        mode="uniform" if uniform else "coci",
        seed=seed_key,
        bound_value=bound_value,
        bound_satisfied=(t <= bound_value) if bound_value is not None else None,
        lemma_violations=lemma_violations,
        final_box=ConfidenceBox(tuple(lower), tuple(upper)),
    )
    return (result, tuple(trace)) if trace is not None else result
