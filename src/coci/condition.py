"""Candidate tests: does the oracle's i-th component vary over a box?

The sampler keeps an arm "in play" while the leading optimal decision
disagrees on coordinate i somewhere inside the confidence box. The oracle
decides how that is tested. A bi-monotone oracle gets the exact two-corner
test: two oracle calls on mixed corners. Any other oracle gets corner
enumeration, which evaluates the 2^m box corners, up to 20 arms; past that
the test raises ``CapacityError`` rather than fall back to a heuristic.
Corner enumeration is exact only where each component takes its extremes
over a box at the box's corners. Elsewhere it can miss a candidate, as on
water that is not bi-monotone, so mid-run candidate sets can be too small.
The stopping verdict still holds for a reward linear in theta, such as
water's: when every corner gives one decision, it is optimal over the box.

:func:`certified_mask` settles runs of consecutive boxes at once. Its
premise is an exact two-corner test on a bi-monotone oracle: over a box,
arm i's component takes its extremes at the two mixed corners (theta_i at
one bound and every other parameter at the opposite one), so arm i is a
candidate exactly when those two values differ. On a sub-box the range
between them can only narrow, so candidacy is inherited by inclusion: an
arm that is not a candidate on a box is not one on any sub-box, and an arm
that is a candidate on a box is one on every larger box.
"""

from __future__ import annotations

import itertools
from functools import partial
from typing import Callable, Sequence

import numpy as np

from .core import ConfidenceBox, OracleSpec
from .errors import CapacityError, UsageError
from .estimators import radius_from_logs

_CORNER_ARM_LIMIT = 20
#: Most floats in one corner array of :func:`two_corner_box_mask`.
_MASK_CELLS = 1 << 20
#: Consecutive boxes that :func:`certified_mask` settles by one hull and one
#: intersection test; only that function reads it (the sampler's pre-pass
#: has its own run length). Of 8 to 64, 64 ran fastest for OSA at m = 3, 8
#: and 16: longer runs leave more open, but a mask call costs mostly fixed
#: overhead.
CERTIFY_RUN = 64


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

    The sampler calls this directly; :func:`arm_is_candidate` is the
    validated public entry point with identical semantics. Corner
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


def certified_mask(
    box_mask: Callable[[np.ndarray, np.ndarray], np.ndarray],
    lower: np.ndarray,
    upper: np.ndarray,
) -> np.ndarray:
    """``box_mask(lower, upper)``, settled a run of boxes at a time.

    ``box_mask`` is the exact two-corner test of a bi-monotone oracle on a
    stack of boxes (see :attr:`OracleSpec.candidate_mask`). The stack is cut
    into runs of ``CERTIFY_RUN`` consecutive boxes, the last one shorter,
    and one ``box_mask`` call tests every run's hull [min lower, max upper]
    and intersection [max lower, min upper]. Every box of a run lies in its
    hull and holds its intersection, so by inclusion (see the module
    docstring) an arm that is not a candidate on the hull is none on any
    box of the run, and an arm that is a candidate on a nonempty
    intersection is one on every box. Runs with an arm left undecided are
    tested box by box in one more call.
    """
    boxes = lower.shape[1]
    starts = np.arange(0, boxes, CERTIFY_RUN)
    lo = np.concatenate((np.minimum.reduceat(lower, starts, 1), np.maximum.reduceat(lower, starts, 1)), axis=1)
    up = np.concatenate((np.maximum.reduceat(upper, starts, 1), np.minimum.reduceat(upper, starts, 1)), axis=1)
    # Hulls, then intersections; an empty intersection settles nothing.
    hull, meet = np.split(box_mask(lo, up) & (lo <= up).all(axis=0), 2, axis=1)
    open_runs = (hull & ~meet).any(axis=0)
    mask = np.repeat(meet, CERTIFY_RUN, axis=1)[:, :boxes]
    if open_runs.any():
        open_boxes = np.repeat(open_runs, CERTIFY_RUN)[:boxes]
        mask[:, open_boxes] = box_mask(lower[:, open_boxes], upper[:, open_boxes])
    return mask


def run_bounds(table: np.ndarray, pulls: np.ndarray, c_lo: np.ndarray, c_hi: np.ndarray, log_const: float,
               log_lo: np.ndarray, log_hi: np.ndarray) -> tuple[np.ndarray, ...]:
    """Boxes that bound the sampler's state boxes over runs of consecutive
    states, from per-arm quantities only.

    With c pulls past ``pulls[i]``, arm i has estimate ``table[i, c]`` and
    box side [clip(e - r), clip(e + r)], r the radius at the state's
    ``log_t``. Over run j, c stays in [``c_lo[i, j]``, ``c_hi[i, j]``] (the
    next run starts at c_hi or one more) and ``log_t`` in [``log_lo[j]``,
    ``log_hi[j]``], extremes over the run's states, so ``math.log`` need not
    be monotone. The estimate then stays in [e_min, e_max], its table row's
    extremes there, and the radius in [r_in, r_out], taken at (log_lo, c_hi)
    and (log_hi, c_lo). IEEE ``+ - * / sqrt`` and ``clip`` are monotone in
    each operand, so every state box of the run holds the inner box
    [clip(e_max - r_in), clip(e_min + r_in)], which may be empty, and lies
    in the outer box [clip(e_min - r_out), clip(e_max + r_out)]; a run of
    one state has both equal to its box. Returns ``(lower, upper, e_min,
    e_max, r_in)``: the inner boxes, then the outer ones, as ``(m, 2 runs)``
    arrays, and the ``(m, runs)`` extremes and inner radii.
    """
    m, width = table.shape
    # Segment j of arm i runs from c_lo[j] to the next cut, and the entry at
    # c_hi[j] completes it; a last cut per arm stops at its own row.
    flat = table.ravel()
    base = np.arange(m)[:, None] * width
    cuts = (np.concatenate((c_lo, c_hi[:, -1:]), axis=1) + base).ravel()
    at_hi = flat[c_hi + base]
    e_min = np.minimum(np.minimum.reduceat(flat, cuts).reshape(m, -1)[:, :-1], at_hi)
    e_max = np.maximum(np.maximum.reduceat(flat, cuts).reshape(m, -1)[:, :-1], at_hi)
    rad = radius_from_logs(log_const, np.append(log_lo, log_hi), pulls[:, None] + np.append(c_hi, c_lo, axis=1))
    lower = np.clip(np.concatenate((e_max, e_min), axis=1) - rad, 0.0, 1.0)
    upper = np.clip(np.concatenate((e_min, e_max), axis=1) + rad, 0.0, 1.0)
    return lower, upper, e_min, e_max, rad[:, : c_lo.shape[1]]


def two_corner_box_mask(
    solve: Callable[[np.ndarray], np.ndarray],
    lower: np.ndarray,
    upper: np.ndarray,
) -> np.ndarray:
    """The two-corner test of every arm on every box of a stack, box by box.

    ``solve`` maps an ``(m, N)`` array of parameter columns to their
    decisions. Arm i's two corners put its parameter at its upper bound and
    every other at its lower one, and the reverse. They are solved for as
    many boxes at a time as keep the ``(m, 2 m boxes)`` corner array within
    ``_MASK_CELLS`` floats, and arm i is a candidate where its own
    component differs between them.
    """
    m, boxes = lower.shape
    arm = np.arange(m)
    step = max(1, _MASK_CELLS // (2 * m * m))
    mask = np.empty((m, boxes), dtype=bool)
    for start in range(0, boxes, step):
        lo, up = lower[:, start : start + step], upper[:, start : start + step]
        width = lo.shape[1]
        corners = np.empty((m, 2, m, width))  # [param, corner, arm, box]
        corners[:, 0] = lo[:, None]
        corners[:, 1] = up[:, None]
        corners[arm, 0, arm] = up
        corners[arm, 1, arm] = lo
        y = solve(corners.reshape(m, 2 * m * width)).reshape(m, 2, m, width)
        own = y[arm, :, arm]  # [arm, corner, box]
        mask[:, start : start + step] = own[:, 0] != own[:, 1]
    return mask


def _maximizer_columns(spec: OracleSpec, theta: np.ndarray) -> np.ndarray:
    """The maximizer of every column, each distinct column solved once: at
    m = 2, arm 0's first corner is arm 1's second."""
    columns = list(map(tuple, theta.T.tolist()))
    solved = {column: spec.maximizer(column) for column in dict.fromkeys(columns)}
    return np.array([solved[column] for column in columns]).T


def block_mask(spec: OracleSpec, lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """The two-corner test of a bi-monotone oracle on a stack of boxes (see
    :attr:`OracleSpec.candidate_mask`): the oracle's own ``candidate_mask``,
    or else :func:`two_corner_box_mask` over one ``maximizer`` call per
    corner, settled by :func:`certified_mask`."""
    if not spec.bi_monotone:
        raise UsageError(f"{spec.name} is not bi-monotone: its boxes have no two-corner test")
    if spec.candidate_mask is not None:
        return spec.candidate_mask(lower, upper)
    return certified_mask(partial(two_corner_box_mask, partial(_maximizer_columns, spec)), lower, upper)
