import json
import math
import os
import sys
import tempfile
import threading
import tracemalloc
from contextlib import ExitStack
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from coci import (
    EstimatorKind,
    LinearCost,
    ParameterVector,
    PointMass,
    PowerCost,
    QuadraticCost,
    UsageError,
    WaterSpec,
    build_instance,
    confidence_radius,
    default_models,
    make_best_arm_oracle,
    make_osa_oracle,
    make_top_k_oracle,
    make_water_oracle,
    run_coci,
    run_uniform,
)
from coci import condition, engine
from coci.sim import BufferedArm, arm_stream

from _reference import (
    CociState, audit_xi, clamp_box, fewest_pulls_picks, grid_points, read_trace, render_trace, scalar_run,
)


@pytest.fixture(scope="module")
def best_arm_instance():
    return build_instance(make_best_arm_oracle(2), (0.9, 0.1), EstimatorKind.MEAN)


class TestBasics:
    def test_singleton_class_stops_at_init(self):
        inst = build_instance(make_best_arm_oracle(1), (0.5,), EstimatorKind.MEAN)
        result = run_coci(inst, 0.1, seed=3)
        assert result.rounds == 1
        assert result.output == (1.0,)
        assert result.per_arm_pulls == (1,)
        inst_k = build_instance(make_top_k_oracle(3, 3), (0.5, 0.4, 0.3), EstimatorKind.MEAN)
        result_k = run_coci(inst_k, 0.1, seed=3)
        assert result_k.rounds == 3
        assert result_k.output == (1.0, 1.0, 1.0)

    def test_seeded_regression(self, best_arm_instance):
        result = run_coci(best_arm_instance, 0.05, seed=42)
        assert result.output == (1.0, 0.0)
        assert result.correct is True
        assert result.converged is True
        # regression pin for this seed
        assert result.rounds == 99
        assert result.per_arm_pulls == (50, 49)

    def test_determinism(self, best_arm_instance):
        a = run_coci(best_arm_instance, 0.05, seed=1234)
        b = run_coci(best_arm_instance, 0.05, seed=1234)
        assert a == b
        c = run_uniform(best_arm_instance, 0.05, seed=1234)
        d = run_uniform(best_arm_instance, 0.05, seed=1234)
        assert c == d

    def test_pull_accounting(self, best_arm_instance):
        result = run_coci(best_arm_instance, 0.1, seed=5)
        assert sum(result.per_arm_pulls) == result.rounds
        assert all(p >= 1 for p in result.per_arm_pulls)

    def test_variance_kind_initializes_two_pulls(self):
        inst = build_instance(
            make_osa_oracle((1, 1), 4), (0.25, 0.01), EstimatorKind.VARIANCE
        )
        result = run_coci(inst, 0.2, seed=8)
        assert all(p >= 2 for p in result.per_arm_pulls)
        assert result.correct is True

    def test_delta_range(self, best_arm_instance):
        with pytest.raises(UsageError):
            run_coci(best_arm_instance, 0.0, seed=1)

    def test_settings_after_delta_are_keyword_only(self, best_arm_instance):
        # A positional third argument is not silently read as the seed.
        for run in (run_coci, run_uniform):
            with pytest.raises(TypeError):
                run(best_arm_instance, 0.05, 42)

    def test_seed_is_integers(self, best_arm_instance):
        assert run_coci(best_arm_instance, 0.05, seed=np.int64(3)) == run_coci(best_arm_instance, 0.05, seed=3)
        assert run_coci(best_arm_instance, 0.05, seed=[np.int64(1), 2]).seed == (1, 2)
        for seed in (2.5, (1.5, 2), -1, (3, -1), True, (True, 2), "12", None, (), [], np.array([1, 2])):
            with pytest.raises(UsageError):
                run_coci(best_arm_instance, 0.05, seed=seed)

    def test_max_rounds_is_an_integer(self, best_arm_instance):
        assert run_coci(best_arm_instance, 0.05, seed=42, max_rounds=np.int64(2)).rounds == 2
        for cap in (6.5, True, "10", np.array([5, 6])):
            with pytest.raises(UsageError):
                run_coci(best_arm_instance, 0.05, seed=42, max_rounds=cap)

    def test_lambda_lower_is_finite_and_nonnegative(self, best_arm_instance):
        # Bools and strings are refused too: True would run as 1.0. So are
        # an iterator and a bare number, which have no length.
        for lam in (
            (math.nan, 0.4), (0.4, math.inf), (-0.1, 0.4), (True, 0.4), (0.4, np.True_), ("0.4", 0.4),
            iter([0.4, 0.4]), 5,
        ):
            with pytest.raises(UsageError):
                run_coci(best_arm_instance, 0.05, seed=42, lambda_lower=lam)
        numpy = run_coci(best_arm_instance, 0.05, seed=42, lambda_lower=(np.float64(0.4), np.int64(1)))
        assert numpy == run_coci(best_arm_instance, 0.05, seed=42, lambda_lower=(0.4, 1.0))

    def test_h_lambda_must_be_a_hardness(self, best_arm_instance):
        # NaN used to run with no bound under the default cap, and True
        # with the bound of 1.0 and its cap; None and +inf set no bound.
        for h in (math.nan, -math.inf, -1.0, 0.0, True, "5"):
            with pytest.raises(UsageError):
                run_coci(best_arm_instance, 0.05, seed=42, h_lambda=h)
        plain = run_coci(best_arm_instance, 0.05, seed=42)
        assert run_coci(best_arm_instance, 0.05, seed=42, h_lambda=math.inf) == plain
        assert plain.bound_value is None and plain.bound_satisfied is None

    def test_max_rounds_must_cover_the_set_up_pulls(self, best_arm_instance):
        # tau * m set-up pulls: 2 for means at m = 2, 6 for variances at m = 3.
        osa = build_instance(make_osa_oracle((2, 1, 1), 8), (0.2, 0.1, 0.05), EstimatorKind.VARIANCE)
        for instance, pulls in ((best_arm_instance, 2), (osa, 6)):
            for run in (run_coci, run_uniform):
                for cap in (0, pulls - 1):
                    with pytest.raises(UsageError, match="cannot cover initialization"):
                        run(instance, 0.05, seed=42, max_rounds=cap)
                result = run(instance, 0.05, seed=42, max_rounds=pulls)
                assert (result.rounds, result.converged) == (pulls, False)

    def test_max_rounds_budget(self, best_arm_instance):
        result = run_coci(best_arm_instance, 0.05, seed=42, max_rounds=2)
        assert result.converged is False
        assert result.rounds == 2
        assert len(result.output) == 2


class TestDegenerateArms:
    def test_point_mass_always_correct(self):
        inst = build_instance(
            make_best_arm_oracle(2),
            (0.8, 0.2),
            EstimatorKind.MEAN,
            models=(PointMass(0.8), PointMass(0.2)),
        )
        result = run_coci(inst, 0.05, seed=0)
        assert result.correct is True
        assert result.xi_held is True
        # trajectory does not depend on the seed at all: samples are constant
        a, b = run_coci(inst, 0.05, seed=99), run_coci(inst, 0.05, seed=100)
        assert (a.output, a.rounds, a.per_arm_pulls) == (b.output, b.rounds, b.per_arm_pulls)

    def test_stops_once_radii_below_separation(self, tmp_path):
        inst = build_instance(
            make_best_arm_oracle(2),
            (0.8, 0.2),
            EstimatorKind.MEAN,
            models=(PointMass(0.8), PointMass(0.2)),
        )
        run_coci(inst, 0.05, seed=0, trace_path=tmp_path / "trace.jsonl")
        final = read_trace(tmp_path / "trace.jsonl")[-1]
        assert final.candidates == ()
        # Estimates are exact, so intervals [0.8 - r, 0.8 + r] and
        # [0.2 - r', 0.2 + r'] must have separated once stopping happened.
        assert final.upper[1] < final.lower[0]


class TestUniform:
    def test_round_robin_after_init(self, best_arm_instance, tmp_path):
        run_uniform(best_arm_instance, 0.1, seed=21, trace_path=tmp_path / "trace.jsonl")
        pulled = [s.arm for s in read_trace(tmp_path / "trace.jsonl")[1:9]]
        assert pulled == [0, 1, 0, 1, 0, 1, 0, 1]

    def test_symmetric_instance_close_to_adaptive(self):
        # Equal flip radii: adaptive and uniform pulls differ by at most m
        # per arm at stopping.
        inst = build_instance(make_best_arm_oracle(2), (0.7, 0.3), EstimatorKind.MEAN)
        a = run_coci(inst, 0.1, seed=17)
        u = run_uniform(inst, 0.1, seed=17)
        for pa, pu in zip(a.per_arm_pulls, u.per_arm_pulls):
            assert abs(pa - pu) <= 2

    def test_singleton_same_as_adaptive(self):
        inst = build_instance(make_best_arm_oracle(1), (0.4,), EstimatorKind.MEAN)
        assert run_uniform(inst, 0.1, seed=3).rounds == run_coci(inst, 0.1, seed=3).rounds


def _off_truth(offset):
    """A top-1 instance whose declared first parameter is ``offset`` below
    its arm's mean, so that xi fails once the radii shrink below it."""
    instance = build_instance(make_top_k_oracle(3, 1), (0.6, 0.5, 0.2), EstimatorKind.MEAN)
    object.__setattr__(instance, "true_params", ParameterVector((0.6 - offset, 0.5, 0.2)))
    return instance


class TestTrace:
    """A traced run streams one JSON line per round to its trace file."""

    def test_trace_consistency(self, best_arm_instance, tmp_path):
        path = tmp_path / "trace.jsonl"
        result = run_coci(best_arm_instance, 0.05, seed=11, trace_path=path)
        assert repr(result) == repr(run_coci(best_arm_instance, 0.05, seed=11))
        trace = read_trace(path)
        assert len(trace) == result.rounds - 1
        first = trace[0]
        assert first.t == 2 and first.arm is None and first.observation is None
        for state in trace:
            assert sum(state.pulls) == state.t
            for e, r, lo, hi in zip(state.estimates, state.radii, state.lower, state.upper):
                assert lo == max(0.0, min(1.0, e - r))
                assert hi == min(1.0, max(0.0, e + r))
        assert trace[-1].candidates == ()
        assert all(s.candidates for s in trace[:-1])
        assert trace[-1].pulls == result.per_arm_pulls

    def test_uniform_trace_consistency(self, best_arm_instance, tmp_path):
        path = tmp_path / "trace.jsonl"
        traced = run_uniform(best_arm_instance, 0.05, seed=11, trace_path=path)
        assert repr(traced) == repr(run_uniform(best_arm_instance, 0.05, seed=11))
        assert read_trace(path)[-1].pulls == traced.per_arm_pulls

    def test_trace_file_roundtrip(self, best_arm_instance, tmp_path):
        path = tmp_path / "trace.jsonl"
        run_coci(best_arm_instance, 0.2, seed=2, trace_path=path)
        keys = ["t", "arm", "observation", "pulls", "estimates", "radii", "lower", "upper", "candidates"]
        for line in path.read_text().splitlines():
            obj = json.loads(line)
            assert list(obj) == keys and json.dumps(obj) == line
        assert render_trace(read_trace(path)) == path.read_bytes()

    def test_observations_are_the_arms_samples(self, best_arm_instance, tmp_path):
        # A sample can be read again from its arm's stream, keyed by (seed, arm).
        path = tmp_path / "trace.jsonl"
        result = run_coci(best_arm_instance, 0.05, seed=11, trace_path=path)
        seen = [[] for _ in result.per_arm_pulls]
        for state in read_trace(path)[1:]:
            seen[state.arm].append(state.observation)
        for i, samples in enumerate(seen):
            stream = BufferedArm(best_arm_instance.arm_models[i], arm_stream(result.seed, i))
            assert stream.peek(result.per_arm_pulls[i]).tolist()[1:] == samples

    def test_audit_xi_matches_incremental(self, best_arm_instance, tmp_path):
        path = tmp_path / "trace.jsonl"
        held = []
        for instance, delta in ((best_arm_instance, 0.3), (_off_truth(0.08), 0.1)):
            for seed in range(4):
                for run in (run_coci, run_uniform):
                    result = run(instance, delta, seed=seed, max_rounds=5000, trace_path=path)
                    assert audit_xi(read_trace(path), instance.true_params.values) == result.xi_held
                    held.append(result.xi_held)
        assert True in held and False in held

    def test_radii_match_reference_formula(self, best_arm_instance, tmp_path):
        run_coci(best_arm_instance, 0.05, seed=11, trace_path=tmp_path / "trace.jsonl")
        for state in read_trace(tmp_path / "trace.jsonl"):
            for pulls_i, rad_i in zip(state.pulls, state.radii):
                assert rad_i == confidence_radius(state.t, pulls_i, 1, 0.05)
            box = clamp_box(state.estimates, state.radii)
            assert (state.lower, state.upper) == (box.lower, box.upper)

    def test_audit_xi_detects_violation(self, tmp_path):
        state = CociState(2, None, None, (1, 1), (0.5, 0.5), (0.01, 0.01), (0.49, 0.49), (0.51, 0.51), ())
        path = tmp_path / "trace.jsonl"
        path.write_bytes(render_trace([state]))
        assert audit_xi(read_trace(path), (0.9, 0.5)) is False
        assert audit_xi(read_trace(path), (0.5, 0.505)) is True
        with pytest.raises(UsageError):
            audit_xi(read_trace(path), (0.5, 0.5, 0.5))

    def test_audit_xi_rejects_truncated_trace(self, best_arm_instance, tmp_path):
        path = tmp_path / "trace.jsonl"
        run_coci(best_arm_instance, 0.05, seed=11, trace_path=path)
        lines = path.read_text().splitlines(keepends=True)
        for broken in (lines[1:][::2], lines[:3] + lines[4:], lines[1::-1], []):
            path.write_text("".join(broken))
            with pytest.raises(UsageError):
                audit_xi(read_trace(path), best_arm_instance.true_params.values)

    def test_memory_stays_flat_in_the_rounds(self):
        # The trace goes to the file block by block: a traced run's peak
        # memory does not grow with its rounds.
        instance = build_instance(make_best_arm_oracle(8), (0.75, 0.7) + (0.3,) * 6, EstimatorKind.MEAN)  # c09
        engine._logs(1, 80_002)  # the level table, shared by every run
        peaks = []
        for cap in (5_000, 80_000):
            tracemalloc.start()
            result = run_uniform(instance, 0.1, seed=0, max_rounds=cap, trace_path=os.devnull)
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
            assert result.rounds == cap
        assert peaks[1] <= 1.5 * peaks[0], peaks


class TestPullOrder:
    """The sampler picks arms by pull count; that must be radius order."""

    @given(
        m=st.integers(1, 8),
        tau=st.sampled_from([1, 2]),
        delta=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        data=st.data(),
    )
    def test_radius_order_is_pull_order(self, m, tau, delta, data):
        assume(math.isfinite(4.0 / (tau * delta)))
        # A small pool of pull counts, with neighbours, so ties and
        # near-ties occur.
        base = data.draw(st.lists(st.integers(tau, 4 * 10**6 - 1), min_size=1, max_size=3))
        pool = base + [p + 1 for p in base]
        pulls = data.draw(st.lists(st.sampled_from(pool), min_size=m, max_size=m))
        t = sum(pulls) + data.draw(st.integers(0, 2**40))
        by_radius = sorted(
            range(m), key=lambda a: (-confidence_radius(t, pulls[a], tau, delta), a)
        )
        assert by_radius == sorted(range(m), key=pulls.__getitem__)

    @given(
        pulls=st.lists(st.integers(1, 12), min_size=1, max_size=9),
        n=st.integers(1, 60),
    )
    def test_uniform_guess_is_the_pull_count_argmin(self, pulls, n):
        # The uniform mask branch trusts its guesses: over all arms, every
        # guessed pick is the fewest-pulled arm, ties to the lower index, of
        # the counts the earlier picks produce.
        counts = np.array(pulls, dtype=np.int64)
        order = engine._next_picks(counts, np.ones(len(pulls), dtype=bool), np.arange(n))[0]
        assert len(order) == n
        for pick in order.tolist():
            assert pick == int(counts.argmin())
            counts[pick] += 1

    @settings(max_examples=400)
    @given(m=st.integers(1, 8), tight=st.booleans(), data=st.data())
    def test_pick_counts_match_the_pick_sequence(self, m, tight, data):
        # A block reads its pull counts and picks from the rule's levels;
        # they must equal the picks made one at a time and their running
        # counts, at every column or any subset, past the block's last state
        # too. An allowed arm far ahead joins past the last column.
        pulls, allowed = _pulls_and_allowed(data, m, tight)
        size = data.draw(st.integers(0, 300))
        guess = np.array(fewest_pulls_picks(pulls.tolist(), allowed.tolist(), size + 2), dtype=np.int64)
        counts = np.zeros((m, size + 2), dtype=np.int64)
        np.cumsum(guess[:-1] == np.arange(m)[:, None], axis=1, out=counts[:, 1:])
        every = list(range(size + 2))
        cols = data.draw(st.one_of(st.just(every), st.lists(st.sampled_from([0, size, size + 1] + every), max_size=20)))
        at, picks = engine._pick_counts(pulls, allowed, cols)
        assert at.tolist() == counts[:, cols].tolist()
        assert picks.tolist() == guess[cols].tolist()
        # Each picked arm's pulls before its pick.
        arm, n = engine._next_picks(pulls, allowed, cols)
        assert arm.tolist() == guess[cols].tolist()
        assert n.tolist() == (pulls[arm] + counts[arm, cols]).tolist()

    @settings(max_examples=200)
    @given(m=st.integers(2, 8), tight=st.booleans(), data=st.data())
    def test_plan_reads_match_pick_counts(self, m, tight, data):
        # Every read of the plan cache equals _pick_counts at states 0 to
        # size: a smaller read after a larger one of the same key (a prefix
        # of its entry), a key read again after it was evicted, pulls
        # shifted by a constant (the same key), plans larger than the
        # budget (not kept), and any sequence of reads after those. The
        # cached arrays are read-only and never hold more cells than the
        # budget.
        first, second = _pulls_and_allowed(data, m, tight), _pulls_and_allowed(data, m, tight)
        second[1][:] = ~first[1]  # a different key: the allowed sets differ
        second[1][0] = True
        cases = [first, second, _pulls_and_allowed(data, m, tight)]
        big, other = data.draw(st.integers(1, 300)), data.draw(st.integers(1, 300))
        budget = m * (max(big, other) + 1)  # either plan fits, not both
        reads = [(0, big, 0), (0, data.draw(st.integers(0, big)), 1), (1, other, 0), (0, big, 2)]
        reads += data.draw(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 300), st.integers(0, 5)), max_size=10))
        engine._PLANS.clear()
        with mock.patch.object(engine, "_PLAN_CELLS", budget):
            for n, (case, size, shift) in enumerate(reads):
                pulls, allowed = cases[case]
                at, picks = engine._plan(pulls + shift, allowed, size)
                want_at, want_picks = engine._pick_counts(pulls + shift, allowed, np.arange(size + 1))
                assert at.tolist() == want_at.tolist() and picks.tolist() == want_picks.tolist()
                plans = list(engine._PLANS.values())
                assert all(not array.flags.writeable for plan in plans for array in plan)
                assert sum(counts.size for counts, _ in plans) <= budget
                if n == 1:  # the same key, read from its entry
                    assert len(plans) == 1 and plans[0][1].size == big + 1
                if n == 2:  # the second plan evicted the first
                    assert len(plans) == 1 and plans[0][1].size == other + 1

    def test_plan_cache_evicts_the_least_recently_read(self):
        # Three keys of 11 states each at m = 3, with room for two: a read
        # of the first key after the second keeps it, so the third evicts
        # the second.
        engine._PLANS.clear()
        allowed = np.ones(3, dtype=bool)
        keys = [np.array(k, dtype=np.int64) for k in ([0, 0, 0], [0, 1, 0], [0, 0, 1])]
        with mock.patch.object(engine, "_PLAN_CELLS", 2 * 3 * 11):
            for key, size in ((0, 10), (1, 10), (0, 5), (2, 10)):
                engine._plan(keys[key] + 7, allowed, size)
        assert list(engine._PLANS) == [keys[0].tobytes(), keys[2].tobytes()]

    def test_run_inputs_rejected(self, best_arm_instance):
        with pytest.raises(UsageError, match="no arm models"):
            run_coci(replace(best_arm_instance, arm_models=()), 0.1, seed=0)
        with pytest.raises(UsageError, match="one entry per arm"):
            run_coci(best_arm_instance, 0.1, seed=0, lambda_lower=(0.1,))

    def test_infinite_radius_delta_rejected(self, best_arm_instance):
        # 4 / (tau delta) overflows: every radius would be inf, all tied.
        with pytest.raises(UsageError):
            confidence_radius(10, 5, 2, 5e-309)
        with pytest.raises(UsageError):
            run_coci(best_arm_instance, 1e-320, seed=0)


class TestWaterApplication:
    def test_full_run_on_coarse_grid(self):
        from coci import QuadraticCost, WaterSpec, make_water_oracle

        spec = WaterSpec(
            b=1.0, caps=(1.0, 1.0), costs=(QuadraticCost(), QuadraticCost()), grid_step=0.5
        )
        oracle = make_water_oracle(spec)
        assert oracle.bi_monotone is True
        inst = build_instance(oracle, (0.9, 0.1), EstimatorKind.MEAN)
        inst.check_unique_optimum()
        result = run_coci(inst, 0.1, seed=4)
        assert result.converged
        assert result.correct is True
        assert result.output == (0.5, 0.5)


class TestStoppingSoundness:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_decision_constant_over_final_box(self, seed):
        inst = build_instance(make_best_arm_oracle(3), (0.8, 0.5, 0.2), EstimatorKind.MEAN)
        result = run_coci(inst, 0.1, seed=seed)
        assert result.converged
        decisions = {
            inst.oracle.maximizer(p)
            for p in grid_points(result.final_box.lower, result.final_box.upper, 21)
        }
        assert decisions == {result.output}


class TestBoundPlumbing:
    def test_bound_fields(self, best_arm_instance):
        h = 2.0 / 0.4**2
        result = run_coci(best_arm_instance, 0.05, seed=42, h_lambda=h)
        expected = 4 + 12 * h * math.log(24 * h) + 4 * h * math.log(4 / 0.05)
        assert result.bound_value == pytest.approx(expected)
        assert result.bound_satisfied is (result.rounds <= result.bound_value)

    def test_lemma_instrumentation_zero_when_xi_holds(self, best_arm_instance):
        result = run_coci(
            best_arm_instance, 0.05, seed=42, lambda_lower=(0.4, 0.4)
        )
        assert result.xi_held
        assert result.lemma_violations == 0


def _pulls_and_allowed(data, m, tight):
    """Pull counts close together (``tight``) or spread out, and an allowed
    mask of at least one arm, sometimes with an allowed arm far ahead."""
    low, high = (100, 102) if tight else (1, 30)
    pulls = np.array(data.draw(st.lists(st.integers(low, high), min_size=m, max_size=m)), dtype=np.int64)
    allowed = np.array(data.draw(st.lists(st.booleans(), min_size=m, max_size=m)))
    allowed[data.draw(st.integers(0, m - 1))] = True
    if data.draw(st.booleans()):
        ahead = data.draw(st.integers(0, m - 1))
        allowed[ahead] = True
        pulls[ahead] += data.draw(st.sampled_from([40, 10**6]))
    return pulls, allowed


def _settings(draw, m, tau):
    """Run settings: an int or tuple seed, a round cap, sometimes the
    half-flip-radius audit, traced or not."""
    seed = draw(st.one_of(st.integers(0, 2**32), st.tuples(st.integers(0, 99), st.integers(0, 99))))
    kwargs = {"seed": seed, "max_rounds": draw(st.integers(tau * m, 6000)), "traced": draw(st.booleans())}
    if draw(st.booleans()):
        kwargs["lambda_lower"] = draw(st.lists(st.floats(0.05, 1.0), min_size=m, max_size=m))
    return kwargs


def _fast(run, instance, delta, *, traced=False, **kwargs):
    """``run``'s result and, when ``traced``, the bytes of its trace file.
    The file goes to a temporary directory: Hypothesis refuses
    function-scoped fixtures such as ``tmp_path``."""
    if not traced:
        return run(instance, delta, **kwargs), None
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.jsonl"
        return run(instance, delta, trace_path=path, **kwargs), path.read_bytes()


def _slow(instance, delta, *, uniform, traced=False, **kwargs):
    """``scalar_run``'s result and, when ``traced``, its trace rendered as
    a trace file."""
    if not traced:
        return scalar_run(instance, delta, uniform=uniform, **kwargs), None
    result, trace = scalar_run(instance, delta, uniform=uniform, record_trace=True, **kwargs)
    return result, render_trace(trace)


def _same(fast, slow):
    """The block loop's run equals the reference's: the same ``RunResult``
    repr and the same trace-file bytes."""
    assert repr(fast[0]) == repr(slow[0])
    assert fast[1] == slow[1]


@st.composite
def _top_k_runs(draw):
    """A random top-k instance and run settings: mean or variance
    estimates, some point-mass arms, an int or tuple seed, a round cap,
    sometimes the half-flip-radius audit, traced or not."""
    m = draw(st.integers(1, 8))
    k = draw(st.integers(1, m))
    kind = draw(st.sampled_from([EstimatorKind.MEAN, EstimatorKind.VARIANCE]))
    top = 1.0 if kind is EstimatorKind.MEAN else 0.25
    grid = [top * j / 8 for j in range(9)]
    theta, models = [], []
    for _ in range(m):
        if draw(st.integers(0, 3)) == 0:
            v = draw(st.sampled_from(grid[:5]))
            theta.append(v if kind is EstimatorKind.MEAN else 0.0)
            models.append(PointMass(v))
        else:
            theta.append(draw(st.sampled_from(grid)))
            models.append(default_models((theta[-1],), kind)[0])
    instance = build_instance(make_top_k_oracle(m, k), theta, kind, models=models)
    return instance, draw(st.floats(0.05, 0.6)), _settings(draw, m, kind.tau)


@st.composite
def _exact_runs(draw):
    """A run on an oracle without its own candidate mask: OSA allocation
    with variance estimates and the mask removed, water planning with
    quadratic or linear (bi-monotone) or concave (corner enumeration) costs,
    or top-k with the mask removed or the bi-monotone flag cleared; traced
    or not. The bi-monotone ones are checked by the generic two-corner mask."""
    m = draw(st.integers(2, 3))
    apps = ["osa", "water-quadratic", "water-linear", "water-concave", "top-k-no-mask", "top-k-corners"]
    app = draw(st.sampled_from(apps))
    grid = [j / 8 for j in range(9)]
    if app == "osa":
        kind = EstimatorKind.VARIANCE
        n = draw(st.lists(st.integers(1, 5), min_size=m, max_size=m))
        oracle = replace(make_osa_oracle(n, draw(st.integers(m, 10))), candidate_mask=None)
        theta = draw(st.lists(st.sampled_from([v / 4 for v in grid]), min_size=m, max_size=m))
    else:
        kind = EstimatorKind.MEAN
        theta = draw(st.lists(st.sampled_from(grid), min_size=m, max_size=m))
        if app.startswith("water"):
            if app == "water-quadratic":
                cost = QuadraticCost(1.0)
            elif app == "water-linear":
                cost = LinearCost(draw(st.sampled_from([0.0, 0.25])))
            else:
                cost = PowerCost(1.0, 0.5)
            oracle = make_water_oracle(WaterSpec(b=0.5 * m, caps=(1.0,) * m, costs=(cost,) * m, grid_step=0.5))
            assert oracle.bi_monotone is (app != "water-concave")
        else:
            oracle = make_top_k_oracle(m, draw(st.integers(1, m)))
            oracle = replace(oracle, candidate_mask=None, bi_monotone=app == "top-k-no-mask")
    instance = build_instance(oracle, theta, kind)
    kwargs = _settings(draw, m, kind.tau)
    kwargs["max_rounds"] = min(kwargs["max_rounds"], 1500)
    return instance, draw(st.floats(0.05, 0.6)), kwargs


@st.composite
def _osa_runs(draw):
    """An OSA allocation instance that keeps its candidate mask: m = 1..4,
    group sizes 1..6, variance estimates, and run settings."""
    m = draw(st.integers(1, 4))
    n = draw(st.lists(st.integers(1, 6), min_size=m, max_size=m))
    oracle = make_osa_oracle(n, draw(st.integers(m, 14)))
    theta = draw(st.lists(st.sampled_from([j / 32 for j in range(9)]), min_size=m, max_size=m))
    instance = build_instance(oracle, theta, EstimatorKind.VARIANCE)
    kwargs = _settings(draw, m, EstimatorKind.VARIANCE.tau)
    kwargs["max_rounds"] = min(kwargs["max_rounds"], 1500)
    return instance, draw(st.floats(0.05, 0.6)), kwargs


def _counted(instance):
    """A copy of the instance whose oracle counts its maximizer calls."""
    calls = [0]
    maximizer = instance.oracle.maximizer

    def count(theta):
        calls[0] += 1
        return maximizer(theta)

    return replace(instance, oracle=replace(instance.oracle, maximizer=count)), calls


def _counted_mask(instance):
    """A copy of the instance whose oracle counts its candidate-mask calls."""
    calls = [0]
    mask = instance.oracle.candidate_mask

    def count(lower, upper):
        calls[0] += 1
        return mask(lower, upper)

    return replace(instance, oracle=replace(instance.oracle, candidate_mask=count)), calls


# Block caps: short ones put misses at block edges, 1-round blocks and the
# state handed to the next block within reach of short runs.
_CAPS = st.sampled_from([1, 2, 7, 64, engine._BLOCK_ROUNDS])
# Certified-mask and pre-pass run lengths: short ones put the edges of the
# runs that one pair of boxes settles within reach of short runs.
_RUNS = st.sampled_from([1, 3, condition.CERTIFY_RUN])
# Stable caps in estimate-table cells: 1 never grows a block, a few hundred
# stop a doubling short of twice the block before, in coci sooner than in
# uniform, and put grown blocks, and open runs in them, within reach of
# short runs; the last is the shipped cap.
_CELLS = st.sampled_from([1, 200, 700, engine._STABLE_CELLS])


def _patched(cap, run_length, prepass=False, cells=None):
    """The block cap, the stable cell cap (when given) and the run length of
    the pre-pass and of ``certified_mask``, patched; with ``prepass``, every
    block of at least the block cap takes the pre-pass, whatever came
    before it, and none is smaller."""
    stack = ExitStack()
    stack.enter_context(mock.patch.object(engine, "_BLOCK_ROUNDS", cap))
    if cells is not None:
        stack.enter_context(mock.patch.object(engine, "_STABLE_CELLS", cells))
    stack.enter_context(mock.patch.object(engine, "_PREPASS_RUN", run_length))
    stack.enter_context(mock.patch.object(condition, "CERTIFY_RUN", run_length))
    if prepass:
        stack.enter_context(mock.patch.object(engine, "_BLOCK_ROUNDS_MIN", cap))
        stack.enter_context(mock.patch.object(engine, "_STABLE_BLOCKS", 0))
    return stack


def _logged_blocks():
    """Patches that log every block as a dict: its size (from its one call
    to ``_logs``, for the levels of its states), its allowed arm count, the
    arm count ``m`` of its mask calls, whether it took the pre-pass and the
    (m, boxes) shape of that mask call (``settle``), the number of states
    it read pull counts at, and the box count of each of its other
    ``block_mask`` calls. Pull counts read from
    the plan cache count once, hit or miss. Also the pull counts at its
    first state (``pulls``), each arm's pulls past them at its last state
    (``last``, from its first read, which ends there), and how often it
    built the read-ahead (``built``, its ``estimate_from_sums`` calls)."""
    blocks = []
    levels, counted, planned = engine._logs, engine._pick_counts, engine._plan
    bounds, mask, estimates = condition.run_bounds, engine.block_mask, engine.estimate_from_sums
    planning = [False]  # inside a plan read, whose own _pick_counts call is not logged

    def logs(start, stop):
        blocks.append({"size": stop - start - 1, "allowed": None, "m": None, "prepass": False, "settle": None,
                       "columns": 0, "boxes": [], "pulls": None, "last": None, "built": 0})
        return levels(start, stop)

    def log_read(pulls, allowed, columns, at):
        block = blocks[-1]
        if block["allowed"] is None:
            block["allowed"] = int(np.count_nonzero(allowed))
            block["pulls"], block["last"] = pulls.copy(), at[:, -1].copy()
        block["columns"] += columns

    def pick_counts(pulls, allowed, cols):
        at, picks = counted(pulls, allowed, cols)
        if not planning[0]:
            log_read(pulls, allowed, len(cols), at)
        return at, picks

    def plan(pulls, allowed, size):
        planning[0] = True
        try:
            at, picks = planned(pulls, allowed, size)
        finally:
            planning[0] = False
        log_read(pulls, allowed, size + 1, at)
        return at, picks

    def build(*args):
        blocks[-1]["built"] += 1
        return estimates(*args)

    def prepass(*args):
        blocks[-1]["prepass"] = True  # the pre-pass mask call comes next
        return bounds(*args)

    def per_state(oracle, lower, upper):
        block = blocks[-1]
        block["m"] = lower.shape[0]
        if block["prepass"] and block["settle"] is None:
            block["settle"] = lower.shape
        else:
            block["boxes"].append(lower.shape[1])
        return mask(oracle, lower, upper)

    stack = ExitStack()
    stack.enter_context(mock.patch.object(engine, "_logs", logs))
    stack.enter_context(mock.patch.object(engine, "_pick_counts", pick_counts))
    stack.enter_context(mock.patch.object(engine, "_plan", plan))
    stack.enter_context(mock.patch.object(condition, "run_bounds", prepass))
    stack.enter_context(mock.patch.object(engine, "block_mask", per_state))
    stack.enter_context(mock.patch.object(engine, "estimate_from_sums", build))
    return stack, blocks


def _checked_rounds():
    """Patches that log every block as the round of its state ``size``, the
    last it reaches (from its one call to ``_logs``), and the set of rounds
    of the states it forms boxes of, each state's round being the sum of its
    pull counts. A run forms boxes only to check states."""
    blocks = []
    levels, states = engine._logs, engine._states

    def logs(start, stop):
        blocks.append((stop - 1, set()))
        return levels(start, stop)

    def boxes(table, pulls, at, *args):
        blocks[-1][1].update((pulls.sum() + at.sum(axis=0)).tolist())
        return states(table, pulls, at, *args)

    stack = ExitStack()
    stack.enter_context(mock.patch.object(engine, "_logs", logs))
    stack.enter_context(mock.patch.object(engine, "_states", boxes))
    return stack, blocks


def _check_parts(blocks, most):
    """Every mask call's (m, m, boxes) top-k array stays within
    ``_BLOCK_CELLS``. A block's per-state mask calls, traced or not: one of
    the block's states, at most ``most + 1``, or after a pre-pass parts of
    at most ``most``."""
    for block in blocks:
        calls = block["boxes"] + ([block["settle"][1]] if block["prepass"] else [])
        assert all(block["m"] ** 2 * n <= engine._BLOCK_CELLS for n in calls), block
        assert all(n <= (most if block["prepass"] else most + 1) for n in block["boxes"]), block
        assert block["prepass"] or len(block["boxes"]) == 1


class TestBlockLoop:
    """Every run takes the block loop; it must equal the round-at-a-time
    reference ``scalar_run`` on every ``RunResult`` field, whether its picks
    are checked by a candidate mask or by corner enumeration, traced or
    not, whatever the block cap and run length, and with the pre-pass on
    the stable blocks only or on every block."""

    @settings(max_examples=60, deadline=None)
    @given(
        case=_top_k_runs(), run=st.sampled_from([run_coci, run_uniform]), cap=_CAPS, run_length=_RUNS,
        prepass=st.booleans(), cells=_CELLS,
    )
    def test_matches_scalar_loop(self, case, run, cap, run_length, prepass, cells):
        instance, delta, kwargs = case
        logging, blocks = _logged_blocks()
        with _patched(cap, run_length, prepass, cells), logging:
            fast = _fast(run, instance, delta, **kwargs)
        _same(fast, _slow(instance, delta, uniform=run is run_uniform, **kwargs))
        _check_parts(blocks, cap)

    @settings(max_examples=60, deadline=None)
    @given(
        case=_exact_runs(), run=st.sampled_from([run_coci, run_uniform]), cap=_CAPS, run_length=_RUNS,
        prepass=st.booleans(), cells=_CELLS,
    )
    def test_exact_checks_match_scalar_loop(self, case, run, cap, run_length, prepass, cells):
        instance, delta, kwargs = case
        (fast, fast_calls), (slow, slow_calls) = _counted(instance), _counted(instance)
        with _patched(cap, run_length, prepass, cells):
            fast_run = _fast(run, fast, delta, **kwargs)
        _same(fast_run, _slow(slow, delta, uniform=run is run_uniform, **kwargs))
        # Untraced uniform corner enumeration tests arms in the reference's
        # order; a wrong coci guess adds one full candidate set, a trace
        # tests every arm again, and a mask tests every state.
        if run is run_uniform and not kwargs["traced"] and not instance.oracle.bi_monotone:
            assert fast_calls[0] == slow_calls[0]

    @settings(max_examples=60, deadline=None)
    @given(
        case=_osa_runs(), run=st.sampled_from([run_coci, run_uniform]), cap=_CAPS, run_length=_RUNS,
        prepass=st.booleans(), cells=_CELLS,
    )
    def test_osa_mask_matches_scalar_loop(self, case, run, cap, run_length, prepass, cells):
        instance, delta, kwargs = case
        fast, calls = _counted(instance)
        logging, blocks = _logged_blocks()
        with _patched(cap, run_length, prepass, cells), logging:
            fast_run = _fast(run, fast, delta, **kwargs)
        _same(fast_run, _slow(instance, delta, uniform=run is run_uniform, **kwargs))
        _check_parts(blocks, cap)
        # The mask checks every guessed pick, traced states included. The
        # maximizer serves only the exact test at the stopping state (2m
        # calls at most), the output and the true optimum.
        assert calls[0] <= 2 * instance.oracle.arm_count + 2

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_exact_checks_oracle_calls(self, seed):
        # Without its own mask, a bi-monotone oracle's blocks are checked by
        # the generic two-corner mask, whose certified runs of states need
        # fewer maximizer calls than a two-corner test per round.
        oracle = replace(make_osa_oracle((5, 1, 1), 10), candidate_mask=None)
        osa = build_instance(oracle, (0.25, 0.01, 0.01), EstimatorKind.VARIANCE)
        for run in (run_coci, run_uniform):
            (fast, fast_calls), (slow, slow_calls) = _counted(osa), _counted(osa)
            assert repr(run(fast, 0.05, seed=seed)) == repr(
                scalar_run(slow, 0.05, uniform=run is run_uniform, seed=seed)
            )
            assert fast_calls[0] < slow_calls[0]

    @pytest.mark.parametrize(
        "theta, kind, run",
        [
            # The c09 instance: about 60k rounds, across many full blocks.
            ((0.75, 0.7, 0.3, 0.3, 0.3, 0.3, 0.3, 0.3), EstimatorKind.MEAN, run_coci),
            # Variance estimates, with final boxes clear of the cube's faces.
            ((0.24, 0.16, 0.05), EstimatorKind.VARIANCE, run_uniform),
        ],
        ids=["c09-coci", "variance-uniform"],
    )
    def test_matches_scalar_loop_on_long_runs(self, theta, kind, run):
        instance = build_instance(make_best_arm_oracle(len(theta)), theta, kind)
        logging, blocks = _logged_blocks()
        with logging:
            fast = run(instance, 0.1, seed=20240605)
        assert fast.rounds > 20_000
        assert repr(fast) == repr(scalar_run(instance, 0.1, uniform=run is run_uniform, seed=20240605))
        # Stable stretches grow past the full size, and a grown block's
        # open states are checked in parts of at most the full size.
        assert max(block["size"] for block in blocks) > engine._BLOCK_ROUNDS
        _check_parts(blocks, engine._BLOCK_ROUNDS)

    def test_settled_blocks_read_counts_at_run_cuts_only(self):
        # A block reads pull counts only at the states it needs. On the c09
        # instance uniform settles most stable blocks whole, with no
        # per-state mask call; such a block reads them only at its run cuts,
        # the first and last state of each run of 1,024 states, and at the
        # state it leaves to the next block; its one mask call tests an inner
        # and an outer box per run: 64 boxes and 65 states in a block of
        # 32,768 rounds.
        instance = build_instance(make_best_arm_oracle(8), (0.75, 0.7) + (0.3,) * 6, EstimatorKind.MEAN)
        logging, blocks = _logged_blocks()
        with logging:
            result = run_uniform(instance, 0.1, seed=0)
        assert result.converged and result.correct
        settled = [block for block in blocks if block["prepass"] and not block["boxes"]]
        assert len(settled) > len(blocks) // 2
        for block in settled:
            assert block["columns"] == 2 * -(-block["size"] // engine._PREPASS_RUN) + 1, block
            assert block["settle"] == (8, block["columns"] - 1)
            assert block["columns"] < block["size"] // 256
        assert any(block["columns"] == 65 for block in settled)

    @pytest.mark.parametrize("offset", [0.08, 0.1])
    def test_matches_scalar_loop_when_coverage_fails(self, offset):
        # Declared parameters off from the arms' means make the xi audit
        # fail once the radii shrink below the offset, and on and off near
        # that point: in runs the pre-pass leaves open for it, with the
        # pre-pass on every block, in runs of 1, 3 and 64 states, and with
        # 64-round blocks that grow and check their open states in parts.
        instance = _off_truth(offset)
        fails = parted = 0
        full = engine._BLOCK_ROUNDS
        for seed in range(4):
            for run in (run_coci, run_uniform):
                slow = scalar_run(instance, 0.1, uniform=run is run_uniform, seed=seed, max_rounds=5000)
                fails += not slow.xi_held
                for prepass, run_length, cap in (
                    (False, engine._PREPASS_RUN, full), (True, 1, full), (True, 3, full), (True, 64, full),
                    (False, 3, 64),
                ):
                    logging, blocks = _logged_blocks()
                    with logging, _patched(cap, run_length, prepass, engine._STABLE_CELLS):
                        fast = run(instance, 0.1, seed=seed, max_rounds=5000)
                    assert repr(fast) == repr(slow), (run_length, cap)
                    assert any(block["prepass"] for block in blocks) or not prepass
                    _check_parts(blocks, cap)
                    parted += not slow.xi_held and any(len(block["boxes"]) > 1 for block in blocks)
        assert fails > 0 and parted > 0

    def test_mask_disagreement_raises(self, best_arm_instance):
        # A mask that never finds a candidate stops the block loop at once;
        # the exact test over the final box disagrees, and the run raises.
        osa = build_instance(make_osa_oracle((5, 1, 1), 10), (0.25, 0.01, 0.01), EstimatorKind.VARIANCE)
        for instance in (best_arm_instance, osa):
            oracle = instance.oracle
            wrong = replace(oracle, candidate_mask=lambda lower, upper: np.zeros(lower.shape, bool))
            with pytest.raises(AssertionError, match="candidate mask disagrees"):
                run_coci(replace(instance, oracle=wrong), 0.05, seed=1)

    def test_many_arms_shrink_blocks_to_the_cell_cap(self):
        # At m = 24 a block's (m, m, boxes) top-k array reaches _BLOCK_CELLS
        # at 1,820 boxes, so blocks hold 1,819 rounds and 1,820 states, not
        # 2,048 rounds; the other block-loop tests draw m <= 8. Plain and
        # traced runs over more than one such block equal the reference.
        m = 24
        theta = tuple(0.9 - 0.8 * i / (m - 1) for i in range(m))
        instance = build_instance(make_top_k_oracle(m, 3), theta, EstimatorKind.MEAN)
        most = engine._BLOCK_CELLS // (m * m) - 1
        assert most == 1819 < engine._BLOCK_ROUNDS
        for run in (run_coci, run_uniform):
            for traced in (False, True):
                logging, blocks = _logged_blocks()
                with logging:
                    fast = _fast(run, instance, 0.1, traced=traced, seed=1, max_rounds=3000)
                sizes = [block["size"] for block in blocks]
                assert fast[0].rounds == 3000 and sizes[0] == max(sizes) == most
                _check_parts(blocks, most)
                _same(fast, _slow(instance, 0.1, uniform=run is run_uniform, traced=traced, seed=1, max_rounds=3000))

    @pytest.mark.parametrize("seed", [0, 1])
    def test_uniform_blocks_start_full(self, seed):
        # A uniform block ends only where the run stops, so no block misses.
        # The first two take the full size and one per-state mask call each.
        # From the third on, each takes the pre-pass with one mask call, and
        # the next doubles it up to the cell cap, 32,768 rounds at any m:
        # 2,048, 2,048, 2,048, 4,096, 8,192, 16,384, 32,768, ... rounds, the
        # last block holding the stop. The pre-pass settles every run of
        # 1,024 states but the one where the run stops and, at seed 1, the
        # one before it, whose inner box (the meet of its state boxes) has
        # no candidate where each state box has one. The last block checks
        # each open run with one per-state call. An audited run takes the
        # same blocks and calls as the plain run. A traced run takes no
        # pre-pass: every block holds the full size and makes one mask call,
        # on its states, from which it writes its trace.
        full, stable = engine._BLOCK_ROUNDS, engine._STABLE_CELLS
        instance = build_instance(make_best_arm_oracle(3), (0.56, 0.5, 0.3), EstimatorKind.MEAN)
        counting, calls = _counted_mask(instance)
        grown = [full, full, full, 2 * full, 4 * full, 8 * full]
        ends = None  # the plain run's per-state calls in its last block
        for kwargs in ({}, {"traced": True}, {"lambda_lower": (0.03, 0.03, 0.2)}):
            calls[0] = 0
            logging, blocks = _logged_blocks()
            with logging:
                fast = _fast(run_uniform, counting, 0.05, seed=seed, **kwargs)
            result = fast[0]
            assert result.converged and result.rounds - 3 > sum(grown)  # past the first block of the cell cap
            if "traced" in kwargs:
                sizes = [full] * ((result.rounds - 3) // full + 1)
                assert [block["size"] for block in blocks] == sizes
                assert not any(block["prepass"] for block in blocks)
                assert all(block["boxes"] == [full] for block in blocks)
                assert calls[0] == len(sizes)
            else:
                sizes = grown + [stable] * ((result.rounds - 3 - sum(grown)) // stable + 1)
                assert sum(sizes[:-1]) < result.rounds - 3 <= sum(sizes)
                assert [block["size"] for block in blocks] == sizes
                assert [block["prepass"] for block in blocks] == [False, False] + [True] * (len(sizes) - 2)
                if ends is None:
                    ends = blocks[-1]["boxes"]
                    assert len(ends) == 1 + seed and all(n <= engine._PREPASS_RUN for n in ends)
                assert calls[0] == len(sizes) + len(ends)
            _same(fast, _slow(instance, 0.05, uniform=True, seed=seed, **kwargs))
            assert "lambda_lower" not in kwargs or result.lemma_violations > 0

    def test_stable_blocks_fill_the_cell_cap(self):
        # On the c09 instance (m = 8), a stable block doubles while its
        # estimate table, m rows by about rounds / k pulls of the k allowed
        # arms, stays within 2^15 cells. Uniform blocks reach 32,768 rounds
        # and hold it; coci blocks guessing from the two close arms stay at
        # 8,192, its idle rows counted. Both equal the reference.
        instance = build_instance(make_best_arm_oracle(8), (0.75, 0.7) + (0.3,) * 6, EstimatorKind.MEAN)
        cap = engine._STABLE_CELLS
        assert cap == 1 << 15
        for run in (run_uniform, run_coci):
            logging, blocks = _logged_blocks()
            with logging:
                result = run(instance, 0.1, seed=0)
            assert result.converged and result.correct
            stable = [block for block in blocks if block["prepass"]]
            if run is run_uniform:
                assert {block["allowed"] for block in blocks} == {8}
                sizes = [block["size"] for block in stable]
                assert sizes[-1] <= cap and sizes.count(cap) >= 5
                assert sizes == sorted(sizes) and max(block["size"] for block in blocks) == cap
            else:
                pairs = [block for block in stable if block["allowed"] == 2]
                assert len(pairs) >= 5
                assert max(block["size"] for block in pairs) == cap * 2 // 8 == 8192
                assert max(block["size"] for block in blocks) == 8192
            _check_parts(blocks, engine._BLOCK_ROUNDS)
            assert repr(result) == repr(scalar_run(instance, 0.1, uniform=run is run_uniform, seed=0))

    def test_prepass_boxes_stay_within_the_block_cells(self):
        # A pre-pass mask call tests two boxes per run, and its (m, m, boxes)
        # top-k array must stay within _BLOCK_CELLS even where the cell cap
        # would let a stable block grow further. With 2^14 block cells and
        # runs of 4 states at m = 8, that holds blocks to 4 * (2^14 // 128) =
        # 512 rounds and their pre-pass to 256 boxes.
        instance = build_instance(make_best_arm_oracle(8), (0.75, 0.7) + (0.3,) * 6, EstimatorKind.MEAN)
        for run in (run_uniform, run_coci):
            logging, blocks = _logged_blocks()
            with logging, mock.patch.object(engine, "_BLOCK_CELLS", 1 << 14), _patched(256, 4):
                result = run(instance, 0.1, seed=0, max_rounds=6000)
                _check_parts(blocks, 256)
            assert max(block["size"] for block in blocks) == 512
            assert max(block["settle"][1] for block in blocks if block["prepass"]) == 256
            assert repr(result) == repr(scalar_run(instance, 0.1, uniform=run is run_uniform, seed=0, max_rounds=6000))

    @settings(max_examples=40, deadline=None)
    @given(
        case=st.one_of(_top_k_runs(), _exact_runs()), run=st.sampled_from([run_coci, run_uniform]), cap=_CAPS,
        run_length=_RUNS, prepass=st.booleans(),
    )
    def test_blocks_leave_their_last_state_to_the_next(self, case, run, cap, run_length, prepass):
        # A block checks its states before state size and leaves that one
        # to the next block, which checks it first; only a block whose state
        # size is the round cap checks it itself. The run's final state is
        # always checked. On either check path, with the pre-pass or not,
        # traced or not: a trace is written from the states checked.
        instance, delta, kwargs = case
        logging, blocks = _checked_rounds()
        with _patched(cap, run_length, prepass), logging:
            fast = _fast(run, instance, delta, **kwargs)
        _same(fast, _slow(instance, delta, uniform=run is run_uniform, **kwargs))
        for end, rounds in blocks:
            assert end not in rounds or end == kwargs["max_rounds"], (end, sorted(rounds))
        assert fast[0].rounds in blocks[-1][1]

    def test_cap_inside_a_prepassed_block_stops_there(self):
        # With the pre-pass on every block of 64 rounds and runs of 3
        # states, a round cap at the set-up pulls, one round past them, at
        # a run cut, inside a run, at a block's state size or in a grown
        # block stops the run exactly there, as in the reference. The cap
        # state joins the last run, which the block leaves open. A traced
        # run takes no pre-pass: its blocks stay at 64 rounds, but the one
        # the cap cuts, and each makes one mask call.
        instance = build_instance(make_best_arm_oracle(8), (0.75, 0.7) + (0.3,) * 6, EstimatorKind.MEAN)
        for run in (run_coci, run_uniform):
            for max_rounds in (8, 9, 68, 70, 71, 72, 200, 1000):
                for traced in (False, True):
                    logging, blocks = _logged_blocks()
                    with _patched(64, 3, prepass=True), logging:
                        fast = _fast(run, instance, 0.1, seed=0, max_rounds=max_rounds, traced=traced)
                    assert fast[0].rounds == max_rounds and not fast[0].converged
                    if traced:
                        assert not any(block["prepass"] for block in blocks)
                        assert all(block["size"] == 64 for block in blocks[:-1])
                        assert all(len(block["boxes"]) == 1 for block in blocks)
                    else:
                        assert all(block["prepass"] for block in blocks)
                        assert blocks[-1]["boxes"]
                    _check_parts(blocks, 64)
                    kwargs = {"seed": 0, "max_rounds": max_rounds, "traced": traced}
                    _same(fast, _slow(instance, 0.1, uniform=run is run_uniform, **kwargs))

    def test_traced_blocks_write_the_states_they_check(self):
        # A traced block takes no pre-pass, even where every block of 64
        # rounds would take it untraced, and writes its trace from the
        # states its check formed: one plan read of its states, one
        # _states call and one mask call on the states it checks.
        instance = build_instance(make_top_k_oracle(4, 2), (0.9, 0.7, 0.3, 0.1), EstimatorKind.MEAN)
        for run in (run_coci, run_uniform):
            logging, blocks = _logged_blocks()
            formed, states = [], engine._states

            def count(*args):
                formed.append(len(blocks))
                return states(*args)

            with _patched(64, 3, prepass=True), logging, mock.patch.object(engine, "_states", count):
                fast = _fast(run, instance, 0.05, seed=0, traced=True)
            assert fast[0].converged and len(blocks) > 10
            for block in blocks:
                assert not block["prepass"] and block["boxes"] == [block["size"]], block
                assert block["columns"] == block["size"] + 1, block
            assert formed == list(range(1, len(blocks) + 1))
            _same(fast, _slow(instance, 0.05, uniform=run is run_uniform, seed=0, traced=True))

    def test_wrong_guess_at_the_cap_leaves_it_to_an_empty_block(self):
        # On the top-2 bench instance at seed 0, coci's guess is wrong in
        # the states of rounds 507 and 654. With either as the round cap,
        # the block that reaches it ends there, and a block of no rounds
        # checks it again and stops the run, as in the reference.
        instance = build_instance(make_top_k_oracle(4, 2), (0.9, 0.7, 0.3, 0.1), EstimatorKind.MEAN)
        for max_rounds in (507, 654):
            logging, blocks = _logged_blocks()
            with logging:
                result = run_coci(instance, 0.05, seed=0, max_rounds=max_rounds)
            assert result.rounds == max_rounds and not result.converged
            assert blocks[-2]["size"] > 0 and blocks[-1]["size"] == 0
            assert repr(result) == repr(scalar_run(instance, 0.05, uniform=False, seed=0, max_rounds=max_rounds))

    def test_corner_enumeration_miss_before_the_cap_goes_on(self):
        # A coci block checked by corner enumeration whose state size is
        # the round cap, 506 here, and whose guess is wrong before it ends
        # there without stopping; the run goes on and converges at 471. It
        # used to stop there with no verdict and raise UnboundLocalError.
        oracle = replace(make_top_k_oracle(4, 3), bi_monotone=False, candidate_mask=None)
        instance = build_instance(oracle, (0.875, 0.125, 0.625, 0.75), EstimatorKind.MEAN)
        for traced in (False, True):
            fast = _fast(run_coci, instance, 0.28, seed=(76, 30), max_rounds=506, traced=traced)
            assert fast[0].converged and fast[0].rounds == 471
            _same(fast, _slow(instance, 0.28, uniform=False, seed=(76, 30), max_rounds=506, traced=traced))

    def test_uniform_peak_memory_on_c09(self):
        # The tracemalloc peak of a long uniform run stays within 1.25 times
        # 1,769,895 bytes, its peak with stable blocks of at most 8,192
        # rounds and pre-pass runs of 64 states (numpy 2.4.6). Its blocks
        # of 32,768 rounds cumulate their samples in place and check open
        # states one run at a time. The level table, shared by every run, is
        # grown first, and a first run warms the arms' streams.
        instance = build_instance(make_best_arm_oracle(8), (0.75, 0.7) + (0.3,) * 6, EstimatorKind.MEAN)
        rounds = run_uniform(instance, 0.1, seed=0).rounds
        engine._logs(1, rounds + 2)
        tracemalloc.start()
        try:
            result = run_uniform(instance, 0.1, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.rounds == rounds
        assert peak <= 1.25 * 1_769_895, peak

    def test_paths_follow_the_oracle(self, best_arm_instance):
        # The mask checks every run on a bi-monotone oracle, traced or not;
        # corner enumeration never uses it.
        instance, calls = _counted_mask(best_arm_instance)
        for traced in (False, True):
            calls[0] = 0
            _fast(run_coci, instance, 0.05, seed=3, traced=traced)
            assert calls[0] > 0
        calls[0] = 0
        run_coci(replace(instance, oracle=replace(instance.oracle, bi_monotone=False)), 0.05, seed=3)
        assert calls[0] == 0


def _check_builds(blocks):
    """Each block builds the read-ahead at most once: the first block, and
    any whose last state needs a pull past those it reaches (each arm's
    pulls at the last state of the block that built it). Returns the
    builds, those of them that an arm the read-ahead held no samples of
    caused, and the blocks that reused it up to an arm's last sample."""
    reach = None
    builds = uncovered = edges = 0
    for block in blocks:
        need = block["pulls"] + block["last"]
        build = reach is None or bool((need > reach).any())
        assert block["built"] == build, (block, reach)
        if build:
            builds += 1
            uncovered += reach is not None and bool(((need > reach) & (reach == start)).any())
            start, reach = block["pulls"], need
        else:
            edges += bool(((need == reach) & (block["last"] > 0)).any())
    return builds, uncovered, edges


@st.composite
def _read_ahead_runs(draw):
    """A top-k run whose read-ahead may serve several blocks: mean or
    variance estimates, checked by the oracle's mask or, with its
    bi-monotone flag cleared, by corner enumeration; a block cap; run
    settings whose round cap may be the set-up pulls alone."""
    m = draw(st.integers(1, 4))
    kind = draw(st.sampled_from([EstimatorKind.MEAN, EstimatorKind.VARIANCE]))
    top = 1.0 if kind is EstimatorKind.MEAN else 0.25
    theta = draw(st.lists(st.sampled_from([top * j / 8 for j in range(9)]), min_size=m, max_size=m))
    oracle = make_top_k_oracle(m, draw(st.integers(1, m)))
    if draw(st.booleans()):
        oracle = replace(oracle, candidate_mask=None, bi_monotone=False)
    kwargs = _settings(draw, m, kind.tau)
    kwargs["max_rounds"] = kind.tau * m if draw(st.booleans()) else min(kwargs["max_rounds"], 1500)
    return build_instance(oracle, theta, kind), draw(st.floats(0.05, 0.6)), kwargs


class TestReadAhead:
    """A run builds its read-ahead of samples, running sums and estimates
    again only when a block needs a pull past it; every other block reads
    on in it."""

    @settings(max_examples=80, deadline=None)
    @given(case=_read_ahead_runs(), run=st.sampled_from([run_coci, run_uniform]), cap=_CAPS)
    def test_reused_read_ahead_matches_scalar_loop(self, case, run, cap):
        instance, delta, kwargs = case
        logging, blocks = _logged_blocks()
        with mock.patch.object(engine, "_BLOCK_ROUNDS", cap), logging:
            fast = _fast(run, instance, delta, **kwargs)
        _same(fast, _slow(instance, delta, uniform=run is run_uniform, **kwargs))
        _check_builds(blocks)

    def test_blocks_within_reach_reuse_it(self):
        # On the top-2 bench instance the coci candidate set flips every few
        # rounds: most blocks keep a few rounds and read on in the
        # read-ahead of an earlier block, and some rebuild it because they
        # allow an arm it holds no samples of. Uniform blocks are kept whole
        # and need more pulls each time, so each one builds it.
        # With 2-round blocks, some coci blocks read up to an arm's last
        # sample in the read-ahead, and reuse it.
        instance = build_instance(make_top_k_oracle(4, 2), (0.9, 0.7, 0.3, 0.1), EstimatorKind.MEAN)
        for run, cap in ((run_coci, engine._BLOCK_ROUNDS), (run_uniform, engine._BLOCK_ROUNDS), (run_coci, 2)):
            totals = [0, 0, 0, 0]  # blocks, builds, builds for an uncovered arm, reuses to the last sample
            for seed in range(10):
                logging, blocks = _logged_blocks()
                with logging, mock.patch.object(engine, "_BLOCK_ROUNDS", cap):
                    result = run(instance, 0.05, seed=seed)
                assert repr(result) == repr(scalar_run(instance, 0.05, uniform=run is run_uniform, seed=seed))
                totals = [a + b for a, b in zip(totals, (len(blocks), *_check_builds(blocks)))]
            if run is run_uniform:
                assert totals[0] == totals[1], totals
            elif cap == 2:
                assert totals[3] > 0, totals
            else:
                assert 4 * totals[1] < totals[0] and totals[2] > 0, totals

    def test_an_arm_it_holds_no_samples_of_rebuilds_it(self):
        # On a close three-arm best-arm instance, at seed 1, coci's
        # candidate set narrows to two arms and widens again many times. A
        # block that allows the third arm again, of which the read-ahead
        # built for the two holds no samples, builds it again.
        instance = build_instance(make_best_arm_oracle(3), (0.6, 0.55, 0.5), EstimatorKind.MEAN)
        logging, blocks = _logged_blocks()
        with logging:
            result = run_coci(instance, 0.1, seed=1)
        assert result.converged and result.correct
        builds, uncovered, _ = _check_builds(blocks)
        assert uncovered >= 10 and builds < len(blocks)


class TestThreads:
    def test_runs_in_threads_match_runs_alone(self, monkeypatch):
        # Runs in threads of one process share the level table and the plan
        # cache. Four threads start together behind a barrier on cold
        # tables, with 1,024-entry chunks so that the table grows often, and
        # a short switch interval so that they interleave inside its growth
        # and the cache's updates. Every result equals its run alone, and
        # the table holds math.log.
        instance = build_instance(make_best_arm_oracle(8), (0.75, 0.7) + (0.3,) * 6, EstimatorKind.MEAN)  # c09
        jobs = [(run_uniform, 0), (run_uniform, 1), (run_coci, 0), (run_coci, 1)]
        monkeypatch.setattr(engine, "_LOG_CHUNK", 1 << 10)
        alone = [repr(run(instance, 0.1, seed=seed, max_rounds=100_000)) for run, seed in jobs]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)
        try:
            for _ in range(3):
                monkeypatch.setattr(engine, "_LOG_TABLE", np.empty(0))
                monkeypatch.setattr(engine, "_PLANS", {})
                barrier = threading.Barrier(len(jobs))
                together = [None] * len(jobs)

                def work(n):
                    run, seed = jobs[n]
                    barrier.wait(timeout=60)
                    together[n] = repr(run(instance, 0.1, seed=seed, max_rounds=100_000))

                threads = [threading.Thread(target=work, args=(n,)) for n in range(len(jobs))]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=120)
                    assert not thread.is_alive()
                assert together == alone  # a thread that raised leaves None
                table = engine._LOG_TABLE
                assert len(table) >= 100_000
                assert table.tolist() == [math.log(t) for t in range(1, len(table) + 1)]
        finally:
            sys.setswitchinterval(interval)


class TestLevelTable:
    """``level`` comes from a per-process table of ``math.log`` values, one
    array filled by fixed-size chunks, that blocks read as views."""

    @pytest.fixture
    def table(self, monkeypatch):
        """A fresh, empty table with 7-entry chunks, so that short ranges
        straddle chunk edges."""
        monkeypatch.setattr(engine, "_LOG_TABLE", np.empty(0))
        monkeypatch.setattr(engine, "_LOG_CHUNK", 7)

    def test_entries_are_math_log(self, table):
        # The first call starts at a large t; later ones straddle one or
        # more chunk edges, or sit inside a chunk.
        ranges = [(5000, 5003), (1, 2), (1, 30), (6, 9), (7, 8), (8, 22), (13, 15), (5002, 5020)]
        largest = 0
        for start, stop in ranges:
            got = engine._logs(start, stop)
            assert got.tolist() == [math.log(t) for t in range(start, stop)], (start, stop)
            largest = max(largest, stop)
            # Entries cover t = 1 .. len(table), whole chunks of 7.
            table = engine._LOG_TABLE
            assert largest - 1 <= len(table) < largest - 1 + 7 and len(table) % 7 == 0
            assert table.tolist() == [math.log(t) for t in range(1, len(table) + 1)]
            # A read-only view of the table, never a copy.
            assert not got.flags.writeable and not table.flags.writeable
            assert np.shares_memory(got, table)

    def test_straddles_the_real_chunk_edge(self, monkeypatch):
        monkeypatch.setattr(engine, "_LOG_TABLE", np.empty(0))
        n = engine._LOG_CHUNK
        got = engine._logs(n - 2, n + 3)
        assert got.tolist() == [math.log(t) for t in range(n - 2, n + 3)]
        assert len(engine._LOG_TABLE) == 2 * n
        assert np.shares_memory(got, engine._LOG_TABLE)

    def test_fills_only_to_the_chunk_reached(self, table, monkeypatch):
        # A buffer too small is replaced by one twice the filled entries (or
        # the entries needed, if more), but entries are computed only up to
        # the chunk a call reaches, each once; a later call that fits fills
        # the same buffer. Views read before a growth keep their values.
        log, computed = math.log, []
        monkeypatch.setattr(math, "log", lambda t: computed.append(t) or log(t))
        steps = [(2, 7, 7), (9, 14, 14), (16, 21, 28), (23, 28, 28), (30, 35, 56), (100, 105, 105)]
        views, buffers = [], []
        for stop, filled, capacity in steps:
            views.append((stop, engine._logs(1, stop)))
            table = engine._LOG_TABLE
            assert (len(table), len(table.base)) == (filled, capacity), stop
            assert computed == list(range(1, filled + 1)), stop
            buffers.append(table.base)
        assert buffers[3] is buffers[2] and buffers[4] is not buffers[3]
        for stop, view in views:
            assert view.tolist() == [log(t) for t in range(1, stop)]

    @pytest.mark.parametrize("chunk", [7, 100])
    def test_run_across_table_growth_matches_scalar_loop(self, monkeypatch, chunk):
        monkeypatch.setattr(engine, "_LOG_TABLE", np.empty(0))
        monkeypatch.setattr(engine, "_LOG_CHUNK", chunk)
        instance = build_instance(make_top_k_oracle(3, 1), (0.6, 0.5, 0.2), EstimatorKind.MEAN)
        for run in (run_coci, run_uniform):
            fast = run(instance, 0.1, seed=5, max_rounds=3000)
            assert fast.rounds > 10 * chunk
            slow = scalar_run(instance, 0.1, uniform=run is run_uniform, seed=5, max_rounds=3000)
            assert repr(fast) == repr(slow)
