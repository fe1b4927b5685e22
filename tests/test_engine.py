import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from coci import (
    EstimatorKind,
    LinearCost,
    ParameterVector,
    PointMass,
    QuadraticCost,
    UsageError,
    WaterSpec,
    audit_xi,
    build_instance,
    confidence_radius,
    default_models,
    dump_trace,
    make_best_arm_oracle,
    make_osa_oracle,
    make_top_k_oracle,
    make_water_oracle,
    run_coci,
    run_uniform,
)
from coci.engine import CociState

from _reference import grid_points, scalar_run


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

    def test_stops_once_radii_below_separation(self):
        inst = build_instance(
            make_best_arm_oracle(2),
            (0.8, 0.2),
            EstimatorKind.MEAN,
            models=(PointMass(0.8), PointMass(0.2)),
        )
        result = run_coci(inst, 0.05, seed=0, record_trace=True)
        final = result.trace[-1]
        assert final.candidates == ()
        # Estimates are exact, so intervals [0.8 - r, 0.8 + r] and
        # [0.2 - r', 0.2 + r'] must have separated once stopping happened.
        assert final.box.upper[1] < final.box.lower[0]


class TestUniform:
    def test_round_robin_after_init(self, best_arm_instance):
        result = run_uniform(best_arm_instance, 0.1, seed=21, record_trace=True)
        pulled = [s.pulled_arm for s in result.trace[1:9]]
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


class TestTrace:
    def test_trace_consistency(self, best_arm_instance):
        result = run_coci(best_arm_instance, 0.05, seed=11, record_trace=True)
        plain = run_coci(best_arm_instance, 0.05, seed=11)
        assert result.output == plain.output
        assert result.rounds == plain.rounds
        assert result.per_arm_pulls == plain.per_arm_pulls
        assert result.xi_held == plain.xi_held
        first = result.trace[0]
        assert first.t == 2 and first.pulled_arm is None
        for state in result.trace:
            assert sum(state.pulls) == state.t
            for e, r, lo, hi in zip(
                state.estimates, state.radii, state.box.lower, state.box.upper
            ):
                assert lo == max(0.0, min(1.0, e - r))
                assert hi == min(1.0, max(0.0, e + r))
        assert result.trace[-1].candidates == ()
        assert all(s.candidates for s in result.trace[:-1])

    def test_sample_log(self, best_arm_instance):
        result = run_coci(best_arm_instance, 0.05, seed=11, record_trace=True)
        assert tuple(len(s) for s in result.sample_log) == result.per_arm_pulls

    def test_uniform_trace_consistency(self, best_arm_instance):
        traced = run_uniform(best_arm_instance, 0.05, seed=11, record_trace=True)
        plain = run_uniform(best_arm_instance, 0.05, seed=11)
        assert (traced.output, traced.rounds, traced.per_arm_pulls, traced.xi_held) == (
            plain.output,
            plain.rounds,
            plain.per_arm_pulls,
            plain.xi_held,
        )

    def test_audit_xi_matches_incremental(self, best_arm_instance):
        for seed in range(6):
            result = run_coci(best_arm_instance, 0.3, seed=seed, record_trace=True)
            assert audit_xi(result.trace, best_arm_instance.true_params.values) == result.xi_held

    def test_radii_match_reference_formula(self, best_arm_instance):
        from coci import clamp_box, confidence_radius

        result = run_coci(best_arm_instance, 0.05, seed=11, record_trace=True)
        for state in result.trace:
            for pulls_i, rad_i in zip(state.pulls, state.radii):
                assert rad_i == confidence_radius(state.t, pulls_i, 1, 0.05)
            assert state.box == clamp_box(state.estimates, state.radii)

    def test_audit_xi_detects_violation(self):
        state = CociState(
            t=2,
            pulls=(1, 1),
            estimates=(0.5, 0.5),
            radii=(0.01, 0.01),
            box=None,
            candidates=(),
            pulled_arm=None,
            observation=None,
        )
        assert audit_xi([state], (0.9, 0.5)) is False

    def test_audit_xi_rejects_truncated_trace(self, best_arm_instance):
        result = run_coci(best_arm_instance, 0.05, seed=11, record_trace=True)
        with pytest.raises(UsageError):
            audit_xi(result.trace[1:][::2], best_arm_instance.true_params.values)
        with pytest.raises(UsageError):
            audit_xi([], best_arm_instance.true_params.values)

    def test_dump_trace_roundtrip(self, best_arm_instance, tmp_path):
        result = run_coci(best_arm_instance, 0.2, seed=2, record_trace=True)
        path = tmp_path / "trace.jsonl"
        dump_trace(result.trace, path)
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(lines) == len(result.trace)
        for obj, state in zip(lines, result.trace):
            assert obj["t"] == state.t
            assert obj["arm"] == state.pulled_arm
            assert obj["estimates"] == list(state.estimates)
            assert obj["radii"] == list(state.radii)
            assert obj["candidates"] == len(state.candidates)


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


def _settings(draw, m, tau):
    """Run settings: an int or tuple seed, a round cap, sometimes the
    half-flip-radius audit."""
    seed = draw(st.one_of(st.integers(0, 2**32), st.tuples(st.integers(0, 99), st.integers(0, 99))))
    kwargs = {"seed": seed, "max_rounds": draw(st.integers(tau * m, 6000))}
    if draw(st.booleans()):
        kwargs["lambda_lower"] = draw(st.lists(st.floats(0.05, 1.0), min_size=m, max_size=m))
    return kwargs


@st.composite
def _top_k_runs(draw):
    """A random top-k instance and run settings: mean or variance
    estimates, some point-mass arms, an int or tuple seed, a round cap and
    sometimes the half-flip-radius audit."""
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
    """A run whose picks are checked by the exact candidate test: OSA
    allocation with variance estimates and the mask removed, water planning
    with quadratic (bi-monotone) or linear (corner enumeration) costs, or
    top-k with the mask removed or the bi-monotone flag cleared; traced or
    not."""
    m = draw(st.integers(2, 3))
    app = draw(st.sampled_from(["osa", "water-quadratic", "water-linear", "top-k-no-mask", "top-k-corners"]))
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
            quadratic = app == "water-quadratic"
            cost = QuadraticCost(1.0) if quadratic else LinearCost(draw(st.sampled_from([0.0, 0.25])))
            oracle = make_water_oracle(WaterSpec(b=0.5 * m, caps=(1.0,) * m, costs=(cost,) * m, grid_step=0.5))
            assert oracle.bi_monotone is quadratic
        else:
            oracle = make_top_k_oracle(m, draw(st.integers(1, m)))
            oracle = replace(oracle, candidate_mask=None, bi_monotone=app == "top-k-no-mask")
    instance = build_instance(oracle, theta, kind)
    kwargs = _settings(draw, m, kind.tau)
    kwargs["max_rounds"] = min(kwargs["max_rounds"], 1500)
    kwargs["record_trace"] = draw(st.booleans())
    return instance, draw(st.floats(0.05, 0.6)), kwargs


@st.composite
def _osa_runs(draw):
    """An OSA allocation instance that keeps its candidate mask: m = 1..4,
    group sizes 1..6, variance estimates, untraced run settings."""
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


class TestBlockLoop:
    """Every run takes the block loop; it must equal the round-at-a-time
    reference ``scalar_run`` on every ``RunResult`` field, whether its picks
    are checked by the candidate mask or by the exact candidate test."""

    @settings(max_examples=60, deadline=None)
    @given(case=_top_k_runs(), run=st.sampled_from([run_coci, run_uniform]))
    def test_matches_scalar_loop(self, case, run):
        instance, delta, kwargs = case
        fast = run(instance, delta, **kwargs)
        slow = scalar_run(instance, delta, uniform=run is run_uniform, **kwargs)
        assert repr(fast) == repr(slow)

    @settings(max_examples=60, deadline=None)
    @given(case=_exact_runs(), run=st.sampled_from([run_coci, run_uniform]))
    def test_exact_checks_match_scalar_loop(self, case, run):
        instance, delta, kwargs = case
        (fast, fast_calls), (slow, slow_calls) = _counted(instance), _counted(instance)
        assert repr(run(fast, delta, **kwargs)) == repr(
            scalar_run(slow, delta, uniform=run is run_uniform, **kwargs)
        )
        # Only a wrong coci guess adds candidate tests (one full set).
        if run is run_uniform or kwargs["record_trace"]:
            assert fast_calls[0] == slow_calls[0]

    @settings(max_examples=60, deadline=None)
    @given(case=_osa_runs(), run=st.sampled_from([run_coci, run_uniform]))
    def test_osa_mask_matches_scalar_loop(self, case, run):
        instance, delta, kwargs = case
        fast, calls = _counted(instance)
        assert repr(run(fast, delta, **kwargs)) == repr(
            scalar_run(instance, delta, uniform=run is run_uniform, **kwargs)
        )
        # The mask checks every guessed pick. The maximizer serves only the
        # exact test at the stopping state (2m calls at most), the output
        # and the true optimum.
        assert calls[0] <= 2 * instance.oracle.arm_count + 2

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_exact_checks_oracle_calls(self, seed):
        oracle = replace(make_osa_oracle((5, 1, 1), 10), candidate_mask=None)
        osa = build_instance(oracle, (0.25, 0.01, 0.01), EstimatorKind.VARIANCE)
        for run in (run_coci, run_uniform):
            (fast, fast_calls), (slow, slow_calls) = _counted(osa), _counted(osa)
            assert repr(run(fast, 0.05, seed=seed)) == repr(
                scalar_run(slow, 0.05, uniform=run is run_uniform, seed=seed)
            )
            if run is run_uniform:
                assert fast_calls[0] == slow_calls[0]
            else:
                assert slow_calls[0] <= fast_calls[0] <= 1.05 * slow_calls[0]

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
        fast = run(instance, 0.1, seed=20240605)
        assert fast.rounds > 20_000
        assert repr(fast) == repr(scalar_run(instance, 0.1, uniform=run is run_uniform, seed=20240605))

    @pytest.mark.parametrize("offset", [0.08, 0.1])
    def test_matches_scalar_loop_when_coverage_fails(self, offset):
        # Declared parameters off from the arms' means make the xi audit
        # fail once the radii shrink below the offset, and on and off near
        # that point.
        instance = build_instance(make_top_k_oracle(3, 1), (0.6, 0.5, 0.2), EstimatorKind.MEAN)
        object.__setattr__(instance, "true_params", ParameterVector((0.6 - offset, 0.5, 0.2)))
        fails = 0
        for seed in range(4):
            for run in (run_coci, run_uniform):
                fast = run(instance, 0.1, seed=seed, max_rounds=5000)
                slow = scalar_run(instance, 0.1, uniform=run is run_uniform, seed=seed, max_rounds=5000)
                assert repr(fast) == repr(slow)
                fails += not fast.xi_held
        assert fails > 0

    def test_mask_disagreement_raises(self, best_arm_instance):
        # A mask that never finds a candidate stops the block loop at once;
        # the exact test over the final box disagrees, and the run raises.
        osa = build_instance(make_osa_oracle((5, 1, 1), 10), (0.25, 0.01, 0.01), EstimatorKind.VARIANCE)
        for instance in (best_arm_instance, osa):
            oracle = instance.oracle
            wrong = replace(oracle, candidate_mask=lambda lower, upper: np.zeros(lower.shape, bool))
            with pytest.raises(AssertionError, match="candidate mask disagrees"):
                run_coci(replace(instance, oracle=wrong), 0.05, seed=1)

    def test_paths_follow_the_oracle(self, best_arm_instance):
        # The mask is used only when the oracle is bi-monotone and the run
        # keeps no trace.
        calls = [0]
        mask = best_arm_instance.oracle.candidate_mask

        def counted(lower, upper):
            calls[0] += 1
            return mask(lower, upper)

        oracle = replace(best_arm_instance.oracle, candidate_mask=counted)
        instance = replace(best_arm_instance, oracle=oracle)
        run_coci(instance, 0.05, seed=3)
        assert calls[0] > 0
        calls[0] = 0
        run_coci(instance, 0.05, seed=3, record_trace=True)
        run_coci(replace(instance, oracle=replace(oracle, bi_monotone=False)), 0.05, seed=3)
        assert calls[0] == 0
