"""Golden digests of full ``RunResult`` reprs over a fixed set of runs, and
of the parsed configs and hardness reports of the shipped configs and bench
workloads.

Any change to what a run draws, pulls, records or returns changes the run
digest. The set covers both samplers; traced, untraced and capped runs; the
half-flip-radius audit; and the corner-enumeration candidate test. Any
change to a flip radius, saturation flag, gap or hardness sum of a shipped
instance changes the hardness digest, and any change to what a shipped
config parses to changes the config digest.
"""

import hashlib
import json
from dataclasses import replace
from pathlib import Path

from coci import (
    Bernoulli,
    EstimatorKind,
    PointMass,
    arm_for_variance,
    build_instance,
    make_best_arm_oracle,
    make_osa_oracle,
    make_top_k_oracle,
    run_coci,
    run_uniform,
)
from coci.harness import build_problem, parse_config, problem_hardness, read_config

ROOT = Path(__file__).parent.parent
GOLDEN_SHA256 = "379a5ef2077d89ba95d3d9e060a848974b94c8f35e42f62178ccc692698776ca"


def _instances():
    best = build_instance(make_best_arm_oracle(3), (0.9, 0.5, 0.1), EstimatorKind.MEAN)
    top2 = build_instance(
        make_top_k_oracle(4, 2),
        (0.95, 0.7, 0.3, 0.05),
        EstimatorKind.MEAN,
        models=(Bernoulli(0.95), PointMass(0.7), Bernoulli(0.3), PointMass(0.05)),
    )
    osa = build_instance(
        make_osa_oracle((1, 1, 1), 4),
        (0.25, 0.01, 0.0),
        EstimatorKind.VARIANCE,
        models=(Bernoulli(0.5), arm_for_variance(0.01), PointMass(0.3)),
    )
    # The lambda_lower values are not flip radii: they are set high so the
    # half-flip-radius audit counts violations.
    return (
        (best, 0.2, (0.6, 0.6, 0.6)),
        (top2, 0.2, (0.5, 0.5, 0.5, 0.5)),
        (osa, 0.3, (0.2, 0.2, 0.2)),
    )


def _runs():
    for inst, delta, lam in _instances():
        for run in (run_coci, run_uniform):
            for seed in (0, (7, 3)):
                yield run(inst, delta, seed=seed)
            yield run(inst, delta, seed=2, record_trace=True)
            yield run(inst, delta, seed=4, max_rounds=25, record_trace=True)
            yield run(inst, delta, seed=5, max_rounds=40)
            yield run(inst, delta, seed=6, lambda_lower=lam)
            corners = replace(inst, oracle=replace(inst.oracle, bi_monotone=False))
            yield run(corners, delta, seed=8, record_trace=True)


def test_run_results_match_golden_digest():
    digest = hashlib.sha256("\n".join(repr(r) for r in _runs()).encode()).hexdigest()
    assert digest == GOLDEN_SHA256


HARDNESS_SHA256 = "b58e657b1539659ee60874db61a68735c51bac7fd9019b2a91ec40fadd4d5834"


def _hardness_configs():
    # Every shipped config and bench workload that reports hardness.
    for path in sorted((ROOT / "configs").glob("*.json")):
        yield read_config(path)
    workloads = json.loads((ROOT / "bench" / "workloads.json").read_text())
    for name in sorted(workloads):
        yield workloads[name]["config"]


def test_hardness_reports_match_golden_digest():
    reports = []
    for raw in _hardness_configs():
        config = parse_config(raw)
        if config.hardness_epsilon is not None:
            report = problem_hardness(config, build_problem(config))
            reports.append(repr(report.to_dict()))
    assert len(reports) == 7
    digest = hashlib.sha256("\n".join(reports).encode()).hexdigest()
    assert digest == HARDNESS_SHA256


CONFIG_SHA256 = "13712726776b71c45121c3a941c6d5d79c40b95a170ac13305220dc488553566"


def test_configs_match_golden_digest():
    parsed = [repr(parse_config(raw)) for raw in _hardness_configs()]
    assert len(parsed) == 9
    digest = hashlib.sha256("\n".join(parsed).encode()).hexdigest()
    assert digest == CONFIG_SHA256
