"""The benchmark's tracing hooks still find every layer they wrap.

``bench/tracing.py`` patches entry points by name (``harness.run_coci``,
``engine.candidate_on_bounds``, ``BufferedArm.next`` and others). A rename
in ``coci`` would leave a layer unwrapped or break the benchmark; this test
fails first. It reads ``bench/`` and writes nothing there.
"""

import dataclasses
import importlib
import sys
from pathlib import Path

import pytest

from coci.harness import load_config, run_experiment

ROOT = Path(__file__).parent.parent


@pytest.mark.parametrize("name", ["quick.json", "osa.json", "water.json"])
def test_traced_run_covers_every_layer_and_matches_untraced(name, monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    tracing = importlib.import_module("tracing")

    config = load_config(ROOT / "configs" / name)
    trials = 1 if config.application == "water" else 2
    config = dataclasses.replace(config, trials=trials, workers=1, mode="both")
    plain = run_experiment(config)
    recorder = tracing.Recorder(traced=True)
    with recorder.installed():
        traced = run_experiment(config)

    for layer in tracing.TRIAL_LAYERS:
        assert recorder.trial_totals(layer).calls > 0, layer
    strip = lambda records: [dataclasses.replace(r, wall_ms=0.0) for r in records]  # noqa: E731
    assert strip(traced.records) == strip(plain.records)
    assert traced.summary == plain.summary
    if config.application == "water":
        # Water has no candidate mask: the exact check tests every round
        # after initialization at least once, through the name the
        # benchmark wraps.
        init = config.estimator.tau * len(config.theta_star)
        rounds = sum(r.rounds - init + 1 for r in traced.records)
        assert recorder.trial_totals("condition").calls >= rounds
