"""Timing wrappers around the entry points each coci layer calls.

A :class:`Recorder` is installed for one ``run_experiment`` call. It always
marks when set-up ends (``build_problem`` and ``hardness_report`` return)
and when the first trial starts (first in-process ``trial_seed`` call).
Given a ``calibrate.Sampler``, it installs it for the call and ticks it
at every ``trial_seed`` call, in the process that runs the trial.

When ``traced``, it also wraps, by layer:

- ``engine``: ``run_coci`` / ``run_uniform`` as the harness calls them;
- ``condition``: ``candidate_on_bounds`` as the engine calls it;
- ``oracles``: the instance's ``maximizer``, and ``oracles.batch`` its
  ``batch_maximizer``, swapped in with ``dataclasses.replace``;
- ``sim.draw`` / ``sim.stream``: ``BufferedArm.next`` and ``arm_stream``;
- ``estimators``: ``estimate_from_sums``;
- ``harness``: ``trial_seed``.

Spans are not stored one by one: a traced run makes millions of calls.
Each wrapper adds its call count and self time (its duration minus that of
the wrapped calls it encloses) to its layer's totals in memory. Pool
workers cannot pickle the wrappers and would keep their own totals, so a
traced ``run_experiment`` must run with ``workers=1``.
"""

from __future__ import annotations

import contextlib
import dataclasses
from time import perf_counter
from typing import Callable, Iterator, Optional

#: Layers whose self time falls inside the trial phase.
TRIAL_LAYERS = ("engine", "condition", "oracles", "sim.draw", "sim.stream", "estimators", "harness")


@dataclasses.dataclass(slots=True)
class LayerTotals:
    calls: int = 0
    self_s: float = 0.0
    #: Candidate tests returning True (``condition``) or rows evaluated
    #: (``oracles.batch``).
    tally: int = 0


class Recorder:
    def __init__(self, traced: bool, sampler=None):
        self.traced = traced
        self.sampler = sampler
        self.layers: dict[str, LayerTotals] = {}
        self.build_end: Optional[float] = None
        self.hardness_end: Optional[float] = None
        self.first_trial: Optional[float] = None
        #: Layer totals when the first trial started, i.e. the set-up share.
        self.at_first_trial: dict[str, LayerTotals] = {}
        # Time covered by wrapped callees of each open wrapped call.
        self._child_s = [0.0]

    @property
    def setup_end(self) -> float:
        return max(t for t in (self.build_end, self.hardness_end) if t is not None)

    def trial_totals(self, layer: str) -> LayerTotals:
        """Totals of ``layer`` accumulated after the first trial started."""
        end = self.layers.get(layer, LayerTotals())
        start = self.at_first_trial.get(layer, LayerTotals())
        return LayerTotals(end.calls - start.calls, end.self_s - start.self_s, end.tally - start.tally)

    def _layer(self, name: str, fn: Callable, tally: Optional[Callable] = None) -> Callable:
        totals = self.layers.setdefault(name, LayerTotals())
        child_s = self._child_s

        def wrapper(*args, **kwargs):
            child_s.append(0.0)
            start = perf_counter()
            result = fn(*args, **kwargs)
            elapsed = perf_counter() - start
            inner = child_s.pop()
            child_s[-1] += elapsed
            totals.calls += 1
            totals.self_s += elapsed - inner
            if tally is not None:
                totals.tally += tally(args, result)
            return result

        return wrapper

    def _build_problem(self, fn: Callable) -> Callable:
        def wrapper(config):
            instance = fn(config)
            if self.sampler is not None:
                self.sampler.watch(instance)
            if self.traced:
                oracle = instance.oracle
                batch = oracle.batch_maximizer
                oracle = dataclasses.replace(
                    oracle,
                    maximizer=self._layer("oracles", oracle.maximizer),
                    batch_maximizer=None
                    if batch is None
                    else self._layer("oracles.batch", batch, tally=lambda args, _: len(args[0])),
                )
                instance = dataclasses.replace(instance, oracle=oracle)
            self.build_end = perf_counter()
            return instance

        return wrapper

    def _hardness_report(self, fn: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            report = fn(*args, **kwargs)
            self.hardness_end = perf_counter()
            return report

        return wrapper

    def _trial_seed(self, fn: Callable) -> Callable:
        inner = self._layer("harness", fn) if self.traced else fn

        def wrapper(master_seed, trial):
            if self.first_trial is None:
                self.first_trial = perf_counter()
                self.at_first_trial = {k: dataclasses.replace(v) for k, v in self.layers.items()}
            if self.sampler is not None:
                self.sampler.tick()
            return inner(master_seed, trial)

        return wrapper

    @contextlib.contextmanager
    def installed(self) -> Iterator["Recorder"]:
        from coci import engine, harness, sim

        patches = [
            (harness, "build_problem", self._build_problem(harness.build_problem)),
            (harness, "hardness_report", self._hardness_report(harness.hardness_report)),
            (harness, "trial_seed", self._trial_seed(harness.trial_seed)),
        ]
        if self.traced:
            patches += [
                (harness, "run_coci", self._layer("engine", harness.run_coci)),
                (harness, "run_uniform", self._layer("engine", harness.run_uniform)),
                (
                    engine,
                    "candidate_on_bounds",
                    self._layer("condition", engine.candidate_on_bounds, tally=lambda _, hit: hit),
                ),
                (engine, "arm_stream", self._layer("sim.stream", engine.arm_stream)),
                (engine, "estimate_from_sums", self._layer("estimators", engine.estimate_from_sums)),
                (sim.BufferedArm, "next", self._layer("sim.draw", sim.BufferedArm.next)),
            ]
        saved = [(owner, name, getattr(owner, name)) for owner, name, _ in patches]
        for owner, name, fn in patches:
            setattr(owner, name, fn)
        if self.sampler is not None:
            self.sampler.install(harness)
        try:
            yield self
        finally:
            if self.sampler is not None:
                self.sampler.restore()
            for owner, name, fn in saved:
                setattr(owner, name, fn)
