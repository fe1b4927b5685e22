"""Host-speed calibration interleaved with the trials.

On a shared host a vCPU's speed changes by a quarter or more within
seconds, in CPU time as well as wall time, and the share of a run spent
slow or fast differs from run to run. A median over a 30-second run
cannot remove that. So an untraced run times a fixed pure-Python loop,
one :func:`chunk`, at most every ``GAP_S`` seconds in whichever process
runs the trials: at the start of a trial and at every block draw of an
arm model. The benchmark reports each time scaled by ``REFERENCE_S`` over
the run's mean chunk time: the time it would take on a host where a chunk
takes ``REFERENCE_S``. The loop is the benchmark's own code, so no change
to ``coci`` moves it.

Chunk times go to ``cal-<pid>.txt`` in a directory of the run, one line
each, because pool workers are forked and keep no state the parent sees.
Each line also names the run mode in progress, or ``-`` between runs, so
that chunk time can be taken out of the record's ``wall_ms``.
"""

from __future__ import annotations

import os
from pathlib import Path
from time import perf_counter
from typing import Callable

#: Iterations of the calibration loop.
CHUNK_LOOPS = 50_000
#: Chunk time the reported times are scaled to; about what one chunk took
#: on a 2-core Intel Xeon VM under Python 3.11.7.
REFERENCE_S = 0.0045
#: Least time between two chunks in one process.
GAP_S = 0.2


def chunk() -> float:
    """Seconds taken by one fixed run of the calibration loop."""
    start = perf_counter()
    s = 0
    for i in range(CHUNK_LOOPS):
        s += i * i % 7
    return perf_counter() - start


class Sampler:
    """Times a chunk per call to :meth:`tick`, at most every ``GAP_S``."""

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir
        self.mode = "-"
        self._last = float("-inf")
        self._saved: list = []

    def tick(self) -> None:
        if perf_counter() - self._last < GAP_S:
            return
        took = chunk()
        with open(self.out_dir / f"cal-{os.getpid()}.txt", "a", encoding="utf-8") as f:
            f.write(f"{self.mode} {took!r}\n")
        self._last = perf_counter()

    def install(self, harness) -> None:
        """Label chunks taken inside the harness's runs with their mode."""
        for mode in ("coci", "uniform"):
            self._patch(harness, f"run_{mode}", lambda fn, mode=mode: self._labelled(mode, fn))

    def watch(self, instance) -> None:
        """Tick at every block draw of the instance's arm models."""
        for cls in {type(model) for model in instance.arm_models}:
            self._patch(cls, "draw", self._ticking)

    def restore(self) -> None:
        for owner, name, fn in reversed(self._saved):
            setattr(owner, name, fn)
        self._saved.clear()

    def _patch(self, owner, name: str, wrap: Callable) -> None:
        fn = getattr(owner, name)
        self._saved.append((owner, name, fn))
        setattr(owner, name, wrap(fn))

    def _labelled(self, mode: str, fn: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            self.mode = mode
            try:
                return fn(*args, **kwargs)
            finally:
                self.mode = "-"

        return wrapper

    def _ticking(self, fn: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            self.tick()
            return fn(*args, **kwargs)

        return wrapper


def read(out_dir: Path) -> list[tuple[str, float]]:
    """Every ``(mode, chunk time)`` written to ``out_dir``, by any process."""
    chunks = []
    for path in sorted(out_dir.glob("cal-*.txt")):
        for line in path.read_text(encoding="utf-8").splitlines():
            mode, took = line.split()
            chunks.append((mode, float(took)))
    return chunks
