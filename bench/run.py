"""The coci benchmark: seeded Monte Carlo workloads through the public harness.

Usage:
    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere; ``coci`` is imported from the checkout's ``src/``. The
workloads are defined in ``bench/workloads.json``; ``--seed`` is the
workload's master seed and defaults to the one stored there.

Untraced (``--trace 0``): runs ``run_experiment`` on the workload config,
as a batch of trials, repeatedly until the next batch would end after
``--seconds``; at least one batch runs. Then it times cold set-ups in fresh
interpreters (``setup_probe.py``): ``SETUP_PROBES`` of them, and more while
they took less than ``SETUP_BUDGET_S`` in all, up to ``MAX_SETUP_PROBES``. It prints every
end-to-end metric. Every time is scaled to a reference host speed measured
alongside it (see ``calibrate.py``); the unscaled times are printed too.
Set-up timings are medians over probes; batch timings are sums or means
over the run's batches, because the host's speed is bimodal and a median
jumps between its modes:

- ``setup_s``: package import, config parse, ``build_problem`` and
  ``hardness_report``, up to the first trial;
- ``wall_s``: package import plus one ``run_experiment`` call, the mean
  over batches;
- ``rounds_per_s``: sampler rounds over trial-phase time, which runs from
  the end of set-up to records in hand;
- ``coci_us_per_round`` / ``uniform_us_per_round``: summed record
  ``wall_ms`` over summed rounds, per mode;
- ``coci_mean_rounds`` / ``uniform_mean_rounds``: deterministic given the
  seed; a change that moves them is a behaviour change;
- ``peak_rss_mb``: see :func:`peak_rss_mb`.

Traced (``--trace 1``): runs ``traced_trials`` trials three ways: through
the pool at the workload's worker count (skipped with one worker), then
in-process untraced, then in-process with every layer wrapped (see
``tracing.py``). It prints every per-layer metric and writes the layer
totals to ``.bench-out/`` in the checkout.

Every run checks its outputs:

- every record is correct and stopped below its round cap. Records carry no
  ``converged`` flag and the harness turns ``correct=None`` into False, so
  a run that hit its cap is recognised by ``rounds >= cap``, where the cap
  is the config's ``max_rounds`` or, failing that, ``ceil(10 *
  bound_value)`` as ``run_coci`` derives it;
- every batch of a run has the same behaviour digest (:func:`digest`);
- at the default seed, the digest equals the one stored for the workload;
- in the traced run, per-layer self times add up to the traced trial-phase
  wall within [``COVERAGE_MIN``, ``COVERAGE_MAX``].

The last line of output is one JSON object: ``correct``, ``attempted`` and
``failed`` (trial runs, over all batches) and ``metrics``. The exit code is
0 when the outputs are correct and 1 when they are not or when the checkout
has no ``src/coci``.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import argparse
import dataclasses
import hashlib
import json
import math
import resource
import statistics
import subprocess
import tempfile
from pathlib import Path
from time import perf_counter

import calibrate
import tracing
import workloads

SETUP_PROBES = 7
SETUP_BUDGET_S = 4.0
MAX_SETUP_PROBES = 21
#: Share of the traced trial-phase wall the layers' self times must cover.
#: The rest is harness code outside any wrapped call (record building,
#: sorting, the summary); more than the whole means double counting.
COVERAGE_MIN = 0.95
COVERAGE_MAX = 1.001


@dataclasses.dataclass
class Batch:
    """One ``run_experiment`` call, reduced to what the metrics need.

    The records themselves are dropped, so that peak RSS does not grow with
    the number of batches a run fits in.
    """

    runs: int
    failed: int
    rounds: int
    busy_s: float
    #: Summed record ``wall_ms`` and summed rounds, per mode.
    mode_ms: dict
    mode_rounds: dict
    mean_rounds: dict
    digest: str
    wall_s: float
    trial_wall_s: float
    emit_s: float
    recorder: tracing.Recorder
    #: Calibration chunk times, in seconds; empty unless calibrated.
    chunks: list[float]


def digest(records, summary_bytes: bytes) -> str:
    """SHA-256 over every record column but ``wall_ms``, then ``summary.json``."""
    h = hashlib.sha256()
    for record in records:
        row = dataclasses.asdict(record)
        del row["wall_ms"]
        h.update(json.dumps(row, sort_keys=True).encode())
        h.update(b"\n")
    h.update(summary_bytes)
    return h.hexdigest()


def failed_records(config, records) -> int:
    failed = 0
    for r in records:
        cap = config.max_rounds if config.max_rounds is not None else math.ceil(10 * r.bound_value)
        if not r.correct or r.rounds >= cap:
            failed += 1
    return failed


def run_batch(config, workers: int, traced: bool, scratch: Path, calibrated: bool = False) -> Batch:
    from coci import harness

    sampler = calibrate.Sampler(Path(tempfile.mkdtemp(dir=scratch))) if calibrated else None
    recorder = tracing.Recorder(traced, sampler)
    with recorder.installed():
        start = perf_counter()
        result = harness.run_experiment(config, workers=workers)
        end = perf_counter()
    out = Path(tempfile.mkdtemp(dir=scratch))
    emit_start = perf_counter()
    harness.emit_results(result.records, result.summary, out, "csv")
    emit_s = perf_counter() - emit_start
    summary_bytes = (out / "summary.json").read_bytes()

    records = result.records
    by_mode = {mode: [r for r in records if r.mode == mode] for mode in ("coci", "uniform")}
    chunks = calibrate.read(sampler.out_dir) if sampler else []
    # The chunks ran inside the batch, in this process or spread over the
    # pool's workers; take them out of its wall time, and those taken in a
    # run out of its mode's summed wall_ms.
    parallel = workers if workers > 1 and config.trials > 1 else 1
    cal_s = sum(took for _, took in chunks) / parallel
    cal_ms = {mode: sum(took for m, took in chunks if m == mode) * 1e3 for mode in by_mode}
    return Batch(
        runs=len(records),
        failed=failed_records(config, records),
        rounds=sum(r.rounds for r in records),
        busy_s=sum(r.wall_ms for r in records) / 1e3,
        mode_ms={mode: sum(r.wall_ms for r in runs) - cal_ms[mode] for mode, runs in by_mode.items()},
        mode_rounds={mode: sum(r.rounds for r in runs) for mode, runs in by_mode.items()},
        mean_rounds={mode: statistics.fmean(r.rounds for r in runs) for mode, runs in by_mode.items()},
        digest=digest(records, summary_bytes),
        wall_s=end - start - cal_s,
        trial_wall_s=end - recorder.setup_end - cal_s,
        emit_s=emit_s,
        recorder=recorder,
        chunks=[took for _, took in chunks],
    )


def setup_probe(name: str, seed: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(workloads.HERE / "setup_probe.py"), name, str(seed)],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest exited child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def untraced(args, spec, scratch: Path, problems: list) -> tuple[dict, list]:
    config = workloads.config_for(spec, args.seed)
    batches: list[Batch] = []
    start = perf_counter()
    while True:
        batch = run_batch(config, config.workers, False, scratch, calibrated=True)
        batches.append(batch)
        if perf_counter() - start + batch.wall_s > args.seconds:
            break
    rss = peak_rss_mb()  # before the probes, so children are pool workers only
    probes = []
    start = perf_counter()
    while len(probes) < SETUP_PROBES or (
        len(probes) < MAX_SETUP_PROBES and perf_counter() - start < SETUP_BUDGET_S
    ):
        probes.append(setup_probe(args.workload, args.seed))

    check_digests(args, spec, "digest", batches, problems)
    chunks = [c for b in batches for c in b.chunks]
    if not chunks:
        raise SystemExit("no calibration chunk was timed")
    scale = calibrate.REFERENCE_S / statistics.fmean(chunks)
    print(f"host scale: {scale:.4f} from {len(chunks)} calibration chunks")
    raw = {
        "wall_s": statistics.median(p["import_s"] for p in probes)
        + statistics.fmean(b.wall_s for b in batches),
        "setup_s": statistics.median(p["setup_s"] for p in probes),
        "trial_s_per_round": sum(b.trial_wall_s for b in batches) / sum(b.rounds for b in batches),
        **{
            f"{mode}_us_per_round": sum(b.mode_ms[mode] for b in batches)
            * 1e3
            / sum(b.mode_rounds[mode] for b in batches)
            for mode in ("coci", "uniform")
        },
    }
    print("unscaled: " + ", ".join(f"{k} {v}" for k, v in raw.items()))
    metrics = {
        "wall_s": (
            statistics.median(p["import_s"] * calibrate.REFERENCE_S / p["cal_s"] for p in probes)
            + statistics.fmean(b.wall_s for b in batches) * scale,
            "s",
        ),
        "setup_s": (
            statistics.median(p["setup_s"] * calibrate.REFERENCE_S / p["cal_s"] for p in probes),
            "s",
        ),
        "rounds_per_s": (1 / (raw["trial_s_per_round"] * scale), "1/s"),
        "coci_us_per_round": (raw["coci_us_per_round"] * scale, "us"),
        "uniform_us_per_round": (raw["uniform_us_per_round"] * scale, "us"),
        "coci_mean_rounds": (batches[0].mean_rounds["coci"], "rounds"),
        "uniform_mean_rounds": (batches[0].mean_rounds["uniform"], "rounds"),
        "peak_rss_mb": (rss, "MB"),
    }
    print(f"batches: {len(batches)} of {config.trials} trials, {len(probes)} set-up probes")
    return metrics, batches


def traced(args, spec, scratch: Path, problems: list) -> tuple[dict, list]:
    config = workloads.config_for(spec, args.seed, trials=spec["traced_trials"])
    pool = run_batch(config, config.workers, False, scratch) if config.workers > 1 else None
    plain = run_batch(config, 1, False, scratch)
    wrapped = run_batch(config, 1, True, scratch)
    batches = [b for b in (pool, plain, wrapped) if b is not None]
    check_digests(args, spec, "traced_digest", batches, problems)

    rec = wrapped.recorder
    rounds = wrapped.rounds
    wall = wrapped.trial_wall_s
    layer = {name: rec.trial_totals(name) for name in tracing.TRIAL_LAYERS}
    covered = sum(totals.self_s for totals in layer.values())
    coverage = covered / wall
    print(f"traced trial phase: {wall:.3f} s, layer self times cover {coverage:.4f} of it")
    if not COVERAGE_MIN <= coverage <= COVERAGE_MAX:
        problems.append(f"layer self times cover {coverage:.4f} of the traced trial phase")

    setup = rec.at_first_trial
    none = tracing.LayerTotals()
    hardness_rows = setup.get("oracles", none).calls + setup.get("oracles.batch", none).tally
    busy = pool or plain
    cond, orc, eng = layer["condition"], layer["oracles"], layer["engine"]
    draw, stream, est = layer["sim.draw"], layer["sim.stream"], layer["estimators"]
    metrics = {
        "condition.tests_per_round": (cond.calls / rounds, "count/round"),
        "condition.self_us": (cond.self_s * 1e6 / cond.calls, "us"),
        "condition.hit_ratio": (cond.tally / cond.calls, "ratio"),
        "condition.share": (cond.self_s / wall, "ratio"),
        "oracles.calls_per_round": (orc.calls / rounds, "count/round"),
        "oracles.call_us": (orc.self_s * 1e6 / orc.calls, "us"),
        "oracles.share": (orc.self_s / wall, "ratio"),
        "engine.self_us_per_round": (eng.self_s * 1e6 / rounds, "us/round"),
        "engine.share": (eng.self_s / wall, "ratio"),
        "sim.draws": (draw.calls, "count"),
        "sim.draw_us": (draw.self_s * 1e6 / draw.calls, "us"),
        "sim.streams": (stream.calls, "count"),
        "sim.stream_setup_us": (stream.self_s * 1e6 / stream.calls, "us"),
        "estimators.updates": (est.calls, "count"),
        "estimators.update_us": (est.self_s * 1e6 / est.calls, "us"),
        "hardness.report_s": (plain.recorder.first_trial - plain.recorder.build_end, "s"),
        "hardness.oracle_rows": (hardness_rows, "count"),
        "harness.busy_share": (
            busy.busy_s / (config.workers * busy.trial_wall_s),
            "ratio",
        ),
        "harness.emit_ms": (plain.emit_s * 1e3, "ms"),
        "trace.overhead_ratio": (wall / plain.trial_wall_s, "ratio"),
    }
    out_dir = workloads.ROOT / ".bench-out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"trace-{args.workload}-{args.seed}.json").write_text(
        json.dumps(
            {
                "workload": args.workload,
                "seed": args.seed,
                "trials": config.trials,
                "rounds": rounds,
                "trial_wall_s": wall,
                "untraced_trial_wall_s": plain.trial_wall_s,
                "setup_layers": {k: dataclasses.asdict(v) for k, v in setup.items()},
                "trial_layers": {k: dataclasses.asdict(v) for k, v in layer.items()},
            },
            indent=2,
        )
        + "\n",
        encoding="utf-8",
    )
    return metrics, batches


def check_digests(args, spec, key: str, batches, problems: list) -> None:
    got = {b.digest for b in batches}
    if len(got) > 1:
        problems.append(f"batches of one run differ in behaviour: {sorted(got)}")
    print(f"{key}: {batches[0].digest}")
    if args.seed == spec["config"]["master_seed"] and batches[0].digest != spec[key]:
        problems.append(f"{key} {batches[0].digest} differs from the stored {spec[key]}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.names())
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = workloads.load(args.workload)
    if args.seed is None:
        args.seed = spec["config"]["master_seed"]

    workloads.use_source_tree()
    problems: list[str] = []
    with tempfile.TemporaryDirectory(prefix=".bench-tmp-", dir=workloads.ROOT) as tmp:
        run = traced if args.trace else untraced
        metrics, batches = run(args, spec, Path(tmp), problems)

    attempted = sum(b.runs for b in batches)
    failed = sum(b.failed for b in batches)
    if failed:
        problems.append(f"{failed} of {attempted} trial runs were wrong or hit their round cap")
    print(f"error_rate: {failed / attempted} ({failed} of {attempted} trial runs failed)")
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value} {unit}")
    for problem in problems:
        print(f"FAILED: {problem}")
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
