"""Experiment harness: config loading, trial batches, and result files.

A config is a single JSON file describing the application (best-arm, top-k,
osa, or water), the true parameters, the estimator, and the run settings.
Trials are embarrassingly parallel and individually seeded: trial i draws
its integer seed from the splittable sequence ``(master_seed, i)``, so
adding trials never perturbs earlier ones, and a record's seed column alone
reproduces its run. In ``both`` mode the adaptive and uniform samplers share
the trial seed, hence identical per-arm sample streams (paired comparison).

Result files: a records table (CSV or JSON lines) with columns
``trial, seed, mode, rounds, correct, xi_held, bound_value, bound_satisfied,
pulls_0..pulls_{m-1}, wall_ms`` and a separate single-object summary JSON.
Everything except the wall-clock column is bitwise reproducible.
"""

from __future__ import annotations

import csv
import json
import math
import statistics
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields as dataclass_fields
from pathlib import Path
from typing import Any, Optional, Sequence

import numpy as np

from .core import ProblemInstance
from .engine import RunResult, run_coci, run_uniform
from .errors import CociError, ConfigError, UsageError
from .estimators import EstimatorKind, check_delta
from .hardness import WIDTH_TOP_K, HardnessReport, hardness_report
from .oracles import (
    LinearCost,
    PowerCost,
    QuadraticCost,
    WaterSpec,
    make_top_k_oracle,
    make_water_oracle,
)
from .osa import make_osa_oracle
from .sim import ArmModel, Bernoulli, DiscreteSupport, PointMass, ScaledBeta, build_instance

_APPLICATIONS = ("best-arm", "top-k", "osa", "water")
_MODES = ("coci", "uniform", "both")
_FORMATS = ("csv", "json-lines")


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description; see :func:`load_config`."""

    name: str
    application: str
    theta_star: tuple[float, ...]
    estimator: EstimatorKind
    delta: float
    mode: str
    trials: int
    master_seed: int
    k: Optional[int] = None
    n: Optional[tuple[int, ...]] = None
    water: Optional[WaterSpec] = None
    models: Optional[tuple[ArmModel, ...]] = None
    max_rounds: Optional[int] = None
    hardness_epsilon: Optional[float] = 0.01
    out_path: Optional[str] = None
    out_format: str = "csv"
    workers: int = 1


@dataclass(frozen=True)
class TrialRecord:
    """One run's row in the results table."""

    trial: int
    seed: int
    mode: str
    rounds: int
    correct: bool
    xi_held: bool
    bound_value: Optional[float]
    bound_satisfied: Optional[bool]
    pulls: tuple[int, ...]
    wall_ms: float


@dataclass(frozen=True)
class ExperimentResult:
    config: ExperimentConfig
    records: tuple[TrialRecord, ...]
    summary: dict
    hardness: Optional[HardnessReport]


def trial_seed(master_seed: int, trial: int) -> int:
    """Integer seed of a trial, from the splittable pair (master, trial)."""
    return int(np.random.SeedSequence((master_seed, trial)).generate_state(1, np.uint64)[0])


# ---------------------------------------------------------------------------
# Config parsing
# ---------------------------------------------------------------------------


def _require(raw: dict, field: str, types, path: str):
    if field not in raw:
        raise ConfigError(f"{path}{field}", "missing required field")
    value = raw[field]
    if not isinstance(value, types):
        raise ConfigError(f"{path}{field}", f"expected {types}, got {type(value).__name__}")
    return value


def _read(value, field: str, cast, low=-math.inf, high=math.inf):
    """``cast(value)`` when that succeeds, loses nothing and is a finite
    value in [low, high]; otherwise a ``ConfigError`` naming ``field``. A
    bool is never a number, and an ``int`` field takes no fractional part."""
    try:
        fractional = cast is int and isinstance(value, float) and not value.is_integer()
        if isinstance(value, bool) or fractional:
            raise ValueError
        out = cast(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(field, f"expected {cast.__name__}, got {value!r}") from None
    if not (low <= out <= high and math.isfinite(out)):
        raise ConfigError(field, f"{out} is not a finite value in [{low}, {high}]")
    return out


def _check_fields(raw: dict, known, path: str) -> None:
    """Reject a field of ``raw`` that is not in ``known``: a misspelt or
    retired setting would otherwise be ignored without a word."""
    for field in raw:
        if field not in known:
            raise ConfigError(f"{path}{field}", "unknown field")


#: The fields a config may set, at the top level and in its sub-objects.
_FIELDS = {
    "name", "application", "theta_star", "estimator", "delta", "mode", "trials",
    "master_seed", "k", "n", "water", "arms", "max_rounds", "hardness", "output", "workers",
}
_WATER_FIELDS = {"b", "caps", "costs", "grid_step"}
_HARDNESS_FIELDS = {"epsilon"}
_OUTPUT_FIELDS = {"path", "format"}

#: Cost functions by kind; a cost entry sets their number fields by name.
_COST_KINDS = {"quadratic": QuadraticCost, "power": PowerCost, "linear": LinearCost}

_MODEL_KINDS = {
    "bernoulli": lambda spec: Bernoulli(float(spec["p"])),
    "point-mass": lambda spec: PointMass(float(spec["v"])),
    "discrete": lambda spec: DiscreteSupport(
        tuple(float(v) for v in spec["values"]),
        tuple(float(p) for p in spec["probabilities"]),
    ),
    "beta": lambda spec: ScaledBeta(float(spec["a"]), float(spec["b"])),
}


def parse_config(raw: dict, name: str = "config") -> ExperimentConfig:
    """Validate a raw config mapping into an :class:`ExperimentConfig`."""
    _check_fields(raw, _FIELDS, "")
    application = _require(raw, "application", str, "")
    if application not in _APPLICATIONS:
        raise ConfigError("application", f"must be one of {_APPLICATIONS}")
    theta = tuple(
        _read(v, f"theta_star[{i}]", float, 0.0, 1.0)
        for i, v in enumerate(_require(raw, "theta_star", list, ""))
    )
    if not theta:
        raise ConfigError("theta_star", "must be a nonempty list")

    est_name = raw.get("estimator", "mean")
    try:
        estimator = EstimatorKind[str(est_name).upper()]
    except KeyError:
        raise ConfigError("estimator", f"unknown estimator {est_name!r}") from None

    delta = _read(_require(raw, "delta", (int, float), ""), "delta", float)
    try:
        check_delta(delta, estimator.tau)
    except UsageError as exc:
        raise ConfigError("delta", str(exc)) from None

    mode = raw.get("mode", "coci")
    if mode not in _MODES:
        raise ConfigError("mode", f"must be one of {_MODES}")
    trials = _read(raw.get("trials", 1), "trials", int, 1)
    master_seed = _read(raw.get("master_seed", 0), "master_seed", int, 0)

    k = raw.get("k")
    n = raw.get("n")
    water = None
    if application == "top-k":
        if k is None:
            raise ConfigError("k", "top-k requires a subset size k")
        k = _read(k, "k", int, 1, len(theta))
    elif application == "best-arm":
        k = 1
    elif application == "osa":
        n = tuple(_read(v, f"n[{i}]", int, 1) for i, v in enumerate(_require(raw, "n", list, "")))
        if len(n) != len(theta):
            raise ConfigError("n", "group sizes must match theta_star length")
        if k is None:
            raise ConfigError("k", "osa requires a sample budget k")
        k = _read(k, "k", int, len(n))
        if estimator is not EstimatorKind.VARIANCE:
            raise ConfigError("estimator", "osa estimates within-group variances")
    elif application == "water":
        wraw = _require(raw, "water", dict, "")
        _check_fields(wraw, _WATER_FIELDS, "water.")
        costs = []
        for idx, cost in enumerate(_require(wraw, "costs", list, "water.")):
            kind = cost.get("kind") if isinstance(cost, dict) else None
            if kind not in _COST_KINDS:
                raise ConfigError(f"water.costs[{idx}]", f"unknown cost kind {kind!r}")
            cls = _COST_KINDS[kind]
            field = f"water.costs[{idx}]"
            _check_fields(cost, {"kind", *(f.name for f in dataclass_fields(cls))}, field + ".")
            costs.append(
                cls(**{key: _read(v, field, float) for key, v in cost.items() if key != "kind"})
            )
        b = _read(_require(wraw, "b", (int, float), "water."), "water.b", float, 0.0)
        caps = tuple(
            _read(c, f"water.caps[{i}]", float, 0.0)
            for i, c in enumerate(_require(wraw, "caps", list, "water."))
        )
        grid_step = _read(_require(wraw, "grid_step", (int, float), "water."), "water.grid_step", float)
        try:
            water = WaterSpec(b=b, caps=caps, costs=tuple(costs), grid_step=grid_step)
        except CociError as exc:
            raise ConfigError("water", str(exc)) from exc
        if water.m != len(theta):
            raise ConfigError("water.caps", "source count must match theta_star length")

    models: tuple[ArmModel, ...] | None = None
    if "arms" in raw:
        entries = _require(raw, "arms", list, "")
        if len(entries) != len(theta):
            raise ConfigError("arms", "need one arm model per parameter")
        parsed = []
        for idx, entry in enumerate(entries):
            kind = entry.get("kind") if isinstance(entry, dict) else None
            if kind not in _MODEL_KINDS:
                raise ConfigError(f"arms[{idx}].kind", f"unknown arm model {kind!r}")
            try:
                parsed.append(_MODEL_KINDS[kind](entry))
            except (CociError, KeyError, TypeError, ValueError) as exc:
                raise ConfigError(f"arms[{idx}]", str(exc)) from exc
        models = tuple(parsed)

    hardness_raw = raw.get("hardness", {})
    if hardness_raw is False:
        hardness_epsilon = None
    elif isinstance(hardness_raw, dict):
        _check_fields(hardness_raw, _HARDNESS_FIELDS, "hardness.")
        hardness_epsilon = _read(hardness_raw.get("epsilon", 0.01), "hardness.epsilon", float)
        if not hardness_epsilon > 0.0:
            raise ConfigError("hardness.epsilon", f"must be positive, got {hardness_epsilon}")
    else:
        raise ConfigError("hardness", "must be false or an object like {'epsilon': 0.01}")

    output = raw.get("output", {})
    if not isinstance(output, dict):
        raise ConfigError("output", "must be an object")
    _check_fields(output, _OUTPUT_FIELDS, "output.")
    out_path = output.get("path")
    if out_path is not None and not isinstance(out_path, str):
        raise ConfigError("output.path", f"must be a string, got {out_path!r}")
    out_format = output.get("format", "csv")
    if out_format not in _FORMATS:
        raise ConfigError("output.format", f"must be one of {_FORMATS}")

    max_rounds = raw.get("max_rounds")
    if max_rounds is not None:
        # The set-up pulls every arm tau times before the first round.
        max_rounds = _read(max_rounds, "max_rounds", int, estimator.tau * len(theta))
    workers = _read(raw.get("workers", 1), "workers", int, 1)

    return ExperimentConfig(
        name=str(raw.get("name", name)),
        application=application,
        theta_star=theta,
        estimator=estimator,
        delta=delta,
        mode=mode,
        trials=trials,
        master_seed=master_seed,
        k=k,
        n=n,
        water=water,
        models=models,
        max_rounds=max_rounds,
        hardness_epsilon=hardness_epsilon,
        out_path=out_path,
        out_format=out_format,
        workers=workers,
    )


def read_config(path: str | Path) -> dict:
    """Read a JSON config file into the raw mapping :func:`parse_config` takes."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(str(path), f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(str(path), f"invalid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(str(path), "top-level config must be an object")
    return raw


def load_config(path: str | Path) -> ExperimentConfig:
    """Parse and validate a JSON config file."""
    return parse_config(read_config(path), name=Path(path).stem)


_UNIQUENESS_CHECK_LIMIT = 100_000


def build_problem(config: ExperimentConfig) -> ProblemInstance:
    """Instantiate the oracle and arm models described by a config.

    Degenerate parameter vectors (non-unique optimum) are rejected here when
    the decision class is small enough to enumerate.
    """
    if config.application in ("best-arm", "top-k"):
        oracle = make_top_k_oracle(len(config.theta_star), config.k or 1)
    elif config.application == "osa":
        oracle = make_osa_oracle(config.n, config.k)
    else:
        oracle = make_water_oracle(config.water)
    try:
        instance = build_instance(
            oracle,
            config.theta_star,
            config.estimator,
            models=config.models,
            name=config.name,
        )
    except CociError as exc:
        raise ConfigError("arms", str(exc)) from exc
    if oracle.decision_count is not None and oracle.decision_count <= _UNIQUENESS_CHECK_LIMIT:
        try:
            instance.check_unique_optimum()
        except CociError as exc:
            raise ConfigError("theta_star", str(exc)) from exc
    return instance


def problem_hardness(config: ExperimentConfig, instance: ProblemInstance) -> HardnessReport:
    """The hardness report of a config's instance at its ``hardness_epsilon``
    (0.01 when the config turns hardness off); top-k problems also get
    their reward gaps and exchange width."""
    top_k = config.application in ("best-arm", "top-k")
    return hardness_report(
        instance.oracle,
        config.theta_star,
        epsilon=0.01 if config.hardness_epsilon is None else config.hardness_epsilon,
        width=WIDTH_TOP_K if top_k else None,
        include_gaps=top_k,
    )


# ---------------------------------------------------------------------------
# Trial execution
# ---------------------------------------------------------------------------


def _run_trial(args) -> list[TrialRecord]:
    (instance, delta, mode, trial, master_seed, max_rounds, h_lambda) = args
    seed = trial_seed(master_seed, trial)
    records = []
    modes = ("coci", "uniform") if mode == "both" else (mode,)
    for run_mode in modes:
        runner = run_coci if run_mode == "coci" else run_uniform
        start = time.perf_counter()
        result: RunResult = runner(
            instance,
            delta,
            seed=seed,
            max_rounds=max_rounds,
            h_lambda=h_lambda,
        )
        wall_ms = (time.perf_counter() - start) * 1e3
        records.append(
            TrialRecord(
                trial=trial,
                seed=seed,
                mode=run_mode,
                rounds=result.rounds,
                correct=result.correct,
                xi_held=result.xi_held,
                bound_value=result.bound_value,
                bound_satisfied=result.bound_satisfied,
                pulls=result.per_arm_pulls,
                wall_ms=wall_ms,
            )
        )
    return records


def run_experiment(
    config: ExperimentConfig,
    workers: int | None = None,
) -> ExperimentResult:
    """Execute all trials of a config and aggregate the summary.

    Trials run in parallel when ``workers > 1``; records are reduced in
    trial order, so worker count does not affect the results.
    """
    instance = build_problem(config)
    workers = config.workers if workers is None else workers

    report: HardnessReport | None = None
    h_lambda: float | None = None
    if config.hardness_epsilon is not None:
        report = problem_hardness(config, instance)
        if math.isfinite(report.h_lambda):
            h_lambda = report.h_lambda

    tasks = [
        (
            instance,
            config.delta,
            config.mode,
            trial,
            config.master_seed,
            config.max_rounds,
            h_lambda,
        )
        for trial in range(config.trials)
    ]
    if workers > 1 and config.trials > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            grouped = list(pool.map(_run_trial, tasks, chunksize=max(1, len(tasks) // (4 * workers))))
    else:
        grouped = [_run_trial(t) for t in tasks]

    records = tuple(rec for group in grouped for rec in group)
    records = tuple(sorted(records, key=lambda r: (r.trial, r.mode)))
    summary = summarize(config, records, report)
    return ExperimentResult(config=config, records=records, summary=summary, hardness=report)


def _mode_summary(records: Sequence[TrialRecord]) -> dict:
    rounds = [r.rounds for r in records]
    m = len(records[0].pulls)
    return {
        "trials": len(records),
        "error_rate": sum(not r.correct for r in records) / len(records),
        "mean_rounds": statistics.fmean(rounds),
        "median_rounds": statistics.median(rounds),
        "p95_rounds": float(np.percentile(rounds, 95)),
        "mean_pulls_per_arm": [
            statistics.fmean(r.pulls[i] for r in records) for i in range(m)
        ],
        "xi_frequency": sum(r.xi_held for r in records) / len(records),
        "bound_violations": sum(r.bound_satisfied is False for r in records),
    }


def summarize(
    config: ExperimentConfig,
    records: Sequence[TrialRecord],
    report: HardnessReport | None,
) -> dict:
    """Deterministic aggregate statistics over the trial records."""
    modes = sorted({r.mode for r in records})
    per_mode = {
        mode: _mode_summary([r for r in records if r.mode == mode]) for mode in modes
    }
    summary: dict[str, Any] = {
        "name": config.name,
        "application": config.application,
        "estimator": config.estimator.name.lower(),
        "delta": config.delta,
        "trials": config.trials,
        "master_seed": config.master_seed,
        "mode": config.mode,
        "modes": per_mode,
        "hardness": report.to_dict() if report is not None else None,
    }
    if "coci" in per_mode and "uniform" in per_mode:
        summary["paired_round_ratio"] = (
            per_mode["coci"]["mean_rounds"] / per_mode["uniform"]["mean_rounds"]
        )
    return summary


# ---------------------------------------------------------------------------
# Result files
# ---------------------------------------------------------------------------


def _record_fields(m: int) -> list[str]:
    return (
        ["trial", "seed", "mode", "rounds", "correct", "xi_held", "bound_value", "bound_satisfied"]
        + [f"pulls_{i}" for i in range(m)]
        + ["wall_ms"]
    )


def _record_row(r: TrialRecord) -> list:
    """A record's values in :func:`_record_fields` order."""
    return [
        r.trial,
        r.seed,
        r.mode,
        r.rounds,
        r.correct,
        r.xi_held,
        r.bound_value,
        r.bound_satisfied,
        *r.pulls,
        r.wall_ms,
    ]


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return repr(value) if isinstance(value, float) else str(value)


def emit_results(
    records: Sequence[TrialRecord],
    summary: dict,
    out_dir: str | Path,
    fmt: str = "csv",
) -> list[Path]:
    """Write the records table and the summary file; returns written paths."""
    if not records:
        raise CociError("no records to emit")
    if fmt not in _FORMATS:
        raise CociError(f"unknown output format {fmt!r}")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    m = len(records[0].pulls)
    fields = _record_fields(m)
    written = []

    if fmt == "csv":
        path = out_dir / "records.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(fields)
            for r in records:
                writer.writerow([_cell(v) for v in _record_row(r)])
        written.append(path)
    else:
        path = out_dir / "records.jsonl"
        with open(path, "w", encoding="utf-8") as fh:
            for r in records:
                fh.write(json.dumps(dict(zip(fields, _record_row(r)))))
                fh.write("\n")
        written.append(path)

    summary_path = out_dir / "summary.json"
    with open(summary_path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    written.append(summary_path)
    return written


def _parse_bool(cell: str) -> bool | None:
    if cell == "":
        return None
    if cell not in ("true", "false"):
        raise CociError(f"bad boolean cell {cell!r}")
    return cell == "true"


def parse_records_csv(path: str | Path) -> tuple[TrialRecord, ...]:
    """Inverse of the CSV emitter (round-trip safe)."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        pull_cols = [h for h in header if h.startswith("pulls_")]
        records = []
        for row in reader:
            cells = dict(zip(header, row))
            records.append(
                TrialRecord(
                    trial=int(cells["trial"]),
                    seed=int(cells["seed"]),
                    mode=cells["mode"],
                    rounds=int(cells["rounds"]),
                    correct=_parse_bool(cells["correct"]),
                    xi_held=_parse_bool(cells["xi_held"]),
                    bound_value=float(cells["bound_value"]) if cells["bound_value"] else None,
                    bound_satisfied=_parse_bool(cells["bound_satisfied"]),
                    pulls=tuple(int(cells[c]) for c in pull_cols),
                    wall_ms=float(cells["wall_ms"]),
                )
            )
    return tuple(records)
