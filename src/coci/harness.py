"""Experiment harness: config loading, trial batches, and result files.

A config is a single JSON file describing the application (best-arm, top-k,
osa, or water), the true parameters, the estimator, and the run settings.
Trials are embarrassingly parallel and individually seeded: trial i draws
its integer seed from the splittable sequence ``(master_seed, i)``, so
adding trials never perturbs earlier ones, and a record's seed column alone
reproduces its run. In ``both`` mode the adaptive and uniform samplers share
the trial seed, hence identical per-arm sample streams (paired comparison).

Result files: a records table (CSV or JSON lines) with one column per
:class:`TrialRecord` field, in order, ``pulls`` spread over
``pulls_0..pulls_{m-1}``, and a separate single-object summary JSON.
Everything except the wall-clock column is bitwise reproducible.
"""

from __future__ import annotations

import csv
import json
import math
import time
from dataclasses import MISSING, dataclass, fields as dataclass_fields
from pathlib import Path
from typing import Any, Optional, Sequence, get_type_hints

import numpy as np

from .core import ProblemInstance, integer_value
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
from .sim import ArmModel, Bernoulli, DiscreteSupport, PointMass, ScaledBeta, build_instance, default_models

_FORMATS = ("csv", "json-lines")


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description; see :func:`load_config`. Only
    :func:`parse_config` builds one, so no field has a default."""

    name: str
    application: str
    theta_star: tuple[float, ...]
    estimator: EstimatorKind
    delta: float
    mode: str
    trials: int
    master_seed: int
    k: Optional[int]
    n: Optional[tuple[int, ...]]
    water: Optional[WaterSpec]
    models: Optional[tuple[ArmModel, ...]]
    max_rounds: Optional[int]
    hardness_epsilon: Optional[float]
    out_path: Optional[str]
    out_format: str
    workers: int


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


#: Marks a field that has no default.
_REQUIRED = object()


@dataclass(frozen=True)
class _Field:
    """How to read one config field.

    ``cast`` is ``int``, ``float`` or ``str`` for a scalar, ``[item]`` for a
    nonempty list of ``item`` fields, a dict of fields for an object, or a
    :class:`_Kinds` for an object whose ``kind`` names the dataclass that
    its other fields build. ``low`` and ``high`` bound a number, and
    ``choices`` lists the strings a string may be. A missing field takes
    ``default``, and so does an explicit ``null`` when ``default`` is None.
    """

    cast: Any
    default: Any = _REQUIRED
    low: float = -math.inf
    high: float = math.inf
    choices: tuple = ()


class _Kinds(dict):
    """Dataclasses by ``kind``; each field is a number or a list of numbers,
    with the dataclass default."""


def _dataclass_fields(cls) -> dict[str, _Field]:
    hints = get_type_hints(cls)
    return {
        f.name: _Field(
            float if hints[f.name] is float else [_Field(float)],
            _REQUIRED if f.default is MISSING else f.default,
        )
        for f in dataclass_fields(cls)
    }


#: Every field a config may set, at every level.
_SCHEMA = _Field({
    "name": _Field(str, None),
    "application": _Field(str, choices=("best-arm", "top-k", "osa", "water")),
    "theta_star": _Field([_Field(float, low=0.0, high=1.0)]),
    "estimator": _Field(str, "mean", choices=tuple(kind.name.lower() for kind in EstimatorKind)),
    "delta": _Field(float),
    "mode": _Field(str, "coci", choices=("coci", "uniform", "both")),
    "trials": _Field(int, 1, low=1),
    "master_seed": _Field(int, 0, low=0),
    "k": _Field(int, None),
    "n": _Field([_Field(int, low=1)], None),
    "water": _Field({
        "b": _Field(float, low=0.0),
        "caps": _Field([_Field(float, low=0.0)]),
        "costs": _Field([_Field(_Kinds(quadratic=QuadraticCost, power=PowerCost, linear=LinearCost))]),
        "grid_step": _Field(float),
    }, None),
    "arms": _Field([_Field(_Kinds({
        "bernoulli": Bernoulli,
        "point-mass": PointMass,
        "discrete": DiscreteSupport,
        "beta": ScaledBeta,
    }))], None),
    "max_rounds": _Field(int, None),
    # ``false`` turns hardness off; see parse_config. The low bound is the
    # least positive float, so epsilon > 0.
    "hardness": _Field({"epsilon": _Field(float, 0.01, low=math.ulp(0.0))}, {}),
    "output": _Field({"path": _Field(str, None), "format": _Field(str, "csv", choices=_FORMATS)}, {}),
    "workers": _Field(int, 1, low=1),
})


def _check(value, schema: _Field, path: str):
    """``value`` read as ``schema`` says, or a ``ConfigError`` naming the
    innermost field at fault. A bool is never a number, a number is finite,
    and an ``int`` field takes no fractional part."""
    cast = schema.cast
    if isinstance(cast, list):
        if not (isinstance(value, list) and value):
            raise ConfigError(path, f"expected a nonempty list, got {value!r}")
        return tuple(_check(v, cast[0], f"{path}[{i}]") for i, v in enumerate(value))
    if isinstance(cast, dict):
        if not isinstance(value, dict):
            raise ConfigError(path, f"expected an object, got {value!r}")
        prefix = f"{path}." if path else ""
        if isinstance(cast, _Kinds):
            kind = _check(value.get("kind"), _Field(str, choices=tuple(cast)), prefix + "kind")
            fields = {"kind": _Field(str), **_dataclass_fields(cast[kind])}
        else:
            fields = cast
        for name in value:
            if name not in fields:
                raise ConfigError(prefix + name, "unknown field")
        out = {}
        for name, field in fields.items():
            item = value.get(name, field.default)
            if item is _REQUIRED:
                raise ConfigError(prefix + name, "missing required field")
            out[name] = None if item is None and field.default is None else _check(item, field, prefix + name)
        if not isinstance(cast, _Kinds):
            return out
        del out["kind"]
        try:
            return cast[kind](**out)
        except CociError as exc:
            raise ConfigError(path, str(exc)) from exc
    if cast is str:
        if not isinstance(value, str):
            raise ConfigError(path, f"expected a string, got {value!r}")
        if schema.choices and value not in schema.choices:
            raise ConfigError(path, f"must be one of {schema.choices}, got {value!r}")
        return value
    fractional = cast is int and isinstance(value, float) and not value.is_integer()
    if isinstance(value, bool) or not isinstance(value, (int, float)) or fractional:
        raise ConfigError(path, f"expected {cast.__name__}, got {value!r}")
    try:
        out = cast(value)
        ok = math.isfinite(out) and schema.low <= out <= schema.high
    except OverflowError:  # an integer past the float range
        ok = False
    if not ok:
        raise ConfigError(path, f"{value!r} is not a finite value in [{schema.low}, {schema.high}]")
    return out


def parse_config(raw: dict, name: str = "config") -> ExperimentConfig:
    """Validate a raw config mapping into an :class:`ExperimentConfig`.

    :func:`_check` reads every field by ``_SCHEMA``; the rules below span
    more than one field."""
    hardness_off = raw.get("hardness") is False
    cfg = _check({**raw, "hardness": {}} if hardness_off else raw, _SCHEMA, "")
    application, theta, k, n = cfg["application"], cfg["theta_star"], cfg["k"], cfg["n"]
    m = len(theta)
    estimator = EstimatorKind[cfg["estimator"].upper()]
    try:
        check_delta(cfg["delta"], estimator.tau)
    except UsageError as exc:
        raise ConfigError("delta", str(exc)) from None

    for field, applications in (("k", ("top-k", "osa")), ("n", ("osa",)), ("water", ("water",))):
        if cfg[field] is not None and application not in applications:
            raise ConfigError(field, f"applies only to {' and '.join(applications)}, not {application}")
    water = None
    if application == "best-arm":
        k = 1
    elif application == "top-k":
        if k is None or not 1 <= k <= m:
            raise ConfigError("k", f"top-k requires a subset size k in [1, {m}], got {k}")
    elif application == "osa":
        if n is None or len(n) != m:
            raise ConfigError("n", "osa requires one group size per theta_star entry")
        if k is None or k < m:
            raise ConfigError("k", f"osa requires a sample budget k of at least {m}, got {k}")
        if estimator is not EstimatorKind.VARIANCE:
            raise ConfigError("estimator", "osa estimates within-group variances")
    else:
        if cfg["water"] is None:
            raise ConfigError("water", "the water application requires this object")
        try:
            water = WaterSpec(**cfg["water"])
        except CociError as exc:
            raise ConfigError("water", str(exc)) from exc
        if water.m != m:
            raise ConfigError("water.caps", "source count must match theta_star length")

    if cfg["arms"] is not None and len(cfg["arms"]) != m:
        raise ConfigError("arms", "need one arm model per parameter")
    # The set-up pulls every arm tau times before the first round.
    if cfg["max_rounds"] is not None and cfg["max_rounds"] < estimator.tau * m:
        raise ConfigError("max_rounds", f"must cover the {estimator.tau * m} set-up pulls")

    return ExperimentConfig(
        name=name if cfg["name"] is None else cfg["name"],
        application=application,
        theta_star=theta,
        estimator=estimator,
        delta=cfg["delta"],
        mode=cfg["mode"],
        trials=cfg["trials"],
        master_seed=cfg["master_seed"],
        k=k,
        n=n,
        water=water,
        models=cfg["arms"],
        max_rounds=cfg["max_rounds"],
        hardness_epsilon=None if hardness_off else cfg["hardness"]["epsilon"],
        out_path=cfg["output"]["path"],
        out_format=cfg["output"]["format"],
        workers=cfg["workers"],
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
    models = config.models
    if models is None:
        # The default arm model of each target may not exist (a variance
        # above 0.25); the target is then the field at fault.
        models = []
        for i, target in enumerate(config.theta_star):
            try:
                models += default_models((target,), config.estimator)
            except CociError as exc:
                raise ConfigError(f"theta_star[{i}]", str(exc)) from exc
    try:
        instance = build_instance(
            oracle,
            config.theta_star,
            config.estimator,
            models=models,
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
    (the schema's default when the config turns hardness off); top-k
    problems also get their reward gaps and exchange width."""
    top_k = config.application in ("best-arm", "top-k")
    epsilon = config.hardness_epsilon
    if epsilon is None:
        epsilon = _SCHEMA.cast["hardness"].cast["epsilon"].default
    return hardness_report(
        instance.oracle,
        config.theta_star,
        epsilon=epsilon,
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
    trial order, so worker count does not affect the results. ``workers``
    defaults to the config's and, like it, must be an integer of at least 1.
    """
    workers = config.workers if workers is None else integer_value(workers, "workers", low=1)
    instance = build_problem(config)

    report: HardnessReport | None = None
    if config.hardness_epsilon is not None:
        report = problem_hardness(config, instance)

    tasks = [
        (
            instance,
            config.delta,
            config.mode,
            trial,
            config.master_seed,
            config.max_rounds,
            report.h_lambda if report is not None else None,
        )
        for trial in range(config.trials)
    ]
    if workers > 1 and config.trials > 1:
        # Imported here: the pool's modules are a third of this module's
        # import time, which one-worker runs would pay for nothing.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            grouped = list(pool.map(_run_trial, tasks, chunksize=max(1, len(tasks) // (4 * workers))))
    else:
        grouped = [_run_trial(t) for t in tasks]

    records = tuple(rec for group in grouped for rec in group)
    records = tuple(sorted(records, key=lambda r: (r.trial, r.mode)))
    summary = summarize(config, records, report)
    return ExperimentResult(config=config, records=records, summary=summary, hardness=report)


def _mean(values: Sequence[float]) -> float:
    """``statistics.fmean``, by its own formula: the correctly rounded sum
    over the count."""
    return math.fsum(values) / len(values)


def _median(values: Sequence[int]) -> int | float:
    """``statistics.median``: the middle value of an odd count, as given,
    or the mean of the two middle ones of an even count, a float."""
    ordered = sorted(values)
    half = len(ordered) // 2
    return ordered[half] if len(ordered) % 2 else (ordered[half - 1] + ordered[half]) / 2


def _mode_summary(records: Sequence[TrialRecord]) -> dict:
    rounds = [r.rounds for r in records]
    m = len(records[0].pulls)
    return {
        "trials": len(records),
        "error_rate": sum(not r.correct for r in records) / len(records),
        "mean_rounds": _mean(rounds),
        "median_rounds": _median(rounds),
        "p95_rounds": float(np.percentile(rounds, 95)),
        "mean_pulls_per_arm": [_mean([r.pulls[i] for r in records]) for i in range(m)],
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


def _record_row(r: TrialRecord) -> dict:
    """A record's row in the results table: its fields in order, with
    ``pulls`` spread over ``pulls_0..pulls_{m-1}``."""
    row = {}
    for f in dataclass_fields(TrialRecord):
        value = getattr(r, f.name)
        if f.name == "pulls":
            row.update((f"pulls_{i}", v) for i, v in enumerate(value))
        else:
            row[f.name] = value
    return row


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
    rows = [_record_row(r) for r in records]
    written = []

    if fmt == "csv":
        path = out_dir / "records.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(rows[0])
            writer.writerows([_cell(v) for v in row.values()] for row in rows)
        written.append(path)
    else:
        path = out_dir / "records.jsonl"
        with open(path, "w", encoding="utf-8") as fh:
            for row in rows:
                fh.write(json.dumps(row))
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


#: The inverse of :func:`_cell` for each type of a :class:`TrialRecord` field
#: but ``pulls``.
_PARSE_CELL = {
    int: int,
    str: str,
    float: float,
    bool: _parse_bool,
    Optional[bool]: _parse_bool,
    Optional[float]: lambda cell: float(cell) if cell else None,
}


def parse_records_csv(path: str | Path) -> tuple[TrialRecord, ...]:
    """Inverse of the CSV emitter (round-trip safe)."""
    hints = get_type_hints(TrialRecord)
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        pull_cols = [h for h in header if h.startswith("pulls_")]
        records = []
        for row in reader:
            cells = dict(zip(header, row))
            values = {name: _PARSE_CELL[hint](cells[name]) for name, hint in hints.items() if name != "pulls"}
            records.append(TrialRecord(pulls=tuple(int(cells[c]) for c in pull_cols), **values))
    return tuple(records)
