import csv
import json
import math
import os
import re
import statistics
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from coci import Bernoulli, CociError, ConfigError, UsageError, harness
from coci.cli import main as cli_main
from coci.harness import (
    _SCHEMA,
    ExperimentConfig,
    TrialRecord,
    emit_results,
    load_config,
    parse_config,
    parse_records_csv,
    read_config,
    run_experiment,
    trial_seed,
)

CONFIG_DIR = Path(__file__).parent.parent / "configs"
SRC_DIR = Path(__file__).parent.parent / "src"
README = Path(__file__).parent.parent / "README.md"


def _water(**fields) -> dict:
    """A valid two-source water block with ``fields`` replaced."""
    return {"b": 1.0, "caps": [1.0, 1.0], "grid_step": 0.5, "costs": [{"kind": "quadratic"}] * 2, **fields}


def _readme_config_lines() -> list[str]:
    """The README's example config block, its ``//`` comments removed."""
    block = README.read_text(encoding="utf-8").split("```jsonc\n", 1)[1].split("```", 1)[0]
    return [re.sub(r"\s*//.*", "", line) for line in block.splitlines()]


def quick_config(**overrides) -> ExperimentConfig:
    cfg = load_config(CONFIG_DIR / "quick.json")
    return replace(cfg, **overrides) if overrides else cfg


class TestConfigParsing:
    def test_fixture_configs_load(self):
        for name in ["best_arm", "top2", "osa", "water", "adaptive_vs_uniform", "quick"]:
            cfg = load_config(CONFIG_DIR / f"{name}.json")
            assert cfg.trials >= 1

    def test_missing_application(self):
        with pytest.raises(ConfigError) as err:
            parse_config({"theta_star": [0.5], "delta": 0.1})
        assert err.value.field == "application"

    def test_integral_float_is_an_int(self):
        raw = json.loads((CONFIG_DIR / "quick.json").read_text())
        assert parse_config({**raw, "trials": 2.0, "workers": 1.0}).trials == 2

    @pytest.mark.parametrize(
        "patch,expected",
        [
            ({"max_rounds": None}, {"max_rounds": None}),
            ({"k": None}, {"k": 1}),
            ({"output": {"path": None}}, {"out_path": None, "out_format": "csv"}),
            ({"arms": None}, {"models": None}),
        ],
        ids=["max_rounds", "k", "output.path", "arms"],
    )
    def test_null_reads_as_default(self, patch, expected):
        raw = json.loads((CONFIG_DIR / "quick.json").read_text())
        parsed = parse_config({**raw, **patch})
        assert parsed == parse_config({key: v for key, v in raw.items() if key not in patch})
        assert {field: getattr(parsed, field) for field in expected} == expected

    def test_readme_config_parses(self):
        # The block's ``arms`` line elides its entries with ``...``.
        lines = [line for line in _readme_config_lines() if '"arms"' not in line]
        assert parse_config(json.loads("\n".join(lines))).application == "osa"

    def test_readme_config_sets_every_top_level_field(self):
        keys = re.findall(r'^  "(\w+)":', "\n".join(_readme_config_lines()), re.M)
        assert sorted(keys) == sorted(_SCHEMA.cast)

    def test_bad_delta(self):
        with pytest.raises(ConfigError) as err:
            parse_config({"application": "best-arm", "theta_star": [0.5, 0.2], "delta": 1.5})
        assert err.value.field == "delta"

    def test_theta_out_of_range_has_indexed_path(self):
        with pytest.raises(ConfigError) as err:
            parse_config(
                {"application": "best-arm", "theta_star": [0.5, 1.2], "delta": 0.1}
            )
        assert err.value.field == "theta_star[1]"

    def test_top_k_requires_k(self):
        with pytest.raises(ConfigError) as err:
            parse_config({"application": "top-k", "theta_star": [0.5, 0.2], "delta": 0.1})
        assert err.value.field == "k"

    def test_osa_requires_variance_estimator(self):
        with pytest.raises(ConfigError) as err:
            parse_config(
                {
                    "application": "osa",
                    "theta_star": [0.2, 0.1],
                    "n": [1, 1],
                    "k": 5,
                    "delta": 0.1,
                    "estimator": "mean",
                }
            )
        assert err.value.field == "estimator"

    def test_water_cost_kind(self):
        with pytest.raises(ConfigError) as err:
            parse_config(
                {
                    "application": "water",
                    "theta_star": [0.5],
                    "delta": 0.1,
                    "water": {"b": 0.5, "caps": [1.0], "grid_step": 0.5, "costs": [{"kind": "cubic"}]},
                }
            )
        assert err.value.field == "water.costs[0].kind"

    def test_arm_model_count(self):
        with pytest.raises(ConfigError) as err:
            parse_config(
                {
                    "application": "best-arm",
                    "theta_star": [0.5, 0.2],
                    "delta": 0.1,
                    "arms": [{"kind": "bernoulli", "p": 0.5}],
                }
            )
        assert err.value.field == "arms"

    # One valid config per application, for the checks that span fields.
    _BASES = {
        "best-arm": {"application": "best-arm", "theta_star": [0.5, 0.2], "delta": 0.1},
        "top-k": {"application": "top-k", "theta_star": [0.5, 0.2], "delta": 0.1, "k": 1},
        "osa": {
            "application": "osa", "theta_star": [0.2, 0.1], "n": [1, 1], "k": 5, "delta": 0.1,
            "estimator": "variance",
        },
        "water": {"application": "water", "theta_star": [0.5, 0.2], "delta": 0.1, "water": _water()},
    }

    @pytest.mark.parametrize(
        "application, field, value",
        [
            ("best-arm", "k", 3),
            ("best-arm", "n", [1, 1]),
            ("best-arm", "water", _water()),
            ("top-k", "n", [1, 1]),
            ("top-k", "water", _water()),
            ("osa", "water", _water()),
            ("water", "k", 1),
            ("water", "n", [1, 1]),
        ],
    )
    def test_field_of_another_application_rejected(self, application, field, value):
        # A field that the application does not read is an error, not
        # silently dropped; each base config parses without it.
        base = self._BASES[application]
        assert parse_config(base).application == application
        with pytest.raises(ConfigError) as err:
            parse_config({**base, field: value})
        assert err.value.field == field

    @pytest.mark.parametrize(
        "application, patch, field",
        [
            ("osa", {"n": None}, "n"),
            ("osa", {"n": [1, 1, 1]}, "n"),
            ("water", {"water": None}, "water"),
            ("water", {"water": _water(costs=[{"kind": "quadratic"}])}, "water"),
            ("water", {"theta_star": [0.5, 0.2, 0.1]}, "water.caps"),
        ],
        ids=["osa-no-n", "osa-n-length", "water-missing", "water-costs-length", "water-source-count"],
    )
    def test_application_field_errors(self, application, patch, field):
        with pytest.raises(ConfigError) as err:
            parse_config({**self._BASES[application], **patch})
        assert err.value.field == field

    @pytest.mark.parametrize(
        "text, message", [("{not json", "invalid JSON"), ("[1, 2]", "must be an object")], ids=["json", "list"]
    )
    def test_read_config_rejects_bad_file(self, text, message, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(text)
        with pytest.raises(ConfigError, match=message) as err:
            read_config(path)
        assert err.value.field == str(path)

    def test_arm_models_off_their_parameters_rejected(self):
        from coci.harness import build_problem

        cfg = quick_config(models=(Bernoulli(0.5), Bernoulli(0.25)))
        with pytest.raises(ConfigError) as err:
            build_problem(cfg)
        assert err.value.field == "arms"

    def test_degenerate_parameters_rejected(self):
        from coci.harness import build_problem

        cfg = parse_config(
            {"application": "best-arm", "theta_star": [0.5, 0.5], "delta": 0.1}
        )
        with pytest.raises(ConfigError) as err:
            build_problem(cfg)
        assert err.value.field == "theta_star"


class TestTrialSeeds:
    def test_stable_and_distinct(self):
        seeds = [trial_seed(7, i) for i in range(50)]
        assert seeds == [trial_seed(7, i) for i in range(50)]
        assert len(set(seeds)) == 50

    def test_extending_trials_preserves_prefix(self):
        cfg = quick_config(trials=3, hardness_epsilon=None)
        small = run_experiment(cfg)
        big = run_experiment(replace(cfg, trials=5))
        small_keys = [(r.trial, r.mode, r.seed, r.rounds) for r in small.records]
        big_keys = [(r.trial, r.mode, r.seed, r.rounds) for r in big.records]
        assert big_keys[: len(small_keys)] == small_keys


class TestRunExperiment:
    def test_point_mass_trial(self):
        cfg = parse_config(
            {
                "application": "best-arm",
                "theta_star": [0.8, 0.2],
                "delta": 0.1,
                "trials": 1,
                "master_seed": 3,
                "arms": [
                    {"kind": "point-mass", "v": 0.8},
                    {"kind": "point-mass", "v": 0.2},
                ],
            }
        )
        result = run_experiment(cfg)
        assert result.summary["modes"]["coci"]["error_rate"] == 0.0
        assert result.summary["modes"]["coci"]["xi_frequency"] == 1.0

    def test_both_mode_shares_trial_seed(self):
        result = run_experiment(quick_config(trials=4, hardness_epsilon=None))
        by_trial = {}
        for record in result.records:
            by_trial.setdefault(record.trial, set()).add(record.seed)
        assert all(len(seeds) == 1 for seeds in by_trial.values())
        assert "paired_round_ratio" in result.summary

    def test_parallel_matches_serial(self):
        cfg = quick_config(trials=6, hardness_epsilon=None)
        serial = run_experiment(cfg, workers=1)
        parallel = run_experiment(cfg, workers=2)
        strip = lambda r: (r.trial, r.seed, r.mode, r.rounds, r.correct, r.xi_held, r.pulls)  # noqa: E731
        assert [strip(r) for r in serial.records] == [strip(r) for r in parallel.records]

    @pytest.mark.parametrize("workers", [0, -2, True, 2.5, "2"])
    def test_workers_must_be_a_positive_integer(self, workers):
        # The argument is held to the config field's rule: these used to
        # run serially, or raise a bare TypeError.
        with pytest.raises(UsageError, match="workers"):
            run_experiment(quick_config(trials=2, hardness_epsilon=None), workers=workers)

    def test_import_leaves_the_process_pool_out(self):
        # One-worker runs never start a pool, so importing the harness must
        # not pay for the pool's modules.
        probe = "import sys, coci.harness; print('concurrent.futures.process' in sys.modules)"
        env = {**os.environ, "PYTHONPATH": str(SRC_DIR)}
        out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
        assert (out.returncode, out.stdout.strip()) == (0, "False"), out.stderr

    def test_import_leaves_statistics_out(self):
        # The summary's mean and median are computed in the harness, so
        # importing it must not pay for statistics, fractions and decimal.
        probe = "import sys, coci.harness; print(sorted({'statistics', 'fractions', 'decimal'} & set(sys.modules)))"
        env = {**os.environ, "PYTHONPATH": str(SRC_DIR)}
        out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
        assert (out.returncode, out.stdout.strip()) == (0, "[]"), out.stderr

    @settings(max_examples=300)
    @given(st.lists(st.one_of(st.integers(0, 4 * 10**6), st.integers(0, 2**64)), min_size=1, max_size=40))
    def test_mean_and_median_match_statistics(self, values):
        # The summary's mean_rounds, median_rounds and mean_pulls_per_arm:
        # the same value and type as the statistics functions they replace,
        # an int median for an odd count and a float for an even one.
        assert repr(harness._mean(values)) == repr(statistics.fmean(values))
        median, want = harness._median(values), statistics.median(values)
        assert (type(median), median) == (type(want), want)

    def test_hardness_attached_and_bound_checked(self):
        result = run_experiment(quick_config(trials=3))
        assert result.hardness is not None
        assert result.summary["hardness"]["h_lambda"] == pytest.approx(32.0)
        for record in result.records:
            assert record.bound_value is not None
            assert record.bound_satisfied is (record.rounds <= record.bound_value)

    def test_infinite_hardness_sets_no_bound(self, monkeypatch):
        # A zero flip radius makes h_lambda infinite: the runs take no bound,
        # as with hardness off.
        real = harness.problem_hardness
        monkeypatch.setattr(harness, "problem_hardness", lambda *args: replace(real(*args), h_lambda=math.inf))
        result = run_experiment(quick_config(trials=3))
        assert result.summary["hardness"]["h_lambda"] == math.inf
        off = run_experiment(quick_config(trials=3, hardness_epsilon=None))
        assert [replace(r, wall_ms=0.0) for r in result.records] == [replace(r, wall_ms=0.0) for r in off.records]
        assert all(r.bound_value is None and r.bound_satisfied is None for r in result.records)

    def test_quick_fixture_regression(self):
        # Frozen summary of the shipped quick config (seeded, deterministic).
        result = run_experiment(quick_config())
        modes = result.summary["modes"]
        assert modes["coci"]["mean_rounds"] == 314.375
        assert modes["uniform"]["mean_rounds"] == 314.375
        assert modes["coci"]["mean_pulls_per_arm"] == [157.375, 157.0]
        assert modes["coci"]["error_rate"] == 0.0


class TestEmit:
    def test_csv_schema(self, tmp_path):
        result = run_experiment(quick_config(trials=1, mode="coci"))
        paths = emit_results(result.records, result.summary, tmp_path, "csv")
        with open(paths[0], newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == [
            "trial",
            "seed",
            "mode",
            "rounds",
            "correct",
            "xi_held",
            "bound_value",
            "bound_satisfied",
            "pulls_0",
            "pulls_1",
            "wall_ms",
        ]
        assert len(rows) == 2
        assert len(rows[1]) == 11

    def test_emit_rejects_no_records_and_unknown_format(self, tmp_path):
        result = run_experiment(quick_config(trials=1, mode="coci", hardness_epsilon=None))
        with pytest.raises(CociError, match="no records"):
            emit_results((), result.summary, tmp_path)
        with pytest.raises(CociError, match="unknown output format"):
            emit_results(result.records, result.summary, tmp_path, "xml")
        assert not any(tmp_path.iterdir())

    def test_csv_rejects_bad_boolean_cell(self, tmp_path):
        result = run_experiment(quick_config(trials=1, mode="coci", hardness_epsilon=None))
        path = emit_results(result.records, result.summary, tmp_path, "csv")[0]
        path.write_text(re.sub(r",(true|false),", ",yes,", path.read_text(), count=1))
        with pytest.raises(CociError, match="bad boolean cell 'yes'"):
            parse_records_csv(path)

    def test_csv_roundtrip(self, tmp_path):
        result = run_experiment(quick_config(trials=3))
        paths = emit_results(result.records, result.summary, tmp_path, "csv")
        parsed = parse_records_csv(paths[0])
        assert len(parsed) == len(result.records)
        for a, b in zip(parsed, result.records):
            assert a == b or (
                a.wall_ms == b.wall_ms
                and a.bound_value == pytest.approx(b.bound_value)
            )
            assert (a.trial, a.seed, a.mode, a.rounds, a.correct, a.xi_held, a.pulls) == (
                b.trial,
                b.seed,
                b.mode,
                b.rounds,
                b.correct,
                b.xi_held,
                b.pulls,
            )

    def test_csv_roundtrip_without_hardness(self, tmp_path):
        # Hardness off sets no bound: the bound cells are empty and read back
        # as None.
        result = run_experiment(quick_config(trials=3, hardness_epsilon=None))
        assert all(r.bound_value is None and r.bound_satisfied is None for r in result.records)
        path = emit_results(result.records, result.summary, tmp_path, "csv")[0]
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [(row["bound_value"], row["bound_satisfied"]) for row in rows] == [("", "")] * len(result.records)
        assert parse_records_csv(path) == result.records

    def test_jsonl_line_count(self, tmp_path):
        cfg = quick_config(trials=5, mode="coci")
        result = run_experiment(cfg)
        paths = emit_results(result.records, result.summary, tmp_path, "json-lines")
        lines = paths[0].read_text().splitlines()
        assert len(lines) == 5
        first = json.loads(lines[0])
        assert set(first) == {
            "trial",
            "seed",
            "mode",
            "rounds",
            "correct",
            "xi_held",
            "bound_value",
            "bound_satisfied",
            "pulls_0",
            "pulls_1",
            "wall_ms",
        }

    def test_tables_share_the_record_fields(self, tmp_path):
        # The CSV header and every JSON-lines object list TrialRecord's fields
        # in order, pulls spread over pulls_0..pulls_{m-1}: a field added to
        # the record reaches both tables.
        result = run_experiment(quick_config(trials=2, mode="both"))
        columns = []
        for f in fields(TrialRecord):
            columns += [f"pulls_{i}" for i in range(len(result.records[0].pulls))] if f.name == "pulls" else [f.name]
        csv_path = emit_results(result.records, result.summary, tmp_path / "csv", "csv")[0]
        with open(csv_path, newline="") as fh:
            assert next(csv.reader(fh)) == columns
        jsonl_path = emit_results(result.records, result.summary, tmp_path / "jsonl", "json-lines")[0]
        lines = jsonl_path.read_text().splitlines()
        assert len(lines) == 4 and all(list(json.loads(line)) == columns for line in lines)

    def test_summary_file_is_wall_clock_free(self, tmp_path):
        result = run_experiment(quick_config(trials=2))
        paths = emit_results(result.records, result.summary, tmp_path, "csv")
        text = paths[1].read_text()
        assert "wall" not in text


class TestCli:
    def test_validate_ok(self, capsys):
        assert cli_main(["validate", str(CONFIG_DIR / "osa.json")]) == 0
        assert "ok" in capsys.readouterr().out

    def test_validate_missing_file(self, capsys):
        assert cli_main(["validate", "/nonexistent/config.json"]) == 1
        assert "config error" in capsys.readouterr().err

    def test_oracle_query(self, capsys):
        code = cli_main(["oracle", str(CONFIG_DIR / "top2.json"), "--theta", "0.9,0.7,0.3,0.1"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["decision"] == [1.0, 1.0, 0.0, 0.0]
        assert payload["reward"] == pytest.approx(1.6)

    def test_hardness_command(self, capsys):
        assert cli_main(["hardness", str(CONFIG_DIR / "quick.json")]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["lambda_lower"] == [0.25, 0.25]

    def test_run_without_output_path_prints_summary(self, tmp_path, capsys):
        raw = {**json.loads((CONFIG_DIR / "quick.json").read_text()), "trials": 2, "output": {}}
        path = tmp_path / "no-output.json"
        path.write_text(json.dumps(raw))
        assert cli_main(["run", str(path)]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["modes"]["coci"]["trials"] == 2
        assert not any(p.name != path.name for p in tmp_path.iterdir())

    def test_hardness_writes_out_file(self, tmp_path, capsys):
        out = tmp_path / "hardness.json"
        assert cli_main(["hardness", str(CONFIG_DIR / "quick.json"), "--out", str(out)]) == 0
        assert capsys.readouterr().out == f"{out}\n"
        assert json.loads(out.read_text())["lambda_lower"] == [0.25, 0.25]

    def test_io_error_exit_code(self, tmp_path, capsys):
        out = tmp_path / "missing" / "hardness.json"
        assert cli_main(["hardness", str(CONFIG_DIR / "quick.json"), "--out", str(out)]) == 2
        assert "i/o error" in capsys.readouterr().err

    def test_run_with_overrides(self, tmp_path, capsys):
        code = cli_main(
            [
                "run",
                str(CONFIG_DIR / "quick.json"),
                "--trials",
                "2",
                "--mode",
                "coci",
                "--out",
                str(tmp_path),
                "--format",
                "json-lines",
            ]
        )
        assert code == 0
        assert (tmp_path / "records.jsonl").exists()
        assert (tmp_path / "summary.json").exists()
        assert len((tmp_path / "records.jsonl").read_text().splitlines()) == 2

    @pytest.mark.parametrize(
        "flags",
        [["--trials", "0"]],
        ids=["zero-trials"],
    )
    def test_run_rejects_bad_override(self, flags, tmp_path, capsys):
        args = ["run", str(CONFIG_DIR / "quick.json"), "--out", str(tmp_path), *flags]
        assert cli_main(args) == 1
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "patch,field",
        [
            ({"trials": "x"}, "trials"),
            ({"master_seed": -1}, "master_seed"),
            ({"workers": "two"}, "workers"),
            ({"workers": 0}, "workers"),
            ({"theta_star": ["a", 0.25]}, "theta_star[0]"),
            ({"theta_star": [0.75, float("nan")]}, "theta_star[1]"),
            ({"delta": float("nan")}, "delta"),
            ({"hardness": {"epsilon": "x"}}, "hardness.epsilon"),
            ({"hardness": {"epsilon": 0}}, "hardness.epsilon"),
            ({"max_rounds": 1}, "max_rounds"),
            ({"max_rounds": "many"}, "max_rounds"),
            ({"application": "top-k", "k": "two"}, "k"),
            ({"application": "top-k", "k": 3}, "k"),
            (
                {"application": "osa", "estimator": "variance", "n": [1, "x"], "k": 4},
                "n[1]",
            ),
            ({"application": "osa", "estimator": "variance", "n": 2, "k": 4}, "n"),
            ({"application": "osa", "estimator": "variance", "n": [1, 1], "k": 1}, "k"),
            (
                {
                    "application": "water",
                    "water": {
                        "b": 0.5,
                        "caps": [1.0, 1.0],
                        "grid_step": 0.5,
                        "costs": [{"kind": "quadratic", "a": "x"}, {"kind": "quadratic"}],
                    },
                },
                "water.costs[0].a",
            ),
            ({"delta": 1e-320}, "delta"),
            ({"trials": 2.7}, "trials"),
            ({"trials": True}, "trials"),
            ({"workers": 1.5}, "workers"),
            ({"application": "top-k", "k": 1.9}, "k"),
            ({"max_rounds": 1000000.5}, "max_rounds"),
            ({"application": "water", "water": _water(caps=["x", 1.0])}, "water.caps[0]"),
            ({"application": "water", "water": _water(b=True)}, "water.b"),
            ({"application": "water", "water": _water(b=float("inf"))}, "water.b"),
            (
                {"application": "water", "water": _water(costs=[{"kind": "quadratic", "a": True}] * 2)},
                "water.costs[0].a",
            ),
            ({"application": "water", "water": _water(caps=[1.0, False])}, "water.caps[1]"),
            ({"application": "osa", "estimator": "variance", "n": [1, 1]}, "k"),
            ({"strategy": "grid-scan"}, "strategy"),
            ({"delat": 0.1}, "delat"),
            ({"application": "water", "water": _water(step=0.5)}, "water.step"),
            ({"hardness": {"epsilon": 0.01, "eps": 0.1}}, "hardness.eps"),
            ({"output": {"format": "csv", "dir": "x"}}, "output.dir"),
            (
                {"application": "water", "water": _water(costs=[{"kind": "linear", "p": 2}] * 2)},
                "water.costs[0].p",
            ),
            ({"arms": [{"kind": "bernoulli", "p": True}, {"kind": "bernoulli", "p": 0.25}]}, "arms[0].p"),
            (
                {"arms": [{"kind": "bernoulli", "p": 0.75, "typo": 1}, {"kind": "bernoulli", "p": 0.25}]},
                "arms[0].typo",
            ),
            ({"arms": [{"kind": "bernoulli", "p": 0.75}, {"kind": "point-mass", "v": "x"}]}, "arms[1].v"),
            ({"name": 5}, "name"),
            ({"master_seed": 10**400}, "master_seed"),
            ({"k": "two"}, "k"),
            ({"n": [0, 1]}, "n[0]"),
            ({"water": 5}, "water"),
            ({"estimator": "MEAN"}, "estimator"),
            (
                {"arms": [{"kind": "discrete", "values": [], "probabilities": []}, {"kind": "bernoulli", "p": 0.25}]},
                "arms[0].values",
            ),
            (
                {"application": "osa", "estimator": "variance", "n": [1, 1], "k": 4, "theta_star": [0.3, 0.01]},
                "theta_star[0]",
            ),
        ],
    )
    def test_run_rejects_bad_config_value(self, patch, field, tmp_path, capsys):
        raw = {**json.loads((CONFIG_DIR / "quick.json").read_text()), **patch}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(raw))
        assert cli_main(["run", str(path), "--out", str(tmp_path / "out")]) == 1
        assert f"config error: {field}:" in capsys.readouterr().err

    def test_run_rejects_non_string_output_path(self, tmp_path, capsys):
        raw = {**json.loads((CONFIG_DIR / "quick.json").read_text()), "output": {"path": 5}}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(raw))
        assert cli_main(["run", str(path)]) == 1
        assert "config error: output.path:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "theta",
        ["x,0.7,0.3,0.1", "1.5,-3,0.2,0.1", "0.9,0.7,0.3,nan", "0.9,0.7,0.3", "0.9,0.7,0.3,0.1,0.5"],
        ids=["not-a-number", "out-of-range", "nan", "too-few", "too-many"],
    )
    def test_oracle_rejects_bad_theta(self, theta, capsys):
        assert cli_main(["oracle", str(CONFIG_DIR / "top2.json"), "--theta", theta]) == 1
        assert "config error: --theta:" in capsys.readouterr().err

    def test_runtime_error_exit_code(self, tmp_path, capsys):
        # Concave costs over two grid steps make the water oracle not
        # bi-monotone, so the flip-radius search enumerates the lattice, which
        # over five sources exceeds the capacity limit: a runtime (not
        # config) failure, exit 2.
        config = {
            "application": "water",
            "theta_star": [0.9, 0.7, 0.5, 0.3, 0.1],
            "water": {
                "b": 1.0,
                "caps": [1.0] * 5,
                "grid_step": 0.5,
                "costs": [{"kind": "power", "a": 1.0, "p": 0.5}] * 5,
            },
            "delta": 0.1,
            "trials": 1,
        }
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(config))
        assert cli_main(["hardness", str(path)]) == 2
        assert "lattice over 5 arms" in capsys.readouterr().err

    def test_hardness_eight_arms(self, capsys):
        assert cli_main(["hardness", str(CONFIG_DIR / "adaptive_vs_uniform.json")]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["lambda_lower"] == pytest.approx([0.02, 0.02] + [0.22] * 6, abs=1e-12)
