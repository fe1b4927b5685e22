"""Workload definitions shared by the benchmark scripts.

Each workload is a harness config plus benchmark settings, kept in
``workloads.json`` beside this file rather than read from ``configs/``, so
editing a shipped config cannot change a workload. Per workload the file
also holds:

- ``traced_trials``: trials in the traced run, which executes in-process;
- ``digest`` / ``traced_digest``: the behaviour digest (see ``run.digest``)
  of the untraced and the traced batch at the default seed, which is the
  config's ``master_seed``;
- ``baseline``: first quartile, median and third quartile of each
  end-to-end metric over ten seeds, on the host it names, with times
  scaled as ``calibrate.py`` describes.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC_PATH = HERE / "workloads.json"


def names() -> list[str]:
    return list(_specs())


def load(name: str) -> dict:
    return _specs()[name]


def _specs() -> dict:
    return json.loads(SPEC_PATH.read_text(encoding="utf-8"))


def use_source_tree() -> None:
    """Import ``coci`` from the checkout's ``src/``, not an installed copy."""
    src = ROOT / "src"
    if not (src / "coci" / "__init__.py").is_file():
        raise SystemExit(f"no coci source tree under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))


def config_for(spec: dict, seed: int, trials: int | None = None):
    """The workload's ``ExperimentConfig`` at ``seed`` (its master seed)."""
    from coci.harness import parse_config

    raw = dict(spec["config"], master_seed=seed)
    if trials is not None:
        raw["trials"] = trials
    return parse_config(raw)
