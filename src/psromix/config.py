"""Run-configuration files: JSON with one section per subsystem.

The canonical rendering is sorted and indented, so parse -> serialize ->
parse is the identity and rerenders are byte-stable. Validation errors name
the offending section and field.
"""

from __future__ import annotations

import dataclasses
import json

from .engine import RunConfig
from .errors import ConfigError
from .oracle import OracleHParams

_HPARAM_FIELDS = {f.name for f in dataclasses.fields(OracleHParams)}
# RunConfig fields that live in the "run" section; their defaults live only
# in the dataclass.
_RUN_FIELDS = (
    "algorithm",
    "epochs",
    "episodes_per_cell",
    "seed",
    "early_stop_sum_regret",
    "analytic_cells",
)


def _hparams_to_dict(hp: OracleHParams | None):
    if hp is None:
        return None
    return dataclasses.asdict(hp)


def _hparams_from_dict(data, section: str) -> OracleHParams | None:
    if data is None:
        return None
    unknown = set(data) - _HPARAM_FIELDS
    if unknown:
        raise ConfigError(f"{section}: unknown hyperparameter field(s) {sorted(unknown)}")
    try:
        return OracleHParams(**data)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{section}: {exc}") from exc


def config_to_json(config: RunConfig) -> str:
    sections = {
        "run": {name: getattr(config, name) for name in _RUN_FIELDS},
        "env": {"name": config.env},
        "mss": {"name": config.mss, **config.mss_params},
        "oracle": {
            "kind": config.oracle,
            "pure": _hparams_to_dict(config.pure_hparams),
            "mix": _hparams_to_dict(config.mix_hparams),
        },
    }
    return json.dumps(sections, indent=1, sort_keys=True) + "\n"


def config_from_json(text: str) -> RunConfig:
    try:
        sections = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(sections, dict):
        raise ConfigError("config must be a JSON object with sections")
    unknown = set(sections) - {"run", "env", "mss", "oracle"}
    if unknown:
        raise ConfigError(f"unknown config section(s) {sorted(unknown)}")

    run = dict(sections.get("run", {}))
    # run.workers sized a payoff-simulation thread pool that no longer exists.
    # Older configs (the benchmark's among them) and older checkpoints still
    # carry it; any count gave identical bytes, so a valid one is dropped.
    workers = run.pop("workers", 1)
    if not isinstance(workers, int) or workers < 1:
        raise ConfigError(f"run.workers: must be >= 1, got {workers!r}")
    bad = set(run) - set(_RUN_FIELDS)
    if bad:
        raise ConfigError(f"run: unknown field(s) {sorted(bad)}")
    env = sections.get("env", {})
    if "name" not in env:
        raise ConfigError("env.name: required field is missing")
    mss = dict(sections.get("mss", {"name": "nash"}))
    mss_name = mss.pop("name", None)
    if mss_name is None:
        raise ConfigError("mss.name: required field is missing")
    allowed_mss_params = {
        "nash": {"tolerance"},
        "replicator": {"steps", "step_size"},
        "uniform": set(),
        "last": set(),
    }
    if mss_name in allowed_mss_params:
        bad = set(mss) - allowed_mss_params[mss_name]
        if bad:
            raise ConfigError(
                f"mss: field(s) {sorted(bad)} are not parameters of the "
                f"{mss_name!r} solver"
            )
    oracle = sections.get("oracle", {})

    config = RunConfig(
        env=env["name"],
        mss=mss_name,
        mss_params=mss,
        oracle=oracle.get("kind", "tabular"),
        pure_hparams=_hparams_from_dict(oracle.get("pure"), "oracle.pure"),
        mix_hparams=_hparams_from_dict(oracle.get("mix"), "oracle.mix"),
        **run,
    )
    return config.validate()


def load_config(path) -> RunConfig:
    try:
        with open(path) as fh:
            return config_from_json(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
