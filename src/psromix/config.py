"""Run-configuration files: JSON with one section per subsystem.

The canonical rendering is sorted and indented, so parse -> serialize ->
parse is the identity and rerenders are byte-stable. Validation errors name
the offending section and field.
"""

from __future__ import annotations

import dataclasses
import inspect
import json
import math

from .engine import RunConfig
from .errors import ConfigError
from .oracle import OracleHParams
from .solvers import SOLVERS

_HPARAM_FIELDS = {f.name for f in dataclasses.fields(OracleHParams)}
# Parameters each solver accepts in the "mss" section, besides its name.
_MSS_PARAMS = {
    name: set(inspect.signature(solver).parameters) - {"game"} for name, solver in SOLVERS.items()
}
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
    if not isinstance(data, dict):
        raise ConfigError(f"{section}: must be a JSON object or null, got {data!r}")
    unknown = set(data) - _HPARAM_FIELDS
    if unknown:
        raise ConfigError(f"{section}: unknown hyperparameter field(s) {sorted(unknown)}")
    try:
        return OracleHParams(**data)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{section}: {exc}") from exc


def _finite_number(value) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value)


# What each solver parameter must be, and the test of a value that is not a bool.
_MSS_RULES = {
    "steps": ("an integer >= 1", lambda value: isinstance(value, int) and value >= 1),
    "step_size": ("a finite number > 0", lambda value: _finite_number(value) and value > 0),
    "tolerance": ("a finite number >= 0", lambda value: _finite_number(value) and value >= 0),
}


def _check_mss_params(solver: str, params: dict) -> None:
    """Each parameter must be one the solver takes, never a bool, and pass
    its rule in ``_MSS_RULES``."""
    bad = set(params) - _MSS_PARAMS[solver]
    if bad:
        raise ConfigError(
            f"mss: field(s) {sorted(bad)} are not parameters of the {solver!r} solver"
        )
    for name, value in params.items():
        kind, valid = _MSS_RULES[name]
        if isinstance(value, bool) or not valid(value):
            raise ConfigError(f"mss.{name}: must be {kind}, got {value!r}")


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


def read_sections(text: str, allowed) -> dict:
    """Parse a config file's JSON: an object of ``allowed`` sections, each
    itself an object."""
    try:
        sections = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(sections, dict):
        raise ConfigError("config must be a JSON object with sections")
    unknown = set(sections) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown config section(s) {sorted(unknown)}")
    for name, section in sections.items():
        if not isinstance(section, dict):
            raise ConfigError(f"{name}: the section must be a JSON object")
    return sections


def check_fields(section: str, data: dict, allowed) -> None:
    bad = set(data) - set(allowed)
    if bad:
        raise ConfigError(f"{section}: unknown field(s) {sorted(bad)}")


def config_from_json(text: str) -> RunConfig:
    sections = read_sections(text, ("run", "env", "mss", "oracle"))
    run = dict(sections.get("run", {}))
    # run.workers sized a payoff-simulation thread pool that no longer exists.
    # Older configs (the benchmark's among them) and older checkpoints still
    # carry it; any count gave identical bytes, so a valid one is dropped.
    workers = run.pop("workers", 1)
    if isinstance(workers, bool) or not isinstance(workers, int) or workers < 1:
        raise ConfigError(f"run.workers: must be an integer >= 1, got {workers!r}")
    check_fields("run", run, _RUN_FIELDS)
    env = sections.get("env", {})
    if "name" not in env:
        raise ConfigError("env.name: required field is missing")
    check_fields("env", env, ("name",))
    mss = dict(sections.get("mss", {"name": "nash"}))
    mss_name = mss.pop("name", None)
    if mss_name is None:
        raise ConfigError("mss.name: required field is missing")
    if mss_name in _MSS_PARAMS:
        _check_mss_params(mss_name, mss)
    oracle = sections.get("oracle", {})
    check_fields("oracle", oracle, ("kind", "pure", "mix"))

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
