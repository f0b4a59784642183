"""The run and search config schemas, their rules, and both config files.

Both files are JSON objects of sections, each section an object that takes
only its own fields. Every checked field keeps the one rule that
:data:`RULES` gives its name, in either file and when its dataclass is built
directly; a bool never passes a numeric rule. The canonical rendering of a
run config is sorted and indented, so parse -> serialize -> parse is the
identity and rerenders are byte-stable. Errors name the section and field.
"""

from __future__ import annotations

import dataclasses
import inspect
import json
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

from .envs import Environment, make_env
from .errors import ConfigError
from .solvers import SOLVERS

ALGORITHMS = ("psro", "mixed-oracles", "mixed-opponents")
MSS_NAMES = tuple(SOLVERS)


def _real(value) -> bool:
    """A number and not a bool. NaN is one, and fails every range below."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _integer(least: int):
    return f"an integer >= {least}", lambda v: _real(v) and isinstance(v, int) and v >= least


_UNIT = ("a number in [0, 1]", lambda v: _real(v) and 0 <= v <= 1)
_POSITIVE = ("a finite number > 0", lambda v: _real(v) and 0 < v < math.inf)

# The one rule of each checked field, by name: what a value must be, and
# its test. A name means the same field wherever it appears; the search
# section's candidate lists keep the rules of the hyperparameters they name.
RULES: dict[str, tuple[str, Callable[[object], bool]]] = {
    # run section; "workers" is a legacy key, checked and then dropped
    "epochs": _integer(1),
    "episodes_per_cell": _integer(1),
    "seed": _integer(0),
    "workers": _integer(1),
    "analytic_cells": ("a bool", lambda v: isinstance(v, bool)),
    "early_stop_sum_regret": ("null or " + _POSITIVE[0], lambda v: v is None or _POSITIVE[1](v)),
    # mss section: solver parameters
    "steps": _integer(1),
    "step_size": _POSITIVE,
    "tolerance": ("a finite number >= 0", lambda v: _real(v) and 0 <= v < math.inf),
    # oracle hyperparameters
    "learning_rate": ("a number in (0, 1]", lambda v: _real(v) and 0 < v <= 1),
    "discount": _UNIT,
    "total_timesteps": _integer(1),
    "exploration_timesteps": _integer(0),
    "epsilon_start": _UNIT,
    "epsilon_end": _UNIT,
    # search and opponents sections
    "sample_count": _integer(1),
    "opponent_count": _integer(1),
    "learner": ("seat 0 or 1", lambda v: _real(v) and isinstance(v, int) and v in (0, 1)),
    "path": ("a string", lambda v: isinstance(v, str)),
}


def _check(name: str, value, section: str | None = None) -> None:
    """Raise if ``value`` breaks the rule of the field ``name``: a ``ValueError``
    in a dataclass, a ``ConfigError`` naming ``section`` in a config file."""
    kind, test = RULES[name]
    if test(value):
        return
    if section is None:
        raise ValueError(f"{name} must be {kind}, got {value!r}")
    raise ConfigError(f"{section}.{name}: must be {kind}, got {value!r}")


def _check_choice(field_name: str, what: str, value, choices) -> None:
    if value not in choices:
        raise ConfigError(f"{field_name}: unknown {what} {value!r}; expected one of {choices}")


@dataclass
class OracleHParams:
    """Hyperparameters of the tabular one-step Q-learning oracle; each field
    keeps its rule in :data:`RULES`."""

    learning_rate: float = 0.1
    discount: float = 0.0
    total_timesteps: int = 10_000
    exploration_timesteps: int = 5_000
    epsilon_start: float = 1.0
    epsilon_end: float = 0.03

    def __post_init__(self):
        for f in dataclasses.fields(self):
            _check(f.name, getattr(self, f.name))
        if self.exploration_timesteps > self.total_timesteps:
            raise ValueError(
                "exploration_timesteps must not exceed total_timesteps "
                f"({self.exploration_timesteps} > {self.total_timesteps})"
            )


# Parameters each solver accepts in the "mss" section, besides its name.
_MSS_PARAMS = {
    name: set(inspect.signature(solver).parameters) - {"game"} for name, solver in SOLVERS.items()
}
# RunConfig fields that live in the "run" section, past the algorithm; their
# defaults live only in the dataclass.
_RUN_CHECKED = ("epochs", "episodes_per_cell", "seed", "early_stop_sum_regret", "analytic_cells")
_RUN_FIELDS = ("algorithm", *_RUN_CHECKED)


@dataclass
class RunConfig:
    algorithm: str = "psro"
    env: str = "rps"
    mss: str = "nash"
    mss_params: dict = field(default_factory=dict)
    epochs: int = 4
    episodes_per_cell: int = 30
    oracle: str = "tabular"
    pure_hparams: OracleHParams | None = None
    mix_hparams: OracleHParams | None = None
    seed: int = 0
    # Stop after the first epoch whose internal empirical-game sum regret is
    # below this. Two-player ``nash`` verifies that regret to about 0 every
    # epoch, so such a run stops after epoch 1; the threshold matters only
    # for solvers that do not solve the empirical game, such as ``replicator``.
    early_stop_sum_regret: float | None = None
    # Fill cells with exact values (see psromix.exact) instead of simulation.
    analytic_cells: bool = False

    def validate(self) -> "RunConfig":
        _check_choice("run.algorithm", "algorithm", self.algorithm, ALGORITHMS)
        _check_choice("mss.name", "solver", self.mss, MSS_NAMES)
        bad = set(self.mss_params) - _MSS_PARAMS[self.mss]
        if bad:
            raise ConfigError(
                f"mss: field(s) {sorted(bad)} are not parameters of the {self.mss!r} solver"
            )
        for name, value in self.mss_params.items():
            _check(name, value, "mss")
        _check_choice("oracle.kind", "oracle", self.oracle, ("tabular", "exact"))
        for name in _RUN_CHECKED:
            _check(name, getattr(self, name), "run")
        return self


# The search's candidate lists, each checked candidate by candidate.
_CANDIDATE_LISTS = ("learning_rate", "exploration_timesteps", "total_timesteps")


@dataclass
class HParamSearchSpec:
    """Candidate lists plus the sampling budget for the random search."""

    learning_rate: Sequence[float] = (1e-3, 3e-3, 1e-4, 3e-4)
    exploration_timesteps: Sequence[int] = (300, 1_000, 3_000)
    total_timesteps: Sequence[int] = (1_000, 3_000, 10_000)
    sample_count: int = 30
    opponent_count: int = 5
    discount: float = 0.0
    learner: int = 0
    seed: int = 0

    def __post_init__(self):
        # Every candidate is checked here, so a bad one fails before any training.
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if f.name not in _CANDIDATE_LISTS:
                _check(f.name, value)
                continue
            if not isinstance(value, (list, tuple)):
                raise ValueError(f"{f.name} must be a list of candidates, got {value!r}")
            if len(value) == 0:
                raise ValueError(f"candidate list {f.name} is empty")
            kind, test = RULES[f.name]
            for candidate in value:
                if not test(candidate):
                    raise ValueError(f"{f.name} candidate {candidate!r} is not {kind}")


def _read(path) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc


def _sections(text: str, allowed) -> dict:
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


def _check_fields(section: str, data: dict, allowed) -> None:
    bad = set(data) - set(allowed)
    if bad:
        raise ConfigError(f"{section}: unknown field(s) {sorted(bad)}")


def _env_name(sections: dict) -> str:
    """The ``env`` section's one field, ``name``, which is required."""
    env = sections.get("env", {})
    if "name" not in env:
        raise ConfigError("env.name: required field is missing")
    _check_fields("env", env, ("name",))
    return env["name"]


def _hparams_from_dict(data, section: str) -> OracleHParams | None:
    if data is None:
        return None
    if not isinstance(data, dict):
        raise ConfigError(f"{section}: must be a JSON object or null, got {data!r}")
    _check_fields(section, data, {f.name for f in dataclasses.fields(OracleHParams)})
    try:
        return OracleHParams(**data)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{section}: {exc}") from exc


def config_to_json(config: RunConfig) -> str:
    def hparams(hp):
        return None if hp is None else dataclasses.asdict(hp)

    sections = {
        "run": {name: getattr(config, name) for name in _RUN_FIELDS},
        "env": {"name": config.env},
        "mss": {"name": config.mss, **config.mss_params},
        "oracle": {
            "kind": config.oracle,
            "pure": hparams(config.pure_hparams),
            "mix": hparams(config.mix_hparams),
        },
    }
    return json.dumps(sections, indent=1, sort_keys=True) + "\n"


def config_from_json(text: str) -> RunConfig:
    sections = _sections(text, ("run", "env", "mss", "oracle"))
    run = dict(sections.get("run", {}))
    # run.workers sized a payoff-simulation thread pool that no longer exists.
    # Older configs (the benchmark's among them) and older checkpoints still
    # carry it; any count gave identical bytes, so a valid one is dropped.
    _check("workers", run.pop("workers", 1), "run")
    _check_fields("run", run, _RUN_FIELDS)
    env = _env_name(sections)
    mss = dict(sections.get("mss", {"name": "nash"}))
    mss_name = mss.pop("name", None)
    if mss_name is None:
        raise ConfigError("mss.name: required field is missing")
    oracle = sections.get("oracle", {})
    _check_fields("oracle", oracle, ("kind", "pure", "mix"))
    config = RunConfig(
        env=env,
        mss=mss_name,
        mss_params=mss,
        oracle=oracle.get("kind", "tabular"),
        pure_hparams=_hparams_from_dict(oracle.get("pure"), "oracle.pure"),
        mix_hparams=_hparams_from_dict(oracle.get("mix"), "oracle.mix"),
        **run,
    )
    return config.validate()


def load_config(path) -> RunConfig:
    return config_from_json(_read(path))


def load_search_config(path) -> tuple[Environment, HParamSearchSpec, dict]:
    """The environment, search spec and ``opponents`` section of a
    hyperparameter-search config file, checked field by field."""
    sections = _sections(_read(path), ("env", "search", "opponents"))
    env = _env_name(sections)
    search = sections.get("search", {})
    _check_fields("search", search, {f.name for f in dataclasses.fields(HParamSearchSpec)})
    try:
        spec = HParamSearchSpec(**search)
    except ValueError as exc:
        raise ConfigError(f"search: {exc}") from exc
    opponents = sections.get("opponents", {})
    _check_fields("opponents", opponents, ("source", "path"))
    source = opponents.get("source", "random")
    _check_choice("opponents.source", "source", source, ("random", "checkpoint"))
    if "path" in opponents:
        _check("path", opponents["path"], "opponents")
    elif source == "checkpoint":
        raise ConfigError("opponents.path: required for source 'checkpoint'")
    return make_env(env), spec, opponents
