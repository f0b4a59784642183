"""The epoch loops: plain best-response iteration plus the two variants that
train only against single policies, and the efficient empirical-game
expansion they share.

Randomness discipline: one root seed; every consumer draws from a stream
derived from (seed, epoch, player, purpose), so adding instrumentation or
resuming from a checkpoint never perturbs trajectories, and a resumed run
reproduces an unbroken one exactly.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .envs import Environment, analytic_payoffs, derived_rng, estimate_payoffs, make_env
from .envs.matrix import require_matrix_env
from .errors import (
    ConfigError,
    CorruptCheckpoint,
    PlayerCountUnsupported,
)
from .games import EmpiricalGame, MixedStrategy, StrategyId, deviation_gains, load_game, save_game
from .oracle import ExactMatrixOracle, OracleHParams, SimulationCounter, TabularOracle
from .policies import uniform_random_policy
from .qmixing import combine_opponents, combine_responses
from .serialize import load_policy, save_policy
from .solvers import SolutionProfile, get_solver
from .hparams import preset_hparams

ALGORITHMS = ("psro", "mixed-oracles", "mixed-opponents")
MSS_NAMES = ("nash", "replicator", "uniform", "last")

# Purpose codes for derived random streams.
_TRAIN, _OPPONENT_DRAW, _EXPAND = 0, 1, 2


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
    early_stop_sum_regret: float | None = None
    # Matrix environments only: fill cells by exact tensor contraction
    # instead of simulation (pairs with the exact best-response oracle).
    analytic_cells: bool = False

    def validate(self) -> "RunConfig":
        if self.algorithm not in ALGORITHMS:
            raise ConfigError(
                f"run.algorithm: unknown algorithm {self.algorithm!r}; "
                f"expected one of {ALGORITHMS}"
            )
        if self.mss not in MSS_NAMES:
            raise ConfigError(
                f"mss.name: unknown solver {self.mss!r}; expected one of {MSS_NAMES}"
            )
        if self.oracle not in ("tabular", "exact"):
            raise ConfigError(f"oracle.kind: unknown oracle {self.oracle!r}")
        if self.epochs < 1:
            raise ConfigError(f"run.epochs: must be >= 1, got {self.epochs}")
        if self.episodes_per_cell < 1:
            raise ConfigError(
                f"run.episodes_per_cell: must be >= 1, got {self.episodes_per_cell}"
            )
        return self


@dataclass
class EpochEntry:
    """Per-epoch log line: what was solved, what was trained against, cost."""

    epoch: int
    solution: SolutionProfile
    target: SolutionProfile | None
    new_ids: tuple[StrategyId, ...]
    train_steps: int
    eval_episodes: int
    regrets: tuple[float, ...]
    sum_regret: float


@dataclass
class RunRecord:
    config: RunConfig
    env_name: str
    game: EmpiricalGame
    entries: list[EpochEntry] = field(default_factory=list)
    libraries: list[list] | None = None  # per player, Mixed-Oracles only
    counter: SimulationCounter = field(default_factory=SimulationCounter)
    next_epoch: int = 1

    @property
    def solution(self) -> SolutionProfile:
        return self.entries[-1].solution


def expand_enfg(
    game: EmpiricalGame,
    env: Environment,
    episodes_per_cell: int,
    rng,
    counter: SimulationCounter | None = None,
    analytic: bool = False,
) -> EmpiricalGame:
    """Fill exactly the missing profile cells, in lexicographic order.

    Existing cells are never re-simulated. Each cell runs on a stream derived
    from the profile indices, so cells for distinct profiles commute and the
    filled table does not depend on their order. With ``analytic=True``
    (matrix environments) cells are exact expectations and consume no
    episodes.
    """
    missing = game.missing_profiles()
    if not missing:
        return game
    base = int(rng.integers(2**62))
    for profile in missing:
        policies = [game.strategy_sets[p][i] for p, i in enumerate(profile)]
        if analytic:
            mean = analytic_payoffs(env, policies)
        else:
            cell_rng = derived_rng(base, *profile)
            mean = estimate_payoffs(env, policies, episodes_per_cell, cell_rng)
        game.payoffs.record(profile, mean, 1 if analytic else episodes_per_cell)
        if counter is not None and not analytic:
            counter.eval_episodes += episodes_per_cell
    return game


def _resolve_hparams(config: RunConfig, env_name: str) -> tuple[OracleHParams, OracleHParams]:
    pure = config.pure_hparams or preset_hparams(env_name, "pure")
    mix = config.mix_hparams or preset_hparams(env_name, "mix")
    return pure, mix


def _make_oracle(config: RunConfig, env_name: str):
    if config.oracle == "exact":
        return ExactMatrixOracle()
    pure, mix = _resolve_hparams(config, env_name)
    return TabularOracle(pure, mix)


def _uniform_solution(game: EmpiricalGame) -> SolutionProfile:
    mixtures = tuple(
        MixedStrategy(p, np.full(k, 1.0 / k)) for p, k in enumerate(game.shape)
    )
    return SolutionProfile(mixtures, "uniform-init", 0.0)


def _internal_regrets(game: EmpiricalGame, solution: SolutionProfile) -> tuple[float, ...]:
    gains = deviation_gains(game, solution.mixtures)
    return tuple(max(0.0, float(g.max())) for g in gains)


def _log_epoch(
    record: RunRecord,
    epoch: int,
    solution: SolutionProfile,
    target: SolutionProfile | None,
    new_ids: tuple[StrategyId, ...],
) -> EpochEntry:
    regrets = _internal_regrets(record.game, solution)
    entry = EpochEntry(
        epoch=epoch,
        solution=solution,
        target=target,
        new_ids=new_ids,
        train_steps=record.counter.train_steps,
        eval_episodes=record.counter.eval_episodes,
        regrets=regrets,
        sum_regret=float(sum(regrets)),
    )
    record.entries.append(entry)
    return entry


def _init_record(config: RunConfig, env: Environment, initial_policies) -> RunRecord:
    game = EmpiricalGame(env.n_players)
    if initial_policies is None:
        initial_policies = [
            uniform_random_policy(env.action_count(p)) for p in range(env.n_players)
        ]
    for player, policy in enumerate(initial_policies):
        game.add_policy(player, policy)
    record = RunRecord(config=config, env_name=env.name, game=game)
    if config.algorithm == "mixed-oracles":
        record.libraries = [[] for _ in range(env.n_players)]
    expand_enfg(
        game,
        env,
        config.episodes_per_cell,
        derived_rng(config.seed, 0, 0, _EXPAND),
        record.counter,
        analytic=config.analytic_cells,
    )
    _log_epoch(record, 0, _uniform_solution(game), None, ())
    return record


def _opponent_indices(n_players: int, player: int) -> tuple[int, ...]:
    return tuple(p for p in range(n_players) if p != player)


def _train_new_policies(record: RunRecord, env: Environment, oracle, epoch: int):
    """One strategy-expansion pass: a new policy per player, per the algorithm."""
    config = record.config
    game = record.game
    target = record.entries[-1].solution  # solved at epoch-1, trained against now
    new_policies = []
    for player in range(env.n_players):
        train_rng = derived_rng(config.seed, epoch, player, _TRAIN)
        draw_rng = derived_rng(config.seed, epoch, player, _OPPONENT_DRAW)
        others = _opponent_indices(env.n_players, player)
        if config.algorithm == "psro":
            opponent_sets = {p: list(game.strategy_sets[p]) for p in others}
            weights = {p: target.weights(p) for p in others}
            policy = oracle.respond_mixture(
                env, player, opponent_sets, weights, train_rng, record.counter, draw_rng
            )
        elif config.algorithm == "mixed-oracles":
            opponent = others[0]
            newest = game.strategy_sets[opponent][-1]
            response = oracle.respond_fixed(
                env, player, {opponent: newest}, train_rng, record.counter
            )
            record.libraries[player].append(response)
            policy = combine_responses(record.libraries[player], target.mixtures[opponent])
        else:  # mixed-opponents: collapse each opponent's mixture separately
            combined = {
                p: combine_opponents(game.strategy_sets[p], target.mixtures[p])
                for p in others
            }
            policy = oracle.respond_fixed(
                env, player, combined, train_rng, record.counter
            )
        new_policies.append(policy)
    return new_policies, target


def run_algorithm(
    config: RunConfig,
    resume_record: RunRecord | None = None,
    initial_policies: Sequence | None = None,
) -> RunRecord:
    """Run (or continue) the configured epoch loop and return its record."""
    config.validate()
    env = make_env(config.env)
    if config.algorithm == "mixed-oracles" and env.n_players != 2:
        raise PlayerCountUnsupported(
            f"mixed-oracles supports exactly 2 players, env has {env.n_players}"
        )
    if config.analytic_cells:
        require_matrix_env(env)
    oracle = _make_oracle(config, env.name)
    solver = get_solver(config.mss, **config.mss_params)

    if resume_record is None:
        record = _init_record(config, env, initial_policies)
    else:
        record = resume_record
        record.config = config

    for epoch in range(record.next_epoch, config.epochs + 1):
        new_policies, target = _train_new_policies(record, env, oracle, epoch)
        new_ids = tuple(
            record.game.add_policy(player, policy)
            for player, policy in enumerate(new_policies)
        )
        expand_enfg(
            record.game,
            env,
            config.episodes_per_cell,
            derived_rng(config.seed, epoch, 0, _EXPAND),
            record.counter,
            analytic=config.analytic_cells,
        )
        record.game.epoch = epoch
        solution = solver(record.game)
        entry = _log_epoch(record, epoch, solution, target, new_ids)
        record.next_epoch = epoch + 1
        if (
            config.early_stop_sum_regret is not None
            and entry.sum_regret < config.early_stop_sum_regret
        ):
            break
    return record


def run_psro(config: RunConfig, **kwargs) -> RunRecord:
    """Best response to the opponent solution, resampled at episode starts."""
    return run_algorithm(replace(config, algorithm="psro"), **kwargs)


def run_mixed_oracles(config: RunConfig, **kwargs) -> RunRecord:
    """Respond only to each newest opponent policy; answer mixtures by
    aggregating the stored response library (two-player games)."""
    return run_algorithm(replace(config, algorithm="mixed-oracles"), **kwargs)


def run_mixed_opponents(config: RunConfig, **kwargs) -> RunRecord:
    """Collapse the opponent mixture into one value-aggregated policy and
    best-respond to that single fixed opponent."""
    return run_algorithm(replace(config, algorithm="mixed-opponents"), **kwargs)


def export_regret_curve(record: RunRecord) -> str:
    """Tabular text: epoch, cumulative training timesteps, per-player regret,
    sum regret (regrets are internal to the empirical game)."""
    n = record.game.n_players
    header = ["epoch", "cumulative_train_steps"]
    header += [f"regret_p{p}" for p in range(n)]
    header.append("sum_regret")
    lines = ["\t".join(header)]
    for entry in record.entries:
        row = [str(entry.epoch), str(entry.train_steps)]
        row += [repr(float(r)) for r in entry.regrets]
        row.append(repr(float(entry.sum_regret)))
        lines.append("\t".join(row))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Checkpointing
# ---------------------------------------------------------------------------

CHECKPOINT_HEADER = "psromix-checkpoint v1"


def _solution_to_json(solution: SolutionProfile | None):
    if solution is None:
        return None
    return {
        "solver_name": solution.solver_name,
        "residual": solution.residual,
        "mixtures": [list(map(float, m.weights)) for m in solution.mixtures],
    }


def _solution_from_json(data) -> SolutionProfile | None:
    if data is None:
        return None
    mixtures = tuple(
        MixedStrategy(p, np.array(w)) for p, w in enumerate(data["mixtures"])
    )
    return SolutionProfile(mixtures, data["solver_name"], data["residual"])


def checkpoint(record: RunRecord, path) -> None:
    """Write the full run state (game, policies, libraries, counters, log)."""
    os.makedirs(path, exist_ok=True)
    from .config import config_to_json  # local import to avoid a cycle

    meta = [
        CHECKPOINT_HEADER,
        f"algorithm {record.config.algorithm}",
        f"env {record.env_name}",
        f"seed {record.config.seed}",
        f"next_epoch {record.next_epoch}",
    ]
    with open(os.path.join(path, "meta.txt"), "w") as fh:
        fh.write("\n".join(meta) + "\n")
    counters = [
        "psromix-counters v1",
        f"train_steps {record.counter.train_steps}",
        f"eval_episodes {record.counter.eval_episodes}",
    ]
    with open(os.path.join(path, "counters.txt"), "w") as fh:
        fh.write("\n".join(counters) + "\n")
    with open(os.path.join(path, "config.json"), "w") as fh:
        fh.write(config_to_json(record.config))
    save_game(record.game, os.path.join(path, "game.txt"))

    policy_dir = os.path.join(path, "policies")
    os.makedirs(policy_dir, exist_ok=True)
    for player, strategies in enumerate(record.game.strategy_sets):
        for index, policy in enumerate(strategies):
            save_policy(policy, os.path.join(policy_dir, f"p{player}_{index}.txt"))

    if record.libraries is not None:
        library_dir = os.path.join(path, "library")
        os.makedirs(library_dir, exist_ok=True)
        manifest = []
        for player, responses in enumerate(record.libraries):
            for index, response in enumerate(responses):
                name = f"p{player}_{index}.txt"
                save_policy(response, os.path.join(library_dir, name))
                manifest.append(name)
        with open(os.path.join(library_dir, "manifest.txt"), "w") as fh:
            fh.write("\n".join(manifest) + ("\n" if manifest else ""))

    entries = [
        {
            "epoch": e.epoch,
            "solution": _solution_to_json(e.solution),
            "target": _solution_to_json(e.target),
            "new_ids": [list(i) for i in e.new_ids],
            "train_steps": e.train_steps,
            "eval_episodes": e.eval_episodes,
            "regrets": list(e.regrets),
            "sum_regret": e.sum_regret,
        }
        for e in record.entries
    ]
    with open(os.path.join(path, "record.json"), "w") as fh:
        json.dump(entries, fh, indent=1, sort_keys=True)


def resume(path) -> RunRecord:
    """Rebuild a RunRecord from a checkpoint directory."""
    from .config import config_from_json

    try:
        with open(os.path.join(path, "meta.txt")) as fh:
            meta_lines = [ln.strip() for ln in fh if ln.strip()]
        if not meta_lines or meta_lines[0] != CHECKPOINT_HEADER:
            raise CorruptCheckpoint(f"{path}: meta.txt missing the versioned header")
        meta = dict(line.split(None, 1) for line in meta_lines[1:])
        with open(os.path.join(path, "counters.txt")) as fh:
            counter_lines = [ln.strip() for ln in fh if ln.strip()]
        if not counter_lines or counter_lines[0] != "psromix-counters v1":
            raise CorruptCheckpoint(f"{path}: counters.txt missing its header")
        counters_map = dict(line.split(None, 1) for line in counter_lines[1:])
        with open(os.path.join(path, "config.json")) as fh:
            config = config_from_json(fh.read())
        game = load_game(os.path.join(path, "game.txt"))
        policy_dir = os.path.join(path, "policies")
        for player, strategies in enumerate(game.strategy_sets):
            for index in range(len(strategies)):
                strategies[index] = load_policy(
                    os.path.join(policy_dir, f"p{player}_{index}.txt")
                )
        libraries = None
        library_dir = os.path.join(path, "library")
        if os.path.isdir(library_dir):
            libraries = [[] for _ in range(game.n_players)]
            with open(os.path.join(library_dir, "manifest.txt")) as fh:
                for name in (ln.strip() for ln in fh if ln.strip()):
                    player = int(name.split("_")[0][1:])
                    libraries[player].append(load_policy(os.path.join(library_dir, name)))
        with open(os.path.join(path, "record.json")) as fh:
            raw_entries = json.load(fh)
        entries = [
            EpochEntry(
                epoch=e["epoch"],
                solution=_solution_from_json(e["solution"]),
                target=_solution_from_json(e["target"]),
                new_ids=tuple(StrategyId(*i) for i in e["new_ids"]),
                train_steps=e["train_steps"],
                eval_episodes=e["eval_episodes"],
                regrets=tuple(e["regrets"]),
                sum_regret=e["sum_regret"],
            )
            for e in raw_entries
        ]
        counter = SimulationCounter(
            train_steps=int(counters_map["train_steps"]),
            eval_episodes=int(counters_map["eval_episodes"]),
        )
        return RunRecord(
            config=config,
            env_name=meta["env"],
            game=game,
            entries=entries,
            libraries=libraries,
            counter=counter,
            next_epoch=int(meta["next_epoch"]),
        )
    except CorruptCheckpoint:
        raise
    except (OSError, KeyError, ValueError, json.JSONDecodeError) as exc:
        raise CorruptCheckpoint(f"cannot restore checkpoint at {path}: {exc}") from exc
