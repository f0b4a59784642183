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
from dataclasses import asdict, dataclass, field
from typing import Sequence

import numpy as np

from . import exact
from .config import RunConfig, config_from_json, config_to_json
from .envs import Environment, derived_rng, estimate_payoffs, make_env
from .errors import ConfigError, CorruptCheckpoint, OutOfBounds, PlayerCountUnsupported
from .games import EmpiricalGame, StrategyId, deviation_gains, load_game, save_game
from .hparams import preset_hparams
from .oracle import SimulationCounter, TabularOracle
from .policies import uniform_random_policy
from .qmixing import combine_opponents, combine_responses
from .serialize import load_policy, save_policy
from .solvers import SolutionProfile, get_solver

# Purpose codes for derived random streams.
_TRAIN, _OPPONENT_DRAW, _EXPAND = 0, 1, 2


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
    game: EmpiricalGame
    entries: list[EpochEntry] = field(default_factory=list)
    libraries: list[list] | None = None  # per player, Mixed-Oracles only
    counter: SimulationCounter = field(default_factory=SimulationCounter)

    @property
    def solution(self) -> SolutionProfile:
        return self.entries[-1].solution

    @property
    def next_epoch(self) -> int:
        return self.entries[-1].epoch + 1


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
    cells hold exact values and consume no episodes.
    """
    missing = game.missing_profiles()
    if not missing:
        return game
    base = int(rng.integers(2**62))
    for profile in missing:
        policies = [game.strategy_sets[p][i] for p, i in enumerate(profile)]
        if analytic:
            mean = exact.analytic_payoffs(env, policies)
        else:
            cell_rng = derived_rng(base, *profile)
            mean = estimate_payoffs(env, policies, episodes_per_cell, cell_rng)
        game.payoffs.record(profile, mean, 1 if analytic else episodes_per_cell)
        if counter is not None and not analytic:
            counter.eval_episodes += episodes_per_cell
    return game


def _make_oracle(config: RunConfig, env_name: str):
    if config.oracle == "exact":
        return exact.ExactOracle()
    pure = config.pure_hparams or preset_hparams(env_name, "pure")
    mix = config.mix_hparams or preset_hparams(env_name, "mix")
    return TabularOracle(pure, mix)


def _uniform_solution(game: EmpiricalGame) -> SolutionProfile:
    mixtures = tuple(np.full(k, 1.0 / k) for k in game.shape)
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
    record = RunRecord(config=config, game=game)
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
            mixtures = {p: (list(game.strategy_sets[p]), target.weights(p)) for p in others}
            policy = oracle.respond_mixture(
                env, player, mixtures, train_rng, record.counter, draw_rng
            )
        elif config.algorithm == "mixed-oracles":
            opponent = others[0]
            newest = game.strategy_sets[opponent][-1]
            response = oracle.respond_fixed(
                env, player, {opponent: newest}, train_rng, record.counter
            )
            record.libraries[player].append(response)
            policy = combine_responses(record.libraries[player], target.weights(opponent))
        else:  # mixed-opponents: collapse each opponent's mixture separately
            combined = {
                p: combine_opponents(game.strategy_sets[p], target.weights(p))
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
        if (
            config.early_stop_sum_regret is not None
            and entry.sum_regret < config.early_stop_sum_regret
        ):
            break
    return record


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

def _save_policies(directory: str, policy_sets) -> None:
    """Write ``p{player}_{index}.txt`` per policy and delete every other file
    in ``directory``, so an overwritten longer run leaves nothing behind."""
    policies = {
        f"p{player}_{index}.txt": policy
        for player, members in enumerate(policy_sets)
        for index, policy in enumerate(members)
    }
    if policies:
        os.makedirs(directory, exist_ok=True)
    for name, policy in policies.items():
        save_policy(policy, os.path.join(directory, name))
    if os.path.isdir(directory):
        for entry in os.scandir(directory):
            if entry.is_file() and entry.name not in policies:
                os.unlink(entry.path)


def checkpoint(record: RunRecord, path) -> None:
    """Write the full run state: ``config.json``, ``game.txt``, the policies,
    the Mixed-Oracles response library and the epoch log ``record.json``.

    ``record.json`` is the commit marker. It is removed before anything else
    is written and atomically put back last, so a write cut short leaves a
    checkpoint that :func:`resume` rejects instead of one that mixes old and
    new state. Policy and library files that are not part of this state,
    such as those of a longer run checkpointed here before, are deleted
    before the commit. Counters and the next epoch are read back from the log.
    """
    os.makedirs(path, exist_ok=True)
    record_path = os.path.join(path, "record.json")
    if os.path.exists(record_path):
        os.unlink(record_path)
    with open(os.path.join(path, "config.json"), "w") as fh:
        fh.write(config_to_json(record.config))
    save_game(record.game, os.path.join(path, "game.txt"))

    _save_policies(os.path.join(path, "policies"), record.game.strategy_sets)
    _save_policies(os.path.join(path, "library"), record.libraries or [])

    entries = [asdict(e) for e in record.entries]
    partial_path = record_path + ".partial"
    with open(partial_path, "w") as fh:
        json.dump(entries, fh, indent=1, sort_keys=True, default=np.ndarray.tolist)
    os.replace(partial_path, record_path)


def resume(path) -> RunRecord:
    """Rebuild a RunRecord from a checkpoint directory.

    The counters and the next epoch come from the last ``record.json`` entry;
    a Mixed-Oracles run holds one library response per player per epoch.
    Files that older versions also wrote (``meta.txt``, ``counters.txt``,
    ``library/manifest.txt``) are ignored.
    """
    try:
        with open(os.path.join(path, "record.json")) as fh:
            raw_entries = json.load(fh)
        entries = [
            EpochEntry(
                **{
                    **e,
                    "solution": SolutionProfile(**e["solution"]),
                    "target": None if e["target"] is None else SolutionProfile(**e["target"]),
                    "new_ids": tuple(StrategyId(*i) for i in e["new_ids"]),
                    "regrets": tuple(e["regrets"]),
                }
            )
            for e in raw_entries
        ]
        if not entries:
            raise CorruptCheckpoint(f"{path}: record.json holds no epochs")
        config_path = os.path.join(path, "config.json")
        with open(config_path) as fh:
            try:
                config = config_from_json(fh.read())
            except ConfigError as exc:
                raise CorruptCheckpoint(
                    f"cannot restore checkpoint at {path}: {config_path}: {exc}"
                ) from exc
        game = load_game(os.path.join(path, "game.txt"))
        if not game.is_complete():
            raise CorruptCheckpoint(
                f"{path}: game.txt holds {len(game.payoffs.cells)} of "
                f"{int(np.prod(game.shape))} payoff cells"
            )
        policy_dir = os.path.join(path, "policies")
        for player, strategies in enumerate(game.strategy_sets):
            for index in range(len(strategies)):
                strategies[index] = load_policy(
                    os.path.join(policy_dir, f"p{player}_{index}.txt")
                )
        libraries = None
        if config.algorithm == "mixed-oracles":
            library_dir = os.path.join(path, "library")
            libraries = [
                [
                    load_policy(os.path.join(library_dir, f"p{player}_{index}.txt"))
                    for index in range(entries[-1].epoch)
                ]
                for player in range(game.n_players)
            ]
        counter = SimulationCounter(
            train_steps=entries[-1].train_steps,
            eval_episodes=entries[-1].eval_episodes,
        )
        return RunRecord(
            config=config,
            game=game,
            entries=entries,
            libraries=libraries,
            counter=counter,
        )
    except CorruptCheckpoint:
        raise
    except (OSError, KeyError, TypeError, ValueError, OutOfBounds) as exc:
        raise CorruptCheckpoint(f"cannot restore checkpoint at {path}: {exc}") from exc
