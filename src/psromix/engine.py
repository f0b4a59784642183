"""The epoch loops: plain best-response iteration plus the two variants that
train only against single policies, and the efficient empirical-game
expansion they share.

Randomness discipline: one root seed; every consumer draws from a stream
derived from (seed, epoch, player, purpose), so adding instrumentation or
resuming from a checkpoint never perturbs trajectories, and a resumed run
reproduces an unbroken one exactly. The streams are independent, so no
player's response, and no cell, depends on when another is computed. That
is what lets each epoch's players run their jobs at the same time: player
0's in this process, every other player's in a worker forked once per run
and fed over a pipe until a ``None`` message stops it; a job's error, or a
worker's exit, is raised here and kills every worker (:func:`_player_jobs`).
A job trains the player's response, builds its new strategy and fills the
cells in which that strategy is the only new one; this process fills the rest.
"""

from __future__ import annotations

import contextlib
import itertools
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
from .serialize import POLICY_FILE, load_policy, save_policy
from .solvers import SolutionProfile, get_solver

# Purpose codes for derived random streams.
_TRAIN, _OPPONENT_DRAW, _EXPAND = 0, 1, 2
# The config fields a resumed run may change: how long it runs.
_RESUMABLE = ("run.epochs", "run.early_stop_sum_regret")


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
    filled=None,
) -> EmpiricalGame:
    """Fill exactly the missing profile cells, in lexicographic order.

    Existing cells are never re-simulated. Each cell runs on a stream derived
    from the profile indices, so cells for distinct profiles commute and the
    filled table does not depend on their order or on the process that
    simulates them: ``filled`` maps profiles already simulated elsewhere on
    those streams to their payoffs, which are recorded as given. With
    ``analytic=True`` cells hold exact values and consume no episodes.
    """
    missing = game.missing_profiles()
    if not missing:
        return game
    base = _cell_seed(rng)
    filled = filled or {}
    for profile in missing:
        mean = filled.get(profile)
        if mean is None:
            policies = [game.strategy_sets[p][i] for p, i in enumerate(profile)]
            mean = _cell(env, policies, profile, base, episodes_per_cell, analytic)
        game.payoffs.record(profile, mean, 1 if analytic else episodes_per_cell)
        if counter is not None and not analytic:
            counter.eval_episodes += episodes_per_cell
    return game


def _cell_seed(rng) -> int:
    """The base seed of one expansion's cells, drawn from its stream."""
    return int(rng.integers(2**62))


def _cell(env, policies, profile, base: int, episodes: int, analytic: bool) -> np.ndarray:
    if analytic:
        return exact.analytic_payoffs(env, policies)
    return estimate_payoffs(env, policies, episodes, derived_rng(base, *profile))


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


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _epoch_job(record: RunRecord, env: Environment, oracle, epoch: int, target, player: int):
    """One player's share of an epoch: train its response to ``target``,
    build its new strategy from it, and fill the cells in which that
    strategy is the only new one, against the other players' strategies at
    the start of the epoch, on the streams :func:`expand_enfg` gives them.

    Returns (new strategy, response, train steps, {profile: payoffs}). It
    reads only ``target``, the strategy sets, its own library and its own
    streams, and changes nothing, so the players' jobs can run in any order
    or at the same time and give the same results.
    """
    config = record.config
    game = record.game
    train_rng = derived_rng(config.seed, epoch, player, _TRAIN)
    others = _opponent_indices(env.n_players, player)
    counter = SimulationCounter()
    if config.algorithm == "psro":
        mixtures = {p: (list(game.strategy_sets[p]), target.weights(p)) for p in others}
        draw_rng = derived_rng(config.seed, epoch, player, _OPPONENT_DRAW)
        response = oracle.respond_mixture(
            env, player, mixtures, train_rng, counter, opponent_rng=draw_rng
        )
    elif config.algorithm == "mixed-oracles":
        opponent = others[0]
        newest = game.strategy_sets[opponent][-1]
        response = oracle.respond_fixed(env, player, {opponent: newest}, train_rng, counter)
    else:  # mixed-opponents: collapse each opponent's mixture separately
        combined = {
            p: combine_opponents(game.strategy_sets[p], target.weights(p)) for p in others
        }
        response = oracle.respond_fixed(env, player, combined, train_rng, counter)
    strategy = response
    if config.algorithm == "mixed-oracles":
        library = [*record.libraries[player], response]
        strategy = combine_responses(library, target.weights(others[0]))

    base = _cell_seed(derived_rng(config.seed, epoch, 0, _EXPAND))
    new_index = len(game.strategy_sets[player])
    cells = {}
    for rest in itertools.product(*(range(len(game.strategy_sets[p])) for p in others)):
        profile = (*rest[:player], new_index, *rest[player:])
        policies = [
            strategy if p == player else game.strategy_sets[p][i] for p, i in enumerate(profile)
        ]
        cells[profile] = _cell(
            env, policies, profile, base, config.episodes_per_cell, config.analytic_cells
        )
    return strategy, response, counter.train_steps, cells


def _add_strategy(record: RunRecord, player: int, strategy, response) -> StrategyId:
    if record.libraries is not None:
        record.libraries[player].append(response)
    return record.game.add_policy(player, strategy)


@contextlib.contextmanager
def _player_jobs(record: RunRecord, env: Environment, oracle):
    """Yield ``run(epoch, target)``: every player's :func:`_epoch_job`
    result, in player order.

    Player 0's job runs here. With ``os.fork`` and two or more CPUs to run
    on, every other player's job runs at the same time in a worker process
    of its own, forked at the first call. Each epoch a worker is sent, over
    a duplex pipe, the epoch, the target and the other players' strategies
    added since its last message, and sends back its job's result or
    exception; the ``with`` block's normal end sends it ``None``. The first
    player, in player order, whose job raises has its exception raised
    here, with its own type and message, and a worker that exits without
    replying raises :class:`ChildProcessError`; however the block ends,
    every worker is then killed and joined. Exact responses take less time
    than a fork, and on one CPU the workers could only add their cost, so
    there, or without ``os.fork``, every job runs here, in order.
    """
    n_players = env.n_players

    def job(epoch, target, player):
        return _epoch_job(record, env, oracle, epoch, target, player)

    if record.config.oracle == "exact" or not hasattr(os, "fork") or _usable_cpus() < 2:
        yield lambda epoch, target: [job(epoch, target, p) for p in range(n_players)]
        return
    workers = []  # (player, process, its end of the pipe), per extra player
    known = list(record.game.shape)  # the strategies every worker holds, per player

    def run(epoch, target):
        if not workers:
            # Imported only here: runs that never fork need none of it, and
            # the package's import time is part of every run's set-up.
            import multiprocessing

            context = multiprocessing.get_context("fork")
            for player in range(1, n_players):
                end, child_end = context.Pipe()
                args = (record, env, oracle, player, child_end, end)
                process = context.Process(target=_serve, args=args)
                process.start()
                child_end.close()
                workers.append((player, process, end))
        added = [strategies[count:] for strategies, count in zip(record.game.strategy_sets, known)]
        known[:] = record.game.shape
        for player, process, end in workers:
            others = {p: new for p, new in enumerate(added) if p != player}
            _talk(player, process, end.send, (epoch, target, others))
        results = [job(epoch, target, 0)]
        for player, process, end in workers:
            ok, value = _talk(player, process, end.recv)
            if not ok:
                raise value
            results.append(value)
        return results

    try:
        yield run
        for _, process, end in workers:
            with contextlib.suppress(ConnectionError):  # an exited worker is stopped
                end.send(None)
            process.join()
    finally:
        for _, process, end in workers:
            process.kill()
            process.join()
            end.close()


def _talk(player: int, process, call, *args):
    """``call(*args)`` on a worker's pipe; ChildProcessError if the worker has exited."""
    try:
        return call(*args)
    except (EOFError, ConnectionError):
        process.join()
        raise ChildProcessError(
            f"player {player}'s worker exited without replying (exit code {process.exitcode})"
        )


def _serve(record: RunRecord, env: Environment, oracle, player: int, end, parent_end) -> None:
    """A worker's loop: until it gets ``None``, its job raises or the
    parent's end of the pipe closes, run the player's job on each message
    and reply with the job's result or exception. It leaves quietly: an
    exception that escaped would have ``multiprocessing`` print it."""
    parent_end.close()  # the worker's copy would keep that end open
    # An interrupt (Ctrl-C reaches the whole process group) is the parent's
    # to handle; the parent kills every worker.
    with contextlib.suppress(EOFError, KeyboardInterrupt):
        while (message := end.recv()) is not None:
            epoch, target, added = message
            for p, strategies in added.items():
                record.game.strategy_sets[p].extend(strategies)
            try:
                reply = (True, _epoch_job(record, env, oracle, epoch, target, player))
            except BaseException as exc:  # re-raised by the parent
                reply = (False, exc)
            end.send(reply)
            if not reply[0]:
                return
            strategy, response, _, _ = reply[1]
            _add_strategy(record, player, strategy, response)


def _stops(entry: EpochEntry, threshold: float | None) -> bool:
    """Whether ``run.early_stop_sum_regret`` ends a run after ``entry``."""
    return threshold is not None and entry.epoch >= 1 and entry.sum_regret < threshold


def _check_resumable(record: RunRecord, config: RunConfig) -> None:
    """Raise ConfigError naming the first field, in the canonical rendering,
    in which ``config`` differs from the config a resumed run was started
    with. Only :data:`_RESUMABLE` fields may change: every other field
    sets the trajectory that the checkpoint already holds part of.

    A run that would go on training also refuses an early-stop threshold
    that a logged epoch before its last meets: an unbroken run with that
    threshold stopped there.
    """
    before, after = (json.loads(config_to_json(c)) for c in (record.config, config))
    for section, fields in after.items():
        for name in sorted({*before[section], *fields}):
            old, new = before[section].get(name), fields.get(name)
            if old != new and f"{section}.{name}" not in _RESUMABLE:
                raise ConfigError(
                    f"{section}.{name}: the checkpointed run has {old!r}, "
                    f"the config resuming it has {new!r}"
                )
    threshold = config.early_stop_sum_regret
    if _stops(record.entries[-1], threshold) or record.next_epoch > config.epochs:
        return
    for entry in record.entries[:-1]:
        if _stops(entry, threshold):
            raise ConfigError(
                f"run.early_stop_sum_regret: epoch {entry.epoch} of the checkpointed run "
                f"has sum regret {entry.sum_regret!r}, under {threshold!r}, so a run "
                "with this threshold stops there"
            )


def run_algorithm(
    config: RunConfig,
    resume_record: RunRecord | None = None,
    initial_policies: Sequence | None = None,
) -> RunRecord:
    """Run (or continue) the configured epoch loop and return its record."""
    config.validate()
    if resume_record is not None:
        _check_resumable(resume_record, config)
        _check_library(resume_record)
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

    stop = config.early_stop_sum_regret
    with _player_jobs(record, env, oracle) as run_jobs:
        for epoch in range(record.next_epoch, config.epochs + 1):
            # Decided from the log, so a resumed early-stopped run stops too.
            if _stops(record.entries[-1], stop):
                break
            target = record.entries[-1].solution  # solved at epoch-1, trained against now
            new_ids, filled = [], {}
            for player, (strategy, response, steps, cells) in enumerate(run_jobs(epoch, target)):
                record.counter.train_steps += steps
                new_ids.append(_add_strategy(record, player, strategy, response))
                filled.update(cells)
            expand_enfg(
                record.game,
                env,
                config.episodes_per_cell,
                derived_rng(config.seed, epoch, 0, _EXPAND),
                record.counter,
                analytic=config.analytic_cells,
                filled=filled,
            )
            record.game.epoch = epoch
            solution = solver(record.game)
            _log_epoch(record, epoch, solution, target, tuple(new_ids))
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

def _check_library(record: RunRecord) -> None:
    """A Mixed-Oracles record read without its library can neither continue
    its run nor be checkpointed (that would delete the library's files)."""
    if record.config.algorithm == "mixed-oracles" and record.libraries is None:
        raise ValueError("the record holds no library: resume it with library=True")


def save_policy_set(directory, policy_sets) -> None:
    """Write ``p<player>_<index>.txt`` per policy (one list per player) and
    delete ``directory``'s other files named as :data:`POLICY_FILE`, so an
    overwritten longer set leaves nothing behind; files of any other name
    stay. The one writer of policy sets: checkpoints and evaluation sets."""
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
            stale = POLICY_FILE.fullmatch(entry.name) and entry.name not in policies
            if stale and entry.is_file():
                os.unlink(entry.path)


def checkpoint(record: RunRecord, path) -> None:
    """Write the full run state: ``config.json``, ``game.txt``, the policies,
    the Mixed-Oracles response library and the epoch log ``record.json``.

    ``record.json`` is the commit marker. It is removed before anything else
    is written and atomically put back last, so a write cut short leaves a
    checkpoint that :func:`resume` rejects instead of one that mixes old and
    new state. :func:`save_policy_set` writes both policy directories, so
    the policy files of a longer run checkpointed here before are deleted
    before the commit. Counters and the next epoch are read back from the log.
    """
    _check_library(record)
    os.makedirs(path, exist_ok=True)
    record_path = os.path.join(path, "record.json")
    if os.path.exists(record_path):
        os.unlink(record_path)
    with open(os.path.join(path, "config.json"), "w") as fh:
        fh.write(config_to_json(record.config))
    save_game(record.game, os.path.join(path, "game.txt"))

    save_policy_set(os.path.join(path, "policies"), record.game.strategy_sets)
    save_policy_set(os.path.join(path, "library"), record.libraries or [])

    entries = [asdict(e) for e in record.entries]
    partial_path = record_path + ".partial"
    with open(partial_path, "w") as fh:
        json.dump(entries, fh, indent=1, sort_keys=True, default=np.ndarray.tolist)
    os.replace(partial_path, record_path)


def resume(path, library: bool = True) -> RunRecord:
    """Rebuild a RunRecord from a checkpoint directory.

    The counters and the next epoch come from the last ``record.json`` entry;
    a Mixed-Oracles run holds one library response per player per epoch.
    ``library=False`` reads no library (``libraries`` stays None), for a
    reader of the game and its solution only; such a record cannot continue
    a Mixed-Oracles run.
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
        if library and config.algorithm == "mixed-oracles":
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
