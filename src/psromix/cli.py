"""Command-line harness.

Subcommands: ``run <config>``, ``hparam-search <config>``,
``compare <dirs...>``, ``eval <checkpoint> --eval-set <dir>``. Relative
output paths resolve under the PSROMIX_OUTPUT_ROOT environment variable
(default: the working directory). Exit codes: 0 success, 1 config error,
2 runtime error. All randomness flows from the config seed, so rerunning a
command rewrites byte-identical artifacts.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from . import exact
from .config import HParamSearchSpec, load_config, load_search_config
from .engine import RunRecord, checkpoint, export_regret_curve, resume, run_algorithm
from .envs import Environment, make_env
from .errors import ConfigError, CorruptCheckpoint, EnvironmentMismatch, PsromixError
from .evaluation import proxy_regret, sum_regret
from .games import save_game
from .hparams import hparam_search
from .policies import ValuePolicy, uniform_random_policy
from .serialize import POLICY_FILE, load_policy


def _output_root() -> str:
    return os.environ.get("PSROMIX_OUTPUT_ROOT", ".")


def _resolve(path: str) -> str:
    if os.path.isabs(path):
        return path
    return os.path.join(_output_root(), path)


def _cmd_run(args) -> int:
    config = load_config(args.config)
    out_dir = _resolve(args.output or _default_run_dir(args.config))
    os.makedirs(out_dir, exist_ok=True)
    record = run_algorithm(config)
    for entry in record.entries:
        print(
            f"epoch {entry.epoch} | sum_regret {entry.sum_regret:.6g} | "
            f"train_steps {entry.train_steps} | eval_episodes {entry.eval_episodes}"
        )
    with open(os.path.join(out_dir, "regret_curve.tsv"), "w") as fh:
        fh.write(export_regret_curve(record))
    save_game(record.game, os.path.join(out_dir, "game.txt"))
    checkpoint(record, os.path.join(out_dir, "checkpoint"))
    print(f"wrote {out_dir}")
    return 0


def _default_run_dir(config_path: str) -> str:
    stem = os.path.splitext(os.path.basename(config_path))[0]
    return stem + ".out"


def _read_run_dir(path: str) -> RunRecord:
    """The run's record, resumed from its checkpoint without the library."""
    try:
        return resume(os.path.join(path, "checkpoint"), library=False)
    except CorruptCheckpoint as exc:
        raise PsromixError(f"{path}: not a completed run directory ({exc})") from exc


def _cmd_compare(args) -> int:
    if len(args.run_dirs) < 2:
        raise PsromixError("compare needs at least two completed run directories")
    records = [_read_run_dir(_resolve(d)) for d in args.run_dirs]
    env_names = {record.config.env for record in records}
    if len(env_names) != 1:
        raise EnvironmentMismatch(
            f"runs come from different environments: {sorted(env_names)}"
        )
    labels = []
    seen: dict[str, int] = {}
    for record in records:
        label = record.config.algorithm
        seen[label] = seen.get(label, 0) + 1
        labels.append(label if seen[label] == 1 else f"{label}#{seen[label]}")

    lines = ["algorithm\taxis\tx\tsum_regret"]
    for label, record in zip(labels, records):
        # The numbers are written as export_regret_curve writes them.
        curve = [(e.epoch, e.train_steps, repr(float(e.sum_regret))) for e in record.entries]
        lines += [f"{label}\tepoch\t{epoch}\t{regret}" for epoch, _, regret in curve]
        lines += [f"{label}\ttimesteps\t{steps}\t{regret}" for _, steps, regret in curve]
    table = "\n".join(lines) + "\n"
    if args.output:
        with open(_resolve(args.output), "w") as fh:
            fh.write(table)
        print(f"wrote {_resolve(args.output)}")
    else:
        print(table, end="")
    return 0


def _load_eval_set(path: str, env: Environment) -> list[list]:
    """The policies in ``p<player>_<k>.txt`` files, in listing order; other
    files are skipped. Each must be a policy for its player's seat in ``env``:
    its action count, and table keys only where that seat acts."""
    eval_set: list[list] = [[] for _ in range(env.n_players)]
    seat_keys = [set(exact.seat_keys(env, player)[0]) for player in range(env.n_players)]
    try:
        names = sorted(os.listdir(path))
    except OSError as exc:
        raise PsromixError(f"{path}: cannot list the evaluation set: {exc.strerror}") from exc
    for name in names:
        match = POLICY_FILE.fullmatch(name)
        if match is None:
            continue
        file = os.path.join(path, name)
        player = int(match.group(1))
        if player >= env.n_players:
            raise PsromixError(
                f"{file}: player {player} is not one of {env.n_players} players"
            )
        policy = load_policy(file)
        expected = env.action_count(player)
        if policy.action_count != expected:
            raise PsromixError(
                f"{file}: policy has {policy.action_count} actions, "
                f"player {player} of {env.name} has {expected}"
            )
        keys = policy.q.known_keys() if isinstance(policy, ValuePolicy) else ()
        stray = [key.hex() for key in keys if key not in seat_keys[player]]
        if stray:
            raise PsromixError(
                f"{file}: key {stray[0]} is not a state where player {player} of {env.name} acts"
            )
        eval_set[player].append(policy)
    return eval_set


def _cmd_eval(args) -> int:
    if args.episodes < 1:
        raise ConfigError(f"--episodes: must be >= 1, got {args.episodes}")
    # Evaluation reads the game and its solution, never the library.
    record = resume(_resolve(args.checkpoint), library=False)
    env = make_env(record.config.env)
    eval_set = _load_eval_set(_resolve(args.eval_set), env)
    if all(len(policies) == 0 for policies in eval_set):
        raise PsromixError(f"{args.eval_set}: no policy files found")
    regrets = proxy_regret(
        env,
        record.solution,
        psro_set=record.game.strategy_sets,
        eval_set=eval_set,
        populations=record.game.strategy_sets,
    )
    for player, value in enumerate(regrets):
        print(f"proxy_regret_p{player} {float(value)!r}")
    print(f"sum_proxy_regret {sum_regret(regrets)!r}")
    return 0


def _cmd_hparam_search(args) -> int:
    env, spec, opponents_section = load_search_config(args.config)
    opponents = _build_opponents(opponents_section, env, spec)
    result = hparam_search(spec, env, opponents)
    payload = {
        "pure": dataclasses.asdict(result.pure_hparams),
        "mix": dataclasses.asdict(result.mix_hparams),
        "pure_scores": [float(s) for s in result.pure_scores],
        "mix_scores": [float(s) for s in result.mix_scores],
    }
    text = json.dumps(payload, indent=1, sort_keys=True) + "\n"
    if args.output:
        with open(_resolve(args.output), "w") as fh:
            fh.write(text)
        print(f"wrote {_resolve(args.output)}")
    else:
        print(text, end="")
    return 0


def _build_opponents(section: dict, env, spec: HParamSearchSpec) -> list:
    """Opponent policies for the search: from a checkpoint's solution support,
    or uniform-random placeholders for smoke runs."""
    opponent_seat = 1 - spec.learner
    if section.get("source", "random") == "random":
        return [
            uniform_random_policy(env.action_count(opponent_seat))
            for _ in range(spec.opponent_count)
        ]
    record = resume(_resolve(section["path"]), library=False)
    if record.config.env != env.name:
        raise EnvironmentMismatch(
            f"opponents: checkpoint comes from {record.config.env!r}, "
            f"the search runs on {env.name!r}"
        )
    weights = record.solution.weights(opponent_seat)
    order = np.argsort(-weights, kind="stable")
    support = [int(i) for i in order if weights[i] > 0.0][: spec.opponent_count]
    if len(support) < spec.opponent_count:
        raise ConfigError(
            f"opponents: checkpoint solution support has only {len(support)} "
            f"policies, need {spec.opponent_count}"
        )
    return [record.game.strategy_sets[opponent_seat][i] for i in support]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="psromix",
        description="Iterative empirical-game solving with single-policy best responses",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a configured experiment")
    p_run.add_argument("config")
    p_run.add_argument("--output", help="output directory (under PSROMIX_OUTPUT_ROOT)")
    p_run.set_defaults(func=_cmd_run)

    p_search = sub.add_parser("hparam-search", help="two-task hyperparameter search")
    p_search.add_argument("config")
    p_search.add_argument("--output", help="file for the selected hyperparameters")
    p_search.set_defaults(func=_cmd_hparam_search)

    p_cmp = sub.add_parser("compare", help="merge regret curves from completed runs")
    p_cmp.add_argument("run_dirs", nargs="+")
    p_cmp.add_argument("--output", help="file for the long-format table")
    p_cmp.set_defaults(func=_cmd_compare)

    p_eval = sub.add_parser("eval", help="proxy regret of a checkpoint vs an eval set")
    p_eval.add_argument("checkpoint")
    p_eval.add_argument("--eval-set", required=True, dest="eval_set")
    p_eval.add_argument(
        "--episodes",
        type=int,
        default=30,
        help="must be >= 1 (default 30) and changes no output: evaluation is exact. "
        "It is kept so that existing command lines still parse",
    )
    p_eval.set_defaults(func=_cmd_eval)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except PsromixError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
