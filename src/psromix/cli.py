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

from .config import load_config
from .engine import checkpoint, export_regret_curve, resume, run_algorithm
from .envs import derived_rng, make_env
from .errors import ConfigError, EnvironmentMismatch, PsromixError
from .evaluation import proxy_regret, sum_regret
from .hparams import HParamSearchSpec, hparam_search
from .policies import uniform_random_policy
from .serialize import load_policy

RUN_META_HEADER = "psromix-run v1"


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
    meta = [
        RUN_META_HEADER,
        f"algorithm {config.algorithm}",
        f"env {record.env_name}",
        f"epochs {record.entries[-1].epoch}",
        f"seed {config.seed}",
    ]
    with open(os.path.join(out_dir, "run_meta.txt"), "w") as fh:
        fh.write("\n".join(meta) + "\n")
    from .games import save_game

    save_game(record.game, os.path.join(out_dir, "game.txt"))
    checkpoint(record, os.path.join(out_dir, "checkpoint"))
    print(f"wrote {out_dir}")
    return 0


def _default_run_dir(config_path: str) -> str:
    stem = os.path.splitext(os.path.basename(config_path))[0]
    return stem + ".out"


def _read_run_dir(path: str) -> tuple[dict, list[dict]]:
    meta_path = os.path.join(path, "run_meta.txt")
    try:
        with open(meta_path) as fh:
            lines = [ln.strip() for ln in fh if ln.strip()]
    except OSError as exc:
        raise PsromixError(f"{path}: not a completed run directory ({exc})") from exc
    if not lines or lines[0] != RUN_META_HEADER:
        raise PsromixError(f"{meta_path}: missing run header")
    meta = dict(line.split(None, 1) for line in lines[1:])
    with open(os.path.join(path, "regret_curve.tsv")) as fh:
        header = fh.readline().strip().split("\t")
        rows = [dict(zip(header, ln.strip().split("\t"))) for ln in fh if ln.strip()]
    return meta, rows


def _cmd_compare(args) -> int:
    if len(args.run_dirs) < 2:
        raise PsromixError("compare needs at least two completed run directories")
    loaded = [_read_run_dir(_resolve(d)) for d in args.run_dirs]
    env_names = {meta["env"] for meta, _ in loaded}
    if len(env_names) != 1:
        raise EnvironmentMismatch(
            f"runs come from different environments: {sorted(env_names)}"
        )
    labels = []
    seen: dict[str, int] = {}
    for meta, _ in loaded:
        label = meta["algorithm"]
        seen[label] = seen.get(label, 0) + 1
        labels.append(label if seen[label] == 1 else f"{label}#{seen[label]}")

    lines = ["algorithm\taxis\tx\tsum_regret"]
    for label, (_, rows) in zip(labels, loaded):
        for row in rows:
            lines.append(f"{label}\tepoch\t{row['epoch']}\t{row['sum_regret']}")
        for row in rows:
            lines.append(
                f"{label}\ttimesteps\t{row['cumulative_train_steps']}\t{row['sum_regret']}"
            )
    table = "\n".join(lines) + "\n"
    if args.output:
        with open(_resolve(args.output), "w") as fh:
            fh.write(table)
        print(f"wrote {_resolve(args.output)}")
    else:
        print(table, end="")
    return 0


def _load_eval_set(path: str, n_players: int) -> list[list]:
    eval_set: list[list] = [[] for _ in range(n_players)]
    for name in sorted(os.listdir(path)):
        if not (name.startswith("p") and name.endswith(".txt")):
            continue
        player = int(name.split("_")[0][1:])
        eval_set[player].append(load_policy(os.path.join(path, name)))
    return eval_set


def _cmd_eval(args) -> int:
    if args.episodes < 1:
        raise ConfigError(f"--episodes: must be >= 1, got {args.episodes}")
    record = resume(_resolve(args.checkpoint))
    env = make_env(record.config.env)
    eval_set = _load_eval_set(_resolve(args.eval_set), env.n_players)
    if all(len(policies) == 0 for policies in eval_set):
        raise PsromixError(f"{args.eval_set}: no policy files found")
    rng = derived_rng(record.config.seed, 999)
    regrets = proxy_regret(
        env,
        record.solution,
        psro_set=record.game.strategy_sets,
        eval_set=eval_set,
        episodes=args.episodes,
        rng=rng,
        populations=record.game.strategy_sets,
    )
    for player, value in enumerate(regrets):
        print(f"proxy_regret_p{player} {float(value)!r}")
    print(f"sum_proxy_regret {sum_regret(regrets)!r}")
    return 0


def _cmd_hparam_search(args) -> int:
    try:
        with open(args.config) as fh:
            sections = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read search config {args.config}: {exc}") from exc
    env_section = sections.get("env", {})
    if "name" not in env_section:
        raise ConfigError("env.name: required field is missing")
    env = make_env(env_section["name"])
    try:
        spec = HParamSearchSpec(**sections.get("search", {}))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"search: {exc}") from exc
    opponents = _build_opponents(sections.get("opponents", {}), env, spec)
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
    source = section.get("source", "random")
    opponent_seat = 1 - spec.learner
    if source == "random":
        return [
            uniform_random_policy(env.action_count(opponent_seat))
            for _ in range(spec.opponent_count)
        ]
    if source == "checkpoint":
        if "path" not in section:
            raise ConfigError("opponents.path: required for source 'checkpoint'")
        record = resume(_resolve(section["path"]))
        weights = record.solution.weights(opponent_seat)
        order = np.argsort(-weights, kind="stable")
        support = [int(i) for i in order if weights[i] > 0.0][: spec.opponent_count]
        if len(support) < spec.opponent_count:
            raise ConfigError(
                f"opponents: checkpoint solution support has only {len(support)} "
                f"policies, need {spec.opponent_count}"
            )
        return [record.game.strategy_sets[opponent_seat][i] for i in support]
    raise ConfigError(f"opponents.source: unknown source {source!r}")


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
    p_eval.add_argument("--episodes", type=int, default=30)
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
