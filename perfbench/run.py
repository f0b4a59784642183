"""psromix benchmark: one workload per process, one client, closed loop.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The workload's configs are generated
from --seed; each is driven through the `psromix run` command entry point
(followed by `psromix eval` on the eval workload) in this process with
workers=1, one config after another, until --seconds have elapsed. Every
output is checked. The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics; the lines before it name
each metric with its unit and sample count. With --trace 0 the metrics are
the end-to-end ones, with timings scaled to a reference host speed (see
calibrate.py). With --trace 1 each config runs once untraced and once
traced, the metrics are the per-layer ones, and the spans are written to
.bench_out/. Exit status: 0 when every check passed, 1 when a check failed,
2 when the library cannot be found. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import calibrate

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

if not (SRC / "psromix" / "__init__.py").is_file():
    print(f"error: no psromix sources under {SRC}", file=sys.stderr)
    sys.exit(2)
sys.path.insert(0, str(SRC))

from psromix import (  # noqa: E402
    cli,
    config,
    engine,
    evaluation,
    games,
    oracle,
    policies,
    qmixing,
    serialize,
    solvers,
)
from psromix.envs.leduc import LeducEnv, LeducEpisode  # noqa: E402

NASH_TOLERANCE = 1e-8  # solve_nash's default; the configs leave it unset
SETUP_SAMPLES = 5
MIN_CONFIGS = 2
EVAL_SET_SIZE = 4


@dataclasses.dataclass(frozen=True)
class Workload:
    algorithm: str
    epochs: int
    pure_steps: int
    mix_steps: int
    episodes_per_cell: int = 30
    eval_episodes: int = 0  # > 0: follow each run with `psromix eval`

    @property
    def train_budget(self) -> int:
        """Learner steps per best response: psro trains against the mixture."""
        return self.mix_steps if self.algorithm == "psro" else self.pure_steps

    def tiny(self) -> "Workload":
        return dataclasses.replace(
            self,
            epochs=2,
            pure_steps=200,
            mix_steps=200,
            episodes_per_cell=5,
            eval_episodes=min(self.eval_episodes, 5),
        )


# Why each workload exists is in README.md. Every workload stops at k <= 7
# strategies per player: exact support enumeration is heavy-tailed in k, and
# past 7 one seed can cost ten times another, which no per-run median hides.
# Oracle budgets are the leduc preset's 3000 pure steps; psro's mixture
# oracle uses the same, not the preset's 100000.
WORKLOADS = {
    "leduc-psro": Workload("psro", epochs=6, pure_steps=3000, mix_steps=3000),
    "leduc-mixed-opponents": Workload(
        "mixed-opponents", epochs=6, pure_steps=10000, mix_steps=1000
    ),
    "leduc-mixed-oracles-eval": Workload(
        "mixed-oracles", epochs=6, pure_steps=3000, mix_steps=3000, eval_episodes=200
    ),
}

# Largest strategy count any workload reaches; solve times are reported up to it.
MAX_K = max(w.epochs for w in WORKLOADS.values()) + 1

# Prints the moment set-up is done on the system-wide monotonic clock, so
# the parent's measurement leaves out interpreter shutdown.
SETUP_SNIPPET = """
import sys, time
sys.path.insert(0, sys.argv[1])
from psromix.config import load_config
from psromix.envs import make_env
make_env(load_config(sys.argv[2]).env)
print(time.clock_gettime(time.CLOCK_MONOTONIC))
"""


def config_json(workload: Workload, seed: int) -> str:
    def hparams(steps):
        return {
            "learning_rate": 1e-3,
            "discount": 1.0,
            "total_timesteps": steps,
            "exploration_timesteps": min(300, steps),
        }

    return json.dumps(
        {
            "run": {
                "algorithm": workload.algorithm,
                "epochs": workload.epochs,
                "episodes_per_cell": workload.episodes_per_cell,
                "seed": seed,
                "workers": 1,
            },
            "env": {"name": "leduc"},
            "mss": {"name": "nash"},
            "oracle": {
                "kind": "tabular",
                "pure": hparams(workload.pure_steps),
                "mix": hparams(workload.mix_steps),
            },
        },
        indent=1,
        sort_keys=True,
    )


# ---------------------------------------------------------------------------
# Tracing: spans for phase-level calls, count + busy time for per-step calls.
# ---------------------------------------------------------------------------


class Tracer:
    """Patches library names for the duration of one command.

    Spans (name, parent, start, end, attributes) are kept in memory; per-step
    calls only add to a (calls, busy ns, extra) aggregate keyed by the name
    and the innermost open span, so memory stays bounded.
    """

    def __init__(self):
        self.spans: list[dict] = []
        self.stack: list[dict] = []
        self.aggregates: dict[tuple[str, str], list[int]] = {}
        self._patches: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        record = {
            "id": len(self.spans),
            "parent": self.stack[-1]["id"] if self.stack else None,
            "name": name,
            "start_ns": time.perf_counter_ns(),
            "end_ns": None,
            **attrs,
        }
        self.spans.append(record)
        self.stack.append(record)
        try:
            yield record
        finally:
            record["end_ns"] = time.perf_counter_ns()
            self.stack.pop()

    def _replace(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def wrap_span(self, owner, attr: str, name: str) -> None:
        original = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            with tracer.span(name):
                return original(*args, **kwargs)

        self._replace(owner, attr, wrapper)

    def wrap_count(self, owner, attr: str, name: str, extra=None) -> None:
        """Count calls and busy time; ``extra(args, result)`` adds to a third total."""
        original = getattr(owner, attr)
        aggregates = self.aggregates
        clock = time.perf_counter_ns
        tracer = self

        def wrapper(*args, **kwargs):
            start = clock()
            result = original(*args, **kwargs)
            busy = clock() - start
            key = (name, tracer.stack[-1]["name"] if tracer.stack else "")
            agg = aggregates.get(key)
            if agg is None:
                agg = aggregates[key] = [0, 0, 0]
            agg[0] += 1
            agg[1] += busy
            if extra is not None:
                agg[2] += extra(args, result)
            return result

        self._replace(owner, attr, wrapper)

    def install(self) -> None:
        real_get_solver = engine.get_solver
        tracer = self

        def get_solver(name, **params):
            solve = real_get_solver(name, **params)

            def traced_solve(game):
                with tracer.span("solve", k=max(game.shape)) as span:
                    solution = solve(game)
                    span["residual"] = float(solution.residual)
                return solution

            return traced_solve

        self._replace(engine, "get_solver", get_solver)
        self.wrap_span(oracle.TabularOracle, "respond_fixed", "respond")
        self.wrap_span(oracle.TabularOracle, "respond_mixture", "respond")
        self.wrap_span(engine, "expand_enfg", "expand")
        self.wrap_span(cli, "checkpoint", "checkpoint")
        self.wrap_span(cli, "resume", "resume")
        self.wrap_span(cli, "proxy_regret", "proxy_regret")

        self.wrap_count(LeducEpisode, "step", "envs.step")
        self.wrap_count(LeducEpisode, "observation", "envs.observation")
        self.wrap_count(LeducEnv, "reset", "envs.reset")
        self.wrap_count(engine, "estimate_payoffs", "envs.cell")
        self.wrap_count(evaluation, "simulate_episode", "evaluation.episode")
        self.wrap_count(policies.QTable, "lookup", "policies.lookup")
        self.wrap_count(policies.ValuePolicy, "act", "policies.act")
        self.wrap_count(
            qmixing.MixedQPolicy,
            "lookup",
            "qmixing.mixed_lookup",
            extra=lambda args, result: len(args[0].components),
        )
        self.wrap_count(engine, "combine_opponents", "qmixing.combine")
        self.wrap_count(engine, "combine_responses", "qmixing.combine")
        self.wrap_count(engine, "deviation_gains", "games.deviation_gains")
        for module in (games, solvers, evaluation):
            self.wrap_count(module, "payoff_tensor", "games.payoff_tensor")
        self.wrap_count(engine, "save_policy", "serialize.save")
        file_size = lambda args, result: os.path.getsize(args[0])  # noqa: E731
        self.wrap_count(engine, "load_policy", "serialize.load", extra=file_size)
        self.wrap_count(cli, "load_policy", "serialize.load", extra=file_size)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def total(self, name: str, phase: str | None = None) -> tuple[int, int, int]:
        """(calls, busy ns, extra) summed over phases, or for one phase."""
        sums = [0, 0, 0]
        for (agg_name, agg_phase), values in self.aggregates.items():
            if agg_name == name and (phase is None or agg_phase == phase):
                sums = [a + b for a, b in zip(sums, values)]
        return tuple(sums)

    def span_seconds(self, name: str) -> float:
        return sum(s["end_ns"] - s["start_ns"] for s in self.spans if s["name"] == name) / 1e9


# ---------------------------------------------------------------------------
# Running one config through the command entry points.
# ---------------------------------------------------------------------------


# The run/write boundary inside `psromix run`, and the record it returns,
# which the correctness checks read. One wrapper, installed for the whole
# process, times it and opens the "run" span while a config is traced.
last_run: dict = {}
active_tracer: Tracer | None = None
_run_algorithm = cli.run_algorithm


def _timed_run_algorithm(*args, **kwargs):
    span = active_tracer.span("run") if active_tracer else contextlib.nullcontext()
    with span:
        start = time.perf_counter()
        record = _run_algorithm(*args, **kwargs)
        end = time.perf_counter()
    last_run.update(record=record, start=start, end=end)
    return record


cli.run_algorithm = _timed_run_algorithm


def command(*argv: str) -> tuple[int, str]:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli.main(list(argv))
    return code, buffer.getvalue()


class Checks:
    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
            print(f"check failed: {what}", file=sys.stderr)
        return ok


def artifact_digest(run_dir: Path) -> str:
    """sha256 over regret_curve.tsv, game.txt and every checkpoint file."""
    files = [run_dir / "regret_curve.tsv", run_dir / "game.txt"]
    files += sorted(p for p in (run_dir / "checkpoint").rglob("*") if p.is_file())
    digest = hashlib.sha256()
    for path in files:
        digest.update(str(path.relative_to(run_dir)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def tree_size(path: Path) -> tuple[int, int]:
    files = [p for p in path.rglob("*") if p.is_file()]
    return len(files), sum(p.stat().st_size for p in files)


@dataclasses.dataclass
class ConfigResult:
    wall_s: float
    run_s: float
    write_s: float
    eval_s: float
    train_steps: int
    eval_episodes: int
    digest: str
    files_written: int
    bytes_written: int
    calibration_s: float = 0.0  # the calibration loop's time around this config


def run_config(workload, seed, work: Path, name: str, eval_set, checks, tracer=None):
    """`psromix run` (then `psromix eval`) on one config; checks every output."""
    global active_tracer
    config_path = work / f"{name}.json"
    config_path.write_text(config_json(workload, seed))
    run_dir = work / name
    last_run.clear()

    def span(command):
        if tracer is None:
            return contextlib.nullcontext()
        return tracer.span(command, config=name)

    if tracer is not None:
        tracer.install()
        active_tracer = tracer
    try:
        start = time.perf_counter()
        with span("command:run"):
            code, _ = command("run", str(config_path), "--output", str(run_dir))
        end = time.perf_counter()
        eval_s = 0.0
        eval_out = ""
        if workload.eval_episodes and code == 0:
            with span("command:eval"):
                eval_code, eval_out = command(
                    "eval",
                    str(run_dir / "checkpoint"),
                    "--eval-set",
                    str(eval_set),
                    "--episodes",
                    str(workload.eval_episodes),
                )
            eval_s = time.perf_counter() - end
            checks.expect(eval_code == 0, f"{name}: psromix eval exited {eval_code}")
    finally:
        if tracer is not None:
            tracer.uninstall()
            active_tracer = None

    if not checks.expect(code == 0 and "record" in last_run, f"{name}: psromix run failed"):
        return None
    record = last_run["record"]
    epochs = workload.epochs
    players = record.game.n_players
    gains = games.deviation_gains(record.game, record.solution.mixtures)
    worst = max(float(g.max()) for g in gains)
    checks.expect(worst <= NASH_TOLERANCE, f"{name}: final nash deviation gain {worst!r}")
    game = games.load_game(run_dir / "game.txt")
    checks.expect(
        game.shape == (epochs + 1,) * players and game.is_complete(),
        f"{name}: game.txt holds {len(game.payoffs.cells)} cells for shape {game.shape}",
    )
    expected_steps = epochs * players * workload.train_budget
    curve_steps = int(
        (run_dir / "regret_curve.tsv").read_text().splitlines()[-1].split("\t")[1]
    )
    checks.expect(
        record.counter.train_steps == expected_steps == curve_steps,
        f"{name}: train_steps {record.counter.train_steps} (curve {curve_steps}), "
        f"expected {expected_steps}",
    )
    if workload.eval_episodes:
        regrets = [
            float(line.split()[1])
            for line in eval_out.splitlines()
            if line.startswith("proxy_regret_p")
        ]
        checks.expect(
            len(regrets) == players and all(math.isfinite(r) and r >= 0.0 for r in regrets),
            f"{name}: proxy regrets {regrets}",
        )
    files_written, bytes_written = tree_size(run_dir)
    return ConfigResult(
        wall_s=end - start + eval_s,
        run_s=last_run["end"] - last_run["start"],
        write_s=end - last_run["end"],
        eval_s=eval_s,
        train_steps=record.counter.train_steps,
        eval_episodes=record.counter.eval_episodes,
        digest=artifact_digest(run_dir),
        files_written=files_written,
        bytes_written=bytes_written,
    )


def prepare_eval_set(workload, seed, work: Path) -> Path:
    """The newest EVAL_SET_SIZE policies per player of a run on a config no
    timed command uses. A fixed count, unlike a sample of the solution's
    support, keeps the cost of `eval` from depending on which seed built it."""
    path = work / "eval_set"
    path.mkdir()
    record = engine.run_algorithm(config.config_from_json(config_json(workload, seed)))
    for player, strategies in enumerate(record.game.strategy_sets):
        for index, policy in enumerate(strategies[-EVAL_SET_SIZE:]):
            serialize.save_policy(policy, str(path / f"p{player}_{index}.txt"))
    return path


def measure_setup(workload, seed, work: Path) -> list[tuple[float, float]]:
    """Fresh-interpreter set-up (imports, config parse and env build), each
    sample paired with a bare interpreter start that imports only numpy."""
    config_path = work / "setup.json"
    config_path.write_text(config_json(workload, seed))

    def child(*argv: str) -> float:
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        done = subprocess.run(
            [sys.executable, "-c", *argv],
            check=True,
            cwd=work,
            timeout=60,
            capture_output=True,
            text=True,
        ).stdout
        return float(done) - start

    samples = []
    for attempt in range(SETUP_SAMPLES + 1):  # the first fills the bytecode cache
        setup = child(SETUP_SNIPPET, str(SRC), str(config_path))
        start = child(calibrate.START_SNIPPET)
        if attempt:
            samples.append((setup, start))
    return samples


# ---------------------------------------------------------------------------
# Reporting.
# ---------------------------------------------------------------------------


def environment(seed: int) -> dict:
    import numpy

    commit = "unknown"
    if (ROOT / ".git").exists():
        probe = subprocess.run(
            ["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=30,
        )
        commit = probe.stdout.strip() or commit
    return {
        "nproc": os.cpu_count(),
        "cpu": platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
        "seed": seed,
    }


def summary(values) -> str:
    values = sorted(values)
    text = f"n={len(values)} median={statistics.median(values):.6g}"
    if len(values) >= 20:  # highest percentile with >= 10 samples beyond it
        pct = 100 * (len(values) - 10) // len(values)
        text += f" p{pct}={values[len(values) * pct // 100]:.6g}"
    return text


def end_to_end(setup, results) -> dict:
    """Timings scaled to the calibration host (calibrate.py): a config's by
    REFERENCE_S / the mean of the loop's times just before and after it, a
    set-up sample's by REFERENCE_START_S / the bare start timed beside it."""
    calibration = [r.calibration_s for r in results]
    print(f"# calibration loop: {summary(calibration)} s")
    print(f"# bare interpreter start: {summary([start for _, start in setup])} s")

    def scaled(raw):
        return [t * calibrate.REFERENCE_S / r.calibration_s for t, r in zip(raw, results)]

    wall = [r.wall_s for r in results]
    run = [r.run_s for r in results]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    columns = {
        "setup_s": (
            "s",
            [t * calibrate.REFERENCE_START_S / start for t, start in setup],
            [t for t, _ in setup],
        ),
        "wall_s": ("s", scaled(wall), wall),
        "run_s": ("s", scaled(run), run),
        "peak_rss_mb": ("MB", [rss_mb], None),
        "train_steps": ("count", [r.train_steps for r in results], None),
        "eval_episodes": ("count", [r.eval_episodes for r in results], None),
    }
    metrics = {}
    for name, (unit, values, raw) in columns.items():
        # Timings are medians; the configs differ in cost, so this is the
        # median config of the run.
        value = statistics.median(values)
        metrics[name] = {"value": value, "unit": unit}
        line = f"{name} {value!r} {unit} ({summary(values)}"
        print(line + (f"; unscaled {summary(raw)})" if raw else ")"))
    return metrics


def per_layer(tracer, traced, untraced, max_k: int, eval_episodes: int) -> dict:
    n = len(traced)
    spans = tracer.spans

    def calls(name, phase=None):
        return tracer.total(name, phase)[0] / n

    def busy_s(name):
        return tracer.total(name)[1] / 1e9 / n

    def mean_us(name):
        count, busy, _ = tracer.total(name)
        return busy / count / 1e3 if count else 0.0

    def span_s(name):
        return tracer.span_seconds(name) / n

    solves = [s for s in spans if s["name"] == "solve"]
    train = span_s("respond") + busy_s("qmixing.combine")
    run_s = sum(r.run_s for r in traced) / n
    mixed_calls, _, mixed_support = tracer.total("qmixing.mixed_lookup")
    files_read, read_ns, bytes_read = tracer.total("serialize.load")
    train_steps = sum(r.train_steps for r in traced)

    rows = [
        ("engine.train_s", train, "s"),
        ("engine.expand_s", span_s("expand"), "s"),
        ("engine.solve_s", span_s("solve"), "s"),
        ("engine.other_s", run_s - train - span_s("expand") - span_s("solve"), "s"),
        ("solvers.calls", len(solves) / n, "count"),
        ("solvers.residual_max", max((s["residual"] for s in solves), default=0.0), "payoff"),
    ]
    for k in range(2, max_k + 1):
        at_k = sum(s["end_ns"] - s["start_ns"] for s in solves if s["k"] == k)
        rows.append((f"solvers.solve_s.k{k}", at_k / 1e9 / n, "s"))
    rows += [
        ("oracle.respond_calls", sum(s["name"] == "respond" for s in spans) / n, "count"),
        ("oracle.episodes", calls("envs.reset", "respond"), "count"),
        ("oracle.step_us", tracer.span_seconds("respond") * 1e6 / max(1, train_steps), "us"),
        ("envs.step_calls", calls("envs.step"), "count"),
        ("envs.step_us", mean_us("envs.step"), "us"),
        ("envs.observation_calls", calls("envs.observation"), "count"),
        ("envs.observation_us", mean_us("envs.observation"), "us"),
        ("envs.reset_calls", calls("envs.reset"), "count"),
        ("envs.cells", calls("envs.cell"), "count"),
        ("envs.cell_ms", mean_us("envs.cell") / 1e3, "ms"),
        ("envs.eval_episode_us", mean_us("evaluation.episode"), "us"),
        ("policies.lookup_calls", calls("policies.lookup"), "count"),
        ("policies.lookup_us", mean_us("policies.lookup"), "us"),
        ("policies.act_calls", calls("policies.act"), "count"),
        ("qmixing.combine_calls", calls("qmixing.combine"), "count"),
        ("qmixing.mixed_lookup_calls", mixed_calls / n, "count"),
        ("qmixing.mixed_lookup_us", mean_us("qmixing.mixed_lookup"), "us"),
        ("qmixing.mixed_support_mean", mixed_support / mixed_calls if mixed_calls else 0.0, "count"),
        ("games.deviation_gains_s", busy_s("games.deviation_gains"), "s"),
        ("games.payoff_tensor_s", busy_s("games.payoff_tensor"), "s"),
        ("evaluation.proxy_regret_s", span_s("proxy_regret"), "s"),
        ("evaluation.matchups", calls("evaluation.episode") / max(1, eval_episodes), "count"),
        ("evaluation.episodes", calls("evaluation.episode"), "count"),
        ("write_s", sum(r.write_s for r in traced) / n, "s"),
        ("eval_s", sum(r.eval_s for r in traced) / n, "s"),
        ("serialize.files_written", sum(r.files_written for r in traced) / n, "count"),
        ("serialize.bytes_written", sum(r.bytes_written for r in traced) / n, "bytes"),
        ("serialize.save_s", busy_s("serialize.save"), "s"),
        ("serialize.files_read", files_read / n, "count"),
        ("serialize.bytes_read", bytes_read / n, "bytes"),
        ("serialize.load_s", read_ns / 1e9 / n, "s"),
        (
            "trace.overhead",
            sum(r.wall_s for r in traced) / sum(r.wall_s for r in untraced[:n]),
            "ratio",
        ),
    ]
    metrics = {}
    for name, value, unit in rows:
        metrics[name] = {"value": float(value), "unit": unit}
        print(f"{name} {float(value)!r} {unit} ({n} traced configs)")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    parser.add_argument(
        "--corrupt-digest",
        action="store_true",
        help="alter one artifact before its digest is compared (smoke test)",
    )
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload].tiny() if args.tiny else WORKLOADS[args.workload]
    print("# env " + json.dumps(environment(args.seed), sort_keys=True))

    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    os.environ["PSROMIX_OUTPUT_ROOT"] = str(work)
    seeds = random.Random(args.seed)
    draw = lambda: seeds.getrandbits(31)  # noqa: E731
    checks = Checks()
    try:
        setup_seed = draw()  # drawn either way, so both modes run the same configs
        setup = [] if args.trace else measure_setup(workload, setup_seed, work)
        eval_set = prepare_eval_set(workload, draw(), work) if workload.eval_episodes else None
        # Untimed warm-up on the first config; the timed run of the same
        # config must then rewrite byte-identical artifacts.
        first = draw()
        reference = run_config(workload, first, work, "warmup", eval_set, checks)
        if reference is not None and args.corrupt_digest:
            with open(work / "warmup" / "regret_curve.tsv", "a") as fh:
                fh.write("#")
            reference.digest = artifact_digest(work / "warmup")

        tracer = Tracer() if args.trace else None
        untraced, traced = [], []
        deadline = time.perf_counter() + args.seconds
        index, seed = 0, first
        before = calibrate.sample()
        while index < MIN_CONFIGS or time.perf_counter() < deadline:
            name = f"c{index}"
            result = run_config(workload, seed, work, name, eval_set, checks)
            after = calibrate.sample()
            if result is not None:
                result.calibration_s = (before + after) / 2
                untraced.append(result)
                if index == 0 and reference is not None:
                    checks.expect(
                        result.digest == reference.digest,
                        f"{name}: artifacts differ between two runs of one config",
                    )
                if tracer is not None:
                    again = run_config(
                        workload, seed, work, name + "t", eval_set, checks, tracer
                    )
                    if again is not None:
                        traced.append(again)
                        checks.expect(
                            again.digest == result.digest,
                            f"{name}: tracing changed the artifacts",
                        )
            for leftover in (name, name + "t"):
                shutil.rmtree(work / leftover, ignore_errors=True)
            index, seed, before = index + 1, draw(), after

        if tracer is None:
            metrics = end_to_end(setup, untraced) if untraced else {}
        else:
            metrics = (
                per_layer(tracer, traced, untraced, MAX_K, workload.eval_episodes)
                if traced
                else {}
            )
            trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
            trace_path.write_text(
                json.dumps(
                    {
                        "spans": tracer.spans,
                        "aggregates": [
                            {"name": n, "phase": p, "calls": c, "busy_ns": b, "extra": e}
                            for (n, p), (c, b, e) in sorted(tracer.aggregates.items())
                        ],
                    }
                )
            )
            print(f"# spans written to {trace_path.relative_to(ROOT)}")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = len(checks.failures)
    correct = failed == 0 and bool(metrics)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": max(1, checks.attempted),
                "failed": failed if metrics else max(1, failed),
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
