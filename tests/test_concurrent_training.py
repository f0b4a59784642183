"""Each epoch's tabular best responses train, and their cells are filled, at
the same time: player 0's in this process, every other player's in a worker
forked once per run. These tests pin the bytes such runs write, which are
those of running the players' jobs one after another, and check that a
failure in either process reaches the caller unchanged and leaves no child
process behind."""

import dataclasses
import json
import multiprocessing
import os
import pickle
import signal
import time
from multiprocessing.reduction import ForkingPickler

import numpy as np
import pytest

from psromix import engine
from psromix import oracle as oracle_module
from psromix.cli import main
from psromix.config import OracleHParams, RunConfig, load_config
from psromix.engine import checkpoint, export_regret_curve, resume, run_algorithm
from psromix.envs import MatrixGameEnv, make_env, save_matrix_env
from psromix.errors import IllegalAction, MissingEntry
from psromix.games import save_game
from psromix.policies import QTable

HPARAMS = {
    "learning_rate": 1e-3,
    "discount": 1.0,
    "total_timesteps": 400,
    "exploration_timesteps": 200,
}


def write_config(path, env_name, algorithm):
    cfg = {
        "run": {"algorithm": algorithm, "epochs": 3, "episodes_per_cell": 8, "seed": 11},
        "env": {"name": env_name},
        "mss": {"name": "nash"},
        "oracle": {"kind": "tabular", "pure": HPARAMS, "mix": HPARAMS},
    }
    if env_name != "leduc":  # three players: nash would fall back to replicator
        cfg["mss"] = {"name": "replicator", "steps": 200, "step_size": 0.1}
    path.write_text(json.dumps(cfg))
    return path


@pytest.fixture(autouse=True)
def two_cpus(monkeypatch):
    """Responses are forked only with two or more CPUs to run on."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


def assert_no_children_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def count_forks(monkeypatch):
    forks = []
    real_fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or real_fork())
    return forks


# Digests of the runs, which the forked, the in-process and the resumed run
# must all give. Pinned when training and cells came to draw plain uniform
# doubles (each cell on one stream); they were first pinned with every
# player trained in turn, in one process. "three.matrix" is a random 2x2x2
# three-player game, so each of its runs forks two workers.
PINNED_DIGESTS = {
    ("leduc", "psro"):
        "0f9dcc25aa8ccd74960d8b3437839d694d13d6c652e466eb15d93f50162d1bc4",
    ("leduc", "mixed-oracles"):
        "297f97ac0dcf28615fb69a530cb5b690c3056d974ebb29a8ef082390a5b8985d",
    ("leduc", "mixed-opponents"):
        "d8bf9caed45da4845f85430016aade5639bd4ef2b96097ba96f52fed5f2cbc39",
    ("matrix:three.matrix", "psro"):
        "f93f08b92ef21013249a1f7aad7576411a2570fb178f4db4a0168ffb07eaf019",
    ("matrix:three.matrix", "mixed-opponents"):
        "2d7e7fce7833be348ff55df0d2a4cf59e9dbdc24599ccde1d076c020ee7d693f",
}


@pytest.mark.parametrize("forking", [True, False], ids=["forked", "in-process"])
@pytest.mark.parametrize("env_name, algorithm", sorted(PINNED_DIGESTS))
def test_tabular_run_bytes_are_pinned(
    tmp_path, monkeypatch, artifact_digest, env_name, algorithm, forking
):
    monkeypatch.chdir(tmp_path)
    save_matrix_env(MatrixGameEnv(np.random.default_rng(9).random((2, 2, 2, 3))), "three.matrix")
    if forking:
        forks = count_forks(monkeypatch)
    else:
        forks = []
        monkeypatch.delattr(os, "fork")
    path = write_config(tmp_path / "cfg.json", env_name, algorithm)
    assert main(["run", str(path), "--output", str(tmp_path / "out")]) == 0
    assert_no_children_left()
    players = 2 if env_name == "leduc" else 3
    assert len(forks) == (players - 1 if forking else 0)  # one worker per run
    assert artifact_digest(tmp_path / "out") == PINNED_DIGESTS[env_name, algorithm]


@pytest.mark.parametrize("env_name, algorithm", sorted(PINNED_DIGESTS))
def test_run_resumed_from_epoch_2_writes_the_pinned_bytes(
    tmp_path, monkeypatch, artifact_digest, env_name, algorithm
):
    monkeypatch.chdir(tmp_path)
    save_matrix_env(MatrixGameEnv(np.random.default_rng(9).random((2, 2, 2, 3))), "three.matrix")
    path = write_config(tmp_path / "cfg.json", env_name, algorithm)
    config = load_config(path)
    record = run_algorithm(dataclasses.replace(config, epochs=2))
    checkpoint(record, tmp_path / "ck")
    forks = count_forks(monkeypatch)
    resumed = run_algorithm(config, resume_record=resume(tmp_path / "ck"))
    assert_no_children_left()
    assert len(forks) == resumed.game.n_players - 1
    out = tmp_path / "out"
    out.mkdir()
    (out / "regret_curve.tsv").write_text(export_regret_curve(resumed))
    save_game(resumed.game, out / "game.txt")
    checkpoint(resumed, out / "checkpoint")
    assert artifact_digest(out) == PINNED_DIGESTS[env_name, algorithm]


def fast_config(**overrides):
    hparams = OracleHParams(**HPARAMS)
    base = dict(
        algorithm="psro",
        env="leduc",
        mss="nash",
        epochs=2,
        episodes_per_cell=4,
        oracle="tabular",
        pure_hparams=hparams,
        mix_hparams=hparams,
        seed=3,
    )
    base.update(overrides)
    return RunConfig(**base)


def patch_training(monkeypatch, learner, action):
    """Make ``learner``'s training call ``action()`` first; the others train."""
    real = oracle_module.train_best_response

    def train(env, player, *args, **kwargs):
        if player == learner:
            action()
        return real(env, player, *args, **kwargs)

    monkeypatch.setattr(oracle_module, "train_best_response", train)


def raise_(exc):
    def action():
        raise exc

    return action


@pytest.mark.parametrize("algorithm", ["psro", "mixed-oracles", "mixed-opponents"])
def test_forked_player_error_reaches_the_caller(monkeypatch, algorithm):
    patch_training(monkeypatch, 1, raise_(IllegalAction("player 1 played action 7")))
    with pytest.raises(IllegalAction) as forked:
        run_algorithm(fast_config(algorithm=algorithm))
    assert_no_children_left()
    monkeypatch.delattr(os, "fork")
    with pytest.raises(IllegalAction) as in_process:
        run_algorithm(fast_config(algorithm=algorithm))
    assert str(forked.value) == str(in_process.value) == "player 1 played action 7"


def test_in_process_error_kills_a_running_child(monkeypatch):
    # Player 1's child would sleep far past the test's bound unless killed.
    patch_training(monkeypatch, 1, lambda: time.sleep(120))
    patch_training(monkeypatch, 0, raise_(MissingEntry("player 0 found no cell")))
    start = time.monotonic()
    with pytest.raises(MissingEntry, match="^player 0 found no cell$"):
        run_algorithm(fast_config())
    assert time.monotonic() - start < 60
    assert_no_children_left()


@pytest.mark.parametrize("learner", [0, 1])
def test_keyboard_interrupt_in_either_process_reaps_the_children(monkeypatch, learner):
    patch_training(monkeypatch, 1 - learner, lambda: time.sleep(0.2))
    patch_training(monkeypatch, learner, raise_(KeyboardInterrupt()))
    with pytest.raises(KeyboardInterrupt):
        run_algorithm(fast_config())
    assert_no_children_left()


def test_three_player_child_error_is_raised_in_player_order(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    save_matrix_env(MatrixGameEnv(np.random.default_rng(9).random((2, 2, 2, 3))), "three.matrix")
    patch_training(monkeypatch, 2, raise_(IllegalAction("player 2")))
    patch_training(monkeypatch, 1, raise_(MissingEntry("player 1")))
    config = fast_config(
        env="matrix:three.matrix", mss="replicator", mss_params={"steps": 50, "step_size": 0.1}
    )
    with pytest.raises(MissingEntry, match="^player 1$"):
        run_algorithm(config)
    assert_no_children_left()


def test_worker_that_exits_without_replying(monkeypatch):
    patch_training(monkeypatch, 1, lambda: os._exit(3))
    with pytest.raises(ChildProcessError, match="^player 1's worker exited without replying"):
        run_algorithm(fast_config())
    assert_no_children_left()


def test_worker_that_exits_between_epochs(monkeypatch):
    # Player 1's worker replies to epoch 1, then exits before epoch 2's message.
    test_pid = os.getpid()
    real_add_strategy = engine._add_strategy

    def add_strategy(*args):
        if os.getpid() != test_pid:
            os._exit(4)
        return real_add_strategy(*args)

    monkeypatch.setattr(engine, "_add_strategy", add_strategy)
    with pytest.raises(ChildProcessError, match="^player 1's worker exited without replying"):
        run_algorithm(fast_config(epochs=3))
    assert_no_children_left()


@pytest.mark.parametrize("stop", ["close", "interrupt"])
def test_waiting_worker_leaves_quietly(capfd, stop):
    # multiprocessing prints any exception that escapes a worker's loop.
    config = fast_config()
    env = make_env(config.env)
    record = engine._init_record(config, env, None)
    context = multiprocessing.get_context("fork")
    end, child_end = context.Pipe()
    args = (record, env, engine._make_oracle(config, env.name), 1, child_end, end)
    process = context.Process(target=engine._serve, args=args)
    process.start()
    child_end.close()
    end.send((1, record.solution, {}))
    assert end.recv()[0]  # so the worker has reached its loop
    if stop == "close":
        end.close()
    else:  # Ctrl-C reaches the whole process group
        os.kill(process.pid, signal.SIGINT)
    process.join(60)
    process.kill()  # a worker still waiting fails the test, and is not left behind
    process.join()
    assert process.exitcode == 0
    assert capfd.readouterr().err == ""
    assert_no_children_left()


def test_worker_error_at_a_later_epoch_reaches_the_caller(monkeypatch):
    calls = []

    def fail_at_epoch_2():
        calls.append(1)
        if len(calls) == 2:
            raise IllegalAction("player 1, epoch 2")

    patch_training(monkeypatch, 1, fail_at_epoch_2)
    with pytest.raises(IllegalAction, match="^player 1, epoch 2$"):
        run_algorithm(fast_config(epochs=3))
    assert_no_children_left()


def no_fork():
    raise AssertionError("the run forked")


def test_exact_oracle_never_forks(monkeypatch):
    monkeypatch.setattr(os, "fork", no_fork)
    record = run_algorithm(fast_config(oracle="exact", analytic_cells=True))
    assert record.game.shape == (3, 3)


def test_one_cpu_never_forks(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    monkeypatch.setattr(os, "fork", no_fork)
    record = run_algorithm(fast_config())
    assert record.counter.train_steps == 2 * 2 * 400


def _regret_curve(config):
    return export_regret_curve(run_algorithm(config))


def test_run_in_a_pool_worker_keeps_every_job_in_process():
    # A Pool worker is daemonic and may not start children; its run trains
    # every player in turn and gives the curve a run with workers gives.
    config = fast_config(epochs=1)
    with multiprocessing.get_context("fork").Pool(1) as pool:
        (in_pool,) = pool.map(_regret_curve, [config])
    assert in_pool == _regret_curve(config)


@pytest.mark.parametrize("stop", [None, 1e-3], ids=["complete", "early-stopped"])
def test_resumed_finished_run_forks_nothing(tmp_path, monkeypatch, stop):
    # nash leaves internal regret at about 0, so 1e-3 stops after epoch 1.
    config = fast_config(epochs=3, early_stop_sum_regret=stop)
    record = run_algorithm(config)
    checkpoint(record, tmp_path / "ck")
    monkeypatch.setattr(os, "fork", no_fork)
    resumed = run_algorithm(config, resume_record=resume(tmp_path / "ck"))
    assert [e.epoch for e in resumed.entries] == ([0, 1, 2, 3] if stop is None else [0, 1])


@pytest.mark.parametrize("size", [0, 1, 50])
def test_qtable_pickle_round_trip_keeps_every_bit(size):
    rng = np.random.default_rng(size)
    table = QTable(3, {rng.bytes(4): rng.normal(size=3) for _ in range(size)}, -0.5)
    # A worker's pipe pickles with ForkingPickler, at the default protocol.
    for dumps in (lambda t: pickle.dumps(t, protocol=5), ForkingPickler.dumps):
        copy = pickle.loads(dumps(table))
        assert list(copy.values) == list(table.values)
        assert all(copy.values[k].tobytes() == table.values[k].tobytes() for k in table.values)
        assert (copy.action_count, copy.default_value) == (3, -0.5)
        assert not copy.lookup(b"unseen").flags.writeable
