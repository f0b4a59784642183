"""Each epoch's tabular best responses train at the same time: player 0 in
this process, every other player in a forked child. These tests pin the
bytes such runs write, which are those of training the players one after
another, and check that a failure in either process reaches the caller
unchanged and leaves no child process behind."""

import json
import os
import pickle
import time

import numpy as np
import pytest

from psromix import oracle as oracle_module
from psromix.cli import main
from psromix.engine import run_algorithm
from psromix.envs import MatrixGameEnv, save_matrix_env
from psromix.errors import IllegalAction, MissingEntry
from psromix.config import OracleHParams, RunConfig
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


# Digests of runs made with every player trained in turn, in one process,
# before the responses trained concurrently. "three.matrix" is a random
# 2x2x2 three-player game, so each of its epochs forks two children.
PINNED_DIGESTS = {
    ("leduc", "psro"):
        "3ca39ff77fa3ac536e0329adb49eac5cac791a657d78e36a5aa4a2dc9a98199a",
    ("leduc", "mixed-oracles"):
        "7bc325c367f38cffddfca0ea4567b32d81303681b009a00bf40e2343a9fad4c2",
    ("leduc", "mixed-opponents"):
        "c9d3e1d445071ac9a1535241efed244ae33aae18dc50d666d82387ae66d06091",
    ("matrix:three.matrix", "psro"):
        "775818927e71dd1edf558603f60b0874d711b263ee3730006c3d10342bcaa31a",
    ("matrix:three.matrix", "mixed-opponents"):
        "d577b2a1dadb04043ce9ed62470d6393efa4f6c824c4debf95f8e4bc33761385",
}


@pytest.mark.parametrize("forking", [True, False], ids=["forked", "in-process"])
@pytest.mark.parametrize("env_name, algorithm", sorted(PINNED_DIGESTS))
def test_tabular_run_bytes_are_pinned(
    tmp_path, monkeypatch, artifact_digest, env_name, algorithm, forking
):
    monkeypatch.chdir(tmp_path)
    save_matrix_env(MatrixGameEnv(np.random.default_rng(9).random((2, 2, 2, 3))), "three.matrix")
    forks = []
    if forking:
        real_fork = os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or real_fork())
    else:
        monkeypatch.delattr(os, "fork")
    path = write_config(tmp_path / "cfg.json", env_name, algorithm)
    assert main(["run", str(path), "--output", str(tmp_path / "out")]) == 0
    assert_no_children_left()
    players = 2 if env_name == "leduc" else 3
    assert len(forks) == (3 * (players - 1) if forking else 0)  # 3 epochs
    assert artifact_digest(tmp_path / "out") == PINNED_DIGESTS[env_name, algorithm]


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


@pytest.mark.parametrize("size", [0, 1, 50])
def test_qtable_pickle_round_trip_keeps_every_bit(size):
    rng = np.random.default_rng(size)
    table = QTable(3, {rng.bytes(4): rng.normal(size=3) for _ in range(size)}, -0.5)
    copy = pickle.loads(pickle.dumps(table, protocol=5))
    assert list(copy.values) == list(table.values)
    assert all(copy.values[k].tobytes() == table.values[k].tobytes() for k in table.values)
    assert (copy.action_count, copy.default_value) == (3, -0.5)
    assert not copy.lookup(b"unseen").flags.writeable
