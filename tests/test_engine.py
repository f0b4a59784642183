import itertools

import numpy as np
import pytest

from psromix.engine import (
    RunConfig,
    checkpoint,
    expand_enfg,
    export_regret_curve,
    resume,
    run_algorithm,
    run_mixed_opponents,
    run_mixed_oracles,
    run_psro,
)
from psromix.envs import MATRIX_OBSERVATION, rps_env, save_matrix_env
from psromix.errors import ConfigError, CorruptCheckpoint, PlayerCountUnsupported
from psromix.games import EmpiricalGame
from psromix.oracle import OracleHParams, SimulationCounter, train_best_response
from psromix.policies import QTable, ValuePolicy, pure_action_policy, uniform_random_policy

LEGAL = (0, 1, 2)

FAST_HP = OracleHParams(
    learning_rate=5e-3, discount=0.0, total_timesteps=600, exploration_timesteps=300
)


def fast_config(**overrides):
    base = dict(
        algorithm="psro",
        env="rps",
        mss="nash",
        epochs=3,
        episodes_per_cell=10,
        oracle="tabular",
        pure_hparams=FAST_HP,
        mix_hparams=FAST_HP,
        seed=2,
    )
    base.update(overrides)
    return RunConfig(**base)


def greedy_rps_policy(action):
    table = QTable(3)
    values = np.zeros(3)
    values[action] = 1.0
    table.set(MATRIX_OBSERVATION.key, values)
    return ValuePolicy(table)


# ---------------------------------------------------------------------------
# expand_enfg
# ---------------------------------------------------------------------------


def seeded_game(shape):
    game = EmpiricalGame(len(shape))
    for player, size in enumerate(shape):
        for _ in range(size):
            game.add_policy(player, uniform_random_policy(3))
    return game


def test_expand_simulates_exactly_the_new_cells():
    env = rps_env()
    game = seeded_game((2, 2))
    counter = SimulationCounter()
    expand_enfg(game, env, 5, np.random.default_rng(0), counter)
    assert counter.eval_episodes == 4 * 5
    game.add_policy(0, uniform_random_policy(3))
    game.add_policy(1, uniform_random_policy(3))
    before = dict(game.payoffs.cells)
    counter2 = SimulationCounter()
    expand_enfg(game, env, 5, np.random.default_rng(1), counter2)
    assert counter2.eval_episodes == 5 * 5  # the epoch-two highlighted cells
    for profile, cell in before.items():
        assert np.array_equal(game.payoffs.cells[profile], cell)  # never re-simulated
        assert game.payoffs.sample_counts[profile] == 5


def test_expand_complete_game_consumes_nothing():
    env = rps_env()
    game = seeded_game((2, 2))
    expand_enfg(game, env, 4, np.random.default_rng(0))
    counter = SimulationCounter()
    expand_enfg(game, env, 4, np.random.default_rng(1), counter)
    assert counter.eval_episodes == 0


def test_expand_three_player_counts():
    rng = np.random.default_rng(5)
    path = "/tmp/psromix-test-3p.matrix"
    from psromix.envs.matrix import MatrixGameEnv

    save_matrix_env(MatrixGameEnv(rng.random((3, 3, 3, 3))), path)
    from psromix.envs import make_env

    env = make_env(f"matrix:{path}")
    game = EmpiricalGame(3)
    for player in range(3):
        for _ in range(2):
            game.add_policy(player, uniform_random_policy(3))
    counter = SimulationCounter()
    expand_enfg(game, env, 1, np.random.default_rng(0), counter)
    assert counter.eval_episodes == 8
    for player in range(3):
        game.add_policy(player, uniform_random_policy(3))
    counter2 = SimulationCounter()
    expand_enfg(game, env, 1, np.random.default_rng(1), counter2)
    assert counter2.eval_episodes == 27 - 8


def test_expand_generalized_count_random_shapes():
    rng = np.random.default_rng(33)
    for _ in range(8):
        n = int(rng.integers(2, 5))
        old_shape = rng.integers(1, 4, size=n)
        game = EmpiricalGame(n)
        for player, size in enumerate(old_shape):
            for _ in range(size):
                game.add_policy(player, None)
        for profile in itertools.product(*(range(k) for k in old_shape)):
            game.payoffs.record(profile, np.zeros(n), 1)
        growth = rng.integers(0, 3, size=n)
        for player, extra in enumerate(growth):
            for _ in range(extra):
                game.add_policy(player, None)
        new_shape = old_shape + growth
        expected = int(np.prod(new_shape)) - int(np.prod(old_shape))
        assert len(game.missing_profiles()) == expected


# ---------------------------------------------------------------------------
# run loops
# ---------------------------------------------------------------------------


def test_single_epoch_grows_to_2x2_complete():
    record = run_psro(fast_config(epochs=1))
    assert record.game.shape == (2, 2)
    assert record.game.missing_profiles() == []
    assert len(record.entries) == 2  # epoch 0 baseline + epoch 1


def test_fixed_seed_runs_are_identical():
    a = run_psro(fast_config(seed=7))
    b = run_psro(fast_config(seed=7))
    assert export_regret_curve(a) == export_regret_curve(b)
    for entry_a, entry_b in zip(a.entries, b.entries):
        for player in range(2):
            assert np.array_equal(
                entry_a.solution.weights(player), entry_b.solution.weights(player)
            )


def test_one_policy_per_player_per_epoch_and_counters_monotonic():
    record = run_mixed_opponents(fast_config(algorithm="mixed-opponents", epochs=4))
    assert record.game.shape == (5, 5)
    steps = [entry.train_steps for entry in record.entries]
    assert steps == sorted(steps)
    episodes = [entry.eval_episodes for entry in record.entries]
    assert episodes == sorted(episodes)


def test_enfg_complete_after_each_epoch():
    record = run_mixed_oracles(fast_config(algorithm="mixed-oracles", epochs=3))
    assert record.game.missing_profiles() == []
    assert all(len(e.new_ids) in (0, 2) for e in record.entries)


def test_mixed_oracles_per_epoch_cost_is_pure_budget():
    pure = OracleHParams(
        learning_rate=5e-3, discount=0.0, total_timesteps=400, exploration_timesteps=200
    )
    mix = OracleHParams(
        learning_rate=5e-3, discount=0.0, total_timesteps=4_000, exploration_timesteps=2_000
    )
    for algorithm in ("mixed-oracles", "mixed-opponents"):
        record = run_algorithm(
            fast_config(algorithm=algorithm, pure_hparams=pure, mix_hparams=mix, epochs=3)
        )
        deltas = [
            record.entries[i].train_steps - record.entries[i - 1].train_steps
            for i in range(1, len(record.entries))
        ]
        # pure-hparams budget per player per epoch, regardless of support size
        assert deltas == [2 * 400] * 3
    psro_record = run_psro(fast_config(pure_hparams=pure, mix_hparams=mix, epochs=3))
    psro_deltas = [
        psro_record.entries[i].train_steps - psro_record.entries[i - 1].train_steps
        for i in range(1, len(psro_record.entries))
    ]
    assert psro_deltas == [2 * 4_000] * 3  # mix-hparams budget


def test_mixed_oracles_epoch_one_equals_pure_response():
    record = run_mixed_oracles(fast_config(algorithm="mixed-oracles", epochs=1, seed=5))
    added = record.game.strategy_sets[0][1]
    response = record.libraries[0][0]
    key = MATRIX_OBSERVATION.key
    assert np.array_equal(added.q.lookup(key), response.q.lookup(key))
    assert added.greedy_action(MATRIX_OBSERVATION, LEGAL) == response.greedy_action(
        MATRIX_OBSERVATION, LEGAL
    )


def test_mixed_oracles_reduces_to_psro_under_last_mss():
    # With the self-play solver every target is pure on the newest opponent
    # policy, so responding to the newest policy and responding to the target
    # are the same task; the whole run must coincide with plain best-response
    # iteration, bit for bit.
    base = dict(mss="last", epochs=3, seed=13)
    psro_record = run_psro(fast_config(**base))
    oracle_record = run_mixed_oracles(fast_config(algorithm="mixed-oracles", **base))
    assert export_regret_curve(psro_record) == export_regret_curve(oracle_record)
    key = MATRIX_OBSERVATION.key
    for player in range(2):
        for a, b in zip(
            psro_record.game.strategy_sets[player][1:],
            oracle_record.game.strategy_sets[player][1:],
        ):
            assert np.array_equal(a.q.lookup(key), b.q.lookup(key))


def test_mixed_opponents_singleton_set_matches_psro_epoch():
    # Against a single greedy opponent, collapsing the mixture is the
    # identity, so the first epoch must match plain training exactly.
    initial = [greedy_rps_policy(0), greedy_rps_policy(1)]
    cfg_a = fast_config(algorithm="psro", epochs=1, seed=21)
    cfg_b = fast_config(algorithm="mixed-opponents", epochs=1, seed=21)
    rec_a = run_algorithm(cfg_a, initial_policies=list(initial))
    rec_b = run_algorithm(cfg_b, initial_policies=list(initial))
    key = MATRIX_OBSERVATION.key
    for player in range(2):
        a = rec_a.game.strategy_sets[player][1]
        b = rec_b.game.strategy_sets[player][1]
        assert np.array_equal(a.q.lookup(key), b.q.lookup(key))


def test_mixed_opponents_three_player_smoke(tmp_path):
    rng = np.random.default_rng(9)
    from psromix.envs.matrix import MatrixGameEnv

    path = tmp_path / "three.matrix"
    save_matrix_env(MatrixGameEnv(rng.random((2, 2, 2, 3))), path)
    cfg = fast_config(
        algorithm="mixed-opponents",
        env=f"matrix:{path}",
        mss="replicator",
        mss_params={"steps": 200, "step_size": 0.1},
        epochs=2,
        episodes_per_cell=2,
    )
    record = run_mixed_opponents(cfg)
    assert record.game.shape == (3, 3, 3)
    assert record.game.missing_profiles() == []
    assert len(record.game.payoffs.cells) == 27


def test_mixed_oracles_rejects_three_players(tmp_path):
    rng = np.random.default_rng(9)
    from psromix.envs.matrix import MatrixGameEnv

    path = tmp_path / "three.matrix"
    save_matrix_env(MatrixGameEnv(rng.random((2, 2, 2, 3))), path)
    with pytest.raises(PlayerCountUnsupported):
        run_mixed_oracles(fast_config(algorithm="mixed-oracles", env=f"matrix:{path}"))


def test_opponents_resampled_once_per_episode():
    # The trainer asks the opponent provider exactly once per episode; the
    # drawn policies stay fixed until the next episode starts.
    calls = []
    resets = [0]
    counting_env = rps_env()
    original_reset = counting_env.reset

    def counted_reset(rng, first_player=0):
        resets[0] += 1
        return original_reset(rng, first_player)

    counting_env.reset = counted_reset

    def provider(rng):
        calls.append(1)
        return {0: pure_action_policy(3, 0)}

    train_best_response(
        counting_env,
        1,
        provider,
        OracleHParams(discount=0.0, total_timesteps=250, exploration_timesteps=100),
        np.random.default_rng(0),
    )
    assert len(calls) == resets[0]


def test_early_stop():
    cfg = fast_config(algorithm="psro", oracle="exact", analytic_cells=True, epochs=10,
                      early_stop_sum_regret=1e-9)
    record = run_psro(cfg)
    assert record.entries[-1].epoch < 10


def test_solution_indexing_targets_previous_epoch():
    record = run_psro(fast_config(epochs=2))
    for i in range(1, len(record.entries)):
        entry = record.entries[i]
        previous = record.entries[i - 1]
        for player in range(2):
            assert np.array_equal(
                entry.target.weights(player), previous.solution.weights(player)
            )


def test_config_validation_errors():
    with pytest.raises(ConfigError):
        fast_config(algorithm="fictitious").validate()
    with pytest.raises(ConfigError):
        fast_config(epochs=0).validate()
    with pytest.raises(ConfigError):
        fast_config(mss="alpharank").validate()


# ---------------------------------------------------------------------------
# checkpoint / resume
# ---------------------------------------------------------------------------


def test_checkpoint_resume_continues_identically(tmp_path):
    base = dict(algorithm="mixed-oracles", seed=42)
    straight = run_algorithm(fast_config(epochs=4, **base))
    half = run_algorithm(fast_config(epochs=2, **base))
    ck = tmp_path / "ck"
    checkpoint(half, ck)
    resumed = resume(ck)
    continued = run_algorithm(fast_config(epochs=4, **base), resume_record=resumed)
    assert export_regret_curve(straight) == export_regret_curve(continued)
    key = MATRIX_OBSERVATION.key
    for player in range(2):
        for a, b in zip(
            straight.game.strategy_sets[player], continued.game.strategy_sets[player]
        ):
            assert np.array_equal(a.q.lookup(key), b.q.lookup(key))


def test_checkpoint_round_trip_preserves_payoffs_exactly(tmp_path):
    record = run_psro(fast_config(epochs=2, seed=3))
    ck = tmp_path / "ck"
    checkpoint(record, ck)
    restored = resume(ck)
    assert restored.game.payoffs.sample_counts == record.game.payoffs.sample_counts
    for profile, cell in record.game.payoffs.cells.items():
        assert np.array_equal(restored.game.payoffs.cells[profile], cell)
    assert restored.counter.train_steps == record.counter.train_steps
    assert restored.next_epoch == record.next_epoch


def test_resume_missing_or_corrupt(tmp_path):
    with pytest.raises(CorruptCheckpoint):
        resume(tmp_path / "absent")
    ck = tmp_path / "ck"
    record = run_psro(fast_config(epochs=1))
    checkpoint(record, ck)
    (ck / "game.txt").write_text("garbage\n")
    with pytest.raises(CorruptCheckpoint):
        resume(ck)
