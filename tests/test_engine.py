import dataclasses
import hashlib
import itertools
from pathlib import Path

import numpy as np
import pytest

from psromix.config import load_config
from psromix.engine import (
    RunConfig,
    checkpoint,
    expand_enfg,
    export_regret_curve,
    resume,
    run_algorithm,
)
from psromix.envs import MATRIX_OBSERVATION, rps_env, save_matrix_env
from psromix.errors import ConfigError, CorruptCheckpoint, PlayerCountUnsupported
from psromix.games import EmpiricalGame
from psromix.oracle import OracleHParams, SimulationCounter, train_best_response
from psromix.policies import QTable, ValuePolicy, pure_action_policy, uniform_random_policy
from psromix.qmixing import MixedQPolicy

ROOT = Path(__file__).resolve().parent.parent
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
    return ValuePolicy(QTable(3, {MATRIX_OBSERVATION: np.eye(3)[action]}))


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
    record = run_algorithm(fast_config(epochs=1))
    assert record.game.shape == (2, 2)
    assert record.game.missing_profiles() == []
    assert len(record.entries) == 2  # epoch 0 baseline + epoch 1


def test_fixed_seed_runs_are_identical():
    a = run_algorithm(fast_config(seed=7))
    b = run_algorithm(fast_config(seed=7))
    assert export_regret_curve(a) == export_regret_curve(b)
    for entry_a, entry_b in zip(a.entries, b.entries):
        for player in range(2):
            assert np.array_equal(
                entry_a.solution.weights(player), entry_b.solution.weights(player)
            )


def test_one_policy_per_player_per_epoch_and_counters_monotonic():
    record = run_algorithm(fast_config(algorithm="mixed-opponents", epochs=4))
    assert record.game.shape == (5, 5)
    steps = [entry.train_steps for entry in record.entries]
    assert steps == sorted(steps)
    episodes = [entry.eval_episodes for entry in record.entries]
    assert episodes == sorted(episodes)


def test_enfg_complete_after_each_epoch():
    record = run_algorithm(fast_config(algorithm="mixed-oracles", epochs=3))
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
    psro_record = run_algorithm(fast_config(pure_hparams=pure, mix_hparams=mix, epochs=3))
    psro_deltas = [
        psro_record.entries[i].train_steps - psro_record.entries[i - 1].train_steps
        for i in range(1, len(psro_record.entries))
    ]
    assert psro_deltas == [2 * 4_000] * 3  # mix-hparams budget


def test_mixed_oracles_epoch_one_equals_pure_response():
    record = run_algorithm(fast_config(algorithm="mixed-oracles", epochs=1, seed=5))
    added = record.game.strategy_sets[0][1]
    response = record.libraries[0][0]
    key = MATRIX_OBSERVATION
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
    psro_record = run_algorithm(fast_config(**base))
    oracle_record = run_algorithm(fast_config(algorithm="mixed-oracles", **base))
    assert export_regret_curve(psro_record) == export_regret_curve(oracle_record)
    key = MATRIX_OBSERVATION
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
    key = MATRIX_OBSERVATION
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
    record = run_algorithm(cfg)
    assert record.game.shape == (3, 3, 3)
    assert record.game.missing_profiles() == []
    assert len(record.game.payoffs.cells) == 27


def test_mixed_oracles_rejects_three_players(tmp_path):
    rng = np.random.default_rng(9)
    from psromix.envs.matrix import MatrixGameEnv

    path = tmp_path / "three.matrix"
    save_matrix_env(MatrixGameEnv(rng.random((2, 2, 2, 3))), path)
    with pytest.raises(PlayerCountUnsupported):
        run_algorithm(fast_config(algorithm="mixed-oracles", env=f"matrix:{path}"))


def test_opponents_resampled_once_per_episode():
    # The trainer asks the opponent provider exactly once per episode, as it
    # draws the episode's deal; the drawn policies stay fixed until the next
    # episode starts. An RPS episode holds one learner step.
    calls = []
    deals = [0]
    counting_env = rps_env()

    class CountedDeals(tuple):
        def __getitem__(self, index):
            deals[0] += 1
            return super().__getitem__(index)

    counting_env.deals = CountedDeals(counting_env.deals)

    def provider(random):
        calls.append(1)
        return {0: pure_action_policy(3, 0)}

    train_best_response(
        counting_env,
        1,
        provider,
        OracleHParams(discount=0.0, total_timesteps=250, exploration_timesteps=100),
        np.random.default_rng(0),
    )
    assert len(calls) == deals[0] == 250


def test_early_stop():
    # The threshold is compared with internal empirical-game regret, which
    # nash verifies to about 0 every epoch: the first check stops the run.
    cfg = fast_config(algorithm="psro", oracle="exact", analytic_cells=True, epochs=10,
                      early_stop_sum_regret=1e-9)
    record = run_algorithm(cfg)
    assert record.entries[-1].epoch == 1


def _checkpoint_bytes(path):
    return {p.relative_to(path): p.read_bytes() for p in path.rglob("*") if p.is_file()}


def test_resumed_early_stopped_run_adds_no_epoch(tmp_path):
    # The stop is decided from the log, so resuming a stopped run, even with
    # more epochs to go, trains nothing and rewrites the same checkpoint.
    config = load_config(ROOT / "demos" / "configs" / "rps_psro_exact.json")
    record = run_algorithm(config)
    assert [e.epoch for e in record.entries] == [0, 1]
    ck = tmp_path / "ck"
    checkpoint(record, ck)
    written = _checkpoint_bytes(ck)
    restored = resume(ck)
    continued = run_algorithm(restored.config, resume_record=restored)
    assert [e.epoch for e in continued.entries] == [0, 1]
    checkpoint(continued, ck)
    assert _checkpoint_bytes(ck) == written
    longer = run_algorithm(dataclasses.replace(config, epochs=10), resume_record=resume(ck))
    assert [e.epoch for e in longer.entries] == [0, 1]


@pytest.mark.parametrize(
    "change, field",
    [
        ({"algorithm": "mixed-oracles"}, "run.algorithm"),
        ({"seed": 3, "algorithm": "mixed-opponents"}, "run.algorithm"),
        ({"seed": 3}, "run.seed"),
        ({"mss": "uniform"}, "mss.name"),
        ({"oracle": "exact"}, "oracle.kind"),
        ({"mix_hparams": None}, "oracle.mix"),
    ],
    ids=["algorithm", "algorithm-and-seed", "seed", "solver", "oracle", "hparams"],
)
def test_resume_with_a_changed_config_names_the_field(tmp_path, change, field):
    checkpoint(run_algorithm(fast_config(epochs=2)), tmp_path / "ck")
    restored = resume(tmp_path / "ck")
    with pytest.raises(ConfigError, match=f"^{field}: the checkpointed run has "):
        run_algorithm(fast_config(epochs=3, **change), resume_record=restored)


def test_resume_may_change_how_long_the_run_goes(tmp_path):
    checkpoint(run_algorithm(fast_config(epochs=2)), tmp_path / "ck")
    restored = resume(tmp_path / "ck")
    # nash leaves internal regret at about 0, so the new threshold stops the
    # run before epoch 3: the stop is read from epoch 2's log entry.
    resumed = run_algorithm(
        fast_config(epochs=5, early_stop_sum_regret=0.5), resume_record=restored
    )
    assert [e.epoch for e in resumed.entries] == [0, 1, 2]


def replicator_config(**overrides):
    # Sum regrets [0, 0.0069162912..., 0.0108367..., 0.0058206...] at epochs 0-3.
    return fast_config(mss="replicator", mss_params={"steps": 2000}, **overrides)


def test_resume_refuses_a_threshold_an_earlier_epoch_meets(tmp_path):
    # Epoch 1 meets the threshold; the last logged epoch, 2, does not.
    checkpoint(run_algorithm(replicator_config(epochs=2)), tmp_path / "ck")
    threshold = 0.006916292
    unbroken = run_algorithm(replicator_config(epochs=5, early_stop_sum_regret=threshold))
    assert [e.epoch for e in unbroken.entries] == [0, 1]
    with pytest.raises(ConfigError, match="^run.early_stop_sum_regret: epoch 1 of the"):
        run_algorithm(
            replicator_config(epochs=5, early_stop_sum_regret=threshold),
            resume_record=resume(tmp_path / "ck"),
        )


def test_resume_keeps_a_threshold_no_logged_epoch_meets(tmp_path):
    checkpoint(run_algorithm(replicator_config(epochs=3)), tmp_path / "ck")
    config = replicator_config(epochs=5, early_stop_sum_regret=0.0036)
    resumed = run_algorithm(config, resume_record=resume(tmp_path / "ck"))
    assert export_regret_curve(resumed) == export_regret_curve(run_algorithm(config))


def test_checkpoint_replaces_stale_policy_files_only(tmp_path):
    policies = tmp_path / "ck" / "policies"
    policies.mkdir(parents=True)
    (policies / "p0_9.txt").write_text("from a longer run\n")
    (policies / "notes.txt").write_text("not a policy file\n")
    checkpoint(run_algorithm(fast_config(epochs=1)), tmp_path / "ck")
    assert sorted(p.name for p in policies.iterdir()) == [
        "notes.txt", "p0_0.txt", "p0_1.txt", "p1_0.txt", "p1_1.txt"
    ]
    assert (policies / "notes.txt").read_text() == "not a policy file\n"


def test_early_stop_under_replicator_runs_all_epochs():
    # Replicator's time-averaged profile leaves internal regret above 1e-3.
    cfg = fast_config(epochs=4, mss="replicator", mss_params={"steps": 2000},
                      early_stop_sum_regret=1e-3)
    record = run_algorithm(cfg)
    assert [e.epoch for e in record.entries] == [0, 1, 2, 3, 4]
    assert all(e.sum_regret >= 1e-3 for e in record.entries[1:])


def test_solution_indexing_targets_previous_epoch():
    record = run_algorithm(fast_config(epochs=2))
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
    key = MATRIX_OBSERVATION
    for player in range(2):
        for a, b in zip(
            straight.game.strategy_sets[player], continued.game.strategy_sets[player]
        ):
            assert np.array_equal(a.q.lookup(key), b.q.lookup(key))


def test_a_record_read_without_its_library_cannot_continue_or_be_saved(tmp_path):
    ck = tmp_path / "ck"
    checkpoint(run_algorithm(fast_config(algorithm="mixed-oracles", epochs=2)), ck)
    written = _checkpoint_bytes(ck)
    partial = resume(ck, library=False)
    assert partial.libraries is None
    assert export_regret_curve(partial) == export_regret_curve(resume(ck))
    with pytest.raises(ValueError, match="no library"):
        run_algorithm(fast_config(algorithm="mixed-oracles", epochs=3), resume_record=partial)
    with pytest.raises(ValueError, match="no library"):
        checkpoint(partial, ck)
    assert _checkpoint_bytes(ck) == written


def test_resumed_mixtures_are_the_live_tables(tmp_path):
    """A mixed-oracles strategy is a Q-mixture while the run is live and a
    plain QTable after resume; both are QTables with the same lookups."""
    record = run_algorithm(fast_config(algorithm="mixed-oracles", env="leduc", epochs=3, seed=6))
    checkpoint(record, tmp_path / "ck")
    restored = resume(tmp_path / "ck")
    live = [policy.q for policies in record.game.strategy_sets for policy in policies]
    loaded = [policy.q for policies in restored.game.strategy_sets for policy in policies]
    assert any(isinstance(table, MixedQPolicy) for table in live)
    assert all(type(table) is QTable for table in loaded)
    for a, b in zip(live, loaded, strict=True):
        assert isinstance(a, QTable) and sorted(a.known_keys()) == sorted(b.known_keys())
        for key in [*a.known_keys(), b"unseen"]:
            assert a.lookup(key).tobytes() == b.lookup(key).tobytes()


def test_checkpoint_round_trip_preserves_payoffs_exactly(tmp_path):
    record = run_algorithm(fast_config(epochs=2, seed=3))
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
    record = run_algorithm(fast_config(epochs=1))
    checkpoint(record, ck)
    (ck / "game.txt").write_text("garbage\n")
    with pytest.raises(CorruptCheckpoint):
        resume(ck)


def test_resume_rejects_game_with_lost_cell(tmp_path):
    ck = tmp_path / "ck"
    checkpoint(run_algorithm(fast_config(epochs=2)), ck)
    lines = (ck / "game.txt").read_text().splitlines(keepends=True)
    cell = next(i for i, line in enumerate(lines) if line.startswith("cell "))
    (ck / "game.txt").write_text("".join(lines[:cell] + lines[cell + 1 :]))
    with pytest.raises(CorruptCheckpoint, match="8 of 9 payoff cells"):
        resume(ck)


@pytest.mark.parametrize(
    "edit",
    [
        pytest.param(lambda lines: lines[:1], id="header-only"),
        pytest.param(
            lambda lines: [ln.replace("cell 1 1 |", "cell 5 5 |") for ln in lines],
            id="profile-out-of-range",
        ),
        pytest.param(
            lambda lines: [ln.replace("cell 1 1 |", "cell 1 |") for ln in lines],
            id="short-profile",
        ),
        pytest.param(lambda lines: lines + lines[-1:], id="duplicated-cell"),
    ],
)
def test_resume_rejects_malformed_game(tmp_path, edit):
    config = load_config(ROOT / "demos" / "configs" / "rps_psro_exact.json")
    ck = tmp_path / "ck"
    checkpoint(run_algorithm(config), ck)
    lines = (ck / "game.txt").read_text().splitlines()
    assert "cell 1 1 |" in lines[-1]
    (ck / "game.txt").write_text("\n".join(edit(lines)) + "\n")
    with pytest.raises(CorruptCheckpoint):
        resume(ck)


def test_checkpoint_writes_only_config_game_record_and_policies(tmp_path):
    ck = tmp_path / "ck"
    checkpoint(run_algorithm(fast_config(algorithm="mixed-oracles", epochs=2)), ck)
    written = sorted(str(p.relative_to(ck)) for p in ck.rglob("*") if p.is_file())
    policies = [f"policies/p{p}_{i}.txt" for p in range(2) for i in range(3)]
    library = [f"library/p{p}_{i}.txt" for p in range(2) for i in range(2)]
    assert written == sorted(["config.json", "game.txt", "record.json"] + policies + library)


def test_checkpoint_over_longer_run_leaves_no_stale_policies(tmp_path):
    ck = tmp_path / "ck"
    checkpoint(run_algorithm(fast_config(algorithm="mixed-oracles", epochs=3)), ck)
    checkpoint(run_algorithm(fast_config(algorithm="mixed-oracles", epochs=1)), ck)
    written = sorted(str(p.relative_to(ck)) for p in ck.rglob("*") if p.is_file())
    policies = [f"policies/p{p}_{i}.txt" for p in range(2) for i in range(2)]
    library = [f"library/p{p}_0.txt" for p in range(2)]
    assert written == sorted(["config.json", "game.txt", "record.json"] + policies + library)
    # A run without a response library also drops the library files.
    checkpoint(run_algorithm(fast_config(epochs=1)), ck)
    written = sorted(str(p.relative_to(ck)) for p in ck.rglob("*") if p.is_file())
    assert written == sorted(["config.json", "game.txt", "record.json"] + policies)
    assert resume(ck).next_epoch == 2


def test_resume_ignores_legacy_side_files(tmp_path):
    record = run_algorithm(fast_config(algorithm="mixed-oracles", epochs=2, seed=4))
    ck = tmp_path / "ck"
    checkpoint(record, ck)
    # Files older versions wrote beside the state; stale values must not leak in.
    (ck / "meta.txt").write_text("psromix-checkpoint v1\nnext_epoch 9\n")
    (ck / "counters.txt").write_text("psromix-counters v1\ntrain_steps 1\n")
    (ck / "library" / "manifest.txt").write_text("p0_0.txt\n")
    restored = resume(ck)
    assert restored.next_epoch == record.next_epoch == 3
    assert restored.counter == record.counter
    assert [len(lib) for lib in restored.libraries] == [2, 2]


def test_checkpoint_cut_short_is_rejected(tmp_path, monkeypatch):
    import psromix.engine as engine

    ck = tmp_path / "ck"
    checkpoint(run_algorithm(fast_config(epochs=1, seed=2)), ck)
    assert resume(ck).next_epoch == 2
    real_save = engine.save_policy
    saved = []

    def crash_after_two(policy, path):
        if len(saved) == 2:
            raise OSError("disk full")
        saved.append(path)
        real_save(policy, path)

    monkeypatch.setattr(engine, "save_policy", crash_after_two)
    # Same shape, other seed: without a commit marker the half-overwritten
    # files would load as one consistent-looking run.
    with pytest.raises(OSError, match="disk full"):
        checkpoint(run_algorithm(fast_config(epochs=1, seed=3)), ck)
    monkeypatch.undo()
    with pytest.raises(CorruptCheckpoint, match="record.json"):
        resume(ck)


# record.json of a run of demos/configs/rps_psro_exact.json. Checkpoints on
# disk use this schema, so a renamed EpochEntry or SolutionProfile field, or
# any other change to the bytes, must fail here.
RPS_PSRO_EXACT_RECORD = """\
[
 {
  "epoch": 0,
  "eval_episodes": 0,
  "new_ids": [],
  "regrets": [
   0.0,
   0.0
  ],
  "solution": {
   "mixtures": [
    [
     1.0
    ],
    [
     1.0
    ]
   ],
   "residual": 0.0,
   "solver_name": "uniform-init"
  },
  "sum_regret": 0.0,
  "target": null,
  "train_steps": 0
 },
 {
  "epoch": 1,
  "eval_episodes": 0,
  "new_ids": [
   [
    0,
    1
   ],
   [
    1,
    1
   ]
  ],
  "regrets": [
   0.0,
   0.0
  ],
  "solution": {
   "mixtures": [
    [
     1.0,
     0.0
    ],
    [
     1.0,
     0.0
    ]
   ],
   "residual": 0.0,
   "solver_name": "nash"
  },
  "sum_regret": 0.0,
  "target": {
   "mixtures": [
    [
     1.0
    ],
    [
     1.0
    ]
   ],
   "residual": 0.0,
   "solver_name": "uniform-init"
  },
  "train_steps": 0
 }
]"""


def test_record_json_text_is_pinned(tmp_path):
    config = load_config(ROOT / "demos" / "configs" / "rps_psro_exact.json")
    checkpoint(run_algorithm(config), tmp_path / "ck")
    text = (tmp_path / "ck" / "record.json").read_text()
    assert len(text) == 770
    assert text == RPS_PSRO_EXACT_RECORD


def _skewed_start(values, epsilon):
    return ValuePolicy(QTable(3, {MATRIX_OBSERVATION: values}), epsilon=epsilon)


# sha256 of (game.txt, record.json). From uniform starts every cell of these
# runs is 0.5, so the skewed starts are what exercise the contraction bits.
EXACT_RUN_DIGESTS = {
    "uniform": (
        "0b2207bbdca15ad1d2c4048a825b5af2e6631bb02c00ce389a3d0b0e5b955957",
        "99d57c99aad10de5d0fdb4087ee640e0ed2de0b64a17e463076f5fffde4854db",
    ),
    "skewed": (
        "24982af9671eb3830377524f8fa7f142e0cf47f2494360af6cd3c994c59b6efe",
        "d36da4386df05f3317a2adf565563e1cc241ed7d4c34e38caf004c1e1e14ed44",
    ),
}


@pytest.mark.parametrize("start", ["uniform", "skewed"])
@pytest.mark.parametrize("algorithm", ["psro", "mixed-oracles", "mixed-opponents"])
def test_exact_run_bytes_are_pinned(tmp_path, algorithm, start):
    config = RunConfig(
        algorithm=algorithm, env="rps", oracle="exact", analytic_cells=True, epochs=6, seed=11
    )
    initial = None
    if start == "skewed":
        initial = [_skewed_start([0.2, 0.7, 0.1], 0.3), _skewed_start([0.6, 0.1, 0.3], 0.6)]
    record = run_algorithm(config, initial_policies=initial)
    assert [e.epoch for e in record.entries] == list(range(7))
    checkpoint(record, tmp_path / "ck")
    digests = tuple(
        hashlib.sha256((tmp_path / "ck" / name).read_bytes()).hexdigest()
        for name in ("game.txt", "record.json")
    )
    game_digest, record_digest = EXACT_RUN_DIGESTS[start]
    if algorithm == "mixed-opponents" and start == "skewed":
        # Value-mixing the opponents adds a response that psro does not find.
        game_digest = "acb03d332ae2896b630e17b077e536deddc3571465937c50aa1f25392e0a21ba"
    assert digests == (game_digest, record_digest)
