import numpy as np
import pytest

from psromix.envs import (
    MATRIX_OBSERVATION,
    estimate_payoffs,
    load_matrix_env,
    make_env,
    rps_env,
    save_matrix_env,
    simulate_episode,
)
from psromix.envs.matrix import MatrixGameEnv
from psromix.errors import ConfigError, IllegalAction
from psromix.exact import analytic_payoffs
from psromix.policies import FixedMixturePolicy, pure_action_policy


def test_rps_tie_convention():
    env = rps_env()
    returns = simulate_episode(
        env, [pure_action_policy(3, 0), pure_action_policy(3, 0)], np.random.default_rng(0)
    )
    assert returns == pytest.approx([0.5, 0.5])


def test_rps_win_lose_convention():
    env = rps_env()
    # paper beats rock
    returns = simulate_episode(
        env, [pure_action_policy(3, 1), pure_action_policy(3, 0)], np.random.default_rng(0)
    )
    assert returns == pytest.approx([1.0, 0.0])


def test_mixture_vs_pure_rock_monte_carlo():
    # Value of R against the (0, 0.3, 0.7) mixture is exactly 0.7.
    env = rps_env()
    profile = [FixedMixturePolicy([0.0, 0.3, 0.7]), pure_action_policy(3, 0)]
    mean = estimate_payoffs(env, profile, 20_000, np.random.default_rng(1))
    assert mean[1] == pytest.approx(0.7, abs=0.01)


def test_mixture_vs_pure_paper_many_episodes():
    env = rps_env()
    profile = [FixedMixturePolicy([0.0, 0.3, 0.7]), pure_action_policy(3, 1)]
    mean = estimate_payoffs(env, profile, 100_000, np.random.default_rng(2))
    assert mean[1] == pytest.approx(0.15, abs=0.01)


def test_estimate_payoffs_deterministic_env_exact():
    env = rps_env()
    profile = [pure_action_policy(3, 2), pure_action_policy(3, 1)]
    mean = estimate_payoffs(env, profile, 3, np.random.default_rng(3))
    assert mean == pytest.approx([1.0, 0.0], abs=0)


def test_estimate_payoffs_zero_episodes_rejected():
    env = rps_env()
    with pytest.raises(ValueError):
        estimate_payoffs(env, [pure_action_policy(3, 0)] * 2, 0, np.random.default_rng(0))


def test_estimate_payoffs_seed_determinism():
    env = rps_env()
    profile = [FixedMixturePolicy([0.2, 0.3, 0.5])] * 2
    a = estimate_payoffs(env, profile, 500, np.random.default_rng(9))
    b = estimate_payoffs(env, profile, 500, np.random.default_rng(9))
    assert np.array_equal(a, b)


def test_estimate_payoffs_plays_every_episode_on_its_stream():
    # The mean must equal the episodes simulated in turn on the same stream,
    # seatings alternating, bit for bit.
    env = rps_env()
    profile = [FixedMixturePolicy([0.2, 0.3, 0.5])] * 2
    rng, replay = np.random.default_rng(9), np.random.default_rng(9)
    mean = estimate_payoffs(env, profile, 100, rng)
    total = np.zeros(2)
    for ep in range(100):
        total += simulate_episode(env, profile, replay, first_player=ep % 2)
    assert mean.tobytes() == (total / 100).tobytes()
    assert rng.bit_generator.state == replay.bit_generator.state


def test_monte_carlo_converges_to_analytic_within_4_sigma():
    env = rps_env()
    rng = np.random.default_rng(17)
    for _ in range(5):
        p = [FixedMixturePolicy(rng.dirichlet(np.ones(3))) for _ in range(2)]
        exact = analytic_payoffs(env, p)
        n = 4_000
        mean = estimate_payoffs(env, p, n, np.random.default_rng(int(rng.integers(1 << 31))))
        sigma = 0.5 / np.sqrt(n)  # returns live in [0, 1]
        assert np.abs(mean - exact).max() < 4 * sigma


def test_illegal_action_detected():
    env = MatrixGameEnv(np.zeros((2, 2, 2)))

    class Rogue:
        def act(self, obs, legal, rng):
            return 5

    with pytest.raises(IllegalAction):
        simulate_episode(env, [Rogue(), pure_action_policy(2, 0)], np.random.default_rng(0))


@pytest.mark.parametrize("action", [-1, 3])
def test_matrix_step_rejects_out_of_range_actions(action):
    # Negative indexing would otherwise play action 2 silently.
    state = rps_env().reset(np.random.default_rng(0))
    with pytest.raises(IllegalAction):
        state.step(action)


def test_three_player_episode_is_played_seat_by_seat():
    tensor = np.arange(2 * 3 * 2 * 3, dtype=float).reshape(2, 3, 2, 3)
    env = MatrixGameEnv(tensor)
    joint = (1, 2, 0)
    state = env.reset(np.random.default_rng(0))
    players = [state.player]
    rewards = []
    for seat, action in enumerate(joint):
        for illegal in (-1, env.action_count(seat)):
            with pytest.raises(IllegalAction):
                state.step(illegal)
            assert state.player == seat and not state.terminal
        rewards.append(state.step(action))
        players.append(state.player)
    assert players == [0, 1, 2, None] and state.terminal
    for zeros in rewards[:2]:
        assert np.array_equal(zeros, np.zeros(3)) and not zeros.flags.writeable
    assert np.array_equal(rewards[2], tensor[joint])


def test_matrix_step_returns_read_only_rewards():
    env = rps_env()
    state = env.reset(np.random.default_rng(0))
    state.step(0)
    rewards = state.step(1)
    assert not rewards.flags.writeable
    with pytest.raises(ValueError):
        rewards += 1.0
    assert env.payoff_tensor[0, 1] == pytest.approx([0.0, 1.0])


def test_matrix_env_copies_its_payoff_tensor():
    tensor = np.zeros((2, 2, 2))
    env = MatrixGameEnv(tensor)
    tensor[0, 0] = 5.0
    assert np.array_equal(env.payoff_tensor, np.zeros((2, 2, 2)))
    state = env.reset(np.random.default_rng(0))
    state.step(0)
    assert state.step(0) == pytest.approx([0.0, 0.0])


def test_opponent_policies_fixed_within_episode():
    # Policies are invoked exactly once per matrix episode: fixed throughout.
    env = rps_env()

    class Counting(FixedMixturePolicy):
        def __init__(self):
            super().__init__([1.0, 0.0, 0.0])
            self.calls = 0

        def act(self, obs, legal, rng):
            self.calls += 1
            return super().act(obs, legal, rng)

    counting = Counting()
    simulate_episode(env, [counting, pure_action_policy(3, 0)], np.random.default_rng(0))
    assert counting.calls == 1


def test_matrix_env_file_round_trip(tmp_path):
    env = rps_env()
    path = tmp_path / "rps.matrix"
    save_matrix_env(env, path)
    loaded = make_env(f"matrix:{path}")
    assert np.array_equal(loaded.payoff_tensor, env.payoff_tensor)
    loaded2 = load_matrix_env(path)
    assert loaded2.action_counts == (3, 3)


def test_make_env_names():
    assert make_env("rps").name == "rps"
    assert make_env("leduc").name == "leduc"
    with pytest.raises(ConfigError, match="env.name: unknown environment 'gridworld'"):
        make_env("gridworld")


def test_observation_constant():
    env = rps_env()
    state = env.reset(np.random.default_rng(0))
    assert state.observation(0) == MATRIX_OBSERVATION == b"matrix"
    state.step(0)
    assert state.observation(1) is MATRIX_OBSERVATION
