import numpy as np
import pytest

from psromix.envs import (
    MATRIX_OBSERVATION,
    analytic_payoffs,
    estimate_payoffs,
    load_matrix_env,
    make_env,
    rps_env,
    save_matrix_env,
    simulate_episode,
)
from psromix.envs.matrix import MatrixGameEnv
from psromix.errors import IllegalAction
from psromix.policies import FixedMixturePolicy, pure_action_policy


def test_rps_tie_convention():
    env = rps_env()
    result = simulate_episode(
        env, [pure_action_policy(3, 0), pure_action_policy(3, 0)], np.random.default_rng(0)
    )
    assert result.returns == pytest.approx([0.5, 0.5])


def test_rps_win_lose_convention():
    env = rps_env()
    # paper beats rock
    result = simulate_episode(
        env, [pure_action_policy(3, 1), pure_action_policy(3, 0)], np.random.default_rng(0)
    )
    assert result.returns == pytest.approx([1.0, 0.0])


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


def test_estimate_payoffs_shard_invariant_derivation():
    # The mean must equal a manual per-episode recomputation using the same
    # derived seeds, independent of processing order.
    from psromix.envs.base import derive_stream_seed, derived_rng

    env = rps_env()
    profile = [FixedMixturePolicy([0.2, 0.3, 0.5])] * 2
    rng = np.random.default_rng(9)
    mean = estimate_payoffs(env, profile, 100, rng)
    base = derive_stream_seed(np.random.default_rng(9))
    total = np.zeros(2)
    for ep in reversed(range(100)):
        total += simulate_episode(env, profile, derived_rng(base, ep), first_player=ep % 2).returns
    assert np.allclose(mean, total / 100, atol=1e-15)


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
    with pytest.raises(ValueError):
        make_env("gridworld")


def test_observation_constant():
    env = rps_env()
    state = env.reset(np.random.default_rng(0))
    obs = state.observation(0)
    assert obs.key == MATRIX_OBSERVATION.key
    assert obs.features.shape == (1,)
