import numpy as np
import pytest

from psromix.envs import CALL, LeducEnv, derived_rng, rps_env
from psromix.errors import PlayerCountUnsupported
from psromix.exact import analytic_payoffs
from psromix.hparams import HParamSearchSpec, hparam_search, preset_hparams
from psromix.oracle import train_best_response
from psromix.policies import FixedMixturePolicy, pure_action_policy, uniform_random_policy


def small_spec(**overrides):
    base = dict(
        learning_rate=(5e-3, 1e-3),
        exploration_timesteps=(100, 200),
        total_timesteps=(200, 400),
        sample_count=4,
        opponent_count=3,
        discount=0.0,
        learner=1,
        seed=0,
    )
    base.update(overrides)
    return HParamSearchSpec(**base)


def opponents():
    return [
        FixedMixturePolicy([1.0, 0.0, 0.0]),
        FixedMixturePolicy([0.0, 1.0, 0.0]),
        FixedMixturePolicy([0.2, 0.3, 0.5]),
    ]


def test_presets_exist_per_environment():
    leduc_pure = preset_hparams("leduc", "pure")
    assert leduc_pure.learning_rate == pytest.approx(1e-3)
    assert leduc_pure.total_timesteps == 3_000
    leduc_mix = preset_hparams("leduc", "mix")
    assert leduc_mix.total_timesteps == 100_000
    assert preset_hparams("rps", "pure").discount == 0.0
    with pytest.raises(ValueError):
        preset_hparams("rps", "medium")


def test_sample_count_one_returns_same_config_for_both_tasks():
    result = hparam_search(small_spec(sample_count=1), rps_env(), opponents())
    assert result.pure_hparams == result.mix_hparams
    assert len(result.configs) == 1


def test_k_equal_one_tasks_coincide():
    spec = small_spec(opponent_count=1, sample_count=2)
    result = hparam_search(spec, rps_env(), [FixedMixturePolicy([0.0, 0.3, 0.7])])
    # With one opponent both tasks train against the same fixed policy and
    # score exactly against it; the scores may differ only through the
    # tasks' separate training streams.
    assert len(result.pure_scores) == 2
    assert len(result.mix_scores) == 2


def test_returned_pure_config_maximizes_stored_scores():
    env = rps_env()
    spec = small_spec(sample_count=6)
    result = hparam_search(spec, env, opponents())
    winner = int(np.argmax(result.pure_scores))
    assert result.pure_hparams == result.configs[winner]
    assert (result.pure_scores <= result.pure_scores[winner]).all()
    # Re-evaluate the winner from scratch: reproducible scoring pipeline.
    repeat = hparam_search(spec, env, opponents())
    assert np.array_equal(repeat.pure_scores, result.pure_scores)
    assert repeat.pure_hparams == result.pure_hparams
    assert repeat.mix_hparams == result.mix_hparams


@pytest.mark.parametrize(
    "env, opponent_policies",
    [
        (rps_env(), opponents()),
        (LeducEnv(), [uniform_random_policy(3), pure_action_policy(3, CALL)]),
    ],
    ids=["rps", "leduc"],
)
def test_scores_are_exact_values_of_the_trained_responses(env, opponent_policies):
    spec = small_spec(sample_count=3, opponent_count=len(opponent_policies))
    result = hparam_search(spec, env, opponent_policies)
    learner, opponent_seat = spec.learner, 1 - spec.learner

    def value(policy, opponent):
        profile = [None, None]
        profile[learner], profile[opponent_seat] = policy, opponent
        return analytic_payoffs(env, profile)[learner]

    def provider(random):
        return {opponent_seat: opponent_policies[int(random() * len(opponent_policies))]}

    for index, hp in enumerate(result.configs):
        pure = [
            value(
                train_best_response(
                    env, learner, {opponent_seat: opponent}, hp,
                    derived_rng(spec.seed, 1, index, j),
                ),
                opponent,
            )
            for j, opponent in enumerate(opponent_policies)
        ]
        assert result.pure_scores[index] == np.mean(pure)
        mixed = train_best_response(env, learner, provider, hp, derived_rng(spec.seed, 3, index))
        assert result.mix_scores[index] == np.mean([value(mixed, o) for o in opponent_policies])


def test_tie_breaks_toward_first_sampled():
    # Identical candidate lists of size one make every config equal.
    spec = small_spec(
        learning_rate=(5e-3,),
        exploration_timesteps=(100,),
        total_timesteps=(200,),
        sample_count=3,
    )
    result = hparam_search(spec, rps_env(), opponents())
    assert result.configs.index(result.pure_hparams) == 0
    assert result.configs.index(result.mix_hparams) == 0


def test_exploration_clamped_to_budget():
    spec = small_spec(exploration_timesteps=(10_000,), total_timesteps=(200,), sample_count=1)
    result = hparam_search(spec, rps_env(), opponents())
    assert result.configs[0].exploration_timesteps == 200


def test_opponent_count_mismatch_rejected():
    with pytest.raises(ValueError):
        hparam_search(small_spec(), rps_env(), opponents()[:2])


def test_three_player_env_rejected():
    from psromix.envs.matrix import MatrixGameEnv

    env = MatrixGameEnv(np.zeros((2, 2, 2, 3)))
    with pytest.raises(PlayerCountUnsupported):
        hparam_search(small_spec(), env, opponents())
