import copy
import itertools

import numpy as np
import pytest

from psromix.envs import MATRIX_OBSERVATION, Observation, simulate_episode
from psromix.envs.leduc import CALL, FOLD, RAISE, LeducEnv, leduc_encode
from psromix.policies import pure_action_policy, uniform_random_policy


@pytest.fixture(scope="module")
def env():
    return LeducEnv()


def play(env, actions, deal=(0, 2, 4), first=0):
    state = env.deal(*deal, first_player=first)
    rewards = np.zeros(2)
    for action in actions:
        (player,) = state.to_act
        assert action in state.legal_actions(player), (action, state.legal_actions(player))
        rewards += state.step({player: action})
    return state, rewards


def test_encoding_example_positions():
    obs = leduc_encode(0, 3, None, [], [])
    assert len(obs.features) == 30
    assert set(np.flatnonzero(obs.features)) == {0, 2 + 3}


def test_encoding_binary_and_action_bits():
    obs = leduc_encode(1, 5, 2, [CALL, RAISE, RAISE, CALL], [RAISE])
    assert set(np.unique(obs.features)).issubset({0.0, 1.0})
    # round-1 slots start at 14: CALL=01 RAISE=10
    assert list(obs.features[14:22]) == [0, 1, 1, 0, 1, 0, 0, 1]
    assert list(obs.features[22:24]) == [1, 0]


def test_keys_distinct_for_distinct_histories():
    a = leduc_encode(0, 1, None, [CALL], [])
    b = leduc_encode(0, 1, None, [RAISE], [])
    c = leduc_encode(0, 1, None, [], [])
    assert len({a.key, b.key, c.key}) == 3


def decision_points(env):
    """DFS over every deal, seating, and legal action walk; yield the
    episode at each decision point."""

    def walk(episode):
        if episode.terminal:
            return
        yield episode
        (player,) = episode.to_act
        for action in episode.legal_actions(player):
            child = copy.deepcopy(episode)
            child.step({player: action})
            yield from walk(child)

    for first in (0, 1):
        for c0, c1 in itertools.permutations(range(6), 2):
            for public in set(range(6)) - {c0, c1}:
                yield from walk(env.deal(c0, c1, public, first))


def enumerate_information_states(env):
    """Collect the information state seen at each decision point."""
    states = {}
    for episode in decision_points(env):
        (player,) = episode.to_act
        obs = episode.observation(player)
        description = (
            episode.first_player,
            player,
            episode.privates[player],
            episode.public,
            tuple(episode.round_actions[0]),
            tuple(episode.round_actions[1]),
        )
        if obs.key in states:
            assert states[obs.key] == description, "key collision for distinct states"
        else:
            states[obs.key] = description
    return states


def test_key_injectivity_exhaustive(env):
    states = enumerate_information_states(env)
    # Injectivity is asserted inside the walk; the reachable count is fixed.
    assert len(states) == 1872


def reference_encode(player, private_card, public_card, round1_actions, round2_actions):
    """The numpy encoder the lookup-table encoder replaced: features, then key."""
    features = np.zeros(30)
    features[player] = 1.0
    features[2 + private_card] = 1.0
    if public_card is not None:
        features[8 + public_card] = 1.0
    bits = {CALL: (0, 1), RAISE: (1, 0)}
    for offset, actions in zip((14, 22), (round1_actions, round2_actions)):
        for slot, action in enumerate(actions):
            features[offset + 2 * slot : offset + 2 * slot + 2] = bits[action]
    return bytes(features.astype(np.uint8)), features


def test_encoding_equals_numpy_reference_exhaustive(env):
    checked = 0
    for episode in decision_points(env):
        for player in (0, 1):
            obs = episode.observation(player)
            key, features = reference_encode(
                player,
                episode.privates[player],
                episode.public,
                episode.round_actions[0],
                episode.round_actions[1],
            )
            assert obs.key == key
            assert obs.features.dtype == np.float64 and obs.features.shape == (30,)
            assert np.array_equal(obs.features, features)
            checked += 1
    assert checked == 2 * 240 * 36  # both players, 240 seated deals x 36 decisions
    with pytest.raises(ValueError):
        obs.features[0] = 1.0


def test_given_features_are_kept_read_only():
    given = np.array([2.0, 3.0])
    obs = Observation(key=b"k", features=given)
    assert np.array_equal(obs.features, given)
    with pytest.raises(ValueError):
        obs.features[0] = 0.0
    given[0] = 5.0  # the caller's array stays writable
    with pytest.raises(ValueError):
        MATRIX_OBSERVATION.features[0] = 0.0


def test_non_terminal_rewards_are_read_only_zeros(env):
    state = env.deal(0, 2, 4)
    rewards = state.step({0: RAISE})
    assert not state.terminal
    assert np.array_equal(rewards, [0.0, 0.0])
    with pytest.raises(ValueError):
        rewards += 1.0


def test_zero_sum_random_policies(env):
    rng = np.random.default_rng(0)
    policies = [uniform_random_policy(3), uniform_random_policy(3)]
    for ep in range(2_000):
        result = simulate_episode(env, policies, rng, first_player=ep % 2)
        assert result.returns.sum() == 0.0


def test_call_always_policies_zero_sum(env):
    result = simulate_episode(
        env, [pure_action_policy(3, CALL)] * 2, np.random.default_rng(3)
    )
    assert result.returns.sum() == 0.0


def test_action_slots_never_exceed_four(env):
    rng = np.random.default_rng(1)
    policies = [uniform_random_policy(3), uniform_random_policy(3)]
    for ep in range(2_000):
        result = simulate_episode(env, policies, rng, record_for=(0, 1))
        for transitions in result.transitions.values():
            for tr in transitions:
                for offset in (14, 22):
                    bits = tr.observation.features[offset : offset + 8]
                    slots = [bits[2 * s : 2 * s + 2].sum() for s in range(4)]
                    assert all(s <= 1 for s in slots)


def test_raise_cap_and_fold_legality(env):
    state = env.deal(0, 2, 4)
    assert state.legal_actions(0) == (CALL, RAISE)  # no outstanding bet: no fold
    state.step({0: RAISE})
    assert state.legal_actions(1) == (FOLD, CALL, RAISE)
    state.step({1: RAISE})
    assert state.legal_actions(0) == (FOLD, CALL)  # two raises: cap reached
    state.step({0: CALL})
    assert state.round_index == 1
    assert state.public == 4


def test_fold_awards_pot(env):
    state, rewards = play(env, [RAISE, FOLD])
    assert state.terminal
    # Folder loses the ante; winner gains it.
    assert list(rewards) == [1.0, -1.0]


def test_chip_accounting_with_raises(env):
    # round 1: raise(2) + call; round 2: raise(4) + call -> 7 chips each.
    state, rewards = play(env, [RAISE, CALL, RAISE, CALL], deal=(4, 0, 2))
    assert state.terminal
    # player 0 holds K (rank 2), board Q pairs nobody; K beats J.
    assert list(rewards) == [7.0, -7.0]
    assert state.contributions == [7, 7]


def test_showdown_pair_beats_high_card(env):
    # player 1 pairs the board jack; player 0 holds a king.
    state, rewards = play(env, [CALL, CALL, CALL, CALL], deal=(4, 0, 1))
    assert rewards[1] > 0 > rewards[0]


def test_showdown_equal_ranks_split(env):
    # both hold jacks (different suits); board is a king.
    state, rewards = play(env, [CALL, CALL, CALL, CALL], deal=(0, 1, 4))
    assert list(rewards) == [0.0, 0.0]


def test_second_round_raise_amount(env):
    state, _ = play(env, [CALL, CALL, RAISE], deal=(0, 2, 4))
    assert state.current_bet == 4


def test_first_player_seating(env):
    state = env.deal(0, 2, 4, first_player=1)
    assert state.to_act == (1,)
    # second player to move sees the opener's action in the sequence
    state.step({1: CALL})
    assert state.to_act == (0,)
    obs = state.observation(0)
    assert list(obs.features[14:16]) == [0, 1]
