import copy
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psromix.envs import simulate_episode
from psromix.envs.leduc import CALL, FOLD, RAISE, LeducEnv, leduc_encode
from psromix.errors import IllegalAction
from psromix.exact import seat_keys
from psromix.oracle import OracleHParams, train_best_response
from psromix.policies import pure_action_policy, uniform_random_policy


@pytest.fixture(scope="module")
def env():
    return LeducEnv()


def play(env, actions, deal=(0, 2, 4), first=0):
    state = env.deal(*deal, first_player=first)
    rewards = np.zeros(2)
    for action in actions:
        player = state.player
        assert action in state.legal_actions(player), (action, state.legal_actions(player))
        rewards += state.step(action)
    return state, rewards


def test_encoding_example_positions():
    key = leduc_encode(0, 3, None, [], [])
    assert len(key) == 30
    assert set(np.flatnonzero(np.frombuffer(key, np.uint8))) == {0, 2 + 3}


def test_encoding_binary_and_action_bits():
    key = leduc_encode(1, 5, 2, [CALL, RAISE, RAISE, CALL], [RAISE])
    assert set(key).issubset({0, 1})
    # round-1 slots start at 14: CALL=01 RAISE=10
    assert list(key[14:22]) == [0, 1, 1, 0, 1, 0, 0, 1]
    assert list(key[22:24]) == [1, 0]


def test_keys_distinct_for_distinct_histories():
    a = leduc_encode(0, 1, None, [CALL], [])
    b = leduc_encode(0, 1, None, [RAISE], [])
    c = leduc_encode(0, 1, None, [], [])
    assert len({a, b, c}) == 3


def decision_points(env):
    """DFS over every deal, seating, and legal action walk; yield the
    episode at each decision point."""

    def walk(episode):
        if episode.terminal:
            return
        yield episode
        player = episode.player
        for action in episode.legal_actions(player):
            child = copy.deepcopy(episode)
            child.step(action)
            yield from walk(child)

    for first in (0, 1):
        for c0, c1 in itertools.permutations(range(6), 2):
            for public in set(range(6)) - {c0, c1}:
                yield from walk(env.deal(c0, c1, public, first))


def enumerate_information_states(env):
    """Collect the information state seen at each decision point."""
    states = {}
    for episode in decision_points(env):
        player = episode.player
        key = episode.observation(player)
        description = (
            episode.first_player,
            player,
            episode.privates[player],
            episode.public,
            tuple(episode.round_actions[0]),
            tuple(episode.round_actions[1]),
        )
        if key in states:
            assert states[key] == description, "key collision for distinct states"
        else:
            states[key] = description
    return states


def test_key_injectivity_exhaustive(env):
    states = enumerate_information_states(env)
    # Injectivity is asserted inside the walk; the reachable count is fixed.
    assert len(states) == 1872


def reference_encode(player, private_card, public_card, round1_actions, round2_actions):
    """The numpy encoder the lookup-table encoder replaced: a float vector,
    rendered one byte per entry."""
    vector = np.zeros(30)
    vector[player] = 1.0
    vector[2 + private_card] = 1.0
    if public_card is not None:
        vector[8 + public_card] = 1.0
    bits = {CALL: (0, 1), RAISE: (1, 0)}
    for offset, actions in zip((14, 22), (round1_actions, round2_actions)):
        for slot, action in enumerate(actions):
            vector[offset + 2 * slot : offset + 2 * slot + 2] = bits[action]
    return bytes(vector.astype(np.uint8))


def test_encoding_equals_numpy_reference_exhaustive(env):
    checked = 0
    for episode in decision_points(env):
        for player in (0, 1):
            key = episode.observation(player)
            assert type(key) is bytes
            assert key == reference_encode(
                player,
                episode.privates[player],
                episode.public,
                episode.round_actions[0],
                episode.round_actions[1],
            )
            checked += 1
    assert checked == 2 * 240 * 36  # both players, 240 seated deals x 36 decisions


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(0, 2**63 - 1), st.integers(0, 1))
def test_reset_deals_the_deal_one_random_draw_picks(seed, first):
    # Deal int(u * 120) of the ordered (private0, private1, public) triples of
    # distinct cards, in lexicographic order, for one rng.random() u.
    triples = list(itertools.permutations(range(6), 3))
    rng, replay = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(3):
        state = LeducEnv().reset(rng, first_player=first)
        private0, private1, public = triples[int(replay.random() * 120)]
        assert state.privates == (private0, private1)
        assert state.player == first
        state.step(CALL)
        state.step(CALL)  # round two: the public card is shown
        assert state.public == public
    assert rng.bit_generator.state == replay.bit_generator.state


def test_non_terminal_rewards_are_read_only_zeros(env):
    state = env.deal(0, 2, 4)
    rewards = state.step(RAISE)
    assert not state.terminal
    assert np.array_equal(rewards, [0.0, 0.0])
    with pytest.raises(ValueError):
        rewards += 1.0


def test_zero_sum_random_policies(env):
    rng = np.random.default_rng(0)
    policies = [uniform_random_policy(3), uniform_random_policy(3)]
    for ep in range(2_000):
        returns = simulate_episode(env, policies, rng, first_player=ep % 2)
        assert returns.sum() == 0.0


def test_call_always_policies_zero_sum(env):
    returns = simulate_episode(
        env, [pure_action_policy(3, CALL)] * 2, np.random.default_rng(3)
    )
    assert returns.sum() == 0.0


def test_action_slots_never_exceed_four(env):
    for seat in range(2):
        for key in seat_keys(env, seat)[0]:
            for offset in (14, 22):
                bits = key[offset : offset + 8]
                slots = [sum(bits[2 * s : 2 * s + 2]) for s in range(4)]
                assert all(s <= 1 for s in slots)


def test_raise_cap_and_fold_legality(env):
    state = env.deal(0, 2, 4)
    assert state.legal_actions(0) == (CALL, RAISE)  # no outstanding bet: no fold
    state.step(RAISE)
    assert state.legal_actions(1) == (FOLD, CALL, RAISE)
    state.step(RAISE)
    assert state.legal_actions(0) == (FOLD, CALL)  # two raises: cap reached
    state.step(CALL)
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
    assert state.player == 1
    # second player to move sees the opener's action in the sequence
    state.step(CALL)
    assert state.player == 0
    assert list(state.observation(0)[14:16]) == [0, 1]


# ---------------------------------------------------------------------------
# The compiled betting tree against the step-by-step dynamics it replaced
# ---------------------------------------------------------------------------


class ReferenceLeduc:
    """The mutable-state Leduc dynamics the compiled tree replaced."""

    def __init__(self, privates, public, first_player):
        self.privates = privates
        self.hidden_public = public
        self.public = None
        self.first_player = first_player
        self.round_index = 0
        self.contributions = [1, 1]
        self.round_contrib = [0, 0]
        self.current_bet = 0
        self.raises_made = 0
        self.round_actions = ([], [])
        self.terminal = False
        self.fold_winner = None
        self.player = first_player

    def legal_actions(self, player):
        facing_bet = self.current_bet > self.round_contrib[player]
        raises = (RAISE,) if self.raises_made < 2 else ()
        return ((FOLD,) if facing_bet else ()) + (CALL,) + raises

    def step(self, action):
        player = self.player
        opponent = 1 - player
        if action == FOLD:
            self.terminal = True
            self.fold_winner = opponent
            self.player = None
            return self.terminal_rewards()
        sequence = self.round_actions[self.round_index]
        opening_action = not sequence
        sequence.append(action)
        if action == CALL:
            owed = self.current_bet - self.round_contrib[player]
            self.round_contrib[player] += owed
            self.contributions[player] += owed
            if opening_action:
                self.player = opponent
            else:
                self.end_round()
        else:
            target = self.current_bet + (2, 4)[self.round_index]
            owed = target - self.round_contrib[player]
            self.round_contrib[player] += owed
            self.contributions[player] += owed
            self.current_bet = target
            self.raises_made += 1
            self.player = opponent
        if self.terminal:
            return self.terminal_rewards()
        return np.zeros(2)

    def end_round(self):
        if self.round_index == 0:
            self.round_index = 1
            self.public = self.hidden_public
            self.round_contrib = [0, 0]
            self.current_bet = 0
            self.raises_made = 0
            self.player = self.first_player
        else:
            self.terminal = True
            self.player = None

    def terminal_rewards(self):
        pot = sum(self.contributions)
        winner = self.fold_winner if self.fold_winner is not None else self.showdown_winner()
        rewards = np.zeros(2)
        if winner is None:
            for p in range(2):
                rewards[p] = pot / 2 - self.contributions[p]
        else:
            rewards[winner] = pot - self.contributions[winner]
            rewards[1 - winner] = -self.contributions[1 - winner]
        return rewards

    def showdown_winner(self):
        board = self.hidden_public // 2
        r0, r1 = self.privates[0] // 2, self.privates[1] // 2
        if (r0 == board) != (r1 == board):
            return 0 if r0 == board else 1
        if r0 != r1:
            return 0 if r0 > r1 else 1
        return None


def assert_same_state(episode, reference):
    assert episode.player == reference.player
    assert episode.terminal == reference.terminal
    assert episode.contributions == reference.contributions
    assert episode.round_index == reference.round_index
    assert episode.current_bet == reference.current_bet
    assert episode.public == reference.public
    assert episode.privates == reference.privates
    assert episode.first_player == reference.first_player
    assert episode.round_actions == tuple(map(tuple, reference.round_actions))
    for player in (0, 1):
        assert episode.legal_actions(player) == reference.legal_actions(player)


def test_tree_equals_reference_dynamics_exhaustive(env):
    nodes = terminals = 0

    def walk(episode, reference):
        nonlocal nodes, terminals
        assert_same_state(episode, reference)
        nodes += 1
        if episode.terminal:
            return
        player = episode.player
        for action in reference.legal_actions(player):
            child, ref_child = copy.deepcopy(episode), copy.deepcopy(reference)
            rewards = child.step(action)
            ref_rewards = ref_child.step(action)
            assert rewards.dtype == ref_rewards.dtype
            assert np.array_equal(rewards, ref_rewards)
            terminals += child.terminal
            walk(child, ref_child)

    for first in (0, 1):
        for c0, c1, public in itertools.permutations(range(6), 3):
            walk(env.deal(c0, c1, public, first), ReferenceLeduc((c0, c1), public, first))
    # 120 deals x 2 seatings, each with 36 decision and 49 terminal nodes.
    assert (nodes, terminals) == (240 * 85, 240 * 49)


def test_fold_with_no_bet_outstanding_is_illegal(env):
    state = env.deal(0, 2, 4)
    with pytest.raises(IllegalAction):
        state.step(FOLD)
    assert not state.terminal and state.player == 0  # the episode is unchanged


def test_third_raise_in_a_round_is_illegal(env):
    state, _ = play(env, [RAISE, RAISE])
    with pytest.raises(IllegalAction):
        state.step(RAISE)
    state, _ = play(env, [CALL, CALL, RAISE, RAISE])
    with pytest.raises(IllegalAction):
        state.step(RAISE)


def test_training_against_an_illegal_opponent_raises(env):
    hparams = OracleHParams(total_timesteps=200, exploration_timesteps=100)
    with pytest.raises(IllegalAction):
        train_best_response(
            env, 0, {1: pure_action_policy(3, FOLD)}, hparams, np.random.default_rng(0)
        )


def test_terminal_rewards_are_shared_and_read_only(env):
    def fold_rewards(deal):
        state = env.deal(*deal)
        state.step(RAISE)
        return state.step(FOLD)

    rewards = fold_rewards((0, 2, 4))
    assert np.array_equal(rewards, [1.0, -1.0])
    with pytest.raises(ValueError):
        rewards[0] = 0.0
    assert fold_rewards((1, 3, 5)) is rewards  # one vector per terminal node and outcome


def test_deepcopy_steps_independently(env):
    state = env.deal(0, 2, 4)
    state.step(RAISE)
    clone = copy.deepcopy(state)
    clone.step(FOLD)
    assert clone.terminal and not state.terminal
    assert state.player == 1 and state.legal_actions(1) == (FOLD, CALL, RAISE)
    state.step(CALL)
    assert state.round_index == 1 and clone.round_index == 0
    assert state.contributions == [3, 3] and clone.contributions == [3, 1]


def test_shared_observation_features_are_read_only(env):
    first = env.deal(0, 2, 4).observation(0)
    again = env.deal(0, 3, 5).observation(0)  # same key: round one hides the public card
    assert again is first  # one interned, immutable key object
    assert leduc_encode(0, 0, None, [], []) is first
