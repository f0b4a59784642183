"""Exact Leduc values (psromix.exact) against a plain per-deal recursion.

The recursion below plays every deal of every seating through the public
episode API, one state at a time, the way ``ReferenceLeduc`` in
``test_leduc.py`` replays the rules: it shares no code with the vectorized
walk it checks.
"""

import copy
import gc
import itertools
import time
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psromix import exact
from psromix.engine import RunConfig, run_algorithm
from psromix.envs import LeducEnv, estimate_payoffs
from psromix.envs.leduc import CALL, FOLD, RAISE
from psromix.errors import IllegalAction
from psromix.exact import analytic_payoffs, exact_best_response, has_exact_values
from psromix.policies import (
    FixedMixturePolicy,
    QTable,
    ValuePolicy,
    greedy_over,
    uniform_random_policy,
)
from psromix.qmixing import combine_opponents
from psromix.serialize import policy_to_text

ENV = LeducEnv()
DEALS = list(itertools.permutations(range(6), 3))
GAMES = [(first, cards) for first in (0, 1) for cards in DEALS]  # equally likely


def starts():
    return [ENV.deal(*cards, first_player=first) for first, cards in GAMES]


def play(state, action):
    child = copy.deepcopy(state)
    reward = child.step(action)
    return child, reward


def reference_value(policies) -> np.ndarray:
    def value(state):
        if state.terminal:
            return np.zeros(2)
        player = state.player
        legal = state.legal_actions(player)
        probs = policies[player].action_probabilities(state.observation(player), legal)
        total = np.zeros(2)
        for action in legal:
            if probs[action]:
                child, reward = play(state, action)
                total += probs[action] * (reward + value(child))
        return total

    return sum(value(state) for state in starts()) / len(GAMES)


def reference_best_response(learner, components):
    """Per-key action values and best actions, and the response's value.

    ``components`` is a list of (opponent policy, weight). A key's action
    value sums, over its states, chance x sum_k weight_k x reach_k x the
    learner's return under component k; the learner plays its best action
    at every deeper key.
    """
    policies = [policy for policy, _ in components]
    weights = np.array([weight for _, weight in components])
    occurrences = {}  # learner key -> [(state, per-component reach)]

    def collect(game, state, reach):
        if state.terminal:
            return
        player = state.player
        key = state.observation(player)
        legal = state.legal_actions(player)
        if player == learner:
            occurrences.setdefault(key, []).append((game, state, reach))
            for action in legal:
                collect(game, play(state, action)[0], reach)
        else:
            probs = np.array([p.action_probabilities(key, legal) for p in policies])
            for action in legal:
                collect(game, play(state, action)[0], reach * probs[:, action])

    roots = starts()
    for game, state in enumerate(roots):
        collect(game, state, np.ones(len(policies)))

    best: dict[bytes, int] = {}
    action_values: dict[bytes, np.ndarray] = {}
    memo = {}

    def value(game, state):  # learner's return per component, best play below
        ident = (game, state.round_actions, state.terminal)  # a fold takes no slot
        if ident not in memo:
            memo[ident] = _value(game, state)
        return memo[ident]

    def _value(game, state):
        if state.terminal:
            return np.zeros(len(policies))
        player = state.player
        key = state.observation(player)
        legal = state.legal_actions(player)
        if player == learner:
            child, reward = play(state, choose(key))
            return reward[learner] + value(game, child)
        total = np.zeros(len(policies))
        probs = np.array([p.action_probabilities(key, legal) for p in policies])
        for action in legal:
            child, reward = play(state, action)
            total += probs[:, action] * (reward[learner] + value(game, child))
        return total

    def choose(key):
        if key not in best:
            q = np.zeros(3)
            for game, state, reach in occurrences[key]:
                for action in state.legal_actions(learner):
                    child, reward = play(state, action)
                    q[action] += np.sum(weights * reach * (reward[learner] + value(game, child)))
            q /= len(GAMES)
            action_values[key] = q
            best[key] = greedy_over(q, state.legal_actions(learner))
        return best[key]

    for key in occurrences:
        choose(key)
    total = sum(float(weights @ value(g, state)) for g, state in enumerate(roots)) / len(GAMES)
    return action_values, best, total


def information_states(seat):
    """Every key at which ``seat`` acts, with its legal actions."""
    found = {}

    def walk(state):
        if state.terminal:
            return
        player = state.player
        if player == seat:
            found[state.observation(player)] = state.legal_actions(player)
        for action in state.legal_actions(player):
            walk(play(state, action)[0])

    for state in starts():
        walk(state)
    return found


KEYS = [information_states(seat) for seat in (0, 1)]


def random_value_table(rng, seat):
    """Values in {-1, 0, 1} on a random subset of the seat's keys: many ties."""
    keys = [key for key in KEYS[seat] if rng.random() < 0.7]
    return QTable(3, {key: rng.integers(-1, 2, size=3).astype(float) for key in keys})


def random_policy(rng, seat):
    kind = rng.integers(3)
    if kind == 0:
        epsilon = float(rng.choice([0.0, 0.2, 1.0]))
        return ValuePolicy(random_value_table(rng, seat), epsilon=epsilon)
    if kind == 1:
        return FixedMixturePolicy([0.0, 1.0, 0.0])  # CALL is always legal
    parts = [ValuePolicy(random_value_table(rng, seat)) for _ in range(2)]
    return combine_opponents(parts, [0.3, 0.7])  # a ValuePolicy over a MixedQPolicy


@settings(max_examples=20, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1))
def test_profile_value_equals_the_reference_recursion(seed):
    rng = np.random.default_rng(seed)
    policies = [random_policy(rng, seat) for seat in (0, 1)]
    assert analytic_payoffs(ENV, policies) == pytest.approx(reference_value(policies), abs=1e-12)


@settings(max_examples=10, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.integers(0, 1), st.integers(1, 3))
def test_best_response_equals_the_reference_recursion(seed, learner, size):
    rng = np.random.default_rng(seed)
    opponents = [random_policy(rng, 1 - learner) for _ in range(size)]
    weights = rng.dirichlet(np.ones(size))
    if size > 1:
        weights[0] = 0.0  # a zero-weight component changes nothing
        weights /= weights.sum()
    response, value = exact_best_response(ENV, learner, {1 - learner: (opponents, weights)})
    q_ref, best_ref, value_ref = reference_best_response(learner, list(zip(opponents, weights)))

    assert value == pytest.approx(value_ref, abs=1e-12)
    assert set(q_ref) == set(KEYS[learner])
    assert set(response.q.known_keys()) == {key for key, q in q_ref.items() if q.any()}
    for key, q in q_ref.items():
        legal = KEYS[learner][key]
        values = response.q.lookup(key)
        assert values[list(legal)] == pytest.approx(q[list(legal)], abs=1e-12)
        ordered = np.sort(q[list(legal)])
        if len(ordered) == 1 or ordered[-1] - ordered[-2] > 1e-9:
            assert response.greedy_action(key, legal) == best_ref[key]
    # The response's own exact value against the mixture is the value returned.
    mixed = sum(
        w * analytic_payoffs(ENV, [response, o][:: 1 - 2 * learner])[learner]
        for o, w in zip(opponents, weights)
    )
    assert mixed == pytest.approx(value, abs=1e-12)


def test_uniform_random_nash_conv():
    # OpenSpiel's exploitability.nash_conv of uniform random Leduc.
    uniform = [uniform_random_policy(3), uniform_random_policy(3)]
    values = [exact_best_response(ENV, p, {1 - p: uniform[1 - p]})[1] for p in (0, 1)]
    assert sum(values) == pytest.approx(4.747222222, abs=1e-9)
    assert analytic_payoffs(ENV, uniform) == pytest.approx([0.0, 0.0], abs=1e-12)


def test_repeated_calls_return_the_same_bits():
    rng = np.random.default_rng(3)
    policies = [random_policy(rng, seat) for seat in (0, 1)]
    mixture = ([random_policy(rng, 1) for _ in range(3)], [0.5, 0.25, 0.25])
    # Calls after the first reuse the kept tables; the copies build fresh ones.
    payoffs = [analytic_payoffs(ENV, policies) for _ in range(3)]
    payoffs.append(analytic_payoffs(ENV, copy.deepcopy(policies)))
    assert len({value.tobytes() for value in payoffs}) == 1
    responses = [exact_best_response(ENV, 0, {1: mixture}) for _ in range(3)]
    responses.append(exact_best_response(ENV, 0, {1: copy.deepcopy(mixture)}))
    assert len({policy_to_text(policy) for policy, _ in responses}) == 1
    assert len({value for _, value in responses}) == 1


def test_exact_values_agree_with_simulation():
    rng = np.random.default_rng(8)
    policies = [ValuePolicy(random_value_table(rng, seat), epsilon=0.3) for seat in (0, 1)]
    episodes = 20_000
    simulated = estimate_payoffs(ENV, policies, episodes, np.random.default_rng(9))
    # Returns lie within the 13-chip pot, so 4 standard errors are under 0.37.
    assert np.abs(simulated - analytic_payoffs(ENV, policies)).max() < 4 * 13 / np.sqrt(episodes)


def test_keys_the_opponent_never_reaches_play_the_lowest_legal_action():
    always_call = FixedMixturePolicy([0.0, 1.0, 0.0])
    response, _ = exact_best_response(ENV, 0, {1: always_call})
    # The opponent never raises, so no key where player 0 faces a bet from
    # it is reached: those keys are left out of the table, and the response
    # folds there.
    facing_a_bet = [key for key, legal in KEYS[0].items() if legal[0] == FOLD]
    assert facing_a_bet
    assert not set(facing_a_bet) & set(response.q.known_keys())
    for key in facing_a_bet:
        assert response.greedy_action(key, KEYS[0][key]) == FOLD
    # At the root of seating 0 the response bets into the caller.
    root = ENV.deal(4, 0, 2, first_player=0)
    assert response.greedy_action(root.observation(0), (CALL, RAISE)) == RAISE


def test_a_leduc_psro_run_builds_each_table_once(monkeypatch):
    built = []
    batch = ValuePolicy.action_probability_table

    def counted(policy, keys, legal_mask):
        seats = exact._leduc_index().keys
        built.append((policy, next(s for s in (0, 1) if keys is seats[s])))
        return batch(policy, keys, legal_mask)

    monkeypatch.setattr(ValuePolicy, "action_probability_table", counted)
    config = RunConfig(
        env="leduc", algorithm="psro", oracle="exact", analytic_cells=True, epochs=3, seed=0
    )
    record = run_algorithm(config)
    sets = record.game.strategy_sets
    expected = {(policy, seat) for seat, policies in enumerate(sets) for policy in policies}
    assert len(built) == len(set(built)) and set(built) == expected


def test_a_policy_s_tables_are_dropped_with_it():
    rng = np.random.default_rng(4)
    policy = ValuePolicy(random_value_table(rng, 0))
    opponent = ValuePolicy(random_value_table(rng, 1))
    analytic_payoffs(ENV, [policy, opponent])
    gc.collect()
    kept = len(exact._TABLES)
    assert policy in exact._TABLES
    alive = weakref.ref(policy)
    del policy
    gc.collect()
    assert alive() is None
    assert len(exact._TABLES) == kept - 1


def test_illegal_probability_is_rejected():
    with pytest.raises(IllegalAction):
        analytic_payoffs(ENV, [FixedMixturePolicy([0.2, 0.8, 0.0]), uniform_random_policy(3)])


def test_leduc_has_exact_values():
    assert has_exact_values(ENV)


def test_best_response_to_thirty_strategies_is_fast():
    rng = np.random.default_rng(30)
    opponents = [ValuePolicy(random_value_table(rng, 1)) for _ in range(30)]
    weights = rng.dirichlet(np.ones(30))
    exact_best_response(ENV, 0, {1: (opponents[:1], [1.0])})  # builds the tree index
    start = time.perf_counter()
    exact_best_response(ENV, 0, {1: (opponents, weights)})
    # About 20 ms on a 2-CPU host; the bound leaves room for a slow machine.
    assert time.perf_counter() - start < 0.5
