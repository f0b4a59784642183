import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psromix.envs import MATRIX_OBSERVATION
from psromix.errors import MissingResponse, NotValueBased
from psromix.policies import (
    FixedMixturePolicy,
    QTable,
    ValuePolicy,
    pure_action_policy,
    uniform_random_policy,
)
from psromix.qmixing import MixedQPolicy, combine_opponents, combine_responses
from psromix.serialize import policy_from_text, policy_to_text

KEY = MATRIX_OBSERVATION
LEGAL = (0, 1, 2)


def value_policy(values, epsilon=0.0):
    table = QTable(len(values))
    table.set(KEY, np.asarray(values, dtype=float))
    return ValuePolicy(table, epsilon=epsilon)


Q21 = (0.7, 0.15, 0.65)
Q22 = (0.2, 0.7, 0.6)


def test_greedy_lowest_index_tie_break():
    policy = value_policy([0.5, 0.5, 0.5])
    assert policy.greedy_action(MATRIX_OBSERVATION, LEGAL) == 0
    policy2 = value_policy([0.1, 0.9, 0.9])
    assert policy2.greedy_action(MATRIX_OBSERVATION, LEGAL) == 1


def test_unseen_key_uses_default_and_greedy_zero():
    table = QTable(3, default_value=0.25)
    policy = ValuePolicy(table)
    assert np.array_equal(table.lookup(b"unknown"), [0.25] * 3)
    assert policy.greedy_action(MATRIX_OBSERVATION, LEGAL) == 0


def test_greedy_respects_legal_mask():
    policy = value_policy([9.0, 1.0, 2.0])
    assert policy.greedy_action(MATRIX_OBSERVATION, (1, 2)) == 2


def test_epsilon_one_is_uniform_over_legal():
    policy = uniform_random_policy(3)
    probs = policy.action_probabilities(MATRIX_OBSERVATION, (0, 2))
    assert probs == pytest.approx([0.5, 0.0, 0.5])


def test_fixed_mixture_action_sampling():
    policy = FixedMixturePolicy([0.0, 0.3, 0.7])
    rng = np.random.default_rng(0)
    draws = [policy.act(MATRIX_OBSERVATION, LEGAL, rng) for _ in range(5_000)]
    assert 0 not in draws
    assert np.mean([a == 2 for a in draws]) == pytest.approx(0.7, abs=0.02)


def test_mixed_q_degenerate_weight_one():
    mixture = MixedQPolicy([value_policy(Q21).q, value_policy(Q22).q], [1.0, 0.0])
    assert np.array_equal(mixture.lookup(MATRIX_OBSERVATION), np.asarray(Q21))


def test_mixed_q_reference_weights():
    mixture = MixedQPolicy([value_policy(Q21).q, value_policy(Q22).q], [0.52, 0.48])
    values = mixture.lookup(MATRIX_OBSERVATION)
    assert values == pytest.approx([0.46, 0.414, 0.626], abs=1e-12)
    assert int(np.argmax(values)) == 2  # scissors


def test_mixed_q_even_weights():
    mixture = MixedQPolicy([value_policy(Q21).q, value_policy(Q22).q], [0.5, 0.5])
    assert mixture.lookup(MATRIX_OBSERVATION) == pytest.approx([0.45, 0.425, 0.625])


def test_mixed_q_unseen_keys_use_component_defaults():
    seen = QTable(2)
    seen.set(b"a", np.array([1.0, 2.0]))
    unseen = QTable(2, default_value=0.5)
    mixture = MixedQPolicy([seen, unseen], [0.6, 0.4])
    assert mixture.lookup(b"a") == pytest.approx([0.6 * 1.0 + 0.4 * 0.5, 0.6 * 2.0 + 0.4 * 0.5])


def test_linearity_and_degenerate_identity_randomized():
    rng = np.random.default_rng(21)
    keys = [bytes([k]) for k in range(6)]
    for _ in range(1_000):
        n_components = int(rng.integers(1, 5))
        tables = []
        for _ in range(n_components):
            table = QTable(4)
            for key in keys:
                if rng.random() < 0.7:
                    table.set(key, rng.normal(size=4))
            tables.append(table)
        weights = rng.dirichlet(np.ones(n_components))
        mixture = MixedQPolicy(tables, weights)
        key = keys[int(rng.integers(len(keys)))]
        expected = np.zeros(4)
        for w, t in zip(weights, tables):
            expected = expected + w * t.lookup(key)
        assert np.abs(mixture.lookup(key) - expected).max() < 1e-12
        # weight-1 on a single component reproduces it exactly
        solo = np.zeros(n_components)
        solo[int(rng.integers(n_components))] = 1.0
        solo_mixture = MixedQPolicy(tables, solo)
        chosen = tables[int(np.argmax(solo))]
        assert np.array_equal(solo_mixture.lookup(key), chosen.lookup(key))


def test_mixture_default_survives_save_and_load():
    mixture = MixedQPolicy([QTable(2, default_value=0.5), QTable(2, default_value=2.0)], [0.5, 0.5])
    assert mixture.default_value == 1.25
    assert np.array_equal(mixture.lookup(b"unseen"), [1.25, 1.25])
    loaded = policy_from_text(policy_to_text(ValuePolicy(mixture)))
    assert loaded.q.default_value == 1.25
    assert np.array_equal(loaded.q.lookup(b"unseen"), [1.25, 1.25])


MIX_KEYS = [bytes([k]) for k in range(5)]
UNSEEN = b"unseen"
finite = st.floats(min_value=-4, max_value=4, allow_nan=False)


@st.composite
def random_tables(draw):
    table = QTable(3, default_value=draw(finite))
    for key in MIX_KEYS:
        if draw(st.booleans()):
            table.set(key, np.array(draw(st.lists(finite, min_size=3, max_size=3))))
    return table


@st.composite
def random_weights(draw, n):
    raw = np.array(draw(st.lists(st.floats(0, 1), min_size=n, max_size=n)))
    if raw.sum() == 0.0:
        raw[0] = 1.0
    return raw / raw.sum()


@st.composite
def random_mixtures(draw):
    """A mixture of random tables, one component possibly itself a mixture."""
    tables = draw(st.lists(random_tables(), min_size=1, max_size=4))
    if draw(st.booleans()):
        inner = draw(st.lists(random_tables(), min_size=1, max_size=3))
        tables.append(MixedQPolicy(inner, draw(random_weights(len(inner)))))
    return MixedQPolicy(tables, draw(random_weights(len(tables))))


def summed_lookup(table, key):
    """The per-call weighted sum, recursing into nested mixtures."""
    if not isinstance(table, MixedQPolicy):
        return table.lookup(key)
    total = np.zeros(table.action_count)
    for weight, component in zip(table.weights, table.components):
        total += weight * summed_lookup(component, key)
    return total


@settings(max_examples=200, deadline=None, derandomize=True)
@given(random_mixtures())
def test_flattened_mixture_equals_per_call_sum(mixture):
    loaded = policy_from_text(policy_to_text(ValuePolicy(mixture))).q
    for key in MIX_KEYS + [UNSEEN]:
        values = mixture.lookup(key)
        assert np.array_equal(values, summed_lookup(mixture, key))
        assert not values.flags.writeable
        assert np.array_equal(loaded.lookup(key), values)
    assert np.array_equal(mixture.lookup(UNSEEN), np.full(3, mixture.default_value))


@settings(max_examples=50, deadline=None, derandomize=True)
@given(random_mixtures())
def test_mixture_unpickles_as_a_table_with_the_same_lookups(mixture):
    copy = pickle.loads(pickle.dumps(mixture))
    assert type(copy) is QTable and list(copy.known_keys()) == list(mixture.known_keys())
    assert copy.default_value == mixture.default_value
    for key in MIX_KEYS + [UNSEEN]:
        assert copy.lookup(key).tobytes() == mixture.lookup(key).tobytes()


LEGAL_SETS = [(1,), (1, 2), (0, 1), (0, 1, 2), (0,), (0, 2), (2,)]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    st.lists(
        st.tuples(
            st.lists(
                st.sampled_from([-1.0, 0.0, 0.5, 1.0, np.inf, np.nan]), min_size=3, max_size=3
            ),
            st.sampled_from(LEGAL_SETS),
        ),
        min_size=1,
        max_size=12,
    ),
    st.sampled_from([0.0, 0.03, 0.3, 1.0]),
)
def test_action_probability_table_equals_per_key_probabilities(rows, epsilon):
    # Few distinct values, so ties, infinities and NaNs are common.
    keys = [bytes([i]) for i in range(len(rows))]
    table = QTable(3, {key: values for key, (values, _) in zip(keys, rows)})
    legal_mask = np.array([[a in legal for a in range(3)] for _, legal in rows])
    for policy in (
        ValuePolicy(table, epsilon=epsilon),
        FixedMixturePolicy([epsilon, 0.0, 1.0 - epsilon]),
    ):
        batch = policy.action_probability_table(keys, legal_mask)
        expected = [policy.action_probabilities(key, legal) for key, (_, legal) in zip(keys, rows)]
        assert batch.tobytes() == np.array(expected).tobytes()


@settings(max_examples=50, deadline=None, derandomize=True)
@given(random_tables())
def test_qtable_default_is_shared_read_only(table):
    default = table.lookup(UNSEEN)
    assert not default.flags.writeable
    assert table.lookup(b"other unseen") is default
    assert np.array_equal(default, np.full(3, table.default_value))


def test_permutation_invariance():
    rng = np.random.default_rng(5)
    tables = []
    for _ in range(3):
        t = QTable(3)
        t.set(KEY, rng.normal(size=3))
        tables.append(t)
    weights = np.array([0.2, 0.3, 0.5])
    forward = MixedQPolicy(tables, weights).lookup(KEY)
    perm = [2, 0, 1]
    shuffled = MixedQPolicy([tables[i] for i in perm], weights[perm]).lookup(KEY)
    assert np.allclose(forward, shuffled, atol=1e-15)


def test_constant_shift_preserves_greedy():
    rng = np.random.default_rng(6)
    tables = []
    for _ in range(2):
        t = QTable(3)
        t.set(KEY, rng.normal(size=3))
        tables.append(t)
    weights = [0.4, 0.6]
    base = MixedQPolicy(tables, weights).lookup(KEY)
    shifted_tables = []
    for t in tables:
        s = QTable(3, default_value=t.default_value + 7.25)
        s.set(KEY, t.lookup(KEY) + 7.25)
        shifted_tables.append(s)
    shifted = MixedQPolicy(shifted_tables, weights).lookup(KEY)
    assert np.allclose(shifted, base + 7.25, atol=1e-12)
    assert int(np.argmax(shifted)) == int(np.argmax(base))


def test_combine_responses_pure_solution():
    responses = [value_policy(Q21), value_policy(Q22)]
    combined = combine_responses(responses, np.array([1.0, 0.0]))
    assert np.array_equal(combined.q.lookup(KEY), np.asarray(Q21))
    assert combined.greedy_action(MATRIX_OBSERVATION, LEGAL) == 0


def test_combine_responses_uniform_average():
    responses = [value_policy(Q21), value_policy(Q22)]
    combined = combine_responses(responses, np.array([0.5, 0.5]))
    assert combined.q.lookup(KEY) == pytest.approx([0.45, 0.425, 0.625])


def test_combine_responses_missing_response():
    responses = [value_policy(Q21), None]
    with pytest.raises(MissingResponse):
        combine_responses(responses, np.array([0.5, 0.5]))
    # zero weight on the missing slot is fine
    combined = combine_responses(responses, np.array([1.0, 0.0]))
    assert combined.greedy_action(MATRIX_OBSERVATION, LEGAL) == 0


def test_combine_opponents_reference_example():
    opponents = [value_policy(Q21), value_policy(Q22)]
    combined = combine_opponents(opponents, np.array([0.52, 0.48]))
    assert combined.greedy_action(MATRIX_OBSERVATION, LEGAL) == 2


def test_combine_opponents_weight_one_identical_behaviour():
    opponent = value_policy(Q22)
    combined = combine_opponents([value_policy(Q21), opponent], np.array([0.0, 1.0]))
    assert np.array_equal(combined.q.lookup(KEY), opponent.q.lookup(KEY))
    assert combined.greedy_action(MATRIX_OBSERVATION, LEGAL) == opponent.greedy_action(
        MATRIX_OBSERVATION, LEGAL
    )


def test_combine_opponents_not_value_based():
    with pytest.raises(NotValueBased):
        combine_opponents([FixedMixturePolicy([1.0, 0.0, 0.0])], np.array([1.0]))
    # arbitrary zero-weight policies are allowed
    combined = combine_opponents(
        [value_policy(Q21), FixedMixturePolicy([1.0, 0.0, 0.0])], np.array([1.0, 0.0])
    )
    assert combined.greedy_action(MATRIX_OBSERVATION, LEGAL) == 0


def test_pure_action_policy_helper():
    policy = pure_action_policy(3, 2)
    assert policy.act(MATRIX_OBSERVATION, LEGAL, np.random.default_rng(0)) == 2
