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
from psromix.serialize import POLICY_HEADER, policy_from_text, policy_to_text

KEY = MATRIX_OBSERVATION
LEGAL = (0, 1, 2)


def value_policy(values, epsilon=0.0):
    return ValuePolicy(QTable(len(values), {KEY: values}), epsilon=epsilon)


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
    seen = QTable(2, {b"a": [1.0, 2.0]})
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
            tables.append(QTable(4, {k: rng.normal(size=4) for k in keys if rng.random() < 0.7}))
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
    default = draw(finite)
    rows = {
        key: draw(st.lists(finite, min_size=3, max_size=3))
        for key in MIX_KEYS
        if draw(st.booleans())
    }
    return QTable(3, rows, default)


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


# Tables over any finite float (repr writes every NaN as the same "nan", and
# infinities in a mixture sum to NaN), the extremes always among the
# choices, with or without keys.
EXTREMES = [-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308]
any_value = st.one_of(st.sampled_from(EXTREMES), st.floats(allow_nan=False, allow_infinity=False))
any_key = st.binary(max_size=3)  # the empty key included


@st.composite
def plain_tables(draw, action_count):
    keys = draw(st.lists(any_key, unique=True, max_size=6))
    row = st.lists(any_value, min_size=action_count, max_size=action_count)
    return QTable(action_count, {key: draw(row) for key in keys}, draw(any_value))


@st.composite
def stored_tables(draw):
    """A plain table, possibly empty, or a mixture of such tables; no
    action at all is an edge case the writer keeps too."""
    action_count = draw(st.integers(0, 4))
    if draw(st.booleans()):
        return draw(plain_tables(action_count))
    inner = draw(st.lists(plain_tables(action_count), min_size=1, max_size=3))
    return MixedQPolicy(inner, draw(random_weights(len(inner))))


def per_key_policy_text(policy):
    """``policy_to_text`` for a value policy as written with one array per
    key: one lookup per key and one ``repr(float(v))`` per value."""
    table = policy.q
    keys = sorted(table.known_keys())
    lines = [POLICY_HEADER]
    lines.append("kind value")
    lines.append(f"epsilon {policy.epsilon!r}")
    lines.append(f"actions {table.action_count}")
    lines.append(f"default {float(table.default_value)!r}")
    lines.append(f"table {len(keys)}")
    for key in keys:
        values = table.lookup(key)
        lines.append("key " + key.hex() + " " + " ".join(repr(float(v)) for v in values))
    return "\n".join(lines) + "\n"


def row_bits(table, keys):
    return [table.lookup(key).tobytes() for key in keys]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(stored_tables(), st.sampled_from([0.0, 0.1, 1.0]))
def test_policy_text_equals_the_per_key_writer(table, epsilon):
    policy = ValuePolicy(table, epsilon=epsilon)
    assert policy_to_text(policy) == per_key_policy_text(policy)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(stored_tables())
def test_policy_text_reads_back_the_same_keys_and_bits(table):
    loaded = policy_from_text(policy_to_text(ValuePolicy(table))).q
    keys = sorted(table.known_keys())
    assert list(loaded.known_keys()) == keys
    assert row_bits(loaded, keys + [UNSEEN]) == row_bits(table, keys + [UNSEEN])
    assert loaded.rows.shape == (len(keys), table.action_count)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(stored_tables(), st.data())
def test_rows_for_equals_stacked_lookups(table, data):
    known = sorted(table.known_keys())
    pool = st.sampled_from(known) | any_key if known else any_key
    keys = data.draw(st.lists(pool, max_size=10))
    rows = table.rows_for(keys)
    stacked = np.array([table.lookup(key) for key in keys]).reshape(len(keys), table.action_count)
    assert rows.shape == stacked.shape and rows.tobytes() == stacked.tobytes()


@settings(max_examples=100, deadline=None, derandomize=True)
@given(stored_tables())
def test_pickle_keeps_keys_bits_and_read_only_rows(table):
    copy = pickle.loads(pickle.dumps(table))
    keys = list(table.known_keys())
    assert list(copy.known_keys()) == keys
    assert row_bits(copy, keys + [UNSEEN]) == row_bits(table, keys + [UNSEEN])
    assert copy.rows.tobytes() == table.rows.tobytes()
    assert not copy.rows.flags.writeable
    assert all(not copy.lookup(key).flags.writeable for key in keys + [UNSEEN])


def test_values_is_a_read_only_view_of_the_rows():
    table = QTable(3, {b"a": [1.0, 2.0, 3.0], b"b": [4.0, 5.0, 6.0]}, default_value=-1.0)
    assert np.shares_memory(table.values[b"b"], table.rows)
    assert table.values[b"b"].tolist() == table.rows[1].tolist() == [4.0, 5.0, 6.0]
    with pytest.raises(TypeError):
        table.values[b"c"] = np.zeros(3)
    with pytest.raises(ValueError):
        table.values[b"a"][0] = 9.0
    with pytest.raises(ValueError):
        table.rows[0, 0] = 9.0
    assert table.rows_for([b"b", b"zz"]).tolist() == [[4.0, 5.0, 6.0], [-1.0, -1.0, -1.0]]


def test_from_rows_checks_shape_and_repeats():
    table = QTable.from_rows(2, [b"x", b"y"], np.array([[1.0, 2.0], [3.0, 4.0]]), 0.5)
    assert table.lookup(b"y").tolist() == [3.0, 4.0]
    assert table.lookup(b"z").tolist() == [0.5, 0.5]
    with pytest.raises(ValueError, match="shape"):
        QTable.from_rows(3, [b"x", b"y"], np.zeros((2, 2)))
    with pytest.raises(ValueError, match="repeated"):
        QTable.from_rows(2, [b"x", b"x"], np.zeros((2, 2)))
    with pytest.raises(ValueError, match="shape"):
        QTable(3, {b"x": [1.0, 2.0]})


def test_permutation_invariance():
    rng = np.random.default_rng(5)
    tables = [QTable(3, {KEY: rng.normal(size=3)}) for _ in range(3)]
    weights = np.array([0.2, 0.3, 0.5])
    forward = MixedQPolicy(tables, weights).lookup(KEY)
    perm = [2, 0, 1]
    shuffled = MixedQPolicy([tables[i] for i in perm], weights[perm]).lookup(KEY)
    assert np.allclose(forward, shuffled, atol=1e-15)


def test_constant_shift_preserves_greedy():
    rng = np.random.default_rng(6)
    tables = [QTable(3, {KEY: rng.normal(size=3)}) for _ in range(2)]
    weights = [0.4, 0.6]
    base = MixedQPolicy(tables, weights).lookup(KEY)
    shifted_tables = [
        QTable(3, {KEY: t.lookup(KEY) + 7.25}, t.default_value + 7.25) for t in tables
    ]
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
