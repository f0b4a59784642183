"""The fast random paths keep every stream bit for bit.

``bounded`` makes ``integers(n)``'s draw on a generator's ``next_uint32``,
and ``estimate_payoffs`` seeds a cell's episodes from ``episode_states``.
Each is checked against numpy itself: a twin ``Generator`` making the same
calls, numpy's ``SeedSequence``, and the per-episode ``derived_rng`` loop
that ``estimate_payoffs`` replaced.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psromix.envs import LeducEnv, rps_env
from psromix.envs.base import (
    bounded,
    derive_stream_seed,
    derived_rng,
    episode_states,
    estimate_payoffs,
    simulate_episode,
)
from psromix.policies import uniform_random_policy

# bounded(.., 1) draws nothing; 2**32 takes one raw 32-bit draw. Lemire's
# draw rejects a share of about ((2**32 - n) % n) / 2**32 of its draws:
# about half of them at 2**31 + 1, next to none at small n.
EDGE_BOUNDS = (1, 2, 3, 2**31 + 1, 3 * 2**30, 2**32 - 1, 2**32)

bounds = st.one_of(
    st.sampled_from(EDGE_BOUNDS), st.integers(1, 2**32), st.integers(2**31, 2**32)
)
calls = st.one_of(
    st.just(("random",)),
    st.tuples(st.just("integers"), bounds),
    st.tuples(st.just("shuffle"), st.integers(0, 9)),
    st.tuples(st.just("integers-array"), st.integers(1, 9), st.integers(0, 3)),
    st.just(("random-array",)),
)


def _bounded(rng, n):
    interface = rng.bit_generator.ctypes
    return bounded(interface.next_uint32, interface.state, n)


def _call(rng, call, integers):
    kind = call[0]
    if kind == "random":
        return rng.random()
    if kind == "integers":
        return integers(rng, call[1])
    if kind == "shuffle":
        items = list(range(call[1]))
        rng.shuffle(items)
        return items
    if kind == "integers-array":
        return rng.integers(call[1], size=call[2]).tolist()
    return rng.random(2).tolist()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(0, 2**64 - 1), st.lists(calls, max_size=40))
def test_draws_equal_a_twin_generator(seed, sequence):
    # bounded between the generator's own calls, which share its buffered
    # 32-bit half, against the twin's Generator.integers.
    twin, rng = np.random.default_rng(seed), np.random.default_rng(seed)
    for call in sequence:
        assert _call(rng, call, _bounded) == _call(twin, call, np.random.Generator.integers), call
    assert rng.bit_generator.state == twin.bit_generator.state


@pytest.mark.parametrize("n", EDGE_BOUNDS)
def test_draws_integers_at_the_edges(n):
    # Three calls, so later draws may come from the buffered 32-bit half.
    twin, rng = np.random.default_rng(n), np.random.default_rng(n)
    assert [_bounded(rng, n) for _ in range(3)] == [twin.integers(n) for _ in range(3)]
    assert rng.bit_generator.state == twin.bit_generator.state


def test_draws_integers_one_draws_nothing():
    def no_draw(state):
        raise AssertionError("bounded(.., 1) drew")

    rng = np.random.default_rng(5)
    before = rng.bit_generator.state
    assert bounded(no_draw, rng.bit_generator.ctypes.state, 1) == 0
    assert rng.bit_generator.state == before


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    st.one_of(st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**63 - 1]), st.integers(0, 2**160)),
    st.integers(1, 40),
)
def test_episode_states_equal_seed_sequence(base, episodes):
    states = episode_states(base, episodes)
    assert states.dtype == np.uint64 and states.shape == (episodes, 4)
    for ep in range(episodes):
        expected = np.random.SeedSequence([base, ep]).generate_state(4, np.uint64)
        assert states[ep].tolist() == expected.tolist()


def reference_estimate_payoffs(env, profile, episodes, rng):
    """``estimate_payoffs`` as it was: one ``derived_rng(base, ep)`` per episode."""
    base = derive_stream_seed(rng)
    total = np.zeros(env.n_players)
    for ep in range(episodes):
        total += simulate_episode(env, profile, derived_rng(base, ep), first_player=ep % 2)
    return total / episodes


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.sampled_from(["leduc", "rps"]), st.integers(0, 2**63 - 1), st.integers(1, 60))
def test_estimate_payoffs_equals_the_reference_loop(env_name, seed, episodes):
    env = LeducEnv() if env_name == "leduc" else rps_env()
    profile = [uniform_random_policy(env.action_count(p)) for p in range(env.n_players)]
    rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = estimate_payoffs(env, profile, episodes, rng)
    expected = reference_estimate_payoffs(env, profile, episodes, reference_rng)
    assert got.tobytes() == expected.tobytes()
    assert rng.bit_generator.state == reference_rng.bit_generator.state
