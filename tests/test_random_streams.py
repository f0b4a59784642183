"""The draw layer: every episode draw is a uniform double.

Training reads its doubles from ``uniforms``, which draws them in arrays; a
uniform choice among ``n`` items is item ``int(u * n)``; a sampled cell
plays all its episodes on one generator. Each is checked against plain
``Generator.random()`` calls made one at a time.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psromix.envs import LeducEnv, rps_env
from psromix.envs.base import CHUNK, estimate_payoffs, illegal_action, uniforms
from psromix.envs.leduc import all_deals
from psromix.policies import uniform_random_policy


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(0, 2**64 - 1), st.integers(0, 3 * CHUNK + 5))
def test_draws_equal_a_twin_generator(seed, count):
    # uniforms against a twin generator's random() calls, across chunk
    # boundaries: the iterator reads whole chunks ahead.
    stream = uniforms(np.random.default_rng(seed))
    twin = np.random.default_rng(seed)
    got = [next(stream) for _ in range(count)]
    assert got == [twin.random() for _ in range(count)]
    assert all(type(u) is float for u in got)


# Small n (legal actions, the search's opponent counts), Leduc's 120 deals,
# and bounds far past them.
EDGE_BOUNDS = (1, 2, 3, 4, 5, 6, 120, 2**31 + 1, 3 * 2**30, 2**32 - 1, 2**32)


@pytest.mark.parametrize("n", EDGE_BOUNDS)
def test_draws_integers_at_the_edges(n):
    # int(u * n) for the smallest and the largest double random() returns.
    largest = 1.0 - 2.0**-53
    assert np.nextafter(1.0, 0.0) == largest
    assert int(largest * n) == n - 1 < n
    assert int(0.0 * n) == 0


def test_every_leduc_deal_can_be_drawn():
    # Deal d is drawn for the doubles u with int(u * 120) == d: there are
    # such doubles next to d / 120 and to (d + 1) / 120, for every d.
    env = LeducEnv()
    deals = env.deals
    assert deals is all_deals() and len(deals) == 120 and len(set(map(id, deals))) == 120
    for d in range(120):
        low = d / 120
        while int(low * 120) < d:
            low = np.nextafter(low, 1.0)
        high = np.nextafter((d + 1) / 120, 0.0)
        while int(high * 120) > d:
            high = np.nextafter(high, 0.0)
        for u in (low, high):
            assert deals[int(u * len(deals))] is deals[d]

    class Fixed:
        def __init__(self, u):
            self.u = u

        def random(self):
            return self.u

    drawn = {env.draw_deal(Fixed((d + 0.5) / 120)) for d in range(120)}
    assert drawn == set(deals)
    rng = np.random.default_rng(3)
    counts = np.bincount([deals.index(env.draw_deal(rng)) for _ in range(24_000)], minlength=120)
    assert counts.min() > 130 and counts.max() < 280  # 200 each in expectation


def reference_estimate_payoffs(env, profile, episodes, rng):
    """Every episode walked with one ``rng.random()`` at a time: the deal
    from ``env.deals``, then each policy's ``act``."""
    total = np.zeros(env.n_players)
    for ep in range(episodes):
        deal = env.deals[int(rng.random() * len(env.deals))]
        node = env.roots[ep % 2]
        while not node.terminal:
            player = node.player
            action = profile[player].act(deal.views[player][node.id], node.legal[player], rng)
            if action not in node.children:
                raise illegal_action(node, action)
            node = node.children[action]
        total += node.rewards[deal.outcome]
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
