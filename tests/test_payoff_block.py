"""The block form of exact payoffs (psromix.exact.payoff_block) against the
per-cell walk (analytic_payoffs) it must agree with."""

import itertools
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psromix.envs import LeducEnv, MatrixGameEnv, rps_env
from psromix.errors import IllegalAction
from psromix.exact import analytic_payoffs, payoff_block, seat_keys
from psromix.policies import FixedMixturePolicy, QTable, ValuePolicy, uniform_random_policy
from psromix.qmixing import combine_responses

LEDUC = LeducEnv()


def per_cell(env, pools) -> np.ndarray:
    """Every profile over the pools, one analytic_payoffs call each."""
    block = np.empty((*(len(pool) for pool in pools), env.n_players))
    for profile in itertools.product(*(range(len(pool)) for pool in pools)):
        block[profile] = analytic_payoffs(env, [pool[i] for pool, i in zip(pools, profile)])
    return block


def value_policy(rng, seat, epsilon=0.0):
    """Random action values on a random subset of the seat's keys."""
    keys = [key for key in seat_keys(LEDUC, seat)[0] if rng.random() < 0.7]
    return ValuePolicy(QTable(3, {key: rng.normal(size=3) for key in keys}), epsilon=epsilon)


def leduc_policy(rng, seat, kind):
    if kind == "greedy":
        return value_policy(rng, seat)
    if kind == "epsilon-greedy":
        return value_policy(rng, seat, epsilon=float(rng.uniform(0.05, 0.95)))
    if kind == "uniform":
        return uniform_random_policy(3)
    if kind == "call":
        return FixedMixturePolicy([0.0, 1.0, 0.0])  # CALL is always legal
    responses = [value_policy(rng, seat) for _ in range(3)]
    return combine_responses(responses, rng.dirichlet(np.ones(3)))


KINDS = ["greedy", "epsilon-greedy", "uniform", "call", "mixture"]


@st.composite
def leduc_pools(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return [
        [leduc_policy(rng, seat, kind) for kind in draw(st.lists(st.sampled_from(KINDS), max_size=4))]
        for seat in range(2)
    ]


@settings(max_examples=15, deadline=None, derandomize=True)
@given(leduc_pools())
def test_leduc_block_equals_the_per_cell_walk(pools):
    block = payoff_block(LEDUC, pools)
    assert block.shape == (len(pools[0]), len(pools[1]), 2)
    assert np.abs(block - per_cell(LEDUC, pools)).max(initial=0.0) <= 1e-12


@st.composite
def matrix_pools(draw):
    n_players = draw(st.integers(2, 3))
    counts = draw(st.lists(st.integers(1, 4), min_size=n_players, max_size=n_players))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    env = MatrixGameEnv(rng.normal(size=(*counts, n_players)))
    pools = []
    for count in counts:
        size = draw(st.integers(0, 3))
        pools.append([FixedMixturePolicy(rng.dirichlet(np.ones(count))) for _ in range(size)])
    return env, pools


@settings(max_examples=100, deadline=None, derandomize=True)
@given(matrix_pools())
def test_matrix_block_equals_the_per_cell_contraction(case):
    env, pools = case
    block = payoff_block(env, pools)
    assert block.shape == (*(len(pool) for pool in pools), env.n_players)
    assert np.abs(block - per_cell(env, pools)).max(initial=0.0) <= 1e-12


def test_an_illegal_probability_raises_the_same_error_on_either_path():
    folds = FixedMixturePolicy([0.2, 0.8, 0.0])  # FOLD is illegal when no bet is faced
    uniform = uniform_random_policy(3)
    with pytest.raises(IllegalAction) as per_cell_error:
        analytic_payoffs(LEDUC, [folds, uniform])
    with pytest.raises(IllegalAction) as block_error:
        payoff_block(LEDUC, [[uniform, folds], [uniform]])
    assert str(block_error.value) == str(per_cell_error.value)


def test_one_pool_per_seat_is_required():
    with pytest.raises(ValueError, match="expected 2 pools"):
        payoff_block(rps_env(), [[uniform_random_policy(3)]])


def test_a_pooled_leduc_game_of_93_policies_a_seat_fills_fast():
    rng = np.random.default_rng(93)
    pools = [
        [value_policy(rng, seat, epsilon=float(rng.choice([0.0, 0.1, 0.5]))) for _ in range(93)]
        for seat in range(2)
    ]
    payoff_block(LEDUC, [pools[0][:1], pools[1][:1]])  # builds the tree index
    start = time.perf_counter()
    block = payoff_block(LEDUC, pools)
    # About 0.05 s on a 2-CPU host, the tables' builds included; the bound
    # leaves room for a slow machine.
    assert time.perf_counter() - start < 0.5
    assert block.shape == (93, 93, 2)
