"""``exact.nash_conv``: what each seat's exact best response gains over its
own value under a mixed profile, summed over the seats."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psromix.config import RunConfig
from psromix.engine import run_algorithm
from psromix.envs import LeducEnv, MatrixGameEnv, rps_env
from psromix import exact
from psromix.exact import analytic_payoffs, nash_conv
from psromix.policies import FixedMixturePolicy, pure_action_policy, uniform_random_policy


def test_nash_conv_falls_to_zero_on_solved_exact_psro_rps():
    # From all-Rock starts, exact psro adds Paper, then Scissors, and the
    # meta-solution is then uniform over the three: the game's equilibrium.
    config = RunConfig(
        algorithm="psro", env="rps", oracle="exact", mss="nash", epochs=3, analytic_cells=True
    )
    record = run_algorithm(config, initial_policies=[pure_action_policy(3, 0)] * 2)
    curve = [
        nash_conv(rps_env(), record.game.strategy_sets, entry.solution.mixtures)
        for entry in record.entries
    ]
    assert curve[:2] == [1.0, 1.0]  # each seat's best response gains 0.5
    assert all(abs(value) < 1e-12 for value in curve[2:])


def test_leduc_uniform_against_uniform():
    uniform = uniform_random_policy(3)
    value = nash_conv(LeducEnv(), [[uniform], [uniform]], [[1.0], [1.0]])
    assert value == pytest.approx(4.747222222222222, abs=1e-12)


def _reference_nash_conv(env, strategy_sets, mixtures):
    """Brute force: each seat's best pure action against the others' blended
    mixtures, minus its value summed over every pure profile of the sets."""
    own = np.zeros(env.n_players)
    for profile in itertools.product(*(range(len(s)) for s in strategy_sets)):
        weight = np.prod([mixtures[p][i] for p, i in enumerate(profile)])
        policies = [strategy_sets[p][i] for p, i in enumerate(profile)]
        own += weight * analytic_payoffs(env, policies)
    total = 0.0
    for seat in range(env.n_players):
        best = -np.inf
        for action in range(env.action_count(seat)):
            value = 0.0
            others = [p for p in range(env.n_players) if p != seat]
            for rest in itertools.product(*(range(len(strategy_sets[p])) for p in others)):
                weight = np.prod([mixtures[p][i] for p, i in zip(others, rest)])
                policies = [None] * env.n_players
                policies[seat] = pure_action_policy(env.action_count(seat), action)
                for p, i in zip(others, rest):
                    policies[p] = strategy_sets[p][i]
                value += weight * analytic_payoffs(env, policies)[seat]
            best = max(best, value)
        total += best - own[seat]
    return total


@st.composite
def matrix_profiles(draw):
    n_players = draw(st.integers(2, 3))
    counts = draw(st.lists(st.integers(1, 3), min_size=n_players, max_size=n_players))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    env = MatrixGameEnv(rng.normal(size=(*counts, n_players)))
    strategy_sets, mixtures = [], []
    for count in counts:
        k = draw(st.integers(1, 3))
        strategy_sets.append([FixedMixturePolicy(rng.dirichlet(np.ones(count))) for _ in range(k)])
        weights = rng.dirichlet(np.ones(k))
        if k > 1 and draw(st.booleans()):
            weights[0] = 0.0  # a zero weight, as solvers give
            weights /= weights.sum()
        mixtures.append(weights)
    return env, strategy_sets, mixtures


@settings(max_examples=150, deadline=None, derandomize=True)
@given(matrix_profiles())
def test_nash_conv_is_never_negative_and_matches_brute_force(case):
    env, strategy_sets, mixtures = case
    value = nash_conv(env, strategy_sets, mixtures)
    assert value >= -1e-12
    assert value == pytest.approx(_reference_nash_conv(env, strategy_sets, mixtures), abs=1e-9)


def test_nash_conv_wants_one_strategy_set_per_seat():
    uniform = uniform_random_policy(3)
    with pytest.raises(ValueError, match="expected 2 strategy sets"):
        nash_conv(rps_env(), [[uniform]], [[1.0]])


def test_leduc_own_values_are_those_of_every_pure_profile():
    # Leduc is zero-sum, so the own values cancel in NashConv; each seat's
    # is checked against the weighted values of the pure profiles.
    env = LeducEnv()
    always_call = FixedMixturePolicy([0.0, 1.0, 0.0])
    uniform = uniform_random_policy(3)
    strategy_sets = [[uniform, always_call], [always_call, uniform, pure_action_policy(3, 1)]]
    mixtures = [np.array([0.3, 0.7]), np.array([0.5, 0.0, 0.5])]
    expected = np.zeros(2)
    for i, j in itertools.product(range(2), range(3)):
        profile = [strategy_sets[0][i], strategy_sets[1][j]]
        expected += mixtures[0][i] * mixtures[1][j] * analytic_payoffs(env, profile)
    specs = list(zip(strategy_sets, mixtures))
    own = exact._profile_value(env, specs)
    assert own == pytest.approx(expected, abs=1e-12)
    assert abs(own.sum()) < 1e-12
    best = np.array([exact.exact_best_response(env, p, {1 - p: specs[1 - p]})[1] for p in (0, 1)])
    assert min(best - own) >= 0.0
    assert nash_conv(env, strategy_sets, mixtures) == pytest.approx(sum(best), abs=1e-12)
