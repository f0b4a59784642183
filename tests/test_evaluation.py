import copy
import itertools
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psromix.envs import LeducEnv, rps_env
from psromix.envs.matrix import MatrixGameEnv
from psromix.envs.leduc import CALL
from psromix.errors import EmptyDeviationSet
from psromix.exact import analytic_payoffs, reached_keys, seat_keys
from psromix.evaluation import (
    export_eval_set,
    export_similarity,
    proxy_regret,
    regret,
    similarity_report,
    sum_regret,
)
from psromix.games import EmpiricalGame
from psromix.policies import (
    FixedMixturePolicy,
    QTable,
    ValuePolicy,
    pure_action_policy,
    uniform_random_policy,
)
from psromix.serialize import policy_to_text
from psromix.solvers import SolutionProfile

P2_BLOCK = np.array([[0.7, 0.15], [0.2, 0.7]])


def matching_pennies_game():
    game = EmpiricalGame(2)
    for player in range(2):
        for k in range(2):
            game.add_policy(player, f"p{player}s{k}")
    for i, j in itertools.product(range(2), range(2)):
        game.payoffs.record((i, j), [1.0 - P2_BLOCK[i, j], P2_BLOCK[i, j]], 1)
    return game


def all_pure_deviations(n_actions=3, n_players=2):
    return [[pure_action_policy(n_actions, a) for a in range(n_actions)]] * n_players


def test_regret_zero_at_equilibrium_in_game():
    game = matching_pennies_game()
    sigma = [np.array([10 / 21, 11 / 21]), np.array([11 / 21, 10 / 21])]
    values = regret(game, sigma, [[0, 1], [0, 1]])
    assert abs(values[1]) < 1e-12
    assert abs(values[0]) < 1e-12


def test_regret_zero_when_profile_is_best_response():
    game = matching_pennies_game()
    sigma = [np.array([1.0, 0.0]), np.array([1.0, 0.0])]  # p2 plays R vs pi_1^1
    values = regret(game, sigma, [[0, 1], [0, 1]])
    assert values[1] == pytest.approx(0.0, abs=1e-12)  # R is the BR already


def test_regret_pure_rock_vs_first_mixture_env():
    env = rps_env()
    populations = [[FixedMixturePolicy([0.0, 0.3, 0.7])], [pure_action_policy(3, 0)]]
    sigma = [np.array([1.0]), np.array([1.0])]
    values = regret(env, sigma, all_pure_deviations(), populations=populations)
    assert values[1] == pytest.approx(0.0, abs=1e-12)


def test_regret_can_be_negative_for_weak_sets():
    env = rps_env()
    populations = [[pure_action_policy(3, 0)], [pure_action_policy(3, 1)]]
    sigma = [np.array([1.0]), np.array([1.0])]
    weak = [[pure_action_policy(3, 0)], [pure_action_policy(3, 2)]]  # p2: winning P to losing S
    values = regret(env, sigma, weak, populations=populations)
    assert values[1] < 0


def test_empty_deviation_set_rejected():
    game = matching_pennies_game()
    with pytest.raises(EmptyDeviationSet):
        regret(game, [np.array([1.0, 0.0])] * 2, [[], [0]])


def _mismatch_case():
    """rps: populations of 2 and 1 pure policies, a uniform deviation a seat."""
    populations = [[pure_action_policy(3, 0), pure_action_policy(3, 1)], [pure_action_policy(3, 2)]]
    deviations = [[uniform_random_policy(3)], [uniform_random_policy(3)]]
    return rps_env(), populations, deviations


def test_a_mixture_longer_than_its_population_is_rejected():
    env, populations, deviations = _mismatch_case()
    # Player 1's second weight would fall on its held-out deviation.
    sigma = [np.array([0.5, 0.5]), np.array([0.5, 0.5])]
    with pytest.raises(ValueError, match="player 1: mixture has length 2, expected 1"):
        regret(env, sigma, deviations, populations=populations)


def test_a_mixture_shorter_than_its_population_is_rejected():
    env, populations, deviations = _mismatch_case()
    with pytest.raises(ValueError, match="player 0: mixture has length 1, expected 2"):
        regret(env, [np.array([1.0]), np.array([1.0])], deviations, populations=populations)


def test_a_mixture_that_does_not_fit_the_game_is_rejected():
    game = matching_pennies_game()
    with pytest.raises(ValueError, match="player 1: mixture has length 3, expected 2"):
        regret(game, [np.array([0.5, 0.5]), np.array([0.2, 0.3, 0.5])], [[0, 1], [0, 1]])


def test_one_mixture_and_one_population_per_player_are_required():
    env, populations, deviations = _mismatch_case()
    sigma = [np.array([0.5, 0.5]), np.array([1.0])]
    with pytest.raises(ValueError, match="sigma has 1 mixtures, expected 2"):
        regret(env, sigma[:1], deviations, populations=populations)
    with pytest.raises(ValueError, match="got 1 populations, expected 2"):
        regret(env, sigma, deviations, populations=populations[:1])
    with pytest.raises(ValueError, match="sigma has 3 mixtures, expected 2"):
        regret(matching_pennies_game(), [np.array([0.5, 0.5])] * 3, [[0, 1], [0, 1]])


def test_proxy_regret_clips_at_zero():
    env = rps_env()
    populations = [[pure_action_policy(3, 0)], [pure_action_policy(3, 1)]]
    sigma = [np.array([1.0]), np.array([1.0])]
    values = proxy_regret(
        env,
        sigma,
        psro_set=[[], []],
        eval_set=[[pure_action_policy(3, 2)], [pure_action_policy(3, 2)]],
        populations=populations,
    )
    assert values[1] == 0.0  # S is worse than the played P: clipped
    assert values[0] > 0.0  # player 1 could deviate from R to S vs P


def test_proxy_equals_regret_when_nonnegative():
    env = rps_env()
    populations = [[FixedMixturePolicy([0.0, 0.3, 0.7])], [pure_action_policy(3, 2)]]
    sigma = [np.array([1.0]), np.array([1.0])]
    pure = [[pure_action_policy(3, a) for a in range(3)] for _ in range(2)]
    raw = regret(env, sigma, pure, populations=populations)
    clipped = proxy_regret(env, sigma, pure, [[], []], populations=populations)
    assert clipped[1] == pytest.approx(raw[1])
    assert raw[1] > 0


def test_proxy_regret_pads_the_shorter_set_list():
    env = rps_env()
    populations = [[pure_action_policy(3, 0)], [pure_action_policy(3, 1)]]
    sigma = [np.array([1.0]), np.array([1.0])]
    eval_set = [[pure_action_policy(3, 2)], [pure_action_policy(3, 2)]]
    padded = proxy_regret(env, sigma, [[], []], eval_set, populations=populations)
    assert padded[0] > 0.0
    assert np.array_equal(proxy_regret(env, sigma, [], eval_set, populations=populations), padded)


def test_regret_takes_lists_or_tuples():
    game = matching_pennies_game()
    sigma = [np.array([0.3, 0.7]), np.array([0.6, 0.4])]
    assert np.array_equal(regret(game, sigma, [[0, 1], [1]]), regret(game, sigma, ((0, 1), (1,))))
    env = rps_env()
    populations = [[pure_action_policy(3, 0)], [pure_action_policy(3, 1)]]
    deviations = [[pure_action_policy(3, a) for a in range(3)]] * 2
    as_lists = regret(env, [[1.0], [1.0]], deviations, populations=populations)
    as_tuples = regret(
        env, ((1.0,), (1.0,)), tuple(map(tuple, deviations)),
        populations=tuple(map(tuple, populations)),
    )
    assert np.array_equal(as_lists, as_tuples)


def test_sum_regret():
    assert sum_regret([0.0, 0.0]) == 0.0
    assert sum_regret([0.1, 0.3]) == pytest.approx(0.4)
    assert sum_regret([0.7]) == pytest.approx(0.7)


def test_proxy_regret_nonnegative_randomized():
    rng = np.random.default_rng(3)
    for _ in range(300):
        tensor = rng.random((3, 3, 2))
        env = MatrixGameEnv(tensor)
        populations = [
            [FixedMixturePolicy(rng.dirichlet(np.ones(3))) for _ in range(2)]
            for _ in range(2)
        ]
        sigma = [rng.dirichlet(np.ones(2)) for _ in range(2)]
        eval_set = [[FixedMixturePolicy(rng.dirichlet(np.ones(3)))] for _ in range(2)]
        values = proxy_regret(
            env, sigma, psro_set=[[], []], eval_set=eval_set, populations=populations
        )
        assert (values >= 0.0).all()


def test_deviation_monotonicity_randomized():
    rng = np.random.default_rng(4)
    for _ in range(300):
        tensor = rng.random((3, 3, 2))
        env = MatrixGameEnv(tensor)
        populations = [[FixedMixturePolicy(rng.dirichlet(np.ones(3)))] for _ in range(2)]
        sigma = [np.array([1.0]), np.array([1.0])]
        small = [
            [FixedMixturePolicy(rng.dirichlet(np.ones(3)))] for _ in range(2)
        ]
        extra = [
            [FixedMixturePolicy(rng.dirichlet(np.ones(3)))] for _ in range(2)
        ]
        big = [small[p] + extra[p] for p in range(2)]
        r_small = regret(env, sigma, small, populations=populations)
        r_big = regret(env, sigma, big, populations=populations)
        assert (r_big >= r_small - 1e-12).all()


@st.composite
def regret_cases(draw):
    """A random 2-player matrix game, populations with a sparse mixture over
    them, and deviation sets mixing population members and held-out policies."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    actions = (draw(st.integers(1, 4)), draw(st.integers(1, 4)))
    env = MatrixGameEnv(rng.standard_normal(actions + (2,)))
    populations, sigma, deviations = [], [], []
    for player in range(2):

        def random_policy():
            return FixedMixturePolicy(rng.dirichlet(np.ones(actions[player])))

        population = [random_policy() for _ in range(draw(st.integers(1, 4)))]
        weights = rng.dirichlet(np.ones(len(population)))
        dropped = draw(st.lists(st.integers(0, len(population) - 1), max_size=len(population) - 1))
        weights[dropped] = 0.0
        members = draw(st.lists(st.sampled_from(population), max_size=3))
        held_out = [random_policy() for _ in range(draw(st.integers(0, 3)))]
        populations.append(population)
        sigma.append(weights / weights.sum())
        deviations.append(members + held_out or [population[0]])
    return env, populations, sigma, deviations


@settings(max_examples=60, deadline=None, derandomize=True)
@given(regret_cases())
def test_env_regret_equals_regret_in_analytic_game(case):
    # The env path reads the gain vectors of exact.payoff_block's tensor; the
    # game path those of a game filled cell by cell with analytic_payoffs.
    env, populations, sigma, deviations = case
    env_regret = regret(env, sigma, deviations, populations=populations)
    game = EmpiricalGame(2)
    pools = []
    for player in range(2):
        pool = list(populations[player])
        pool += [p for p in deviations[player] if not any(p is q for q in pool)]
        for policy in pool:
            game.add_policy(player, policy)
        pools.append(pool)
    for i, j in game.all_profiles():
        game.payoffs.record((i, j), analytic_payoffs(env, [pools[0][i], pools[1][j]]), 1)
    indices = [
        [next(k for k, q in enumerate(pool) if q is p) for p in devs]
        for pool, devs in zip(pools, deviations)
    ]
    padded = [np.pad(w, (0, len(pool) - len(w))) for w, pool in zip(sigma, pools)]
    assert regret(game, padded, indices) == pytest.approx(env_regret, abs=1e-12)


def leduc_value_policy(seed):
    """A greedy policy with random action values at every key of both seats."""
    rng = np.random.default_rng(seed)
    env = LeducEnv()
    keys = [key for seat in range(2) for key in seat_keys(env, seat)[0]]
    return ValuePolicy(QTable(3, {key: rng.normal(size=3) for key in keys}))


def test_similarity_self_is_one_and_symmetric():
    env = rps_env()
    policies = [
        ValuePolicy(_table([1.0, 0.0, 0.0])),
        ValuePolicy(_table([0.0, 1.0, 0.0])),
        ValuePolicy(_table([1.0, 0.5, 0.0])),
    ]
    report = similarity_report(policies, env)
    assert np.allclose(np.diag(report.agreement), 1.0)
    assert np.array_equal(report.agreement, report.agreement.T)
    assert report.pair(0, 2) == 1.0  # same greedy action everywhere
    assert report.pair(0, 1) == 0.0  # disjoint argmaxes at every state


def _table(values):
    from psromix.envs import MATRIX_OBSERVATION

    return QTable(3, {MATRIX_OBSERVATION: values})


def test_similarity_requires_two_policies():
    with pytest.raises(ValueError):
        similarity_report([uniform_random_policy(3)], rps_env())


def test_similarity_export_labels():
    env = rps_env()
    policies = [ValuePolicy(_table([1, 0, 0])), ValuePolicy(_table([0, 1, 0]))]
    report = similarity_report(policies, env)
    text = export_similarity(report, ["a", "b"])
    assert text.splitlines()[0] == "policy\ta\tb"
    assert "# corpus_deduplicated 1" in text


def _keys_met(env, profile) -> dict:
    """Brute force: every key (with its legal actions) at which its seat
    acts, walking every deal and seating with the ``deal`` cursor and
    following every action of positive probability."""
    met = {}

    def walk(state):
        if state.terminal:
            return
        player = state.player
        key, legal = state.observation(player), state.legal_actions(player)
        met.setdefault(key, legal)
        probabilities = profile[player].action_probabilities(key, legal)
        for action in legal:
            if probabilities[action] > 0:
                child = copy.deepcopy(state)
                child.step(action)
                walk(child)

    for cards in itertools.permutations(range(6), 3):
        for first_player in range(2):
            walk(env.deal(*cards, first_player=first_player))
    return met


LEDUC_LIBRARY = {
    "uniform": uniform_random_policy(3),
    "greedy": leduc_value_policy(7),
    "call": pure_action_policy(3, CALL),
}


@pytest.mark.parametrize(
    "profile", list(itertools.product(LEDUC_LIBRARY, repeat=2)), ids="-".join
)
def test_reached_keys_match_brute_force_walk(profile):
    env = LeducEnv()
    policies = [LEDUC_LIBRARY[name] for name in profile]
    met = _keys_met(env, policies)
    reached = {
        key
        for seat, mask in enumerate(reached_keys(env, policies))
        for key, hit in zip(seat_keys(env, seat)[0], mask)
        if hit
    }
    assert reached == set(met)


@pytest.mark.parametrize("names", [("greedy", "call"), ("uniform", "greedy", "call")])
def test_similarity_corpus_matches_brute_force_walk(names):
    env = LeducEnv()
    library = [LEDUC_LIBRARY[name] for name in names]
    corpus = {}
    for profile in itertools.product(library, repeat=2):
        corpus.update(_keys_met(env, profile))
    greedy = np.array(
        [[policy.greedy_action(key, legal) for key, legal in corpus.items()] for policy in library]
    )
    expected = (greedy[:, None, :] == greedy[None, :, :]).mean(axis=2)

    report = similarity_report(library, env)
    assert report.corpus_size_deduplicated == len(corpus)
    assert np.array_equal(report.agreement, expected)
    if "uniform" in names:
        assert len(corpus) == 1872  # uniform play reaches every information state


def _leduc_regret_case():
    populations = [[leduc_value_policy(10 * p + i) for i in range(3)] for p in range(2)]
    held_out = [leduc_value_policy(50 + p) for p in range(2)]
    # Zero weights leave some members' matchups out of the base values, so
    # reordering the deviations reorders which matchups are evaluated first.
    sigma = [np.array([0.6, 0.4, 0.0]), np.array([0.0, 0.3, 0.7])]
    forward = [pop + [held_out[p]] for p, pop in enumerate(populations)]
    permuted = [[held_out[p]] + pop[::-1] for p, pop in enumerate(populations)]
    return populations, sigma, forward, permuted


def test_leduc_regret_is_exact_and_independent_of_deviation_order():
    env = LeducEnv()
    populations, sigma, forward, permuted = _leduc_regret_case()

    def regrets(per_player):
        return regret(env, sigma, per_player, populations=populations)

    values = regrets(forward)
    # The order of the deviations changes no bit.
    assert np.array_equal(values, regrets(permuted))
    for player, deviations in enumerate(forward):
        profile = [None, None]
        gains = []
        for policy in deviations:
            value = 0.0
            for j, weight in enumerate(sigma[1 - player]):
                if weight:
                    profile[player], profile[1 - player] = policy, populations[1 - player][j]
                    value += weight * analytic_payoffs(env, profile)[player]
            gains.append(value)
        base = sum(
            w * gain for w, gain in zip(sigma[player], gains[: len(populations[player])])
        )
        assert values[player] == pytest.approx(max(gains) - base, abs=1e-12)


def test_export_eval_set_replaces_the_directorys_policy_files_only(tmp_path):
    game = EmpiricalGame(2)
    for player in range(2):
        for action in range(3):
            game.add_policy(player, pure_action_policy(3, action))
        game.add_policy(player, uniform_random_policy(3))
    record = SimpleNamespace(game=game, solution=SolutionProfile((np.full(4, 0.25),) * 2, "", 0.0))
    (tmp_path / "notes.txt").write_text("the user's own\n")
    (tmp_path / "p0_old.txt").write_text("not a policy file name\n")
    assert [len(policies) for policies in export_eval_set(record, tmp_path, size=4)] == [4, 4]
    sampled = export_eval_set(record, tmp_path, size=1, seed=3)
    names = sorted(path.name for path in tmp_path.iterdir())
    assert names == ["notes.txt", "p0_0.txt", "p0_old.txt", "p1_0.txt"]
    for player, (policy,) in enumerate(sampled):
        assert (tmp_path / f"p{player}_0.txt").read_text() == policy_to_text(policy)
