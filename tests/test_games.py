import itertools

import numpy as np
import pytest

from psromix.errors import MissingEntry, OutOfBounds
from psromix.games import (
    EmpiricalGame,
    StrategyId,
    deviation_gains,
    load_game,
    payoff_tensor,
    save_game,
)
from psromix.solvers import SolutionProfile

# Player-2 payoff block of the two-strategies-each RPS empirical game; the
# full cells carry (1 - u2, u2) since the convention is constant-sum.
P2_BLOCK = np.array([[0.7, 0.15], [0.2, 0.7]])


def make_2x2_game():
    game = EmpiricalGame(2)
    for player in range(2):
        for k in range(2):
            game.add_policy(player, f"p{player}s{k}")
    for i, j in itertools.product(range(2), range(2)):
        u2 = P2_BLOCK[i, j]
        game.payoffs.record((i, j), [1.0 - u2, u2], 30)
    return game


def test_add_policy_first_element():
    game = EmpiricalGame(2)
    assert game.add_policy(0, "a") == StrategyId(player=0, index=0)


def test_add_policy_append_semantics():
    game = EmpiricalGame(1)
    game.add_policy(0, "a")
    game.add_policy(0, "b")
    assert game.add_policy(0, "c") == StrategyId(0, 2)


def test_add_policy_per_player_independence():
    game = EmpiricalGame(2)
    ids = [game.add_policy(0, "a"), game.add_policy(0, "b"), game.add_policy(1, "c")]
    assert [i.index for i in ids] == [0, 1, 0]
    assert game.shape == (2, 1)


def test_missing_profiles_epoch_two_pattern():
    # 2x2 block filled, sets grown to 3x3: exactly the 5 profiles touching a
    # new index remain, in lexicographic order.
    game = make_2x2_game()
    game.add_policy(0, "new0")
    game.add_policy(1, "new1")
    missing = game.missing_profiles()
    assert missing == [(0, 2), (1, 2), (2, 0), (2, 1), (2, 2)]


def test_missing_profiles_complete_and_three_player():
    game = make_2x2_game()
    assert game.missing_profiles() == []

    game3 = EmpiricalGame(3)
    for player in range(3):
        game3.add_policy(player, "a")
        game3.add_policy(player, "b")
    for profile in itertools.product(range(2), repeat=3):
        if profile != (1, 0, 1):
            game3.payoffs.record(profile, np.zeros(3), 1)
    assert game3.missing_profiles() == [(1, 0, 1)]


def test_payoff_lookup_and_errors():
    game = make_2x2_game()
    assert np.allclose(game.payoff((0, 0)), [0.3, 0.7])
    game.add_policy(0, "extra")
    with pytest.raises(MissingEntry):
        game.payoff((2, 0))
    with pytest.raises(OutOfBounds):
        game.payoff((5, 0))


def test_expected_payoff_pure_profile():
    game = make_2x2_game()
    value = game.expected_payoff([np.array([1.0, 0.0]), np.array([1.0, 0.0])])
    assert value[1] == pytest.approx(0.7, abs=1e-15)


def test_expected_payoff_matches_brute_force_enumeration():
    # Independent oracle: explicit sum over the four cells.
    game = make_2x2_game()
    w1 = np.array([10 / 21, 11 / 21])
    w2 = np.array([11 / 21, 10 / 21])
    brute = sum(
        w1[i] * w2[j] * P2_BLOCK[i, j] for i in range(2) for j in range(2)
    )
    assert brute == pytest.approx(92 / 210, abs=1e-15)
    value = game.expected_payoff([w1, w2])
    assert value[1] == pytest.approx(brute, abs=1e-12)


def test_expected_payoff_degenerate_1x1():
    game = EmpiricalGame(1)
    game.add_policy(0, "only")
    game.payoffs.record((0,), [2.5], 3)
    assert game.expected_payoff([np.array([1.0])]) == pytest.approx([2.5])


def test_expected_payoff_skips_zero_weight_missing_cells():
    game = make_2x2_game()
    game.add_policy(0, "unsimulated")
    weights = [np.array([0.5, 0.5, 0.0]), np.array([0.5, 0.5])]
    value = game.expected_payoff(weights)
    assert value[1] == pytest.approx(P2_BLOCK.mean())
    with pytest.raises(MissingEntry):
        game.expected_payoff([np.array([0.5, 0.25, 0.25]), np.array([0.5, 0.5])])


def test_profile_count_identity_and_partition():
    rng = np.random.default_rng(4)
    for _ in range(20):
        n = int(rng.integers(1, 4))
        sizes = rng.integers(1, 4, size=n)
        game = EmpiricalGame(n)
        for player, k in enumerate(sizes):
            for i in range(k):
                game.add_policy(player, (player, i))
        full = set(itertools.product(*(range(k) for k in sizes)))
        filled = set()
        for profile in full:
            if rng.random() < 0.6:
                game.payoffs.record(profile, np.zeros(n), 1)
                filled.add(profile)
        missing = set(game.missing_profiles())
        assert missing | filled == full
        assert missing & filled == set()
        if not missing:
            assert len(game.payoffs.cells) == np.prod(sizes)


def test_expected_payoff_linear_in_each_mixture():
    game = make_2x2_game()
    rng = np.random.default_rng(11)
    for _ in range(50):
        a = rng.dirichlet(np.ones(2))
        b = rng.dirichlet(np.ones(2))
        other = rng.dirichlet(np.ones(2))
        lam = rng.random()
        blend = lam * a + (1 - lam) * b
        lhs = game.expected_payoff([blend, other])
        rhs = lam * game.expected_payoff([a, other]) + (1 - lam) * game.expected_payoff(
            [b, other]
        )
        assert np.allclose(lhs, rhs, atol=1e-12)


def test_record_refuses_a_recorded_cell():
    game = EmpiricalGame(1)
    game.add_policy(0, "a")
    game.payoffs.record((0,), [1.0], 10)
    with pytest.raises(ValueError, match="already recorded"):
        game.payoffs.record((0,), [4.0], 30)
    assert game.payoffs.sample_counts[(0,)] == 10
    assert game.payoffs.cells[(0,)][0] == 1.0


def test_mixed_strategy_invariants():
    SolutionProfile((np.array([0.5, 0.5]),), "test", 0.0)
    with pytest.raises(ValueError):
        SolutionProfile((np.array([0.6, 0.5]),), "test", 0.0)
    with pytest.raises(ValueError):
        SolutionProfile((np.array([-0.1, 1.1]),), "test", 0.0)


def test_serialization_round_trip(tmp_path):
    game = make_2x2_game()
    game.add_policy(0, "extra")
    # Adversarial payoff to exercise 17-significant-digit round-tripping.
    game.payoffs.record((2, 0), [1 / 3, np.pi], 7)
    path = tmp_path / "game.txt"
    save_game(game, path)
    loaded = load_game(path)
    assert loaded.shape == game.shape
    assert loaded.payoffs.sample_counts == game.payoffs.sample_counts
    for profile, cell in game.payoffs.cells.items():
        assert np.array_equal(loaded.payoffs.cells[profile], cell)


def test_payoff_tensor_and_deviation_gains():
    game = make_2x2_game()
    tensor = payoff_tensor(game)
    assert tensor.shape == (2, 2, 2)
    nash = [np.array([10 / 21, 11 / 21]), np.array([11 / 21, 10 / 21])]
    gains = deviation_gains(game, nash)
    assert max(g.max() for g in gains) < 1e-12
