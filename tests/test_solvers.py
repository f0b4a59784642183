import itertools
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import psromix
from psromix import solvers
from psromix.errors import IncompleteGame
from psromix.games import EmpiricalGame, deviation_gains, payoff_tensor
from psromix.solvers import (
    get_solver,
    solve_last,
    solve_nash,
    solve_replicator,
    solve_uniform,
)

P2_BLOCK = np.array([[0.7, 0.15], [0.2, 0.7]])


def game_from_bimatrix(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    game = EmpiricalGame(2)
    for i in range(a.shape[0]):
        game.add_policy(0, f"r{i}")
    for j in range(a.shape[1]):
        game.add_policy(1, f"c{j}")
    for i, j in itertools.product(range(a.shape[0]), range(a.shape[1])):
        game.payoffs.record((i, j), [a[i, j], b[i, j]], 1)
    return game


def matching_pennies_like():
    return game_from_bimatrix(1.0 - P2_BLOCK, P2_BLOCK)


def rps_game():
    u = np.zeros((3, 3))
    for a, b in itertools.product(range(3), range(3)):
        u[a, b] = 0.5 if a == b else (1.0 if (a - b) % 3 == 1 else 0.0)
    return game_from_bimatrix(u, 1.0 - u)


def test_nash_matches_reference_two_decimal_equilibrium():
    solution = solve_nash(matching_pennies_like())
    assert np.abs(solution.weights(1) - np.array([0.52, 0.48])).max() < 0.01


def test_nash_exact_fractions_and_grid_residual():
    solution = solve_nash(matching_pennies_like())
    assert np.abs(solution.weights(1) - np.array([11 / 21, 10 / 21])).max() < 1e-9
    assert np.abs(solution.weights(0) - np.array([10 / 21, 11 / 21])).max() < 1e-9
    # Brute-force deviation check at the returned point.
    gains = deviation_gains(matching_pennies_like(), solution.mixtures)
    assert max(g.max() for g in gains) < 1e-12


def test_nash_symmetric_rps_uniform():
    solution = solve_nash(rps_game())
    for player in range(2):
        assert np.abs(solution.weights(player) - 1 / 3).max() < 1e-9


def test_nash_requires_complete_game():
    game = matching_pennies_like()
    game.add_policy(0, "extra")
    with pytest.raises(IncompleteGame):
        solve_nash(game)


def test_nash_deterministic_bit_for_bit():
    a = np.random.default_rng(3).random((4, 4))
    game = game_from_bimatrix(a, -a)
    s1, s2 = solve_nash(game), solve_nash(game)
    for player in range(2):
        assert np.array_equal(s1.weights(player), s2.weights(player))


def closed_form_2x2_zero_sum(a):
    """Interior equilibrium of a 2x2 zero-sum game without a saddle point."""
    denom = a[0, 0] - a[0, 1] - a[1, 0] + a[1, 1]
    x = (a[1, 1] - a[1, 0]) / denom
    y = (a[1, 1] - a[0, 1]) / denom
    return np.array([x, 1 - x]), np.array([y, 1 - y])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.floats(min_value=-5, max_value=5), min_size=4, max_size=4))
def test_nash_2x2_zero_sum_closed_form(values):
    a = np.array(values).reshape(2, 2)
    denom = a[0, 0] - a[0, 1] - a[1, 0] + a[1, 1]
    if abs(denom) < 1e-2:  # near-degenerate: ill-conditioned indifference system
        return
    x, y = closed_form_2x2_zero_sum(a)
    if min(x.min(), y.min()) <= 1e-3:  # has a (near-)pure equilibrium instead
        return
    solution = solve_nash(game_from_bimatrix(a, -a))
    assert np.abs(solution.weights(0) - x).max() < 1e-9
    assert np.abs(solution.weights(1) - y).max() < 1e-9


def test_replicator_1x1():
    game = EmpiricalGame(1)
    game.add_policy(0, "only")
    game.payoffs.record((0,), [1.0], 1)
    solution = solve_replicator(game, steps=10, step_size=0.1)
    assert solution.weights(0) == pytest.approx([1.0])
    assert solution.residual == 0.0


def test_replicator_rps_uniform_fixed_point():
    solution = solve_replicator(rps_game(), steps=500, step_size=0.1)
    for player in range(2):
        assert np.abs(solution.weights(player) - 1 / 3).max() < 1e-12


def test_replicator_time_average_approaches_nash():
    solution = solve_replicator(matching_pennies_like(), steps=100_000, step_size=0.1)
    target = solve_nash(matching_pennies_like())
    for player in range(2):
        assert np.abs(solution.weights(player) - target.weights(player)).max() < 0.05


def test_uniform_and_last():
    game = EmpiricalGame(2)
    for i in range(2):
        game.add_policy(0, i)
    for j in range(3):
        game.add_policy(1, j)
    uniform = solve_uniform(game)
    assert uniform.weights(0) == pytest.approx([0.5, 0.5])
    assert uniform.weights(1) == pytest.approx([1 / 3] * 3)
    last = solve_last(game)
    assert last.weights(0) == pytest.approx([0.0, 1.0])
    assert last.weights(1) == pytest.approx([0.0, 0.0, 1.0])
    game.add_policy(1, 3)
    assert solve_uniform(game).weights(1) == pytest.approx([0.25] * 4)
    assert solve_last(game).weights(1) == pytest.approx([0, 0, 0, 1.0])


def test_single_strategy_sets():
    game = EmpiricalGame(2)
    game.add_policy(0, "a")
    game.add_policy(1, "b")
    game.payoffs.record((0, 0), [0.0, 0.0], 1)
    assert solve_uniform(game).weights(0) == pytest.approx([1.0])
    assert solve_last(game).weights(1) == pytest.approx([1.0])


def test_solver_mixture_lengths_match_sets():
    game = rps_game()
    for solver in (solve_nash, solve_replicator, solve_uniform, solve_last):
        solution = solver(game)
        for player in range(2):
            assert len(solution.weights(player)) == game.shape[player]
            assert solution.weights(player).sum() == pytest.approx(1.0, abs=1e-9)
            assert solution.residual >= 0.0


def test_nash_residual_is_max_deviation_gain():
    rng = np.random.default_rng(8)
    for _ in range(10):
        a, b = rng.random((3, 3)), rng.random((3, 3))
        game = game_from_bimatrix(a, b)
        solution = solve_nash(game, tolerance=1e-8)
        gains = deviation_gains(game, solution.mixtures)
        assert max(g.max() for g in gains) <= 1e-8


def test_solution_profile_rejects_nan_weights():
    # NaN passes both the sign and the sum check, so it needs its own.
    with pytest.raises(ValueError, match="non-finite weight"):
        solvers.SolutionProfile(([np.nan, 0.0], [1.0]), "test", 0.0)


def test_get_solver_by_name():
    solver = get_solver("replicator", steps=100, step_size=0.05)
    assert solver(rps_game()).solver_name == "replicator"
    with pytest.raises(ValueError):
        get_solver("alpharank")


def test_nash_three_player_falls_back_to_replicator():
    game = EmpiricalGame(3)
    for player in range(3):
        game.add_policy(player, "a")
        game.add_policy(player, "b")
    rng = np.random.default_rng(0)
    for profile in itertools.product(range(2), repeat=3):
        game.payoffs.record(profile, rng.random(3), 1)
    solution = solve_nash(game)
    assert len(solution.mixtures) == 3
    assert solution.residual >= 0.0


# ---------------------------------------------------------------------------
# Constant-sum games: the minimax LP path against support enumeration
# ---------------------------------------------------------------------------


def max_gain(game, solution):
    return max(float(g.max()) for g in deviation_gains(game, solution.mixtures))


def game_value(solution, a):
    return float(solution.weights(0) @ a @ solution.weights(1))


@pytest.fixture
def no_enumeration(monkeypatch):
    def refuse(*_):
        raise AssertionError("support enumeration reached on a constant-sum game")

    monkeypatch.setattr(solvers, "_support_pairs", refuse)


def test_nash_constant_sum_k40_solves_without_enumeration(no_enumeration):
    a = np.random.default_rng(40).standard_normal((40, 40))
    game = game_from_bimatrix(a, -a)
    solution = solve_nash(game)
    assert max_gain(game, solution) <= 1e-8
    assert solution.residual <= 1e-8


def test_nash_degenerate_constant_sum_returns_verified_lp_weights(no_enumeration):
    # The LP supports ({0, 1}, {0}) admit no indifference solution, so the
    # cleaned LP weights are verified instead. Enumeration would return
    # x = (0, 1); both profiles are equilibria with value 1.
    a = np.array([[1.0, 1.0, -1.0], [1.0, 1.0, 2.0]])
    game = game_from_bimatrix(a, 3.0 - a)
    solution = solve_nash(game)
    assert max_gain(game, solution) <= 1e-8
    assert np.abs(solution.weights(0) - [1 / 3, 2 / 3]).max() < 1e-12
    assert np.array_equal(solution.weights(1), [1.0, 0.0, 0.0])
    assert game_value(solution, a) == pytest.approx(1.0, abs=1e-12)


def test_nash_degenerate_leduc_game_tie_break_is_pinned(no_enumeration):
    # The leduc-psro seed-4 epoch-1 meta-game. Rows 1 and 2 both score -1.2
    # against column 1, so (1, 1) and (2, 1) are both pure equilibria. The one
    # returned sets the next best-response target and so every later artifact.
    a = np.array([[-75, -42, 3], [-2, -36, 2], [-16, -36, 7]]) / 30
    solution = solve_nash(game_from_bimatrix(a, -a))
    assert np.array_equal(solution.weights(0), [0.0, 0.0, 1.0])
    assert np.array_equal(solution.weights(1), [0.0, 1.0, 0.0])
    assert solution.residual == 0.0


@st.composite
def generic_constant_sum(draw):
    k0 = draw(st.integers(1, 8))
    k1 = draw(st.integers(1, min(8, 14 - k0)))  # enumeration at 8x8 takes seconds
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.standard_normal((k0, k1)) * draw(st.sampled_from([0.01, 1.0, 13.0]))
    return a, draw(st.sampled_from([0.0, 1.0, -2.5])) - a


@settings(max_examples=40, deadline=None, derandomize=True)
@given(generic_constant_sum())
def test_nash_generic_constant_sum_equals_enumeration(payoffs):
    game = game_from_bimatrix(*payoffs)
    solution = solve_nash(game)
    tensor = payoff_tensor(game)
    reference = solvers._enumerate_nash(tensor[..., 0], tensor[..., 1], 1e-8)
    for player in range(2):
        assert np.array_equal(solution.weights(player), reference.weights(player))
    assert solution.residual == reference.residual


@st.composite
def degenerate_constant_sum(draw):
    """Small-integer payoffs whose rows and columns are drawn, with
    repetition, from a small base game."""
    k0, k1 = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    cells = draw(st.lists(st.integers(-2, 2), min_size=k0 * k1, max_size=k0 * k1))
    base = np.array(cells, dtype=float).reshape(k0, k1)
    rows = draw(st.lists(st.integers(0, k0 - 1), min_size=1, max_size=8))
    cols = draw(st.lists(st.integers(0, k1 - 1), min_size=1, max_size=8))
    a = base[rows][:, cols]
    return a, draw(st.sampled_from([0.0, 1.0])) - a


@settings(max_examples=150, deadline=None, derandomize=True)
@given(degenerate_constant_sum())
def test_nash_degenerate_constant_sum_value_equals_enumeration(payoffs):
    a, b = payoffs
    game = game_from_bimatrix(a, b)
    solution = solve_nash(game)
    assert max_gain(game, solution) <= 1e-8
    reference = solvers._enumerate_nash(a, b, 1e-8)
    assert abs(game_value(solution, a) - game_value(reference, a)) <= 1e-9


def test_nash_constant_sum_value_matches_linprog():
    optimize = pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng(11)
    for k0, k1 in [(1, 5), (3, 3), (6, 2), (12, 9), (30, 30)]:
        a = rng.standard_normal((k0, k1))
        solution = solve_nash(game_from_bimatrix(a, 1.0 - a))
        # max v subject to (x @ a)_j >= v for every column, x a distribution.
        result = optimize.linprog(
            c=np.r_[np.zeros(k0), -1.0],
            A_ub=np.c_[-a.T, np.ones(k1)],
            b_ub=np.zeros(k1),
            A_eq=np.r_[np.ones(k0), 0.0][None],
            b_eq=[1.0],
            bounds=[(0, None)] * k0 + [(None, None)],
        )
        assert result.success
        assert game_value(solution, a) == pytest.approx(-result.fun, abs=1e-8)


SCIPY_PROBE = """
import sys
import numpy as np
import psromix

game = psromix.EmpiricalGame(2)
a = np.random.default_rng(0).standard_normal((3, 3))
for i in range(3):
    game.add_policy(0, i)
    game.add_policy(1, i)
for i in range(3):
    for j in range(3):
        game.payoffs.record((i, j), [a[i, j], -a[i, j]], 1)
psromix.solve_nash(game)
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""


def test_solving_does_not_import_scipy():
    # scipy is installed only as a test aid; importing it would double the
    # library's memory footprint and start-up time.
    src = os.path.dirname(os.path.dirname(psromix.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", SCIPY_PROBE],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
