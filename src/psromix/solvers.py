"""Meta-strategy solvers: functions from a complete empirical game to a
per-player solution profile.

``solve_nash`` is exact for two-player games. A constant-sum game (every
built-in environment is one) is solved as one maximin linear program per
player by a small dense simplex; a general-sum game by support enumeration,
whose cost grows exponentially with the strategy counts. Both return only a
profile that passes the same deviation-gain check. For more players it
falls back to (time-averaged) replicator dynamics and reports the measured
residual instead of guaranteeing the tolerance.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import IncompleteGame, NoEquilibriumFound
from .games import EmpiricalGame, deviation_values, payoff_tensor, tensor_gains

RIDGE = 1e-12  # regulariser for degenerate indifference systems
NEGATIVITY_SLACK = 1e-9  # supports whose solution dips below -slack are rejected
CONSTANT_SUM_SLACK = 1e-12  # spread of a + b, relative to the payoff scale
PIVOT_EPS = 1e-12  # simplex entries this close to zero are treated as zero
SUPPORT_EPS = 1e-9  # LP weights at or below this stay out of the candidate support


@dataclass
class SolutionProfile:
    """One mixture per player, a weight vector over that player's strategy
    set, plus the solver's own residual check."""

    mixtures: tuple[np.ndarray, ...]
    solver_name: str
    residual: float

    def __post_init__(self):
        self.mixtures = tuple(np.asarray(w, dtype=float) for w in self.mixtures)
        for weights in self.mixtures:
            if weights.ndim != 1:
                raise ValueError("weights must be a vector")
            if not np.isfinite(weights).all():
                raise ValueError(f"non-finite weight in {weights}")
            if weights.min() < -1e-12:
                raise ValueError(f"negative weight in {weights}")
            total = weights.sum()
            if abs(total - 1.0) > 1e-9:
                raise ValueError(f"weights sum to {total!r}, expected 1")

    def weights(self, player: int) -> np.ndarray:
        return self.mixtures[player]


def _profile(weight_vectors, solver_name: str, residual: float) -> SolutionProfile:
    return SolutionProfile(weight_vectors, solver_name, max(0.0, float(residual)))


def _measured_residual(tensor: np.ndarray, weights: list[np.ndarray]) -> float:
    return max(0.0, *(float(g.max()) for g in tensor_gains(tensor, weights)))


def _require_complete(game: EmpiricalGame) -> np.ndarray:
    if not game.is_complete():
        raise IncompleteGame(
            f"payoff table holds {len(game.payoffs.cells)} of "
            f"{int(np.prod(game.shape))} cells"
        )
    return payoff_tensor(game)


def _clean_support_solution(dense: np.ndarray, support, size: int) -> np.ndarray | None:
    """Scatter a support-restricted solution onto the full strategy set.

    Returns None when the candidate violates non-negativity beyond the slack.
    """
    if dense.min() < -NEGATIVITY_SLACK:
        return None
    clipped = np.clip(dense, 0.0, None)
    total = clipped.sum()
    if total <= 0.0:
        return None
    full = np.zeros(size)
    full[list(support)] = clipped / total
    return full


def _indifference_solution(payoffs: np.ndarray) -> np.ndarray | None:
    """Solve for the mixing weights that equalise the rows of ``payoffs``.

    ``payoffs[r, c]`` is the responder's payoff for pure strategy r against
    the mixer's support strategy c. Unknowns are the mixer's weights plus the
    common value v; the system appends the probability-sum constraint. Square
    systems are solved directly (with a small ridge against degenerate ties);
    overdetermined ones are solved on a square subsystem and checked against
    the remaining equations; underdetermined ones take the least-squares
    point, with the equilibrium verification deciding validity either way.
    """
    rows, cols = payoffs.shape
    system = np.empty((rows + 1, cols + 1))
    system[:rows, :cols] = payoffs
    system[:rows, cols] = -1.0
    system[rows, :cols] = 1.0
    system[rows, cols] = 0.0
    rhs = np.zeros(rows + 1)
    rhs[-1] = 1.0
    try:
        if rows == cols:
            system.flat[:: cols + 2] += RIDGE
            solution = np.linalg.solve(system, rhs)
        elif rows > cols:
            # Square subsystem: the first `cols` indifference rows plus the
            # probability-sum row; the remaining rows must then be consistent.
            square = np.vstack([system[:cols], system[rows:]])
            square.flat[:: cols + 2] += RIDGE
            solution = np.linalg.solve(square, np.append(rhs[:cols], 1.0))
            residual = system[cols:rows] @ solution
            if np.abs(residual).max() > 1e-7:
                return None
        else:
            solution, *_ = np.linalg.lstsq(system, rhs, rcond=None)
    except np.linalg.LinAlgError:
        return None
    return solution[:-1]


def _support_pairs(k0: int, k1: int):
    """All support pairs in increasing total-support-size order (deterministic)."""
    for total in range(2, k0 + k1 + 1):
        for s0 in range(max(1, total - k1), min(k0, total - 1) + 1):
            s1 = total - s0
            for support0 in itertools.combinations(range(k0), s0):
                for support1 in itertools.combinations(range(k1), s1):
                    yield support0, support1


def _verified(a: np.ndarray, b: np.ndarray, x, y, tolerance: float) -> SolutionProfile | None:
    """The profile (x, y) if neither player gains more than ``tolerance`` by
    a pure deviation, else None."""
    gain0 = float((a @ y).max() - x @ a @ y)
    gain1 = float((x @ b).max() - x @ b @ y)
    if max(gain0, gain1) <= tolerance:
        return _profile([x, y], "nash", max(gain0, gain1))
    return None


def _support_candidate(a, b, support0, support1, tolerance: float) -> SolutionProfile | None:
    """The equilibrium on one support pair, or None: the indifference
    weights, cleaned onto the full strategy sets and then verified."""
    # Column mixture y makes the rows (player 0's support) indifferent.
    y_raw = _indifference_solution(a[np.ix_(support0, support1)])
    if y_raw is None:
        return None
    x_raw = _indifference_solution(b[np.ix_(support0, support1)].T)
    if x_raw is None:
        return None
    y = _clean_support_solution(y_raw, support1, a.shape[1])
    x = _clean_support_solution(x_raw, support0, a.shape[0])
    if x is None or y is None:
        return None
    return _verified(a, b, x, y, tolerance)


def _enumerate_nash(a: np.ndarray, b: np.ndarray, tolerance: float) -> SolutionProfile | None:
    """First support pair, in ``_support_pairs`` order, whose candidate verifies."""
    for support0, support1 in _support_pairs(*a.shape):
        solution = _support_candidate(a, b, support0, support1, tolerance)
        if solution is not None:
            return solution
    return None


def _is_constant_sum(a: np.ndarray, b: np.ndarray) -> bool:
    if a.size == 0:  # no strategies: left to enumeration, which reports it
        return False
    scale = max(1.0, float(np.abs(a).max()), float(np.abs(b).max()))
    return float(np.ptp(a + b)) <= CONSTANT_SUM_SLACK * scale


def _minimax_mixture(m: np.ndarray) -> np.ndarray | None:
    """Column mixture y minimising ``max_i (m @ y)_i``, by the simplex method.

    ``m`` is mapped affinely onto [1, 2], which keeps the optimal mixture and
    makes the game value positive. With ``z = y / value`` the problem becomes
    ``max sum(z)`` subject to ``m z <= 1``, ``z >= 0``, feasible from the
    all-slack basis. Bland's rule (lowest-index entering column, lowest-index
    leaving variable among ratio ties) fixes every pivot, so the result is
    deterministic, and it cannot cycle. Returns None if pivoting breaks down
    numerically.
    """
    rows, cols = m.shape
    spread = float(np.ptp(m))
    tableau = np.zeros((rows + 1, cols + rows + 1))
    tableau[:rows, :cols] = (m - m.min()) / (spread if spread > 0.0 else 1.0) + 1.0
    tableau[:rows, cols:-1] = np.eye(rows)
    tableau[:rows, -1] = 1.0
    tableau[rows, :cols] = -1.0  # reduced costs of max sum(z)
    basis = np.arange(cols, cols + rows)
    # Bland's rule terminates; the cap only stops a loop driven by rounding.
    for _ in range(50 * (rows + cols)):
        improving = np.flatnonzero(tableau[rows, :-1] < -PIVOT_EPS)
        if improving.size == 0:
            z = np.zeros(cols + rows)
            z[basis] = tableau[:rows, -1]
            z = np.clip(z[:cols], 0.0, None)
            return z / z.sum()
        enter = improving[0]
        column = tableau[:rows, enter]
        eligible = np.flatnonzero(column > PIVOT_EPS)
        if eligible.size == 0:  # unbounded: impossible for a positive m
            return None
        ratios = tableau[eligible, -1] / column[eligible]
        ties = eligible[ratios == ratios.min()]
        leave = ties[np.argmin(basis[ties])]
        tableau[leave] /= tableau[leave, enter]
        factors = tableau[:, enter].copy()
        factors[leave] = 0.0
        tableau -= np.outer(factors, tableau[leave])
        basis[leave] = enter
    return None


def _minimax_nash(a: np.ndarray, b: np.ndarray, tolerance: float) -> SolutionProfile | None:
    """Equilibrium of a constant-sum game from each player's maximin LP (see
    ``solve_nash``); None if neither the LP supports nor the LP weights verify."""
    x = _minimax_mixture(-a.T)  # player 0 maximises min_j (x @ a)_j
    y = _minimax_mixture(-b)  # player 1 maximises min_i (b @ y)_i
    if x is None or y is None:
        return None
    support0 = np.flatnonzero(x > SUPPORT_EPS)
    support1 = np.flatnonzero(y > SUPPORT_EPS)
    solution = _support_candidate(a, b, support0, support1, tolerance)
    if solution is not None:
        return solution
    x = _clean_support_solution(x[support0], support0, a.shape[0])
    y = _clean_support_solution(y[support1], support1, a.shape[1])
    if x is None or y is None:
        return None
    return _verified(a, b, x, y, tolerance)


def solve_nash(game: EmpiricalGame, tolerance: float = 1e-8) -> SolutionProfile:
    """Nash equilibrium of the empirical game.

    Two players, constant sum (``a + b`` equal in every cell up to a relative
    1e-12): each player's maximin LP is solved by a dense simplex with
    deterministic pivoting. The supports of the two LP solutions are then
    solved and verified as one support pair, exactly as enumeration would,
    so a game with a unique equilibrium gets enumeration's bits; if that
    pair fails (a degenerate game), the cleaned LP weights are verified
    instead. So a degenerate constant-sum game, one with several equilibria,
    returns the equilibrium whose supports the LP under Bland's rule reaches
    first, which need not be the one enumeration would find. Two players,
    general sum, or a constant-sum game whose LP result fails verification:
    support enumeration, solving the indifference linear system per support
    pair in increasing size order and returning the first whose cleaned
    solution is non-negative and admits no pure deviation gaining more than
    ``tolerance``. Both paths are
    deterministic, so repeated calls are bit-identical. More than two
    players: replicator-dynamics approximation with the residual reported.
    """
    tensor = _require_complete(game)
    if game.n_players != 2:
        return _replicator(tensor, steps=100_000, step_size=0.1, solver_name="nash")

    a = tensor[..., 0]  # row player's payoffs
    b = tensor[..., 1]
    constant_sum = _is_constant_sum(a, b)
    if constant_sum:
        solution = _minimax_nash(a, b, tolerance)
        if solution is not None:
            return solution
    solution = _enumerate_nash(a, b, tolerance)
    if solution is None:
        tried = "minimax LP and support enumeration" if constant_sum else "support enumeration"
        raise NoEquilibriumFound(
            f"{tried} found no equilibrium for shape {game.shape} at tolerance {tolerance}"
        )
    return solution


def _replicator(
    tensor: np.ndarray, steps: int, step_size: float, solver_name: str
) -> SolutionProfile:
    shape = tensor.shape[:-1]
    weights = [np.full(k, 1.0 / k) for k in shape]
    averages = [np.zeros(k) for k in shape]
    for _ in range(steps):
        values = [deviation_values(tensor, weights, p) for p in range(len(shape))]
        for p, w in enumerate(weights):
            mean_value = float(values[p] @ w)
            updated = w * (1.0 + step_size * (values[p] - mean_value))
            updated = np.clip(updated, 0.0, None)
            weights[p] = updated / updated.sum()
            averages[p] += weights[p]
    averaged = [avg / steps for avg in averages]
    return _profile(averaged, solver_name, _measured_residual(tensor, averaged))


def solve_replicator(
    game: EmpiricalGame, steps: int = 20_000, step_size: float = 0.1
) -> SolutionProfile:
    """Discrete-time replicator dynamics from the uniform profile.

    Returns the trajectory's time-average, which converges on zero-sum games
    where the raw iterate cycles; the residual is the measured internal
    regret of the averaged profile, reported but not enforced.
    """
    tensor = _require_complete(game)
    return _replicator(tensor, steps, step_size, "replicator")


def solve_uniform(game: EmpiricalGame) -> SolutionProfile:
    """Uniform mixture over each player's current strategy set."""
    weights = [np.full(k, 1.0 / k) for k in game.shape]
    residual = _measured_residual(payoff_tensor(game), weights) if game.is_complete() else 0.0
    return _profile(weights, "uniform", residual)


def solve_last(game: EmpiricalGame) -> SolutionProfile:
    """Probability one on each player's newest strategy (self-play target)."""
    weights = []
    for k in game.shape:
        w = np.zeros(k)
        w[k - 1] = 1.0
        weights.append(w)
    residual = _measured_residual(payoff_tensor(game), weights) if game.is_complete() else 0.0
    return _profile(weights, "last", residual)


SOLVERS = {
    "nash": solve_nash,
    "replicator": solve_replicator,
    "uniform": solve_uniform,
    "last": solve_last,
}


def get_solver(name: str, **params):
    """Solver selected by config name, with solver parameters bound."""
    if name not in SOLVERS:
        raise ValueError(f"unknown meta-strategy solver {name!r}")
    solver = SOLVERS[name]
    if not params:
        return solver
    return lambda game: solver(game, **params)
