"""One-shot matrix-game environments.

Every episode is a single simultaneous joint action; the payoff tensor has
shape ``(*action_counts, n_players)``. The built-in rock-paper-scissors game
uses the win=1 / tie=0.5 / lose=0 convention, which makes per-action values
against a fixed opponent mixture land on round numbers (e.g. the value of R
against (0, 0.3, 0.7) is exactly 0.7).
"""

from __future__ import annotations

import itertools
from typing import Mapping, Sequence

import numpy as np

from ..errors import IllegalAction, WrongEnvironment
from .base import Environment, EpisodeState, Observation

# Matrix games have a single information state shared by all players.
MATRIX_OBSERVATION = Observation(key=b"matrix", features=np.ones(1))

ROCK, PAPER, SCISSORS = 0, 1, 2


class MatrixGameEnv(Environment):
    """Simultaneous one-shot game given by a dense payoff tensor.

    The tensor is copied and made read-only, so neither the caller's array
    nor a returned reward vector can change the game.
    """

    def __init__(self, payoff_tensor, name: str = "matrix"):
        tensor = np.array(payoff_tensor, dtype=float)
        tensor.flags.writeable = False
        if tensor.ndim < 2:
            raise ValueError("payoff tensor must have shape (*action_counts, n_players)")
        self.payoff_tensor = tensor
        self.n_players = tensor.shape[-1]
        if tensor.ndim - 1 != self.n_players:
            raise ValueError(
                f"tensor with {tensor.ndim - 1} action axes cannot serve "
                f"{self.n_players} players"
            )
        self.action_counts = tensor.shape[:-1]
        self.name = name
        self._legal = tuple(tuple(range(k)) for k in self.action_counts)

    def action_count(self, player: int) -> int:
        return self.action_counts[player]

    def reset(self, rng, first_player: int = 0) -> "MatrixEpisode":
        return MatrixEpisode(self)


class MatrixEpisode(EpisodeState):
    def __init__(self, env: MatrixGameEnv):
        self.env = env
        self.to_act = tuple(range(env.n_players))
        self.terminal = False

    def observation(self, player: int) -> Observation:
        return MATRIX_OBSERVATION

    def legal_actions(self, player: int) -> tuple[int, ...]:
        return self.env._legal[player]

    def step(self, actions: Mapping[int, int]) -> np.ndarray:
        joint = tuple(actions[p] for p in range(self.env.n_players))
        for player, action in enumerate(joint):
            if action not in self.env._legal[player]:
                raise IllegalAction(
                    f"player {player} chose action {action}; "
                    f"legal set is {self.env._legal[player]}"
                )
        self.terminal = True
        self.to_act = ()
        return self.env.payoff_tensor[joint]


def rps_env() -> MatrixGameEnv:
    """Rock-paper-scissors with win=1, tie=0.5, lose=0."""
    tensor = np.empty((3, 3, 2))
    for a, b in itertools.product(range(3), range(3)):
        if a == b:
            u = 0.5
        elif (a - b) % 3 == 1:
            u = 1.0
        else:
            u = 0.0
        tensor[a, b] = (u, 1.0 - u)
    return MatrixGameEnv(tensor, name="rps")


def analytic_payoffs(env: MatrixGameEnv, policies: Sequence) -> np.ndarray:
    """Exact expected payoff vector of a policy profile, by tensor contraction."""
    require_matrix_env(env)
    dists = [
        np.asarray(p.action_probabilities(MATRIX_OBSERVATION, env._legal[i]))
        for i, p in enumerate(policies)
    ]
    value = env.payoff_tensor
    for dist in dists:
        value = np.tensordot(dist, value, axes=(0, 0))
    return value


def require_matrix_env(env) -> MatrixGameEnv:
    if not isinstance(env, MatrixGameEnv):
        raise WrongEnvironment(
            f"expected a matrix-game environment, got {type(env).__name__}"
        )
    return env


def save_matrix_env(env: MatrixGameEnv, path) -> None:
    lines = ["psromix-matrix v1", f"players {env.n_players}"]
    lines.append("actions " + " ".join(str(k) for k in env.action_counts))
    for joint in itertools.product(*(range(k) for k in env.action_counts)):
        payoffs = " ".join(repr(float(v)) for v in env.payoff_tensor[joint])
        lines.append("cell " + " ".join(str(a) for a in joint) + " " + payoffs)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_matrix_env(path, name: str | None = None) -> MatrixGameEnv:
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines or lines[0] != "psromix-matrix v1":
        raise ValueError(f"{path}: not a psromix matrix file")
    n_players = int(lines[1].split()[1])
    counts = tuple(int(tok) for tok in lines[2].split()[1:])
    tensor = np.zeros(counts + (n_players,))
    for line in lines[3:]:
        tokens = line.split()
        if tokens[0] != "cell":
            raise ValueError(f"{path}: unexpected line {line!r}")
        joint = tuple(int(tok) for tok in tokens[1 : 1 + n_players])
        tensor[joint] = [float(tok) for tok in tokens[1 + n_players :]]
    return MatrixGameEnv(tensor, name=name or f"matrix:{path}")
