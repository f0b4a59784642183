"""One-shot matrix-game environments in compiled form.

Every episode is one joint action, chosen seat by seat; no seat observes
anything, so this is the simultaneous game. The payoff tensor has shape
``(*action_counts, n_players)``. The built-in rock-paper-scissors game
uses the win=1 / tie=0.5 / lose=0 convention.

The game tree (see :mod:`psromix.envs.base`) is compiled when the
environment is built: one node per joint-action prefix, the terminal of a
full joint action holding its tensor cell as the one reward vector. Chance
has no part, so there is one deal, whose views are all
``MATRIX_OBSERVATION``, and ``draw_deal`` draws nothing. The seating is
fixed, so both roots are the same node.
"""

from __future__ import annotations

import itertools

import numpy as np

from . import base
from .base import Deal, Environment, EpisodeState, compile_tree

# Matrix games have a single information state shared by all players.
MATRIX_OBSERVATION = b"matrix"

ROCK, PAPER, SCISSORS = 0, 1, 2


class _Node(base.Node):
    """A joint-action prefix: the seats before ``player`` have chosen ``joint``."""

    __slots__ = ("joint",)


class MatrixGameEnv(Environment):
    """One-shot game given by a dense payoff tensor.

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
        root = self._node(())
        nodes = compile_tree((root,), self._after)
        self.roots = (root, root)
        self._deal = Deal(((MATRIX_OBSERVATION,) * len(nodes),) * self.n_players)

    def _node(self, joint: tuple[int, ...]) -> _Node:
        seat = len(joint)
        node = _Node(seat if seat < self.n_players else None, self._legal)
        node.joint = joint
        if node.terminal:
            node.rewards = (self.payoff_tensor[joint],)
        return node

    def _after(self, node: _Node, action: int) -> _Node:
        return self._node(node.joint + (action,))

    def action_count(self, player: int) -> int:
        return self.action_counts[player]

    def draw_deal(self, rng) -> Deal:
        return self._deal

    def reset(self, rng, first_player: int = 0) -> "MatrixEpisode":
        return MatrixEpisode(self._deal, self.roots[0])


class MatrixEpisode(EpisodeState):
    """The cursor over a matrix game's nodes: the seats act in order, each
    unaware of the earlier choices; the last step returns the tensor cell of
    the joint action."""


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


def save_matrix_env(env: MatrixGameEnv, path) -> None:
    lines = ["psromix-matrix v1", f"players {env.n_players}"]
    lines.append("actions " + " ".join(str(k) for k in env.action_counts))
    for joint in itertools.product(*(range(k) for k in env.action_counts)):
        payoffs = " ".join(repr(float(v)) for v in env.payoff_tensor[joint])
        lines.append("cell " + " ".join(str(a) for a in joint) + " " + payoffs)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_matrix_env(path, name: str | None = None) -> MatrixGameEnv:
    """Read a file written by :func:`save_matrix_env`.

    Every joint action must have exactly one ``cell`` line; any other file
    raises ``ValueError``.
    """
    with open(path) as fh:
        lines = [ln.split() for ln in fh if ln.strip()]
    if len(lines) < 3 or lines[0] != ["psromix-matrix", "v1"] or len(lines[1]) != 2:
        raise ValueError(f"{path}: not a psromix matrix file")
    n_players = int(lines[1][1])
    counts = tuple(int(tok) for tok in lines[2][1:])
    tensor = np.zeros(counts + (n_players,))
    missing = set(itertools.product(*(range(k) for k in counts)))
    for tokens in lines[3:]:
        joint = tuple(int(tok) for tok in tokens[1 : 1 + n_players])
        payoffs = [float(tok) for tok in tokens[1 + n_players :]]
        if tokens[0] != "cell" or joint not in missing or len(payoffs) != n_players:
            raise ValueError(f"{path}: unexpected or repeated line {' '.join(tokens)!r}")
        missing.remove(joint)
        tensor[joint] = payoffs
    if missing:
        raise ValueError(f"{path}: {len(missing)} joint actions lack a cell, first {min(missing)}")
    return MatrixGameEnv(tensor, name=name or f"matrix:{path}")
