"""Exact values: which games have them, and computing them.

Matrix games have them: the payoff tensor contracted with each seat's action
distribution gives a profile's expected payoffs and a best response's action
values.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from .envs.matrix import MATRIX_OBSERVATION, MatrixGameEnv
from .errors import WrongEnvironment
from .games import deviation_values
from .policies import QTable, ValuePolicy


def has_exact_values(env) -> bool:
    """Whether this module computes exact values for ``env``'s game."""
    return isinstance(env, MatrixGameEnv)


def analytic_payoffs(env, policies: Sequence) -> np.ndarray:
    """Exact expected payoff vector of a policy profile.

    The seats are contracted first to last; that order sets the bits of the
    analytic cells in ``game.txt``.
    """
    dists = _distributions(env, policies)
    value = env.payoff_tensor
    for dist in dists:
        value = np.tensordot(dist, value, axes=(0, 0))
    return value


def exact_best_response(
    env, learner: int, opponent_mixtures: Mapping[int, object]
) -> tuple[ValuePolicy, float]:
    """Best response of ``learner`` and its value.

    Each opponent entry may be an action-distribution vector, a policy with
    known action probabilities, or a ``(policies, weights)`` pair whose
    blended action distribution is used. The returned greedy policy stores
    the exact action values in its table; ties break toward the lowest index.
    """
    dists = _distributions(env, opponent_mixtures, learner)
    values = deviation_values(env.payoff_tensor, dists, learner)
    table = QTable(env.action_count(learner), {MATRIX_OBSERVATION: values})
    return ValuePolicy(table), float(values.max())


def _distributions(env, specs, learner: int | None = None) -> list:
    """Each seat's action distribution under ``specs[seat]``; None for ``learner``."""
    if not has_exact_values(env):
        raise WrongEnvironment(f"{type(env).__name__} has no exact values")
    return [
        None if player == learner else _action_distribution(env, player, specs[player])
        for player in range(env.n_players)
    ]


def _action_distribution(env, player: int, spec) -> np.ndarray:
    legal = tuple(range(env.action_count(player)))
    if hasattr(spec, "action_probabilities"):
        return np.asarray(spec.action_probabilities(MATRIX_OBSERVATION, legal), dtype=float)
    if isinstance(spec, tuple) and len(spec) == 2 and isinstance(spec[0], (list, tuple)):
        policies, weights = spec
        blended = np.zeros(len(legal))
        for weight, policy in zip(np.asarray(weights, dtype=float), policies):
            if weight != 0.0:
                blended += weight * _action_distribution(env, player, policy)
        return blended
    dist = np.asarray(spec, dtype=float)
    if dist.shape != (len(legal),):
        raise ValueError(
            f"opponent distribution for player {player} has shape {dist.shape}"
        )
    return dist


class ExactOracle:
    """Best-response oracle on exact values: no simulation and no draws. An
    exact response to fixed opponents or to mixtures is one computation."""

    def respond_fixed(self, env, player, opponents, rng, counter, opponent_rng=None):
        return exact_best_response(env, player, opponents)[0]

    respond_mixture = respond_fixed
