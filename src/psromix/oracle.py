"""Best-response oracles.

The tabular oracle runs one-step Q-learning against fixed opponents (fixed
for each episode; a provider callable may resample them at episode starts).
The exact oracle computes best responses analytically for matrix games and
exists to make convergence tests deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .envs.base import Environment
from .envs.matrix import MATRIX_OBSERVATION, action_values, require_matrix_env
from .errors import BudgetZero
from .policies import QTable, ValuePolicy, greedy_over


@dataclass
class OracleHParams:
    """Hyperparameters of the tabular one-step Q-learning oracle."""

    learning_rate: float = 0.1
    discount: float = 0.0
    total_timesteps: int = 10_000
    exploration_timesteps: int = 5_000
    epsilon_start: float = 1.0
    epsilon_end: float = 0.03

    def __post_init__(self):
        if not 0.0 < self.learning_rate <= 1.0:
            raise ValueError(f"learning_rate must be in (0, 1], got {self.learning_rate}")
        if not 0.0 <= self.discount <= 1.0:
            raise ValueError(f"discount must be in [0, 1], got {self.discount}")
        if self.exploration_timesteps > self.total_timesteps:
            raise ValueError(
                "exploration_timesteps must not exceed total_timesteps "
                f"({self.exploration_timesteps} > {self.total_timesteps})"
            )


@dataclass
class SimulationCounter:
    """Cumulative simulation effort: learner training steps and evaluation episodes."""

    train_steps: int = 0
    eval_episodes: int = 0


def epsilon_at(t: int, hparams: OracleHParams) -> float:
    """Linear exploration decay, flat at epsilon_end after the ramp."""
    span = hparams.exploration_timesteps
    if span <= 0:
        return hparams.epsilon_end
    frac = min(t, span) / span
    return hparams.epsilon_start - (hparams.epsilon_start - hparams.epsilon_end) * frac


OpponentProvider = Callable[[np.random.Generator], Mapping[int, object]]


def _as_provider(opponents) -> OpponentProvider:
    if callable(opponents):
        return opponents
    fixed = dict(opponents)
    return lambda rng: fixed


def train_best_response(
    env: Environment,
    learner: int,
    opponents,
    hparams: OracleHParams,
    rng,
    counter: SimulationCounter | None = None,
    opponent_rng=None,
) -> ValuePolicy:
    """Tabular Q-learning against fixed opponents; returns the greedy policy.

    ``opponents`` maps the other player indices to policies, or is a callable
    drawing such a mapping at each episode start (policies stay fixed within
    an episode). Exactly ``total_timesteps`` learner actions are taken;
    epsilon decays linearly over ``exploration_timesteps``. Opponent draws
    consume ``opponent_rng`` (default: ``rng``) so that fixed-opponent
    trainings are unaffected by how the provider samples.
    """
    if hparams.total_timesteps == 0:
        raise BudgetZero("total_timesteps is 0")
    provider = _as_provider(opponents)
    if opponent_rng is None:
        opponent_rng = rng
    n_actions = env.action_count(learner)
    q = QTable(n_actions)
    gamma = hparams.discount
    lr = hparams.learning_rate
    total = hparams.total_timesteps
    t = 0
    episode = 0
    done = False

    while not done:
        opponent_policies = provider(opponent_rng)
        state = env.reset(rng, first_player=episode % 2)
        episode += 1
        pending: tuple[bytes, int] | None = None
        acc_reward = 0.0
        while not state.terminal:
            actions = {}
            for player in state.to_act:
                if player == learner:
                    obs_key = state.observation(player).key
                    legal = state.legal_actions(player)
                    if pending is not None:
                        vec = q.ensure(pending[0])
                        bootstrap = max(q.lookup(obs_key)[a] for a in legal)
                        target = acc_reward + gamma * bootstrap
                        vec[pending[1]] += lr * (target - vec[pending[1]])
                        pending = None
                        acc_reward = 0.0
                        if t >= total:
                            done = True
                            break
                    epsilon = epsilon_at(t, hparams)
                    if epsilon > 0.0 and rng.random() < epsilon:
                        action = legal[rng.integers(len(legal))]
                    else:
                        action = greedy_over(q.lookup(obs_key), legal)
                    pending = (obs_key, action)
                    t += 1
                    if counter is not None:
                        counter.train_steps += 1
                else:
                    obs = state.observation(player)
                    legal = state.legal_actions(player)
                    action = opponent_policies[player].act(obs, legal, rng)
                actions[player] = action
            if done:
                break
            rewards = state.step(actions)
            if pending is not None:
                acc_reward += rewards[learner]
        if state.terminal and pending is not None:
            vec = q.ensure(pending[0])
            vec[pending[1]] += lr * (acc_reward - vec[pending[1]])
            pending = None
        if t >= total:
            done = True
    return ValuePolicy(q)


def exact_best_response(
    env, learner: int, opponent_mixtures: Mapping[int, object]
) -> tuple[ValuePolicy, float]:
    """Analytic best response in a matrix game.

    Each opponent entry may be an action-distribution vector, a policy with
    known action probabilities, or a ``(policies, weights)`` pair whose
    blended action distribution is used. The returned greedy policy stores
    the exact action values in its table; ties break toward the lowest index.
    """
    env = require_matrix_env(env)
    dists: dict[int, np.ndarray] = {}
    for player in range(env.n_players):
        if player == learner:
            continue
        dists[player] = _action_distribution(env, player, opponent_mixtures[player])
    values = action_values(env, learner, dists)
    table = QTable(env.action_count(learner))
    table.set(MATRIX_OBSERVATION.key, values)
    best = int(np.argmax(values))  # lowest index among maximisers
    return ValuePolicy(table), float(values[best])


def _action_distribution(env, player: int, spec) -> np.ndarray:
    legal = tuple(range(env.action_count(player)))
    if isinstance(spec, tuple) and len(spec) == 2 and isinstance(spec[0], (list, tuple)):
        policies, weights = spec
        weights = np.asarray(weights, dtype=float)
        blended = np.zeros(env.action_count(player))
        for weight, policy in zip(weights, policies):
            if weight == 0.0:
                continue
            blended += weight * np.asarray(
                policy.action_probabilities(MATRIX_OBSERVATION, legal)
            )
        return blended
    if hasattr(spec, "action_probabilities"):
        return np.asarray(spec.action_probabilities(MATRIX_OBSERVATION, legal))
    dist = np.asarray(spec, dtype=float)
    if dist.shape != (env.action_count(player),):
        raise ValueError(
            f"opponent distribution for player {player} has shape {dist.shape}"
        )
    return dist


class TabularOracle:
    """Best-response oracle backed by tabular Q-learning.

    Uses the mixed-opponent hyperparameters when responding to a profile
    mixture (the resampled-opponent setting) and the pure-opponent
    hyperparameters when responding to fixed policies.
    """

    def __init__(self, pure_hparams: OracleHParams, mix_hparams: OracleHParams):
        self.pure_hparams = pure_hparams
        self.mix_hparams = mix_hparams

    def respond_fixed(self, env, player, opponents, rng, counter, opponent_rng=None):
        return train_best_response(
            env, player, opponents, self.pure_hparams, rng, counter, opponent_rng
        )

    def respond_mixture(self, env, player, opponent_sets, weights, rng, counter, opponent_rng=None):
        cumulative = {
            other: np.cumsum(np.asarray(weights[other], dtype=float))
            for other in opponent_sets
        }

        def provider(sample_rng):
            return {
                other: policies[
                    int(np.searchsorted(cumulative[other], sample_rng.random(), side="right"))
                ]
                for other, policies in opponent_sets.items()
            }

        return train_best_response(
            env, player, provider, self.mix_hparams, rng, counter, opponent_rng
        )


class ExactMatrixOracle:
    """Analytic best-response oracle for matrix games (no simulation cost)."""

    def respond_fixed(self, env, player, opponents, rng, counter, opponent_rng=None):
        policy, _ = exact_best_response(env, player, opponents)
        return policy

    def respond_mixture(self, env, player, opponent_sets, weights, rng, counter, opponent_rng=None):
        mixtures = {
            other: (list(policies), weights[other])
            for other, policies in opponent_sets.items()
        }
        policy, _ = exact_best_response(env, player, mixtures)
        return policy
