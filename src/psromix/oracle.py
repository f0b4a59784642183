"""The tabular best-response oracle: one-step Q-learning against fixed
opponents (fixed for each episode; a provider callable may resample them at
episode starts).

Training walks the environment's compiled game tree (see
:mod:`psromix.envs.base`) directly: an episode is a deal from ``draw_deal``
and a node, a key is one view lookup, a step is one child lookup, and the
learner's reward is read once, at the terminal node. Matrix games and Leduc
share the one loop.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .config import OracleHParams
from .envs.base import Environment, illegal_action
from .policies import QTable, ValuePolicy, greedy_over, is_greedy


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
    trainings are unaffected by how the provider samples. An opponent action
    the node has no child for raises ``IllegalAction``.

    Opponents do not change during a call, so a greedy one (see
    :func:`~psromix.policies.is_greedy`) is asked to ``act`` once per
    (observation, legal actions) and its answer is reused for the rest of
    the call; it draws nothing, so the random streams are those of asking
    it every time. Every other opponent is asked at every step.
    """
    provider = _as_provider(opponents)
    if opponent_rng is None:
        opponent_rng = rng
    n_actions = env.action_count(learner)
    # The learner's rows are lists of Python floats until the end: a float is
    # the same double as a float64 and rounds each update alike, without
    # numpy's per-element boxing (``float(reward)`` keeps numpy scalars out
    # of the rows). A key gets its own zero row when first updated.
    default_row = [0.0] * n_actions
    rows: dict[bytes, list[float]] = {}
    get_row = rows.get
    memos: dict[object, dict | None] = {}  # opponent -> its actions, or None
    random, integers = rng.random, rng.integers
    roots, draw_deal = env.roots, env.draw_deal
    gamma = hparams.discount
    lr = hparams.learning_rate
    total = hparams.total_timesteps
    # epsilon_at is flat from the end of the ramp on.
    ramp = hparams.exploration_timesteps
    flat_epsilon = epsilon_at(ramp, hparams)
    t = 0
    episode = 0

    while t < total:
        opponent_policies = provider(opponent_rng)
        deal = draw_deal(rng)
        views = deal.views
        node = roots[episode % 2]
        episode += 1
        pending_key = None
        pending_action = 0
        while not node.terminal:
            player = node.player
            key = views[player][node.id]
            legal = node.legal[player]
            if player == learner:
                if pending_key is not None:
                    row = get_row(pending_key)
                    if row is None:
                        row = rows[pending_key] = default_row.copy()
                    # No reward arrives before the terminal node.
                    bootstrap = max(map(get_row(key, default_row).__getitem__, legal))
                    target = gamma * bootstrap
                    row[pending_action] += lr * (target - row[pending_action])
                    pending_key = None
                    if t >= total:
                        break
                epsilon = epsilon_at(t, hparams) if t < ramp else flat_epsilon
                if epsilon > 0.0 and random() < epsilon:
                    action = legal[integers(len(legal))]
                else:
                    action = greedy_over(get_row(key, default_row), legal)
                pending_key, pending_action = key, action
                t += 1
                node = node.children[action]
            else:
                policy = opponent_policies[player]
                try:
                    memo = memos[policy]
                except KeyError:
                    memo = memos[policy] = {} if is_greedy(policy) else None
                if memo is None:
                    action = policy.act(key, legal, rng)
                else:
                    action = memo.get((key, legal))
                    if action is None:
                        action = memo[key, legal] = policy.act(key, legal, rng)
                child = node.children.get(action)
                if child is None:
                    raise illegal_action(node, action)
                node = child
        if pending_key is not None:
            reward = float(node.rewards[deal.outcome][learner])
            row = get_row(pending_key)
            if row is None:
                row = rows[pending_key] = default_row.copy()
            row[pending_action] += lr * (reward - row[pending_action])
    if counter is not None:
        counter.train_steps += t
    return ValuePolicy(QTable(n_actions, rows))


class TabularOracle:
    """Best-response oracle backed by tabular Q-learning.

    Uses the mixed-opponent hyperparameters when responding to a profile
    mixture (the resampled-opponent setting) and the pure-opponent
    hyperparameters when responding to fixed policies.
    """

    def __init__(self, pure_hparams: OracleHParams, mix_hparams: OracleHParams):
        self.pure_hparams = pure_hparams
        self.mix_hparams = mix_hparams

    def respond_fixed(self, env, player, opponents, rng, counter):
        return train_best_response(env, player, opponents, self.pure_hparams, rng, counter)

    def respond_mixture(self, env, player, mixtures, rng, counter, opponent_rng=None):
        """Train against opponents drawn afresh each episode: ``mixtures``
        maps each opponent to a ``(policies, weights)`` pair."""
        # bisect_right over the cumsum picks what np.searchsorted(side="right") would.
        draws = [
            (other, policies, np.cumsum(np.asarray(weights, dtype=float)).tolist())
            for other, (policies, weights) in mixtures.items()
        ]

        def provider(sample_rng):
            return {
                other: policies[bisect.bisect_right(cumulative, sample_rng.random())]
                for other, policies, cumulative in draws
            }

        return train_best_response(
            env, player, provider, self.mix_hparams, rng, counter, opponent_rng
        )
