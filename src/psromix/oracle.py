"""The tabular best-response oracle: one-step Q-learning against fixed
opponents (fixed for each episode; a provider callable may resample them at
episode starts).

Training walks the environment's compiled game tree (see
:mod:`psromix.envs.base`) directly: an episode is one of ``env.deals`` and a
node, a key is one view lookup, a step is one child lookup, and the
learner's reward is read once, as a Python float from the terminal node's
``returns``. Matrix games and Leduc share the one loop, and every draw it
makes is the next double of a :func:`~psromix.envs.base.uniforms` stream.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .config import OracleHParams
from .envs.base import Environment, illegal_action, uniforms
from .policies import FixedMixturePolicy, QTable, ValuePolicy


@dataclass
class SimulationCounter:
    """Cumulative simulation effort: learner training steps, and the episodes
    simulated to fill payoff cells (exact cells count none)."""

    train_steps: int = 0
    eval_episodes: int = 0


def epsilon_at(t: int, hparams: OracleHParams) -> float:
    """Linear exploration decay, flat at epsilon_end after the ramp."""
    span = hparams.exploration_timesteps
    if span <= 0:
        return hparams.epsilon_end
    frac = min(t, span) / span
    return hparams.epsilon_start - (hparams.epsilon_start - hparams.epsilon_end) * frac


def _opponent_entry(policy, random, rng):
    """How training plays ``policy``: ``(epsilon, memo)`` for a value
    policy, else a function from (key, legal) to its action."""
    if isinstance(policy, ValuePolicy):
        return policy.epsilon, {}
    if isinstance(policy, FixedMixturePolicy):
        # FixedMixturePolicy.act's draw: np.searchsorted(side="right").
        cumulative = np.cumsum(policy.probs).tolist()
        return lambda key, legal: bisect_right(cumulative, random())
    return lambda key, legal: policy.act(key, legal, rng)


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
    an episode), given a function that returns the opponent stream's next
    double: ``opponent_rng``'s, or the train stream's when that is None.
    Exactly ``total_timesteps`` learner actions are taken; epsilon decays
    linearly over ``exploration_timesteps``. An opponent action the node has
    no child for raises ``IllegalAction``.

    Every other draw is the train stream's next double, read from
    ``uniforms(rng)``: each episode's deal, ``env.deals[int(u * n)]``; the
    learner's exploration coin (none at epsilon 0) and uniform action,
    ``legal[int(u * len(legal))]``; and the draws that a ``ValuePolicy`` or
    ``FixedMixturePolicy`` opponent's ``act`` would make. Those opponents
    play inside the loop, a value policy's greedy action memoized per
    (observation, legal actions), since its table never changes; any other
    opponent is asked to ``act`` with ``rng`` itself.
    """
    provider = opponents if callable(opponents) else None
    opponent_policies = dict(opponents) if provider is None else None
    random = uniforms(rng).__next__
    opponent_random = random if opponent_rng is None else uniforms(opponent_rng).__next__
    n_actions = env.action_count(learner)
    # The learner's rows are lists of Python floats until the end: a float is
    # the same double as a float64 and rounds each update alike, without
    # numpy's per-element boxing (terminal ``returns`` are Python floats
    # too). A key gets its own zero row when first updated.
    default_row = [0.0] * n_actions
    rows: dict[bytes, list[float]] = {}
    get_row = rows.get
    # opponent -> (epsilon, {(key, legal): greedy action}) for a value
    # policy, else the function that gives its action.
    entries: dict[object, object] = {}
    roots, deals = env.roots, env.deals
    n_deals = len(deals)
    gamma = hparams.discount
    lr = hparams.learning_rate
    total = hparams.total_timesteps
    # epsilon_at is flat from the end of the ramp on.
    ramp = hparams.exploration_timesteps
    flat_epsilon = epsilon_at(ramp, hparams)
    t = 0
    episode = 0

    while t < total:
        if provider is not None:
            opponent_policies = provider(opponent_random)
        deal = deals[int(random() * n_deals)]
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
                    action = legal[int(random() * len(legal))]
                else:
                    # greedy_over, inlined: the lowest-index maximiser. The
                    # row is read after the update above, which may be its own.
                    row = get_row(key, default_row)
                    action = legal[0]
                    best = row[action]
                    for a in legal:
                        value = row[a]
                        if value > best:
                            action, best = a, value
                pending_key, pending_action = key, action
                t += 1
                node = node.children[action]
            else:
                policy = opponent_policies[player]
                try:
                    entry = entries[policy]
                except KeyError:
                    entry = entries[policy] = _opponent_entry(policy, random, rng)
                if entry.__class__ is not tuple:
                    action = entry(key, legal)
                    child = node.children.get(action)
                    if child is None:
                        raise illegal_action(node, action)
                    node = child
                    continue
                # ValuePolicy.act's draws; its actions are legal by construction.
                epsilon, memo = entry
                if epsilon > 0.0 and random() < epsilon:
                    action = legal[int(random() * len(legal))]
                else:
                    action = memo.get((key, legal))
                    if action is None:
                        action = memo[key, legal] = policy.greedy_action(key, legal)
                node = node.children[action]
        if pending_key is not None:
            reward = node.returns[deal.outcome][learner]
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
        maps each opponent to a ``(policies, weights)`` pair.

        Each episode draws one policy per opponent, in ``mixtures`` order:
        the first whose cumulative weight exceeds the opponent stream's next
        double (``opponent_rng``'s, or ``rng``'s when None; see
        :func:`train_best_response`), as ``np.searchsorted(...,
        side="right")`` over the cumsum picks.
        """
        seats = [
            (other, policies, np.cumsum(np.asarray(weights, dtype=float)).tolist())
            for other, (policies, weights) in mixtures.items()
        ]

        def provider(random):
            return {
                other: policies[bisect_right(cumulative, random())]
                for other, policies, cumulative in seats
            }

        return train_best_response(
            env, player, provider, self.mix_hparams, rng, counter, opponent_rng
        )
