"""The tabular best-response oracle: one-step Q-learning against fixed
opponents (fixed for each episode; a provider callable may resample them at
episode starts).

Training walks the environment's compiled game tree (see
:mod:`psromix.envs.base`) directly: an episode is a deal from ``draw_deal``
and a node, a key is one view lookup, a step is one child lookup, and the
learner's reward is read once, as a Python float from the terminal node's
``returns``. Matrix games and Leduc share the one loop.

Opponents act inside that loop. A value-policy opponent's greedy action is
memoized per (observation, legal actions) for the call, at any epsilon, and
its exploration draws call the train stream's bit generator directly, as
the learner's do; any other policy is asked to ``act``. Psro's mixture
provider draws each episode's opponents the same way, on the opponent
stream.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .config import OracleHParams
from .envs.base import Environment, bounded, illegal_action
from .policies import QTable, ValuePolicy


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

    A :class:`~psromix.policies.ValuePolicy` opponent is played here, not
    asked to ``act``: with probability ``epsilon`` a uniform legal action,
    else its greedy action. Its table never changes, so each value
    opponent's greedy action is computed once per (observation, legal
    actions), whatever its epsilon, and reused for the rest of the call.
    Every other opponent (a ``FixedMixturePolicy``, say) is asked to ``act``
    at every step, with ``rng`` itself.

    The learner's and the value opponents' exploration draws call ``rng``'s
    bit generator functions ``next_double`` and ``next_uint32`` directly
    (:func:`~psromix.envs.base.bounded` for the uniform action), making the
    draws, in the order, that ``ValuePolicy.act`` would, so the stream keeps
    its bits. A provider is given the opponent stream itself, and
    ``draw_deal`` the train stream.
    """
    provider = _as_provider(opponents)
    if opponent_rng is None:
        opponent_rng = rng
    n_actions = env.action_count(learner)
    # The learner's rows are lists of Python floats until the end: a float is
    # the same double as a float64 and rounds each update alike, without
    # numpy's per-element boxing (terminal ``returns`` are Python floats
    # too). A key gets its own zero row when first updated.
    default_row = [0.0] * n_actions
    rows: dict[bytes, list[float]] = {}
    get_row = rows.get
    # opponent -> (epsilon, {(key, legal): greedy action}) for a value
    # policy, None for a policy that is asked to act.
    entries: dict[object, tuple[float, dict] | None] = {}
    interface = rng.bit_generator.ctypes
    next_double, next_uint32, state = (
        interface.next_double, interface.next_uint32, interface.state
    )
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
                if epsilon > 0.0 and next_double(state) < epsilon:
                    action = legal[bounded(next_uint32, state, len(legal))]
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
                    entry = entries[policy] = (
                        (policy.epsilon, {}) if isinstance(policy, ValuePolicy) else None
                    )
                if entry is None:
                    action = policy.act(key, legal, rng)
                    child = node.children.get(action)
                    if child is None:
                        raise illegal_action(node, action)
                    node = child
                    continue
                # ValuePolicy.act's draws; its actions are legal by construction.
                epsilon, memo = entry
                if epsilon > 0.0 and next_double(state) < epsilon:
                    action = legal[bounded(next_uint32, state, len(legal))]
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
        the first whose cumulative weight exceeds a ``random()`` draw on
        ``opponent_rng`` (``rng`` when None), as ``np.searchsorted(...,
        side="right")`` over the cumsum picks. The draw calls that stream's
        ``next_double`` directly.
        """
        # Both generators are this call's arguments, so the bit generator
        # state that next_double is given outlives the training.
        interface = (rng if opponent_rng is None else opponent_rng).bit_generator.ctypes
        next_double, state = interface.next_double, interface.state
        seats = [
            (other, policies, np.cumsum(np.asarray(weights, dtype=float)).tolist())
            for other, (policies, weights) in mixtures.items()
        ]

        def provider(_rng):
            return {
                other: policies[bisect_right(cumulative, next_double(state))]
                for other, policies, cumulative in seats
            }

        return train_best_response(
            env, player, provider, self.mix_hparams, rng, counter, opponent_rng
        )
