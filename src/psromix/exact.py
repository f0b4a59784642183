"""Exact values: which games have them, and computing them.

On both games a policy is valued through its table of action probabilities,
one row per information-state key of its seat, built by the policy's
``action_probability_table``. A matrix seat has one key,
``MATRIX_OBSERVATION``, with every action legal: the payoff tensor
contracted with each seat's row 0 gives a profile's expected payoffs and a
best response's action values.

Leduc has exact values too: its betting tree is small enough to walk every
episode at once. A game is a seating (who acts first) and one of the 120
ordered deals; exact values weigh the two seatings equally, as every
simulated estimate in psromix alternates them, and the deals uniformly, as
every episode picks one of ``LeducEnv.deals``. A seat has 936 keys, and the
walk runs on index arrays over (node, deal) built on first use:

- a profile's value sums, over terminal nodes and deals, each seat's reach
  (the product of its own action probabilities along the path) times the
  chance-weighted reward;
- the keys a profile reaches are those of the acting seat at every (node,
  deal) of positive reach;
- a best response sends the opponents' reach down to the terminal nodes, one
  component at a time weighted by its prior weight, and brings the values
  back up. At a learner node the deals are grouped by the learner's key, and
  the key's counterfactual action values (summed over its deals, each
  weighted by its chance and the opponents' reach) pick the action; ties go
  to the lowest index. A key that no opponent component reaches has all
  action values 0; such keys are left out of the response's table, so it
  plays the lowest legal action there (FOLD when facing a bet, otherwise
  CALL), as at an untrained key of a tabular response.

Two forms compute a profile's payoffs, and each has its users:

- :func:`analytic_payoffs` walks one profile at a time, both seats' tables
  together. Its summation order sets the bits of the analytic cells in
  ``game.txt``, which the run digests pin, so every ``psromix run`` artifact
  keeps it, as do :func:`exact_best_response`, :func:`nash_conv` and the
  hyperparameter scores.
- :func:`payoff_block` fills every profile over per-seat policy pools at
  once: one reach walk per policy, then matrix products. It sums in
  another order than the per-cell walk, so it agrees with it to rounding,
  not to the bit. Regret and proxy regret (:mod:`psromix.evaluation`) use
  it; no run artifact does.

Building a table costs more than a walk, so this module builds each
policy's table once per seat and keeps it, under a weak reference to the
policy, for exactly as long as the policy lives. That relies on one
condition: a policy must not change once it has been valued. Nothing in
psromix changes one; a policy enters a strategy set, an evaluation set or a
mixture only when its training is done.
"""

from __future__ import annotations

import functools
import weakref
from typing import Mapping, Sequence

import numpy as np

from .envs.leduc import LeducEnv, all_deals, betting_tree
from .envs.matrix import MATRIX_OBSERVATION, MatrixGameEnv
from .errors import IllegalAction, WrongEnvironment
from .games import deviation_values
from .policies import QTable, ValuePolicy


def has_exact_values(env) -> bool:
    """Whether this module computes exact values for ``env``'s game."""
    return isinstance(env, (MatrixGameEnv, LeducEnv))


def analytic_payoffs(env, policies: Sequence) -> np.ndarray:
    """Exact expected payoff vector of a policy profile.

    Each policy's table is built on first use and kept while the policy
    lives (see the module docstring). On a matrix game the seats are
    contracted first to last; that order sets the bits of the analytic cells
    in ``game.txt``.
    """
    _check(env)
    per_seat = [_table(env, seat, policy) for seat, policy in enumerate(policies)]
    if isinstance(env, LeducEnv):
        return _leduc_value(per_seat)
    value = env.payoff_tensor
    for table in per_seat:
        value = np.tensordot(table[0], value, axes=(0, 0))
    return value


def payoff_block(env, pools: Sequence[Sequence]) -> np.ndarray:
    """Exact expected payoffs of every profile over the per-seat policy
    ``pools``, as one array of shape ``(*pool sizes, n_players)``: entry
    ``[i0, i1, ..., p]`` is seat ``p``'s payoff when seat ``s`` plays
    ``pools[s][i_s]``.

    On Leduc each policy's reach is walked once, through its own action
    probabilities only, as a realization plan: the reach of each of its
    seat's action sequences. A (terminal, deal) pair is reached with the
    product of the two seats' reaches of their sequences on its path, so
    seat 0's block is ``X0 @ A @ X1.T``, with ``X`` the pools' stacked plans
    and ``A`` the sparse chance-weighted rewards of each pair of sequences.
    On a matrix game the payoff tensor is contracted with each seat's
    stacked row-0 distributions, first seat first. Each policy's table is
    kept as in :func:`analytic_payoffs`; the values agree with it to
    rounding (see the module docstring).
    """
    _check(env)
    if len(pools) != env.n_players:
        raise ValueError(f"expected {env.n_players} pools, got {len(pools)}")
    if isinstance(env, LeducEnv):
        index = _leduc_index()
        plans0, plans1 = (_realization_plans(env, seat, pool) for seat, pool in enumerate(pools))
        # A's non-zero entries, grouped by seat 1's sequence: summed within
        # each group, then one product with seat 1's plans.
        terms = plans0[:, index.pair_sequences[0]]
        terms *= index.pair_rewards
        per_column = np.add.reduceat(terms, index.pair_starts, axis=1)
        block = per_column @ plans1[:, index.pair_sequences[1]].T
        # Leduc is zero-sum to the bit, so seat 1's block is seat 0's negated.
        return np.stack([block, -block], axis=-1)
    value = env.payoff_tensor
    for seat, pool in enumerate(pools):
        dists = np.array([_table(env, seat, policy)[0] for policy in pool])
        value = np.tensordot(value, dists.reshape(len(pool), env.action_count(seat)), axes=(0, 1))
    return np.moveaxis(value, 0, -1)


def exact_best_response(
    env, learner: int, opponent_mixtures: Mapping[int, object]
) -> tuple[ValuePolicy, float]:
    """Best response of ``learner`` and its value.

    Each opponent entry is a policy or a ``(policies, weights)`` pair, on
    both games; on a matrix game a pair is blended into one distribution.
    Every policy's table is kept as in :func:`analytic_payoffs`. The
    returned greedy policy stores the exact action values in its table (on
    Leduc, each key's counterfactual values); ties break toward the lowest
    index.
    """
    _check(env)
    if isinstance(env, LeducEnv):
        return _leduc_best_response(env, learner, opponent_mixtures.get(1 - learner))
    dists = [None] * env.n_players
    for player in range(env.n_players):
        if player != learner:
            dists[player] = np.zeros(env.action_count(player))
            for policy, weight in _components(opponent_mixtures.get(player)):
                dists[player] += weight * _table(env, player, policy)[0]
    values = deviation_values(env.payoff_tensor, dists, learner)
    table = QTable(env.action_count(learner), {MATRIX_OBSERVATION: values})
    return ValuePolicy(table), float(values.max())


def nash_conv(env, strategy_sets: Sequence[Sequence], mixtures: Sequence) -> float:
    """NashConv of the profile in which seat ``p`` plays ``strategy_sets[p]``
    with weights ``mixtures[p]``: summed over seats, the value of the exact
    best response to the other seats' mixtures minus the seat's own value.
    It is 0 exactly at a Nash equilibrium of the full game."""
    _check(env)
    specs = [(list(strategies), weights) for strategies, weights in zip(strategy_sets, mixtures)]
    if len(specs) != env.n_players:
        raise ValueError(f"expected {env.n_players} strategy sets, got {len(specs)}")
    gains = -_profile_value(env, specs)
    for seat in range(env.n_players):
        others = {o: spec for o, spec in enumerate(specs) if o != seat}
        gains[seat] += exact_best_response(env, seat, others)[1]
    return float(gains.sum())


def _profile_value(env, specs: Sequence) -> np.ndarray:
    """Each seat's value when every seat plays its ``(policies, weights)``
    entry. The value is linear in each seat's reach (on a matrix game, its
    action distribution), and a mixture's is its components' weighted sum."""
    if isinstance(env, LeducEnv):
        index = _leduc_index()
        reach = 1.0
        for seat, spec in enumerate(specs):
            reach = reach * sum(
                weight * _reach(index, {seat: _table(env, seat, policy)})
                for policy, weight in _components(spec)
            )
        return np.tensordot(index.rewards, reach, axes=2)
    value = env.payoff_tensor
    for seat, spec in enumerate(specs):
        dist = sum(weight * _table(env, seat, policy)[0] for policy, weight in _components(spec))
        value = np.tensordot(dist, value, axes=(0, 0))
    return value


def _check(env) -> None:
    if not has_exact_values(env):
        raise WrongEnvironment(f"{type(env).__name__} has no exact values")


def seat_keys(env, seat: int) -> tuple[Sequence[bytes], np.ndarray]:
    """Every information-state key at which seat ``seat`` acts in ``env``'s
    game, in the order of the rows of its tables, and their legal actions as
    a boolean mask. A matrix seat has the one key ``MATRIX_OBSERVATION``."""
    if isinstance(env, LeducEnv):
        index = _leduc_index()
        return index.keys[seat], index.legal[seat]
    return [MATRIX_OBSERVATION], np.ones((1, env.action_count(seat)), dtype=bool)


def reached_keys(env, policies: Sequence) -> list[np.ndarray]:
    """Per seat, a boolean mask over the rows of :func:`seat_keys`: the keys
    at which that seat acts with positive probability when the profile
    ``policies`` plays. On a matrix game every seat's one key is reached."""
    _check(env)
    if not isinstance(env, LeducEnv):
        return [np.ones(1, dtype=bool) for _ in range(env.n_players)]
    index = _leduc_index()
    reach = _node_reach(
        index, {seat: _table(env, seat, policy) for seat, policy in enumerate(policies)}
    )
    reached = [np.zeros(len(keys), dtype=bool) for keys in index.keys]
    for player, _, parents, positions in index.levels:
        reached[player][positions[reach[parents] > 0] // 3] = True
    return reached


# Each policy's tables, one per (game, seat) it was valued at. Weak keys: an
# entry lives exactly as long as its policy.
_TABLES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _table(env, seat: int, policy) -> np.ndarray:
    """Row ``r``: ``policy``'s action probabilities at key ``r`` of
    :func:`seat_keys`, built once per policy and seat. A positive
    probability on an illegal action raises ``IllegalAction``, as ``step``
    would on playing it."""
    leduc = isinstance(env, LeducEnv)
    per_seat = _TABLES.setdefault(policy, {})
    table = per_seat.get((leduc, seat))
    if table is not None:
        return table
    keys, legal = seat_keys(env, seat)
    table = policy.action_probability_table(keys, legal)
    illegal = np.argwhere((table != 0.0) & ~legal)
    if len(illegal):
        row, action = illegal[0]
        raise IllegalAction(
            f"{type(policy).__name__} gives action {action} probability "
            f"{float(table[row, action])!r} at key {keys[row].hex()}, where the legal set is "
            f"{tuple(np.flatnonzero(legal[row]).tolist())}"
        )
    table.flags.writeable = False
    per_seat[(leduc, seat)] = table
    return table


def _components(spec) -> list:
    """The ``(policy, weight)`` pairs of non-zero weight in an opponent
    entry: a policy alone, with weight 1, or a ``(policies, weights)`` pair.
    Anything else, a missing entry (``None``) among them, raises."""
    if isinstance(spec, tuple) and len(spec) == 2 and isinstance(spec[0], (list, tuple)):
        pairs = zip(spec[0], np.asarray(spec[1], dtype=float))
    else:
        pairs = [(spec, 1.0)]
    components = [(policy, weight) for policy, weight in pairs if weight != 0.0]
    for policy, _ in components:
        if not hasattr(policy, "action_probability_table"):
            raise ValueError(
                f"an opponent is a policy or a (policies, weights) pair, got {policy!r}"
            )
    return components


# -- Leduc -----------------------------------------------------------------


class _LeducIndex:
    """Index arrays over Leduc's betting tree and its deals.

    - ``keys[p]``: seat ``p``'s information-state keys, in the order first
      met (node id, then deal), and ``legal[p]`` their legal actions as a
      boolean mask.
    - ``levels``: the non-root nodes grouped by depth and by the player who
      acted to reach them, shallowest first. Each group holds that player,
      the nodes' ids, their parents' ids and, per (node, deal), the flat
      position in the player's probability table of the action taken.
    - ``rewards[p, t, d]``: seat ``p``'s reward at the ``t``-th terminal node
      under deal ``d``, times the chance 1 / (2 seatings x 120 deals).
    - ``sequences[p]``: seat ``p``'s action sequences, each named by the
      flat table position of its last action, with the empty sequence one
      past the table, grouped by how many actions of ``p`` come before;
      each group is (the positions, each one's parent sequence).
    - ``pair_sequences``, ``pair_rewards`` and ``pair_starts``: every pair
      of seat 0's and seat 1's sequences that ends a (terminal, deal) path,
      with seat 0's chance-weighted reward summed over the paths it ends;
      pairs of reward 0 are left out. The pairs are sorted by seat 1's
      sequence and ``pair_starts`` marks where each of its values begins;
      ``pair_sequences[1]`` holds one entry per group, at those starts.
    - ``plans[p]``: the decision nodes from the highest id down, with their
      children's ids in legal order and, where ``p`` acts, each deal's key
      group and each group's key row.
    """

    def __init__(self):
        nodes, self.roots = betting_tree()
        deals = all_deals()
        self.shape = (len(nodes), len(deals))
        terminals = [node for node in nodes if node.terminal]
        self.terminals = np.array([node.id for node in terminals])
        outcomes = np.array([deal.outcome for deal in deals])
        rewards = np.array([node.rewards for node in terminals])[:, outcomes]
        self.rewards = np.moveaxis(rewards, -1, 0) / (2 * len(deals))

        self.keys: tuple[list[bytes], list[bytes]] = ([], [])
        legal: tuple[list, list] = ([], [])
        row_of: tuple[dict, dict] = ({}, {})  # per seat: key -> row
        rows = {}  # decision node id -> the actor's key row under each deal
        for node in nodes:
            if node.terminal:
                continue
            seat = node.player
            for deal in deals:
                key = deal.views[seat][node.id]
                if key not in row_of[seat]:
                    row_of[seat][key] = len(self.keys[seat])
                    self.keys[seat].append(key)
                    legal[seat].append([action in node.legal[seat] for action in range(3)])
            rows[node.id] = np.array([row_of[seat][deal.views[seat][node.id]] for deal in deals])
        self.legal = tuple(np.array(per_seat) for per_seat in legal)

        depth = {root.id: 0 for root in self.roots}
        levels: dict[tuple[int, int], list] = {}
        for node in nodes:  # ids number parents before children
            for action, child in node.children.items():
                depth[child.id] = depth[node.id] + 1
                levels.setdefault((depth[child.id], node.player), []).append(
                    (child.id, node.id, 3 * rows[node.id] + action)
                )
        self.levels = [
            (player, *(np.array(column) for column in zip(*entries)))
            for (_, player), entries in sorted(levels.items())
        ]

        # last[p, n, d]: the sequence of seat p's actions on the path to
        # node n under deal d (see sequences above).
        empty = [3 * len(keys) for keys in self.keys]
        last = np.empty((2, *self.shape), dtype=np.intp)
        last[0], last[1] = empty
        parent = [np.empty(len(keys), dtype=np.intp) for keys in self.keys]
        for node in nodes:  # ids number parents before children
            if node.terminal:
                continue
            seat = node.player
            parent[seat][rows[node.id]] = last[seat, node.id]
            for action, child in node.children.items():
                last[:, child.id] = last[:, node.id]
                last[seat, child.id] = 3 * rows[node.id] + action
        self.sequences = []
        for seat in range(2):
            # A key's parent sequence ends at a key met earlier, so its row is lower.
            own_depth = np.zeros(len(parent[seat]), dtype=int)
            for row, position in enumerate(parent[seat].tolist()):
                if position != empty[seat]:
                    own_depth[row] = own_depth[position // 3] + 1
            groups = []
            for level in range(own_depth.max() + 1):
                level_rows = np.flatnonzero(own_depth == level)
                positions = (3 * level_rows[:, None] + np.arange(3)).ravel()
                groups.append((positions, np.repeat(parent[seat][level_rows], 3)))
            self.sequences.append(groups)

        ends = [last[seat][self.terminals].ravel() for seat in range(2)]
        width = empty[0] + 1
        pairs, which = np.unique(ends[1] * width + ends[0], return_inverse=True)
        summed = np.bincount(which, weights=self.rewards[0].ravel())
        kept = summed != 0.0
        pairs, self.pair_rewards = pairs[kept], summed[kept]
        columns = pairs // width
        self.pair_starts = np.flatnonzero(np.r_[True, columns[1:] != columns[:-1]])
        self.pair_sequences = (pairs % width, columns[self.pair_starts])

        self.plans = []
        for learner in range(2):
            plan = []
            for node in reversed(nodes):
                if node.terminal:
                    continue
                legal_actions = node.legal[node.player]
                children = np.array([node.children[a].id for a in legal_actions])
                groups = None
                if node.player == learner:
                    group_of_row: dict[int, int] = {}
                    group_of_deal = np.array(
                        [group_of_row.setdefault(row, len(group_of_row)) for row in rows[node.id]]
                    )
                    groups = (group_of_deal, np.array(list(group_of_row)), np.array(legal_actions))
                plan.append((node.id, children, groups))
            self.plans.append(plan)


@functools.cache
def _leduc_index() -> _LeducIndex:
    return _LeducIndex()


def _node_reach(index: _LeducIndex, tables: Mapping[int, np.ndarray]) -> np.ndarray:
    """Reach of each (node, deal): the product, down the tree, of the action
    probabilities of the seats in ``tables``."""
    reach = np.ones(index.shape)
    for player, ids, parents, positions in index.levels:
        table = tables.get(player)
        if table is None:
            reach[ids] = reach[parents]
        else:
            reach[ids] = reach[parents] * np.take(table, positions)
    return reach


def _reach(index: _LeducIndex, tables: Mapping[int, np.ndarray]) -> np.ndarray:
    """:func:`_node_reach` at the terminal nodes."""
    return _node_reach(index, tables)[index.terminals]


def _realization_plans(env, seat: int, pool: Sequence) -> np.ndarray:
    """Row ``i``: ``pool[i]``'s realization plan at seat ``seat``, the
    product of its own action probabilities along each of the seat's action
    sequences (see ``_LeducIndex.sequences``), computed one level at a time
    over the whole pool. Its value at the seat's last sequence on a
    (terminal, deal) path is that path's reach in a :func:`_node_reach` walk
    with the one table."""
    index = _leduc_index()
    # Row i: pool[i]'s table flattened, then the empty sequence's reach of 1.
    plans = np.ones((len(pool), 3 * len(index.keys[seat]) + 1))
    for row, policy in zip(plans, pool):
        row[:-1] = _table(env, seat, policy).ravel()
    for positions, parents in index.sequences[seat]:
        plans[:, positions] *= plans[:, parents]
    return plans


def _leduc_value(tables: Sequence[np.ndarray]) -> np.ndarray:
    index = _leduc_index()
    return np.tensordot(index.rewards, _reach(index, dict(enumerate(tables))), axes=2)


def _leduc_best_response(env, learner: int, spec) -> tuple[ValuePolicy, float]:
    index = _leduc_index()
    opponent = 1 - learner
    reach = np.zeros(index.rewards.shape[1:])
    for policy, weight in _components(spec):
        reach += weight * _reach(index, {opponent: _table(env, opponent, policy)})

    # values[n, d]: the learner's return at node n under deal d, times the
    # deal's chance and the opponents' reach of n, playing the response below.
    values = np.empty(index.shape)
    values[index.terminals] = index.rewards[learner] * reach
    action_values = np.zeros((len(index.keys[learner]), 3))
    every_deal = np.arange(reach.shape[1])
    for node_id, children, groups in index.plans[learner]:
        child_values = values[children]
        if groups is None:
            values[node_id] = child_values.sum(axis=0)
            continue
        group_of_deal, group_rows, legal = groups
        sums = np.array(
            [np.bincount(group_of_deal, weights=v, minlength=len(group_rows)) for v in child_values]
        )
        choice = sums.argmax(axis=0)  # the lowest legal action among the best
        values[node_id] = child_values[choice[group_of_deal], every_deal]
        action_values[group_rows[:, None], legal] = sums.T
    reached = action_values.any(axis=1)
    kept = [key for key, keep in zip(index.keys[learner], reached.tolist()) if keep]
    table = QTable.from_rows(3, kept, action_values[reached])
    value = sum(float(values[root.id].sum()) for root in index.roots)
    return ValuePolicy(table), value


class ExactOracle:
    """Best-response oracle on exact values: no simulation and no draws. An
    exact response to fixed opponents or to mixtures is one computation."""

    def respond_fixed(self, env, player, opponents, rng, counter, opponent_rng=None):
        return exact_best_response(env, player, opponents)[0]

    respond_mixture = respond_fixed
