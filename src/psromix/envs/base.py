"""Episodic multiagent environments in compiled form, and the one episode walker.

Every environment is compiled once into a game tree that all episodes share:

- A :class:`Node` is a decision point or a terminal. It holds its ``id``, the
  acting ``player`` (None at a terminal), each player's ``legal`` actions,
  the child ``children[action]`` per legal action, and at a terminal one
  read-only ``rewards`` vector per outcome, with ``returns``, the same
  values as one tuple of Python floats per outcome, for loops that read one
  player's return. Rewards arrive only at terminals.
- A :class:`Deal` holds what chance decides at an episode's start.
  ``views[player][node.id]`` is the player's observation at a node: its
  canonical key, so two information states with different legal histories
  never share one. ``outcome`` picks a terminal's reward vector.

An environment gives ``roots[first_player]``, the root of each of the two
seatings that episode runners alternate, and ``deals``, the equally likely
deals of its chance; ``draw_deal(rng)`` picks one of them with one
``random()`` draw. An episode is then a (deal, node) pair:
:func:`simulate_episode` here and ``oracle.train_best_response`` walk it
directly, and an :class:`EpisodeState` from ``reset`` is a cursor over the
same pair for single-episode use. A missing child is an illegal action; the
walkers and the cursor raise the same :func:`illegal_action` error for it.

Episodes are simulated only where the paper simulates: in best-response
training and in the sampled payoff cells of :func:`estimate_payoffs`. A
simulated episode yields its per-player returns and nothing else; every
other value in psromix is exact (see :mod:`psromix.exact`).

An episode's every draw is a uniform double. A uniform choice among ``n``
items, a deal or a legal action, is item ``int(u * n)``: the largest double
below 1 times any ``n`` up to 2**53 rounds to below ``n``. Training reads
its doubles from :func:`uniforms`, a plain iterator over array draws; a
sampled cell plays all its episodes, one after another, on its own
generator.
"""

from __future__ import annotations

import functools
import itertools
from typing import Callable, Iterator, Sequence

import numpy as np

from ..errors import IllegalAction


class Node:
    """One node of a compiled game tree, shared by every episode that
    reaches it and immutable once :func:`compile_tree` has numbered it."""

    __slots__ = ("id", "player", "terminal", "legal", "children", "rewards", "returns")

    def __init__(self, player: int | None, legal: tuple[tuple[int, ...], ...]):
        self.player = player  # None at a terminal node
        self.terminal = player is None
        self.legal = legal  # per player
        self.children: dict[int, Node] = {}
        self.rewards: tuple[np.ndarray, ...] | None = None  # per outcome, terminals only
        # ``rewards`` as Python floats, bit for bit; set by compile_tree.
        self.returns: tuple[tuple[float, ...], ...] | None = None


def compile_tree(roots: Sequence[Node], after: Callable[[Node, int], Node]) -> list[Node]:
    """Link every node reachable from ``roots`` to its children, built by
    ``after(node, action)`` for each legal action of the acting player, and
    number them depth first, root by root. Each terminal's ``returns`` is
    filled from its ``rewards``. Returns the nodes by id."""
    nodes: list[Node] = []

    def expand(node: Node) -> Node:
        node.id = len(nodes)
        nodes.append(node)
        if node.terminal:
            node.returns = tuple(tuple(map(float, rewards)) for rewards in node.rewards)
        else:
            for action in node.legal[node.player]:
                node.children[action] = expand(after(node, action))
        return node

    for root in roots:
        expand(root)
    return nodes


class Deal:
    """Chance's part of one episode: each player's observation per node id,
    and the outcome index into a terminal node's ``rewards``."""

    __slots__ = ("views", "outcome")

    def __init__(self, views: tuple[tuple[bytes, ...], ...], outcome: int = 0):
        self.views = views
        self.outcome = outcome


def illegal_action(node: Node, action) -> IllegalAction:
    """The error for ``action`` at ``node``, which has no child for it."""
    return IllegalAction(
        f"player {node.player} chose action {action}; legal set is {node.legal[node.player]}"
    )


@functools.cache
def _no_rewards(n_players: int) -> np.ndarray:
    zeros = np.zeros(n_players)
    zeros.flags.writeable = False
    return zeros


class EpisodeState:
    """A cursor over one episode: a deal plus the node reached so far.

    ``player`` is the player to act, None once ``terminal``. ``step`` applies
    the acting player's action and returns the per-player reward vector for
    the step: a shared read-only zero vector before the terminal, the
    terminal's vector for the deal's outcome at it. Callers add it into their
    own sums rather than keep or modify it. An action with no child raises
    ``IllegalAction`` and leaves the cursor where it was.
    """

    def __init__(self, deal: Deal, node: Node):
        self._deal = deal
        self._node = node
        self.player = node.player
        self.terminal = node.terminal

    def __deepcopy__(self, memo) -> "EpisodeState":
        # Deal and node are immutable and shared; only the position is copied.
        return type(self)(self._deal, self._node)

    def observation(self, player: int) -> bytes:
        return self._deal.views[player][self._node.id]

    def legal_actions(self, player: int) -> tuple[int, ...]:
        return self._node.legal[player]

    def step(self, action: int) -> np.ndarray:
        node = self._node
        child = node.children.get(action)
        if child is None:
            raise illegal_action(node, action)
        self._node = child
        self.player = child.player
        if child.terminal:
            self.terminal = True
            return child.rewards[self._deal.outcome]
        return _no_rewards(len(self._deal.views))


class Environment:
    """Immutable description of an episodic multiagent environment in
    compiled form: ``roots`` and ``deals`` (see the module docstring)."""

    name: str
    n_players: int
    roots: tuple[Node, Node]
    deals: tuple[Deal, ...]

    def action_count(self, player: int) -> int:
        raise NotImplementedError

    def draw_deal(self, rng) -> Deal:
        """One of ``deals``, each equally likely, from one ``rng.random()``."""
        return self.deals[int(rng.random() * len(self.deals))]

    def reset(self, rng, first_player: int = 0) -> EpisodeState:
        """A cursor at ``roots[first_player]`` over a deal from ``draw_deal``."""
        return EpisodeState(self.draw_deal(rng), self.roots[first_player])


def simulate_episode(
    env: Environment, policies: Sequence, rng, first_player: int = 0
) -> np.ndarray:
    """Run one episode with every policy held fixed throughout, and return
    the per-player undiscounted returns. An action the node has no child for
    raises ``IllegalAction``."""
    if len(policies) != env.n_players:
        raise ValueError(
            f"expected {env.n_players} policies, got {len(policies)}"
        )
    deal = env.draw_deal(rng)
    views = deal.views
    node = env.roots[first_player]
    while not node.terminal:
        player = node.player
        action = policies[player].act(views[player][node.id], node.legal[player], rng)
        child = node.children.get(action)
        if child is None:
            raise illegal_action(node, action)
        node = child
    return np.zeros(env.n_players) + node.rewards[deal.outcome]


def derived_rng(seed: int, *key: int) -> np.random.Generator:
    """Generator on the stream derived from (seed, *key); distinct keys give
    independent streams, so a consumer's draws never depend on another's."""
    return np.random.default_rng(np.random.SeedSequence([seed, *key]))


CHUNK = 1024  # doubles per array draw of :func:`uniforms`


def uniforms(rng) -> Iterator[float]:
    """An endless iterator over ``rng``'s uniform doubles in [0, 1), as
    Python floats, drawn ``rng.random(CHUNK)`` at a time. Each double takes
    one 64-bit word of the bit generator, so the values are those of
    successive ``rng.random()`` calls, whatever the chunk size; the generator
    itself runs up to one chunk ahead of what has been read."""
    return itertools.chain.from_iterable(
        map(np.ndarray.tolist, map(rng.random, itertools.repeat(CHUNK)))
    )


def estimate_payoffs(env: Environment, profile: Sequence, episodes: int, rng) -> np.ndarray:
    """Mean per-player return of a fixed policy profile over ``episodes`` episodes.

    The first player to act alternates with episode parity to average out
    positional advantage. The episodes run one after another on ``rng``, so
    the estimate depends on their number and order, and a cell's caller
    gives it a stream of its own (``derived_rng``).
    """
    if episodes < 1:
        raise ValueError(f"episodes must be >= 1, got {episodes}")
    total = np.zeros(env.n_players)
    for ep in range(episodes):
        total += simulate_episode(env, profile, rng, first_player=ep % 2)
    return total / episodes
