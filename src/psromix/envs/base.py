"""Episodic multiagent environments in compiled form, and the one episode walker.

Every environment is compiled once into a game tree that all episodes share:

- A :class:`Node` is a decision point or a terminal. It holds its ``id``, the
  acting ``player`` (None at a terminal), each player's ``legal`` actions,
  the child ``children[action]`` per legal action, and at a terminal one
  read-only ``rewards`` vector per outcome. Rewards arrive only at terminals.
- A :class:`Deal` holds what chance decides at an episode's start.
  ``views[player][node.id]`` is the player's observation at a node: its
  canonical key, so two information states with different legal histories
  never share one. ``outcome`` picks a terminal's reward vector.

An environment gives ``roots[first_player]``, the root of each of the two
seatings that episode runners alternate, and ``draw_deal(rng)``, which makes
every draw an episode's chance needs. An episode is then a (deal, node)
pair: :func:`simulate_episode` here and ``oracle.train_best_response`` walk
it directly, and an :class:`EpisodeState` from ``reset`` is a cursor over the
same pair for single-episode use. A missing child is an illegal action; the
walkers and the cursor raise the same :func:`illegal_action` error for it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Sequence

import numpy as np

from ..errors import IllegalAction


class Node:
    """One node of a compiled game tree, shared by every episode that
    reaches it and immutable once :func:`compile_tree` has numbered it."""

    __slots__ = ("id", "player", "terminal", "legal", "children", "rewards")

    def __init__(self, player: int | None, legal: tuple[tuple[int, ...], ...]):
        self.player = player  # None at a terminal node
        self.terminal = player is None
        self.legal = legal  # per player
        self.children: dict[int, Node] = {}
        self.rewards: tuple[np.ndarray, ...] | None = None  # per outcome, terminals only


def compile_tree(roots: Sequence[Node], after: Callable[[Node, int], Node]) -> list[Node]:
    """Link every node reachable from ``roots`` to its children, built by
    ``after(node, action)`` for each legal action of the acting player, and
    number them depth first, root by root. Returns the nodes by id."""
    nodes: list[Node] = []

    def expand(node: Node) -> Node:
        node.id = len(nodes)
        nodes.append(node)
        if not node.terminal:
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


class Transition(NamedTuple):
    """One recorded decision: what the player saw and could choose from."""

    observation: bytes
    legal_actions: tuple[int, ...]


@dataclass
class EpisodeResult:
    """Per-player undiscounted returns plus optional per-agent decisions."""

    returns: np.ndarray
    transitions: dict[int, list[Transition]] = field(default_factory=dict)


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
    compiled form: ``roots`` and ``draw_deal`` (see the module docstring)."""

    name: str
    n_players: int
    roots: tuple[Node, Node]

    def action_count(self, player: int) -> int:
        raise NotImplementedError

    def draw_deal(self, rng) -> Deal:
        raise NotImplementedError

    def reset(self, rng, first_player: int = 0) -> EpisodeState:
        """A cursor at ``roots[first_player]`` over a deal from ``draw_deal``."""
        raise NotImplementedError


def simulate_episode(
    env: Environment,
    policies: Sequence,
    rng,
    first_player: int = 0,
    record_for: Sequence[int] = (),
) -> EpisodeResult:
    """Run one episode with every policy held fixed throughout.

    ``record_for`` names the players whose decisions should be collected,
    one Transition per decision, in order. An action the node has no child
    for raises ``IllegalAction``.
    """
    if len(policies) != env.n_players:
        raise ValueError(
            f"expected {env.n_players} policies, got {len(policies)}"
        )
    deal = env.draw_deal(rng)
    views = deal.views
    node = env.roots[first_player]
    transitions: dict[int, list[Transition]] = {p: [] for p in record_for}

    while not node.terminal:
        player = node.player
        obs = views[player][node.id]
        legal = node.legal[player]
        if player in transitions:
            transitions[player].append(Transition(obs, legal))
        action = policies[player].act(obs, legal, rng)
        child = node.children.get(action)
        if child is None:
            raise illegal_action(node, action)
        node = child
    returns = np.zeros(env.n_players) + node.rewards[deal.outcome]
    return EpisodeResult(returns=returns, transitions=transitions)


def derive_stream_seed(rng) -> int:
    """Draw one 63-bit integer to serve as a base for derived episode seeds."""
    return int(rng.integers(2**63))


def derived_rng(seed: int, *key: int) -> np.random.Generator:
    """Generator on the stream derived from (seed, *key); distinct keys give
    independent streams, so a consumer's draws never depend on another's."""
    return np.random.default_rng(np.random.SeedSequence([seed, *key]))


def estimate_payoffs(env: Environment, profile: Sequence, episodes: int, rng) -> np.ndarray:
    """Mean per-player return of a fixed policy profile over ``episodes`` episodes.

    The first player to act alternates with episode parity to average out
    positional advantage. Each episode runs on a seed derived from (base,
    episode index), so the estimate does not depend on episode sharding.
    """
    if episodes < 1:
        raise ValueError(f"episodes must be >= 1, got {episodes}")
    base = derive_stream_seed(rng)
    total = np.zeros(env.n_players)
    for ep in range(episodes):
        result = simulate_episode(
            env, profile, derived_rng(base, ep), first_player=ep % 2
        )
        total += result.returns
    return total / episodes
