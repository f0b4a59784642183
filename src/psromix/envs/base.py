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
seatings that episode runners alternate, and ``draw_deal(rng)``, which makes
every draw an episode's chance needs. An episode is then a (deal, node)
pair: :func:`simulate_episode` here and ``oracle.train_best_response`` walk
it directly, and an :class:`EpisodeState` from ``reset`` is a cursor over the
same pair for single-episode use. A missing child is an illegal action; the
walkers and the cursor raise the same :func:`illegal_action` error for it.

Episodes are simulated only where the paper simulates: in best-response
training and in the sampled payoff cells of :func:`estimate_payoffs`. A
simulated episode yields its per-player returns and nothing else; every
other value in psromix is exact (see :mod:`psromix.exact`).

Two hot random paths skip numpy's per-call Python work without changing a
bit of any stream. :func:`bounded` is ``Generator.integers(n)``'s draw, made
on the bit generator's ``next_uint32`` directly, for training's inline
draws. And :func:`estimate_payoffs` computes each episode's
``SeedSequence([base, episode])`` state for a whole cell in one vectorized
pass (:func:`episode_states`).
"""

from __future__ import annotations

import functools
from typing import Callable, Sequence

import numpy as np
from numpy.random.bit_generator import ISeedSequence

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


def derive_stream_seed(rng) -> int:
    """Draw one 63-bit integer to serve as a base for derived episode seeds."""
    return int(rng.integers(2**63))


def derived_rng(seed: int, *key: int) -> np.random.Generator:
    """Generator on the stream derived from (seed, *key); distinct keys give
    independent streams, so a consumer's draws never depend on another's."""
    return np.random.default_rng(np.random.SeedSequence([seed, *key]))


def bounded(next_uint32, state, n: int) -> int:
    """An int in [0, n), for 1 <= n <= 2**32, drawn as ``Generator.integers(n)``
    draws it: Lemire's multiply-and-reject on ``next_uint32(state)`` (numpy's
    ``buffered_bounded_lemire_uint32``). n == 1 draws nothing; at n == 2**32
    the product's low word is 0, so it returns one raw draw, as numpy does."""
    if n == 1:
        return 0
    m = next_uint32(state) * n
    if m & 0xFFFFFFFF < n:
        threshold = (0x100000000 - n) % n
        while m & 0xFFFFFFFF < threshold:
            m = next_uint32(state) * n
    return m >> 32


# numpy's SeedSequence constants (numpy/random/bit_generator.pyx).
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)


@functools.cache
def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    """The ``count + 1`` successive values of SeedSequence's hash multiplier
    from ``init``, one per row: hash ``i`` uses rows ``i`` and ``i + 1``."""
    values = [init]
    for _ in range(count):
        values.append(values[-1] * mult & 0xFFFFFFFF)
    constants = np.array(values, dtype=np.uint32)[:, None]
    constants.flags.writeable = False  # cached: every caller shares it
    return constants


def _hash(values: np.ndarray, constants: np.ndarray) -> np.ndarray:
    """SeedSequence's ``hashmix``: row ``i`` of the result hashes row ``i``
    of ``values`` (or ``values`` itself, if it is one row) with hash
    constants ``i`` and ``i + 1``."""
    values = (values ^ constants[:-1]) * constants[1:]
    return values ^ (values >> _XSHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = _MIX_MULT_L * x - _MIX_MULT_R * y
    return result ^ (result >> _XSHIFT)


def episode_states(base: int, episodes: int) -> np.ndarray:
    """Row ``ep`` is ``SeedSequence([base, ep]).generate_state(4, np.uint64)``,
    for every ep < ``episodes`` (< 2**32), computed in one vectorized pass.

    The entropy is ``base``'s little-endian 32-bit words (one word for 0),
    then ``ep``; numpy's ``mix_entropy`` and ``generate_state`` then run on
    each episode's column, one array operation per step for every episode.
    """
    words = [base & 0xFFFFFFFF]
    while base > 0xFFFFFFFF:
        base >>= 32
        words.append(base & 0xFFFFFFFF)
    n_entropy = len(words) + 1
    entropy = np.zeros((max(n_entropy, _POOL_SIZE), episodes), dtype=np.uint32)
    entropy[: len(words)] = np.array(words, dtype=np.uint32)[:, None]
    entropy[len(words)] = np.arange(episodes, dtype=np.uint32)
    extra = max(n_entropy - _POOL_SIZE, 0)
    hashes = _hash_constants(_INIT_A, _MULT_A, _POOL_SIZE * (_POOL_SIZE + extra))
    # Entropy (zeros past its end) up to the pool size, one hash each.
    mixer = _hash(entropy[:_POOL_SIZE], hashes[: _POOL_SIZE + 1])
    used = _POOL_SIZE
    # Every word mixed into every other. The source word does not change
    # while the other words take their hashes of it, in order, so one
    # broadcast hash gives all of them.
    for src in range(_POOL_SIZE):
        dst = [d for d in range(_POOL_SIZE) if d != src]
        mixer[dst] = _mix(mixer[dst], _hash(mixer[src], hashes[used : used + len(dst) + 1]))
        used += len(dst)
    # Entropy past the pool size, each word mixed into every pool word.
    for src in range(_POOL_SIZE, n_entropy):
        mixer = _mix(mixer, _hash(entropy[src], hashes[used : used + _POOL_SIZE + 1]))
        used += _POOL_SIZE
    # generate_state(4, np.uint64): 8 words cycling over the pool, paired
    # little-endian into 64-bit words.
    state = _hash(mixer[[0, 1, 2, 3, 0, 1, 2, 3]], _hash_constants(_INIT_B, _MULT_B, 8))
    return np.ascontiguousarray(state.T, dtype="<u4").view("<u8").astype(np.uint64)


class _GivenState(ISeedSequence):
    """A seed sequence whose one answer is known: a row of
    :func:`episode_states`, which ``PCG64`` asks for as ``generate_state(4,
    np.uint64)``."""

    def __init__(self, state: np.ndarray):
        self._state = state

    def generate_state(self, n_words, dtype=np.uint32):
        return self._state


def estimate_payoffs(env: Environment, profile: Sequence, episodes: int, rng) -> np.ndarray:
    """Mean per-player return of a fixed policy profile over ``episodes`` episodes.

    The first player to act alternates with episode parity to average out
    positional advantage. Each episode runs on its own generator,
    ``derived_rng(base, episode)`` for a ``base`` drawn from ``rng``, so the
    estimate does not depend on episode sharding. The generators' seeds come
    from :func:`episode_states`, all of a cell's at once.
    """
    if episodes < 1:
        raise ValueError(f"episodes must be >= 1, got {episodes}")
    states = episode_states(derive_stream_seed(rng), episodes)
    total = np.zeros(env.n_players)
    for ep in range(episodes):
        stream = np.random.Generator(np.random.PCG64(_GivenState(states[ep])))
        total += simulate_episode(env, profile, stream, first_player=ep % 2)
    return total / episodes
