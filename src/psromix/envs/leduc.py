"""Two-player Leduc Poker in compiled form.

Six cards (three ranks, two suits), two betting rounds, actions FOLD / CALL /
RAISE. Each player antes 1 chip; raises add 2 in round one and 4 in round two,
with at most two raises per round. CALL matches the outstanding bet (a check
when there is none); FOLD is legal only when facing a bet and concedes the pot.
After round one a single public card is revealed. Showdown: a private card
pairing the public card wins, otherwise the higher rank wins, equal ranks
split the pot. Chips are conserved, so returns sum to zero every episode.

An observation is a 30-byte key, one byte (0 or 1) per entry: acting-player
one-hot (2), private card one-hot (6), public card one-hot (6, all zero in
round one), then the round-one and round-two action sequences (4 slots of 2
bits each per round; CALL = 01, RAISE = 10, empty slot = 00; FOLD ends the
episode and never occupies a slot).

Betting depends only on the seating and the action history, never on the
cards, so the betting tree is compiled once at import: 170 nodes over both
seatings, 72 of them decisions. Each :class:`Node` adds to the shared node
form (see :mod:`psromix.envs.base`) the round and the chips put in; each
terminal node holds three reward vectors, one per showdown outcome (player 0
wins, player 1 wins, split). A :class:`Deal` is the cards: per (player,
private card, public card) view, one tuple of keys indexed by node id, built
by :func:`leduc_encode`, which interns them so that each distinct key is one
object, and the showdown outcome. Views and deals are built on first use and
then shared by every episode. ``LeducEnv.deals`` is the 120 equally likely
deals of :func:`all_deals`; an episode draws one and goes on by child
lookups. :class:`LeducEpisode` is the cursor over the same deal and nodes,
with the betting state read from its node. :func:`betting_tree` and
:func:`all_deals` also let :mod:`psromix.exact` walk every episode at once.
"""

from __future__ import annotations

import functools
import itertools
from typing import Sequence

import numpy as np

from . import base
from .base import Environment, EpisodeState, compile_tree

FOLD, CALL, RAISE = 0, 1, 2

N_CARDS = 6  # card index = rank * 2 + suit; ranks J, Q, K = 0, 1, 2
RAISE_AMOUNTS = (2, 4)
MAX_RAISES_PER_ROUND = 2
ANTE = 1
MAX_ACTIONS_PER_ROUND = 4  # reached only by CALL, RAISE, RAISE, CALL

_PRIVATE_OFFSET = 2
_PUBLIC_OFFSET = 8
_ACTIONS_OFFSET = 14  # round one's 4 slots, then round two's
# Per-slot bit pair, written into the key left to right.
_ACTION_BITS = {CALL: b"\x00\x01", RAISE: b"\x01\x00"}


def _prefix(player: int, private_card: int, public_card: int | None) -> bytes:
    prefix = bytearray(_ACTIONS_OFFSET)
    prefix[player] = 1
    prefix[_PRIVATE_OFFSET + private_card] = 1
    if public_card is not None:
        prefix[_PUBLIC_OFFSET + public_card] = 1
    return bytes(prefix)


# The key is the player/card prefix followed by one 8-byte block per round,
# all looked up, so an observation allocates only its key.
_PREFIXES = {
    (player, private, public): _prefix(player, private, public)
    for player in range(2)
    for private in range(N_CARDS)
    for public in (None, *range(N_CARDS))
}
_ROUND_KEYS = {
    actions: b"".join(_ACTION_BITS[a] for a in actions).ljust(2 * MAX_ACTIONS_PER_ROUND, b"\0")
    for length in range(MAX_ACTIONS_PER_ROUND + 1)
    for actions in itertools.product((CALL, RAISE), repeat=length)
}

# Every key leduc_encode has built, by itself: one object per distinct key.
_KEYS: dict[bytes, bytes] = {}

# Showdown outcomes, the index into a terminal node's reward vectors.
_P0_WINS, _P1_WINS, _SPLIT = 0, 1, 2  # the winners (0, 1, None) in that order


def card_rank(card: int) -> int:
    return card // 2


def leduc_encode(
    player: int,
    private_card: int,
    public_card: int | None,
    round1_actions: Sequence[int],
    round2_actions: Sequence[int],
) -> bytes:
    """One player's information state as its 30-byte key, joined from
    precomputed byte blocks and interned: equal keys are one object."""
    key = (
        _PREFIXES[player, private_card, public_card]
        + _ROUND_KEYS[tuple(round1_actions)]
        + _ROUND_KEYS[tuple(round2_actions)]
    )
    return _KEYS.setdefault(key, key)


# -- the betting tree ------------------------------------------------------


class Node(base.Node):
    """One betting state: a seating plus the action history so far. Immutable
    once the tree is built, and shared by every episode that reaches it."""

    __slots__ = (
        "first_player",
        "round_index",
        "round_actions",
        "contributions",
        "round_contrib",
        "current_bet",
        "raises_made",
    )

    def __init__(self, first_player, round_index, round_actions, contributions,
                 round_contrib, current_bet, raises_made, player):
        self.first_player = first_player
        self.round_index = round_index
        self.round_actions = round_actions  # (round one, round two) action tuples
        self.contributions = contributions  # chips each player has put in
        self.round_contrib = round_contrib  # the same, this round only
        self.current_bet = current_bet
        self.raises_made = raises_made
        super().__init__(player, (self._legal(0), self._legal(1)))

    def _legal(self, player: int) -> tuple[int, ...]:
        raises = (RAISE,) if self.raises_made < MAX_RAISES_PER_ROUND else ()
        facing_bet = self.current_bet > self.round_contrib[player]
        return ((FOLD,) if facing_bet else ()) + (CALL,) + raises

    def _after(self, action: int) -> "Node":
        """The node that ``action`` by the acting player leads to."""
        player, round_index = self.player, self.round_index
        if action == FOLD:
            return self._terminal(
                self.round_actions, self.contributions, self.round_contrib, (1 - player,) * 3
            )
        contributions = list(self.contributions)
        round_contrib = list(self.round_contrib)
        current_bet, raises_made = self.current_bet, self.raises_made
        if action == RAISE:
            current_bet += RAISE_AMOUNTS[round_index]
            raises_made += 1
        owed = current_bet - round_contrib[player]
        contributions[player] += owed
        round_contrib[player] += owed
        round_actions = list(self.round_actions)
        round_actions[round_index] += (action,)
        round_actions = tuple(round_actions)
        next_player = 1 - player
        if action == CALL and len(round_actions[round_index]) > 1:
            # A non-opening call closes the round.
            if round_index == 1:
                return self._terminal(
                    round_actions, tuple(contributions), tuple(round_contrib), (0, 1, None)
                )
            round_index, next_player = 1, self.first_player
            round_contrib, current_bet, raises_made = (0, 0), 0, 0
        return Node(self.first_player, round_index, round_actions, tuple(contributions),
                    tuple(round_contrib), current_bet, raises_made, next_player)

    def _terminal(self, round_actions, contributions, round_contrib, winners) -> "Node":
        """A terminal child; ``winners`` names the winner (None: split) for
        each showdown outcome. After a fold it is the same for all three."""
        node = Node(self.first_player, self.round_index, round_actions, contributions,
                    round_contrib, self.current_bet, self.raises_made, None)
        node.rewards = tuple(_reward_vector(contributions, winner) for winner in winners)
        return node


@functools.cache  # terminal nodes with the same chips and winner share one vector
def _reward_vector(contributions: tuple[int, int], winner: int | None) -> np.ndarray:
    pot = contributions[0] + contributions[1]
    rewards = np.zeros(2)
    if winner is None:
        for p in range(2):
            rewards[p] = pot / 2 - contributions[p]
    else:
        rewards[winner] = pot - contributions[winner]
        rewards[1 - winner] = -contributions[1 - winner]
    rewards.flags.writeable = False
    return rewards


_ROOTS = tuple(Node(first, 0, ((), ()), (ANTE, ANTE), (0, 0), 0, 0, first) for first in range(2))
_NODES = compile_tree(_ROOTS, Node._after)


def betting_tree() -> tuple[list[Node], tuple[Node, Node]]:
    """The compiled betting tree, shared and read-only: every node by id, and
    the root of each seating (indexed by the first player). Ids number the
    nodes depth first, so a parent's id is below its children's."""
    return _NODES, _ROOTS


# -- per-deal tables, built on first use -----------------------------------
# These caches only grow, and what they hold never changes once built, so
# every episode and environment in the process can share them.


@functools.cache
def _view(player: int, private: int, public: int) -> tuple[bytes, ...]:
    """What ``player`` holding ``private`` sees at every node, by node id."""
    return tuple(
        leduc_encode(player, private, public if node.round_index else None, *node.round_actions)
        for node in _NODES
    )


def _showdown_outcome(private0: int, private1: int, public: int) -> int:
    board = card_rank(public)
    r0, r1 = card_rank(private0), card_rank(private1)
    pair0, pair1 = r0 == board, r1 == board
    if pair0 != pair1:
        return _P0_WINS if pair0 else _P1_WINS
    if r0 != r1:
        return _P0_WINS if r0 > r1 else _P1_WINS
    return _SPLIT


class Deal(base.Deal):
    """The cards of one deal: both players' views and the showdown outcome."""

    __slots__ = ("privates", "public")

    def __init__(self, private0: int, private1: int, public: int):
        self.privates = (private0, private1)
        self.public = public
        super().__init__(
            (_view(0, private0, public), _view(1, private1, public)),
            _showdown_outcome(private0, private1, public),
        )


_deal = functools.cache(Deal)  # one shared deal per (private0, private1, public)


@functools.cache
def all_deals() -> tuple[Deal, ...]:
    """The 120 ordered deals of three distinct cards (private0, private1,
    public), in lexicographic order: ``LeducEnv.deals``, each equally
    likely."""
    return tuple(_deal(*cards) for cards in itertools.permutations(range(N_CARDS), 3))


class LeducEnv(Environment):
    name = "leduc"
    n_players = 2
    roots = _ROOTS

    def action_count(self, player: int) -> int:
        return 3

    @property
    def deals(self) -> tuple[Deal, ...]:
        # Built on first use, so that making an environment builds no views.
        return all_deals()

    def reset(self, rng, first_player: int = 0) -> "LeducEpisode":
        return LeducEpisode(self.draw_deal(rng), _ROOTS[first_player])

    def deal(
        self, private0: int, private1: int, public: int, first_player: int = 0
    ) -> "LeducEpisode":
        """Start an episode from a fixed deal (useful for exhaustive tests)."""
        return LeducEpisode(_deal(private0, private1, public), _ROOTS[first_player])


class LeducEpisode(EpisodeState):
    """The cursor over a Leduc deal and betting node, with the betting state
    read from the node."""

    # Entries of this class's own, so that perfbench/run.py can wrap Leduc's
    # steps and observations without touching another game's.
    observation = EpisodeState.observation
    step = EpisodeState.step

    @property
    def privates(self) -> tuple[int, int]:
        return self._deal.privates

    @property
    def public(self) -> int | None:
        """The public card once revealed (from round two on), else None."""
        return self._deal.public if self._node.round_index else None

    @property
    def first_player(self) -> int:
        return self._node.first_player

    @property
    def round_index(self) -> int:
        return self._node.round_index

    @property
    def round_actions(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        return self._node.round_actions

    @property
    def contributions(self) -> list[int]:
        return list(self._node.contributions)

    @property
    def current_bet(self) -> int:
        return self._node.current_bet
