"""Two-player Leduc Poker.

Six cards (three ranks, two suits), two betting rounds, actions FOLD / CALL /
RAISE. Each player antes 1 chip; raises add 2 in round one and 4 in round two,
with at most two raises per round. CALL matches the outstanding bet (a check
when there is none); FOLD is legal only when facing a bet and concedes the pot.
After round one a single public card is revealed. Showdown: a private card
pairing the public card wins, otherwise the higher rank wins, equal ranks
split the pot. Chips are conserved, so returns sum to zero every episode.

Observations are 30-entry binary vectors: acting-player one-hot (2), private
card one-hot (6), public card one-hot (6, all zero in round one), then the
round-one and round-two action sequences (4 slots of 2 bits each per round;
CALL = 01, RAISE = 10, empty slot = 00; FOLD ends the episode and never
occupies a slot). The observation key is the byte rendering of this vector.
"""

from __future__ import annotations

import itertools
from typing import Mapping, Sequence

import numpy as np

from .base import Environment, EpisodeState, Observation

FOLD, CALL, RAISE = 0, 1, 2

N_CARDS = 6  # card index = rank * 2 + suit; ranks J, Q, K = 0, 1, 2
N_RANKS = 3
RAISE_AMOUNTS = (2, 4)
MAX_RAISES_PER_ROUND = 2
ANTE = 1
MAX_ACTIONS_PER_ROUND = 4  # reached only by CALL, RAISE, RAISE, CALL

ENCODING_LENGTH = 30
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

# Returned by every non-terminal step; callers only add it into their own sums.
_NO_REWARDS = np.zeros(2)
_NO_REWARDS.flags.writeable = False


def card_rank(card: int) -> int:
    return card // 2


def leduc_encode(
    player: int,
    private_card: int,
    public_card: int | None,
    round1_actions: Sequence[int],
    round2_actions: Sequence[int],
) -> Observation:
    """Encode one player's information state as a 30-entry binary vector.

    The key is joined from precomputed byte blocks; the float features are
    derived from it only when read (see :class:`Observation`).
    """
    key = (
        _PREFIXES[player, private_card, public_card]
        + _ROUND_KEYS[tuple(round1_actions)]
        + _ROUND_KEYS[tuple(round2_actions)]
    )
    return Observation(key)


class LeducEnv(Environment):
    name = "leduc"
    n_players = 2

    def action_count(self, player: int) -> int:
        return 3

    def reset(self, rng, first_player: int = 0) -> "LeducEpisode":
        order = rng.permutation(N_CARDS)
        return self.deal(int(order[0]), int(order[1]), int(order[2]), first_player)

    def deal(
        self, private0: int, private1: int, public: int, first_player: int = 0
    ) -> "LeducEpisode":
        """Start an episode from a fixed deal (useful for exhaustive tests)."""
        return LeducEpisode(self, (private0, private1), public, first_player)


class LeducEpisode(EpisodeState):
    def __init__(self, env: LeducEnv, privates: tuple[int, int], public: int, first_player: int):
        self.env = env
        self.privates = privates
        self.hidden_public = public  # dealt up front, revealed after round one
        self.public: int | None = None
        self.first_player = first_player
        self.round_index = 0
        self.contributions = [ANTE, ANTE]
        self.round_contrib = [0, 0]
        self.current_bet = 0
        self.raises_made = 0
        self.round_actions: tuple[list[int], list[int]] = ([], [])
        self.terminal = False
        self.fold_winner: int | None = None
        self.to_act = (first_player,)

    # -- observation / legality ------------------------------------------

    def observation(self, player: int) -> Observation:
        return leduc_encode(
            player,
            self.privates[player],
            self.public,
            self.round_actions[0],
            self.round_actions[1],
        )

    def legal_actions(self, player: int) -> tuple[int, ...]:
        facing_bet = self.current_bet > self.round_contrib[player]
        if facing_bet:
            if self.raises_made < MAX_RAISES_PER_ROUND:
                return (FOLD, CALL, RAISE)
            return (FOLD, CALL)
        if self.raises_made < MAX_RAISES_PER_ROUND:
            return (CALL, RAISE)
        return (CALL,)

    # -- dynamics ---------------------------------------------------------

    def step(self, actions: Mapping[int, int]) -> np.ndarray:
        (player,) = self.to_act
        action = actions[player]
        opponent = 1 - player

        if action == FOLD:
            self.terminal = True
            self.fold_winner = opponent
            self.to_act = ()
            return self._terminal_rewards()

        sequence = self.round_actions[self.round_index]
        opening_action = not sequence
        sequence.append(action)

        if action == CALL:
            owed = self.current_bet - self.round_contrib[player]
            self.round_contrib[player] += owed
            self.contributions[player] += owed
            if opening_action:
                self.to_act = (opponent,)
            else:
                # A non-opening call closes the betting round.
                self._end_round()
        else:  # RAISE
            target = self.current_bet + RAISE_AMOUNTS[self.round_index]
            owed = target - self.round_contrib[player]
            self.round_contrib[player] += owed
            self.contributions[player] += owed
            self.current_bet = target
            self.raises_made += 1
            self.to_act = (opponent,)

        if self.terminal:
            return self._terminal_rewards()
        return _NO_REWARDS

    def _end_round(self) -> None:
        if self.round_index == 0:
            self.round_index = 1
            self.public = self.hidden_public
            self.round_contrib = [0, 0]
            self.current_bet = 0
            self.raises_made = 0
            self.to_act = (self.first_player,)
        else:
            self.terminal = True
            self.to_act = ()

    def _terminal_rewards(self) -> np.ndarray:
        pot = self.contributions[0] + self.contributions[1]
        if self.fold_winner is not None:
            winner = self.fold_winner
        else:
            winner = self._showdown_winner()
        rewards = np.zeros(2)
        if winner is None:
            for p in range(2):
                rewards[p] = pot / 2 - self.contributions[p]
        else:
            rewards[winner] = pot - self.contributions[winner]
            rewards[1 - winner] = -self.contributions[1 - winner]
        return rewards

    def _showdown_winner(self) -> int | None:
        board = card_rank(self.hidden_public)
        r0, r1 = card_rank(self.privates[0]), card_rank(self.privates[1])
        pair0, pair1 = r0 == board, r1 == board
        if pair0 != pair1:
            return 0 if pair0 else 1
        if r0 != r1:
            return 0 if r0 > r1 else 1
        return None
