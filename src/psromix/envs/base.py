"""Episodic multiagent environment contract and the shared episode runner."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np


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
    """State of one in-progress episode, one acting player at a time.

    ``player`` is the player to act, None once ``terminal``. An observation
    is the player's canonical key: two information states with different
    legal histories never share a key. ``step`` applies the acting player's
    action and returns the per-player reward vector for the step. It raises
    ``IllegalAction`` when the action is not in the legal set; it is the only
    legality check, so the episode runner and training share it. The
    returned vector may be shared and read-only, so callers add it into
    their own sums rather than keep or modify it.
    """

    player: int | None
    terminal: bool

    def observation(self, player: int) -> bytes:
        raise NotImplementedError

    def legal_actions(self, player: int) -> tuple[int, ...]:
        raise NotImplementedError

    def step(self, action: int) -> np.ndarray:
        raise NotImplementedError


class Environment:
    """Immutable description of an episodic multiagent environment."""

    name: str
    n_players: int

    def action_count(self, player: int) -> int:
        raise NotImplementedError

    def reset(self, rng, first_player: int = 0) -> EpisodeState:
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
    one Transition per decision, in order. An illegal action is not checked
    here: the environment's ``step`` raises ``IllegalAction``.
    """
    if len(policies) != env.n_players:
        raise ValueError(
            f"expected {env.n_players} policies, got {len(policies)}"
        )
    state = env.reset(rng, first_player=first_player)
    returns = np.zeros(env.n_players)
    transitions: dict[int, list[Transition]] = {p: [] for p in record_for}

    while not state.terminal:
        player = state.player
        obs = state.observation(player)
        legal = state.legal_actions(player)
        if player in transitions:
            transitions[player].append(Transition(obs, legal))
        returns += state.step(policies[player].act(obs, legal, rng))
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
