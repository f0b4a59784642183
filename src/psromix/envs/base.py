"""Episodic multiagent environment contract and the shared episode runner."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, NamedTuple, Sequence

import numpy as np


class Observation:
    """An agent's view of its information state.

    ``key`` is a canonical byte string: two information states with different
    legal histories never share a key. ``features`` is the read-only
    real-vector rendering of the same state (length 30 for Leduc, length 1
    for matrix games). Tabular code reads only the key, so when no features
    are given they are computed on first access from the key's bytes, one
    float per byte (the Leduc encoding), and cached.
    """

    __slots__ = ("key", "_features")

    def __init__(self, key: bytes, features=None):
        self.key = key
        if features is not None:
            features = np.asarray(features, dtype=float).view()
            features.flags.writeable = False
        self._features = features

    @property
    def features(self) -> np.ndarray:
        if self._features is None:
            features = np.frombuffer(self.key, np.uint8).astype(float)
            features.flags.writeable = False
            self._features = features
        return self._features


class Transition(NamedTuple):
    """One recorded decision: what the player saw and could choose from."""

    observation: Observation
    legal_actions: tuple[int, ...]


@dataclass
class EpisodeResult:
    """Per-player undiscounted returns plus optional per-agent decisions."""

    returns: np.ndarray
    transitions: dict[int, list[Transition]] = field(default_factory=dict)


class EpisodeState:
    """State of one in-progress episode.

    Subclasses expose ``to_act`` (players acting this step, simultaneously),
    per-player observations and legal actions, and ``step`` which applies a
    joint action and returns the per-player reward vector for the step.
    ``step`` raises ``IllegalAction`` when an acting player's action is not in
    its legal set; it is the only legality check, so the episode runner and
    training share it. The returned vector may be shared and read-only, so
    callers add it into their own sums rather than keep or modify it.
    """

    to_act: tuple[int, ...]
    terminal: bool

    def observation(self, player: int) -> Observation:
        raise NotImplementedError

    def legal_actions(self, player: int) -> tuple[int, ...]:
        raise NotImplementedError

    def step(self, actions: Mapping[int, int]) -> np.ndarray:
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
        actions = {}
        for player in state.to_act:
            obs = state.observation(player)
            legal = state.legal_actions(player)
            action = policies[player].act(obs, legal, rng)
            if player in transitions:
                transitions[player].append(Transition(obs, legal))
            actions[player] = action
        returns += state.step(actions)
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
