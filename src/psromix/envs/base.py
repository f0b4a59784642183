"""Episodic multiagent environment contract and the shared episode runner."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from ..errors import IllegalAction


@dataclass(frozen=True, eq=False)
class Observation:
    """An agent's view of its information state.

    ``key`` is a canonical byte string: two information states with different
    legal histories never share a key. ``features`` is the real-vector
    rendering of the same state (length 30 for Leduc, length 1 for matrix
    games).
    """

    key: bytes
    features: np.ndarray


class Transition(NamedTuple):
    observation: Observation
    legal_actions: tuple[int, ...]
    action: int
    reward: float
    next_observation: Observation | None
    next_legal_actions: tuple[int, ...]
    terminal: bool


@dataclass
class EpisodeResult:
    """Per-player undiscounted returns plus optional per-agent transitions."""

    returns: np.ndarray
    first_player: int = 0
    transitions: dict[int, list[Transition]] = field(default_factory=dict)


class EpisodeState:
    """State of one in-progress episode.

    Subclasses expose ``to_act`` (players acting this step, simultaneously),
    per-player observations and legal actions, and ``step`` which applies a
    joint action and returns the per-player reward vector for the step.
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

    ``record_for`` names the players whose transitions should be collected;
    each recorded transition spans from one of that player's decisions to
    their next decision (or the terminal state), with rewards accumulated in
    between.
    """
    if len(policies) != env.n_players:
        raise ValueError(
            f"expected {env.n_players} policies, got {len(policies)}"
        )
    state = env.reset(rng, first_player=first_player)
    returns = np.zeros(env.n_players)
    record = set(record_for)
    transitions: dict[int, list[Transition]] = {p: [] for p in record}
    # Pending (observation, legal set, action, accumulated reward) per recorded player.
    pending: dict[int, tuple[Observation, tuple[int, ...], int, float]] = {}

    while not state.terminal:
        actions = {}
        for player in state.to_act:
            obs = state.observation(player)
            legal = state.legal_actions(player)
            action = policies[player].act(obs, legal, rng)
            if action not in legal:
                raise IllegalAction(
                    f"player {player} chose action {action}; legal set is {legal}"
                )
            if player in record:
                if player in pending:
                    prev_obs, prev_legal, prev_action, acc = pending.pop(player)
                    transitions[player].append(
                        Transition(prev_obs, prev_legal, prev_action, acc, obs, legal, False)
                    )
                pending[player] = (obs, legal, action, 0.0)
            actions[player] = action
        rewards = state.step(actions)
        returns += rewards
        for player in pending:
            obs, legal, action, acc = pending[player]
            pending[player] = (obs, legal, action, acc + rewards[player])

    for player, (obs, legal, action, acc) in pending.items():
        transitions[player].append(Transition(obs, legal, action, acc, None, (), True))
    return EpisodeResult(returns=returns, first_player=first_player, transitions=transitions)


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
