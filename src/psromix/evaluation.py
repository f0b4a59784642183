"""Regret metrics against deviation sets and policy-similarity analysis.

Regret of a profile is the best payoff gain available by deviating to a
policy in the deviation set. Matrix-game payoffs are computed analytically
from action distributions; other environments estimate each matchup by
simulation, caching matchup estimates so repeated pairings are simulated once.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .envs.base import Environment, derive_stream_seed, derived_rng, simulate_episode
from .envs.matrix import MatrixGameEnv, analytic_payoffs
from .errors import EmptyCorpus, EmptyDeviationSet
from .games import EmpiricalGame, as_weights, deviation_values, payoff_tensor
from .solvers import SolutionProfile


@dataclass
class DeviationSet:
    """Per-player deviation policies, optionally labelled by origin."""

    per_player: tuple[tuple, ...]
    labels: tuple[tuple[str, ...], ...] = ()

    @classmethod
    def from_sets(cls, psro: Sequence[Sequence] = (), eval_set: Sequence[Sequence] = ()):
        """Union of discovered and held-out policies, labelled accordingly."""
        n = max(len(psro), len(eval_set))
        players = []
        labels = []
        for player in range(n):
            discovered = list(psro[player]) if player < len(psro) else []
            held_out = list(eval_set[player]) if player < len(eval_set) else []
            players.append(tuple(discovered + held_out))
            labels.append(tuple(["psro"] * len(discovered) + ["eval"] * len(held_out)))
        return cls(tuple(players), tuple(labels))


def _solution_weights(sigma, n_players: int) -> list[np.ndarray]:
    if isinstance(sigma, SolutionProfile):
        return [sigma.weights(p) for p in range(n_players)]
    return [as_weights(m) for m in sigma]


def sum_regret(per_player_regrets) -> float:
    """Sum of per-player regrets (the Nash-convergence measure)."""
    return float(np.sum(per_player_regrets))


def regret(
    env_or_game,
    sigma,
    deviations: DeviationSet,
    episodes: int = 30,
    rng=None,
    populations: Sequence[Sequence] | None = None,
) -> np.ndarray:
    """Per-player regret of ``sigma`` against a deviation set.

    With an EmpiricalGame, deviation entries are strategy indices and payoffs
    come from the table. With an environment, deviation entries are policies,
    ``populations`` holds the per-player policy lists that ``sigma`` mixes
    over, and payoffs are analytic (matrix games) or simulated with
    ``episodes`` per matchup. May be negative when the set is weak.
    """
    if isinstance(env_or_game, EmpiricalGame):
        return _regret_in_game(env_or_game, sigma, deviations)
    if populations is None:
        raise ValueError("environment-based regret requires the populations sigma mixes over")
    return _regret_in_env(env_or_game, populations, sigma, deviations, episodes, rng)


def _check_nonempty(deviations: DeviationSet, n_players: int) -> None:
    if len(deviations.per_player) != n_players:
        raise ValueError(
            f"deviation set covers {len(deviations.per_player)} players, expected {n_players}"
        )
    for player, entries in enumerate(deviations.per_player):
        if len(entries) == 0:
            raise EmptyDeviationSet(f"player {player} has no deviation policies")


def _regret_in_game(game: EmpiricalGame, sigma, deviations: DeviationSet) -> np.ndarray:
    _check_nonempty(deviations, game.n_players)
    weights = _solution_weights(sigma, game.n_players)
    tensor = payoff_tensor(game)
    out = np.empty(game.n_players)
    for player in range(game.n_players):
        values = deviation_values(tensor, weights, player)
        base = float(values @ weights[player])
        out[player] = max(values[int(i)] for i in deviations.per_player[player]) - base
    return out


class _MatchupCache:
    """Simulated mean returns per pure policy profile, computed at most once."""

    def __init__(self, env: Environment, episodes: int, rng):
        self.env = env
        self.episodes = episodes
        self.base_seed = derive_stream_seed(rng if rng is not None else np.random.default_rng(0))
        self.cache: dict[tuple, np.ndarray] = {}

    def value(self, profile: tuple) -> np.ndarray:
        key = tuple(id(p) for p in profile)
        hit = self.cache.get(key)
        if hit is not None:
            return hit
        total = np.zeros(self.env.n_players)
        matchup_seed = self.base_seed + len(self.cache)
        for ep in range(self.episodes):
            result = simulate_episode(
                self.env, profile, derived_rng(matchup_seed, ep), first_player=ep % 2
            )
            total += result.returns
        mean = total / self.episodes
        self.cache[key] = mean
        return mean


def _profile_value(env, cache, profile: tuple) -> np.ndarray:
    if isinstance(env, MatrixGameEnv):
        return analytic_payoffs(env, profile)
    return cache.value(profile)


def _mixture_value(env, cache, populations, weights, player: int, replace=None) -> float:
    """Expected payoff to ``player`` when everyone mixes per ``weights``;
    ``replace`` substitutes a fixed policy for ``player``."""
    supports = []
    for other, pop in enumerate(populations):
        if other == player and replace is not None:
            supports.append([(replace, 1.0)])
        else:
            supports.append(
                [(pop[i], weights[other][i]) for i in np.flatnonzero(weights[other] > 0.0)]
            )
    value = 0.0
    for combo in itertools.product(*supports):
        prob = 1.0
        for _, w in combo:
            prob *= w
        profile = tuple(p for p, _ in combo)
        value += prob * _profile_value(env, cache, profile)[player]
    return value


def _regret_in_env(env, populations, sigma, deviations, episodes, rng) -> np.ndarray:
    _check_nonempty(deviations, env.n_players)
    weights = _solution_weights(sigma, env.n_players)
    cache = _MatchupCache(env, episodes, rng)
    out = np.empty(env.n_players)
    for player in range(env.n_players):
        base = _mixture_value(env, cache, populations, weights, player)
        best = max(
            _mixture_value(env, cache, populations, weights, player, replace=policy)
            for policy in deviations.per_player[player]
        )
        out[player] = best - base
    return out


def proxy_regret(
    env_or_game,
    sigma,
    psro_set: Sequence[Sequence],
    eval_set: Sequence[Sequence],
    episodes: int = 30,
    rng=None,
    populations: Sequence[Sequence] | None = None,
) -> np.ndarray:
    """Regret against the union of discovered and held-out policies, clipped
    at zero per player (every deviation may be worse than the profile)."""
    deviations = DeviationSet.from_sets(psro_set, eval_set)
    raw = regret(env_or_game, sigma, deviations, episodes, rng, populations)
    return np.maximum(raw, 0.0)


@dataclass
class SimilarityReport:
    """Pairwise greedy-action agreement over a deduplicated state corpus."""

    agreement: np.ndarray
    corpus_size_raw: int
    corpus_size_deduplicated: int

    def pair(self, i: int, j: int) -> float:
        return float(self.agreement[i, j])


def similarity_report(
    policies: Sequence,
    env: Environment,
    profiles_to_sample: int | None = None,
    episodes_per_profile: int = 30,
    rng=None,
) -> SimilarityReport:
    """Mean greedy-action agreement between every pair of policies.

    Simulates policy profiles (all assignments of the policies to seats, or a
    random subset of ``profiles_to_sample`` of them), collects the states
    observed by every agent, removes duplicate states (which would otherwise
    bias the comparison toward early-episode behaviour), and reports the
    fraction of remaining states on which each pair's greedy actions agree.
    """
    if len(policies) < 2:
        raise ValueError("similarity_report needs at least two policies")
    rng = rng if rng is not None else np.random.default_rng(0)
    all_profiles = list(itertools.product(range(len(policies)), repeat=env.n_players))
    if profiles_to_sample is not None and profiles_to_sample < len(all_profiles):
        chosen = rng.choice(len(all_profiles), size=profiles_to_sample, replace=False)
        all_profiles = [all_profiles[i] for i in sorted(chosen)]

    base = derive_stream_seed(rng)
    corpus: dict[bytes, tuple] = {}
    raw_count = 0
    for profile_index, assignment in enumerate(all_profiles):
        seated = tuple(policies[i] for i in assignment)
        for ep in range(episodes_per_profile):
            result = simulate_episode(
                env,
                seated,
                derived_rng(base + profile_index, ep),
                first_player=ep % 2,
                record_for=range(env.n_players),
            )
            for transitions in result.transitions.values():
                for tr in transitions:
                    raw_count += 1
                    if tr.observation.key not in corpus:
                        corpus[tr.observation.key] = (tr.observation, tr.legal_actions)
    if not corpus:
        raise EmptyCorpus("no states collected from the sampled profiles")

    n = len(policies)
    greedy = np.empty((n, len(corpus)), dtype=int)
    for pi, policy in enumerate(policies):
        for si, (obs, legal) in enumerate(corpus.values()):
            greedy[pi, si] = policy.greedy_action(obs, legal)
    agreement = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            agreement[i, j] = float(np.mean(greedy[i] == greedy[j]))
    return SimilarityReport(agreement, raw_count, len(corpus))


def export_eval_set(record, path, size: int, seed: int = 0) -> list[list]:
    """Write a held-out evaluation set sampled from a run's final solution support.

    Draws up to ``size`` distinct policies per player, support-weighted, and
    writes one policy file per entry (``p<player>_<k>.txt``). Returns the
    sampled per-player policy lists.
    """
    import os

    from .serialize import save_policy

    os.makedirs(path, exist_ok=True)
    rng = derived_rng(seed, 101)
    sampled: list[list] = []
    for player in range(record.game.n_players):
        weights = record.solution.weights(player)
        support = np.flatnonzero(weights > 0.0)
        take = min(size, len(support))
        probs = weights[support] / weights[support].sum()
        chosen = rng.choice(support, size=take, replace=False, p=probs)
        policies = [record.game.strategy_sets[player][int(i)] for i in sorted(chosen)]
        for k, policy in enumerate(policies):
            save_policy(policy, os.path.join(path, f"p{player}_{k}.txt"))
        sampled.append(policies)
    return sampled


def export_similarity(report: SimilarityReport, names: Sequence[str]) -> str:
    """Labelled tabular text rendering of the agreement matrix."""
    lines = ["policy\t" + "\t".join(names)]
    for i, name in enumerate(names):
        row = "\t".join(repr(float(v)) for v in report.agreement[i])
        lines.append(f"{name}\t{row}")
    lines.append(f"# corpus_raw {report.corpus_size_raw}")
    lines.append(f"# corpus_deduplicated {report.corpus_size_deduplicated}")
    return "\n".join(lines) + "\n"
