"""Regret metrics against deviation sets and policy-similarity analysis.

Regret of a profile is the best payoff gain available by deviating to a
policy in the deviation set: one sequence of entries per player, strategy
indices for an empirical game and policies for an environment. In an
environment the payoffs are exact and come in block form
(:func:`psromix.exact.payoff_block`): each seat's pool, its population and
then its held-out deviations, is walked once, one reach walk per policy, and
every matchup of the pools comes from one product per seat. Regret is then
read from that payoff tensor as in an empirical game, so the result does
not depend on the order of the deviations or of the evaluation. Every
built-in environment (matrix games and Leduc) has exact values; any other
one is rejected with ``WrongEnvironment``. The similarity report's state
corpus is exact as well: nothing in this module simulates an episode.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import exact
from .engine import save_policy_set
from .envs.base import Environment, derived_rng
# Unused here; perfbench/run.py traces calls through this name.
from .envs.base import simulate_episode  # noqa: F401
from .errors import EmptyDeviationSet
from .games import EmpiricalGame, as_weights, payoff_tensor, tensor_gains
from .solvers import SolutionProfile


def _solution_weights(sigma, sizes: Sequence[int]) -> list[np.ndarray]:
    """``sigma``'s mixtures as weight vectors, one per player, each as long
    as the population or strategy set it mixes over (``sizes``)."""
    if isinstance(sigma, SolutionProfile):
        sigma = sigma.mixtures
    if len(sigma) != len(sizes):
        raise ValueError(f"sigma has {len(sigma)} mixtures, expected {len(sizes)}")
    weights = []
    for player, (mixture, size) in enumerate(zip(sigma, sizes)):
        try:
            weights.append(as_weights(mixture, size))
        except ValueError as exc:
            raise ValueError(f"player {player}: {exc}") from None
    return weights


def sum_regret(per_player_regrets) -> float:
    """Sum of per-player regrets (the Nash-convergence measure)."""
    return float(np.sum(per_player_regrets))


def regret(
    env_or_game,
    sigma,
    deviations: Sequence[Sequence],
    populations: Sequence[Sequence] | None = None,
) -> np.ndarray:
    """Per-player regret of ``sigma`` against ``deviations``, one sequence of
    deviation entries per player.

    With an EmpiricalGame, deviation entries are strategy indices and payoffs
    come from the table. With an environment, deviation entries are policies,
    ``populations`` holds the per-player policy lists that ``sigma`` mixes
    over, and payoffs are exact (see :mod:`psromix.exact`); an environment
    without exact values raises ``WrongEnvironment`` before any matchup is
    computed. May be negative when the set is weak.

    Each of ``sigma``'s mixtures must be as long as its player's population
    (or strategy set), and there must be one per player, as there must be
    one population per player; otherwise ``ValueError`` names the player.
    """
    if isinstance(env_or_game, EmpiricalGame):
        return _regret_in_game(env_or_game, sigma, deviations)
    if populations is None:
        raise ValueError("environment-based regret requires the populations sigma mixes over")
    return _regret_in_env(env_or_game, populations, sigma, deviations)


def _check_nonempty(deviations: Sequence[Sequence], n_players: int) -> None:
    if len(deviations) != n_players:
        raise ValueError(f"deviation set covers {len(deviations)} players, expected {n_players}")
    for player, entries in enumerate(deviations):
        if len(entries) == 0:
            raise EmptyDeviationSet(f"player {player} has no deviation policies")


def _regret_in_game(game: EmpiricalGame, sigma, deviations: Sequence[Sequence]) -> np.ndarray:
    _check_nonempty(deviations, game.n_players)
    weights = _solution_weights(sigma, game.shape)
    gains = tensor_gains(payoff_tensor(game), weights)
    return np.array(
        [max(g[int(i)] for i in devs) for g, devs in zip(gains, deviations)]
    )


def _seat_pool(population: Sequence, deviations: Sequence) -> tuple[list, list[int]]:
    """A seat's policies by pool index, and the pool index of each deviation.

    The pool is the population followed by the deviations that are not
    population members; a member that also deviates keeps its member index
    (compared by identity), so it shares the member's matchups.
    """
    pool = list(population)
    indices = []
    for policy in deviations:
        index = next((i for i, member in enumerate(pool) if member is policy), None)
        if index is None:
            index = len(pool)
            pool.append(policy)
        indices.append(index)
    return pool, indices


def _regret_in_env(env, populations, sigma, deviations) -> np.ndarray:
    _check_nonempty(deviations, env.n_players)
    if len(populations) != env.n_players:
        raise ValueError(f"got {len(populations)} populations, expected {env.n_players}")
    weights = _solution_weights(sigma, [len(population) for population in populations])
    seats = [_seat_pool(population, devs) for population, devs in zip(populations, deviations)]
    tensor = exact.payoff_block(env, [pool for pool, _ in seats])
    # The deviations outside a population get weight 0 in the profile.
    padded = [np.pad(w, (0, len(pool) - len(w))) for w, (pool, _) in zip(weights, seats)]
    gains = tensor_gains(tensor, padded)
    return np.array([max(g[i] for i in indices) for g, (_, indices) in zip(gains, seats)])


def proxy_regret(
    env_or_game,
    sigma,
    psro_set: Sequence[Sequence],
    eval_set: Sequence[Sequence],
    populations: Sequence[Sequence] | None = None,
) -> np.ndarray:
    """Regret against the union of discovered and held-out policies, clipped
    at zero per player (every deviation may be worse than the profile).
    The shorter of the two per-player lists is padded with empty sets.
    Payoffs are exact, as in :func:`regret`."""
    deviations = [
        [*discovered, *held_out]
        for discovered, held_out in itertools.zip_longest(psro_set, eval_set, fillvalue=())
    ]
    raw = regret(env_or_game, sigma, deviations, populations)
    return np.maximum(raw, 0.0)


@dataclass
class SimilarityReport:
    """Pairwise greedy-action agreement over a deduplicated state corpus."""

    agreement: np.ndarray
    corpus_size_deduplicated: int

    def pair(self, i: int, j: int) -> float:
        return float(self.agreement[i, j])


def similarity_report(policies: Sequence, env: Environment) -> SimilarityReport:
    """Mean greedy-action agreement between every pair of policies.

    The corpus holds each information state once: every key at which its
    seat acts with positive probability under some profile, an assignment
    of the policies to the seats, all of which are used. The reach is exact
    (see :func:`psromix.exact.reached_keys`), so nothing is simulated and
    nothing is drawn. Reports the fraction of the corpus on which each
    pair's greedy actions agree.
    """
    if len(policies) < 2:
        raise ValueError("similarity_report needs at least two policies")
    per_seat = [exact.seat_keys(env, seat) for seat in range(env.n_players)]
    reached = [np.zeros(len(keys), dtype=bool) for keys, _ in per_seat]
    for profile in itertools.product(policies, repeat=env.n_players):
        for seen, mask in zip(reached, exact.reached_keys(env, profile)):
            seen |= mask
    corpus: dict[bytes, tuple[int, ...]] = {}  # key -> legal actions
    for (keys, legal), seen in zip(per_seat, reached):
        for row in np.flatnonzero(seen):
            corpus.setdefault(keys[row], tuple(np.flatnonzero(legal[row]).tolist()))

    n = len(policies)
    greedy = np.empty((n, len(corpus)), dtype=int)
    for pi, policy in enumerate(policies):
        for si, (obs, legal) in enumerate(corpus.items()):
            greedy[pi, si] = policy.greedy_action(obs, legal)
    agreement = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            agreement[i, j] = float(np.mean(greedy[i] == greedy[j]))
    return SimilarityReport(agreement, len(corpus))


def export_eval_set(record, path, size: int, seed: int = 0) -> list[list]:
    """Write a held-out evaluation set sampled from a run's final solution support.

    Draws up to ``size`` distinct policies per player, support-weighted, and
    writes them with :func:`psromix.engine.save_policy_set`, which replaces
    the directory's ``p<player>_<k>.txt`` policy files and leaves files of
    any other name alone. Returns the sampled per-player policy lists.
    """
    rng = derived_rng(seed, 101)
    sampled: list[list] = []
    for player in range(record.game.n_players):
        weights = record.solution.weights(player)
        support = np.flatnonzero(weights > 0.0)
        take = min(size, len(support))
        probs = weights[support] / weights[support].sum()
        chosen = rng.choice(support, size=take, replace=False, p=probs)
        sampled.append([record.game.strategy_sets[player][int(i)] for i in sorted(chosen)])
    save_policy_set(path, sampled)
    return sampled


def export_similarity(report: SimilarityReport, names: Sequence[str]) -> str:
    """Labelled tabular text rendering of the agreement matrix."""
    lines = ["policy\t" + "\t".join(names)]
    for i, name in enumerate(names):
        row = "\t".join(repr(float(v)) for v in report.agreement[i])
        lines.append(f"{name}\t{row}")
    lines.append(f"# corpus_deduplicated {report.corpus_size_deduplicated}")
    return "\n".join(lines) + "\n"
