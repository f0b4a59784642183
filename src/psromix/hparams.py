"""Hyperparameter presets and the two-task random search.

The search samples configurations uniformly from per-hyperparameter candidate
lists and scores each twice: the pure task trains one best response per
opponent policy and averages their exact values against their opponents; the
mix task trains a single best response against the uniform mixture of the
opponents and scores its exact value against that mixture. Scores are exact
(see :mod:`psromix.exact`): only training simulates. The winners of the two
tasks are returned as (pure, mix); ties break toward the first-sampled
configuration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .config import HParamSearchSpec, OracleHParams
from .envs import derived_rng
from .errors import PlayerCountUnsupported
from .exact import analytic_payoffs
from .oracle import train_best_response

# Named presets per environment family. Leduc values are the standard tuned
# settings for this game; matrix-game values are small-scale defaults
# (one-shot episodes, so the discount is zero).
_PRESETS = {
    "leduc": {
        "pure": OracleHParams(
            learning_rate=1e-3,
            discount=1.0,
            total_timesteps=3_000,
            exploration_timesteps=300,
        ),
        "mix": OracleHParams(
            learning_rate=1e-4,
            discount=1.0,
            total_timesteps=100_000,
            exploration_timesteps=300,
        ),
    },
    "matrix": {
        "pure": OracleHParams(
            learning_rate=2e-3,
            discount=0.0,
            total_timesteps=4_000,
            exploration_timesteps=2_000,
        ),
        "mix": OracleHParams(
            learning_rate=1e-3,
            discount=0.0,
            total_timesteps=8_000,
            exploration_timesteps=4_000,
        ),
    },
}


def preset_hparams(env_name: str, kind: str) -> OracleHParams:
    """Named hyperparameter preset: kind is "pure" or "mix"."""
    family = "leduc" if env_name == "leduc" else "matrix"
    if kind not in ("pure", "mix"):
        raise ValueError(f"unknown preset kind {kind!r}; expected 'pure' or 'mix'")
    return _PRESETS[family][kind]


@dataclass
class HParamSearchResult:
    pure_hparams: OracleHParams
    mix_hparams: OracleHParams
    configs: list[OracleHParams] = field(default_factory=list)
    pure_scores: np.ndarray = field(default_factory=lambda: np.zeros(0))
    mix_scores: np.ndarray = field(default_factory=lambda: np.zeros(0))


def _sample_config(spec: HParamSearchSpec, rng) -> OracleHParams:
    def draw(candidates):
        return candidates[rng.integers(len(candidates))]

    total = int(draw(spec.total_timesteps))
    exploration = min(int(draw(spec.exploration_timesteps)), total)
    return OracleHParams(
        learning_rate=float(draw(spec.learning_rate)),
        discount=spec.discount,
        total_timesteps=total,
        exploration_timesteps=exploration,
    )


def _value(env, learner, policy, opponent) -> float:
    """The learner's exact value playing ``policy`` against ``opponent``."""
    profile = [None, None]
    profile[learner] = policy
    profile[1 - learner] = opponent
    return float(analytic_payoffs(env, profile)[learner])


def hparam_search(
    spec: HParamSearchSpec, env, opponent_policies: Sequence
) -> HParamSearchResult:
    """Random search over the candidate grid, scored on the pure and mix tasks.

    Exploration spans longer than the sampled training budget are clamped to
    it, keeping every sampled configuration valid.
    """
    if env.n_players != 2:
        raise PlayerCountUnsupported("hyperparameter search assumes a 2-player environment")
    if len(opponent_policies) != spec.opponent_count:
        raise ValueError(
            f"expected {spec.opponent_count} opponent policies, got {len(opponent_policies)}"
        )
    k = spec.opponent_count
    learner = spec.learner
    opponent_seat = 1 - learner
    sample_rng = derived_rng(spec.seed, 0)
    configs = [_sample_config(spec, sample_rng) for _ in range(spec.sample_count)]

    pure_scores = np.empty(spec.sample_count)
    mix_scores = np.empty(spec.sample_count)
    for index, hp in enumerate(configs):
        values = []
        for j, opponent in enumerate(opponent_policies):
            policy = train_best_response(
                env, learner, {opponent_seat: opponent}, hp,
                derived_rng(spec.seed, 1, index, j),
            )
            values.append(_value(env, learner, policy, opponent))
        pure_scores[index] = float(np.mean(values))

        def provider(random, _opponents=opponent_policies):
            return {opponent_seat: _opponents[int(random() * k)]}

        mixed_policy = train_best_response(
            env, learner, provider, hp, derived_rng(spec.seed, 3, index)
        )
        mix_scores[index] = float(
            np.mean([_value(env, learner, mixed_policy, other) for other in opponent_policies])
        )

    return HParamSearchResult(
        pure_hparams=configs[int(np.argmax(pure_scores))],
        mix_hparams=configs[int(np.argmax(mix_scores))],
        configs=configs,
        pure_scores=pure_scores,
        mix_scores=mix_scores,
    )
