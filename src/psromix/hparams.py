"""Hyperparameter presets and the two-task random search.

The search samples configurations uniformly from per-hyperparameter candidate
lists and scores each twice: the pure task trains one best response per
opponent policy and averages the final greedy-evaluation returns; the mix
task trains a single best response against the uniform mixture of the
opponents and scores its final return against that mixture. The winners of
the two tasks are returned as (pure, mix); ties break toward the
first-sampled configuration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .envs import derived_rng, estimate_payoffs
from .errors import PlayerCountUnsupported
from .oracle import OracleHParams, train_best_response

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
class HParamSearchSpec:
    """Candidate lists plus the sampling budget for the random search."""

    learning_rate: Sequence[float] = (1e-3, 3e-3, 1e-4, 3e-4)
    exploration_timesteps: Sequence[int] = (300, 1_000, 3_000)
    total_timesteps: Sequence[int] = (1_000, 3_000, 10_000)
    sample_count: int = 30
    opponent_count: int = 5
    discount: float = 0.0
    eval_episodes: int = 30
    learner: int = 0
    seed: int = 0

    def __post_init__(self):
        if self.sample_count < 1:
            raise ValueError("sample_count must be >= 1")
        for name in ("learning_rate", "exploration_timesteps", "total_timesteps"):
            if len(getattr(self, name)) == 0:
                raise ValueError(f"candidate list {name} is empty")


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


def _final_return(env, learner, policy, opponent, episodes, rng) -> float:
    profile = [None, None]
    profile[learner] = policy
    profile[1 - learner] = opponent
    return float(estimate_payoffs(env, profile, episodes, rng)[learner])


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
        returns = []
        for j, opponent in enumerate(opponent_policies):
            policy = train_best_response(
                env, learner, {opponent_seat: opponent}, hp,
                derived_rng(spec.seed, 1, index, j),
            )
            returns.append(
                _final_return(
                    env, learner, policy, opponent, spec.eval_episodes,
                    derived_rng(spec.seed, 2, index, j),
                )
            )
        pure_scores[index] = float(np.mean(returns))

        def provider(rng, _opponents=opponent_policies):
            return {opponent_seat: _opponents[rng.integers(k)]}

        mixed_policy = train_best_response(
            env, learner, provider, hp, derived_rng(spec.seed, 3, index)
        )
        mix_scores[index] = float(
            np.mean(
                [
                    _final_return(
                        env, learner, mixed_policy, opponent, spec.eval_episodes,
                        derived_rng(spec.seed, 4, index, j),
                    )
                    for j, opponent in enumerate(opponent_policies)
                ]
            )
        )

    return HParamSearchResult(
        pure_hparams=configs[int(np.argmax(pure_scores))],
        mix_hparams=configs[int(np.argmax(mix_scores))],
        configs=configs,
        pure_scores=pure_scores,
        mix_scores=mix_scores,
    )
