"""Environment suite: matrix games and two-player Leduc Poker."""

from .base import (
    Environment,
    EpisodeResult,
    EpisodeState,
    Observation,
    Transition,
    derive_stream_seed,
    derived_rng,
    estimate_payoffs,
    simulate_episode,
)
from .leduc import FOLD, CALL, RAISE, LeducEnv, leduc_encode
from .matrix import (
    MATRIX_OBSERVATION,
    MatrixGameEnv,
    action_values,
    analytic_payoffs,
    load_matrix_env,
    require_matrix_env,
    rps_env,
    save_matrix_env,
)


def make_env(spec: str) -> Environment:
    """Build an environment from its config name.

    Recognised forms: ``"rps"``, ``"leduc"``, and ``"matrix:<file>"`` where
    the file holds a payoff tensor in the structured text format written by
    :func:`save_matrix_env`.
    """
    if spec == "rps":
        return rps_env()
    if spec == "leduc":
        return LeducEnv()
    if spec.startswith("matrix:"):
        return load_matrix_env(spec.split(":", 1)[1], name=spec)
    raise ValueError(f"unknown environment spec {spec!r}")


__all__ = [
    "Environment",
    "EpisodeResult",
    "EpisodeState",
    "Observation",
    "Transition",
    "FOLD",
    "CALL",
    "RAISE",
    "LeducEnv",
    "leduc_encode",
    "MATRIX_OBSERVATION",
    "MatrixGameEnv",
    "action_values",
    "analytic_payoffs",
    "load_matrix_env",
    "require_matrix_env",
    "rps_env",
    "save_matrix_env",
    "make_env",
    "simulate_episode",
    "estimate_payoffs",
    "derive_stream_seed",
    "derived_rng",
]
