"""Environment suite: matrix games and two-player Leduc Poker."""

from ..errors import ConfigError
from .base import (
    Environment,
    EpisodeState,
    derived_rng,
    estimate_payoffs,
    simulate_episode,
)
from .leduc import FOLD, CALL, RAISE, LeducEnv, leduc_encode
from .matrix import (
    MATRIX_OBSERVATION,
    MatrixGameEnv,
    load_matrix_env,
    rps_env,
    save_matrix_env,
)


def make_env(spec: str) -> Environment:
    """Build an environment from its config name.

    Recognised forms: ``"rps"``, ``"leduc"``, and ``"matrix:<file>"`` where
    the file holds a payoff tensor in the structured text format written by
    :func:`save_matrix_env`. An unknown name, or a matrix file that cannot
    be read or parsed, raises ``ConfigError``.
    """
    if spec == "rps":
        return rps_env()
    if spec == "leduc":
        return LeducEnv()
    if isinstance(spec, str) and spec.startswith("matrix:"):
        try:
            return load_matrix_env(spec.split(":", 1)[1], name=spec)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"env.name: {exc}") from exc
    raise ConfigError(f"env.name: unknown environment {spec!r}")


__all__ = [
    "Environment",
    "EpisodeState",
    "FOLD",
    "CALL",
    "RAISE",
    "LeducEnv",
    "leduc_encode",
    "MATRIX_OBSERVATION",
    "MatrixGameEnv",
    "load_matrix_env",
    "rps_env",
    "save_matrix_env",
    "make_env",
    "simulate_episode",
    "estimate_payoffs",
    "derived_rng",
]
