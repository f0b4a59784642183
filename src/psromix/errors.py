"""Exception types shared across the package."""


class PsromixError(Exception):
    """Base class for all package errors."""


class MissingEntry(PsromixError):
    """A payoff-table cell was requested that has never been simulated."""


class OutOfBounds(PsromixError):
    """A strategy index exceeds the player's current strategy-set size."""


class IncompleteGame(PsromixError):
    """An operation requiring a complete payoff table was given a partial one."""


class NoEquilibriumFound(PsromixError):
    """No two-player equilibrium passed verification (internal error)."""


class IllegalAction(PsromixError):
    """A policy emitted an action outside the environment's legal set."""


class WrongEnvironment(PsromixError):
    """An environment of the wrong kind was passed (e.g. non-matrix)."""


class MissingResponse(PsromixError):
    """A supported opponent policy has no stored best response."""


class NotValueBased(PsromixError):
    """A supported policy does not expose an action-value table."""


class PlayerCountUnsupported(PsromixError):
    """The algorithm does not support this number of players."""


class CorruptCheckpoint(PsromixError):
    """A checkpoint directory is missing, truncated, or malformed."""


class EmptyDeviationSet(PsromixError):
    """Regret was requested against an empty deviation set."""


class ConfigError(PsromixError):
    """A run configuration is invalid; the message names the field."""


class EnvironmentMismatch(PsromixError):
    """Runs being compared were produced on different environments."""
