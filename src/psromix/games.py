"""Normal-form and empirical-game data structures.

An empirical game holds per-player ordered strategy sets (opaque policy
handles owned by the engine) and a partially filled joint payoff table of
mean simulated returns. Strategy sets grow append-only; profile cells are
keyed by index tuples with one entry per player.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .errors import IncompleteGame, MissingEntry, OutOfBounds

# A pure profile is a tuple of strategy indices, one per player in order.
PureProfile = tuple


class StrategyId(NamedTuple):
    player: int
    index: int


def as_weights(mixture, size: int | None = None) -> np.ndarray:
    """The mixture as a float weight vector, of length ``size`` if given."""
    weights = np.asarray(mixture, dtype=float)
    if size is not None and len(weights) != size:
        raise ValueError(f"mixture has length {len(weights)}, expected {size}")
    return weights


@dataclass
class PayoffTable:
    """Map from pure profiles to mean-return vectors with episode counts."""

    n_players: int
    cells: dict[PureProfile, np.ndarray] = field(default_factory=dict)
    sample_counts: dict[PureProfile, int] = field(default_factory=dict)

    def record(self, profile: PureProfile, mean_returns, episodes: int) -> None:
        """Record a cell's mean returns over ``episodes`` episodes. A cell is
        recorded once: recording it again raises ``ValueError``."""
        if episodes < 1:
            raise ValueError("episodes must be >= 1")
        mean_returns = np.asarray(mean_returns, dtype=float)
        if mean_returns.shape != (self.n_players,):
            raise ValueError(
                f"payoff vector has shape {mean_returns.shape}, expected ({self.n_players},)"
            )
        if profile in self.cells:
            raise ValueError(f"profile {profile} is already recorded")
        self.cells[profile] = mean_returns.copy()
        self.sample_counts[profile] = episodes


class EmpiricalGame:
    """Per-player strategy sets plus the joint payoff table."""

    def __init__(self, n_players: int):
        if n_players < 1:
            raise ValueError("n_players must be >= 1")
        self.n_players = n_players
        self.strategy_sets: list[list] = [[] for _ in range(n_players)]
        self.payoffs = PayoffTable(n_players)
        self.epoch = 0

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(len(s) for s in self.strategy_sets)

    def add_policy(self, player: int, policy) -> StrategyId:
        """Append a policy handle to the player's strategy set (ids are dense)."""
        self.strategy_sets[player].append(policy)
        return StrategyId(player, len(self.strategy_sets[player]) - 1)

    def all_profiles(self) -> Iterable[PureProfile]:
        return itertools.product(*(range(k) for k in self.shape))

    def missing_profiles(self) -> list[PureProfile]:
        """Profiles over the current sets with no payoff cell, in lexicographic order."""
        return [p for p in self.all_profiles() if p not in self.payoffs.cells]

    def is_complete(self) -> bool:
        if 0 in self.shape:
            return True
        return len(self.payoffs.cells) == int(np.prod(self.shape))

    def _check_bounds(self, profile: PureProfile) -> PureProfile:
        profile = tuple(int(i) for i in profile)
        if len(profile) != self.n_players:
            raise ValueError(
                f"profile has {len(profile)} entries, expected {self.n_players}"
            )
        for player, index in enumerate(profile):
            if not 0 <= index < len(self.strategy_sets[player]):
                raise OutOfBounds(
                    f"strategy index {index} out of range for player {player} "
                    f"(set size {len(self.strategy_sets[player])})"
                )
        return profile

    def payoff(self, profile: PureProfile) -> np.ndarray:
        profile = self._check_bounds(profile)
        cell = self.payoffs.cells.get(profile)
        if cell is None:
            raise MissingEntry(f"profile {profile} has never been simulated")
        return cell

    def expected_payoff(self, mixtures: Sequence) -> np.ndarray:
        """Bilinear extension of the table to mixed strategies.

        Zero-probability profiles are skipped even if their cells are missing,
        so clipped-support solutions evaluate cleanly on partially grown
        tables.
        """
        weights = [as_weights(m, k) for m, k in zip(mixtures, self.shape)]
        if len(weights) != self.n_players:
            raise ValueError(f"expected {self.n_players} mixtures")
        try:
            return expected_cell(weights, self.payoffs.cells.__getitem__)
        except KeyError as missing:
            raise MissingEntry(
                f"profile {missing.args[0]} is in the mixture support but unsimulated"
            ) from None


def expected_cell(
    weights: Sequence[np.ndarray], cell: Callable[[PureProfile], np.ndarray]
) -> np.ndarray:
    """Expectation of ``cell(profile)`` when each player mixes by its weights.

    Sums over the product of the supports only, in lexicographic order, so
    the cells of zero-probability profiles are never read. Each profile's
    probability is the product of its weights, taken in player order.
    """
    supports = [[(int(i), w[i]) for i in np.flatnonzero(w > 0.0)] for w in weights]
    value = 0.0
    for combo in itertools.product(*supports):
        profile, probs = zip(*combo)
        value += math.prod(probs) * cell(profile)
    return value


def payoff_tensor(game: EmpiricalGame) -> np.ndarray:
    """Dense tensor of shape (*strategy-set sizes, n_players).

    Raises IncompleteGame if any profile cell is missing.
    """
    shape = game.shape
    tensor = np.empty(shape + (game.n_players,))
    for profile in game.all_profiles():
        cell = game.payoffs.cells.get(profile)
        if cell is None:
            raise IncompleteGame(f"profile {profile} has no payoff cell")
        tensor[profile] = cell
    return tensor


def deviation_values(tensor: np.ndarray, weights: Sequence[np.ndarray], player: int) -> np.ndarray:
    """Expected payoff of each of ``player``'s pure strategies against the
    other players' mixtures, from a dense payoff tensor."""
    values = tensor[..., player]
    for other in sorted(range(len(weights)), reverse=True):
        if other == player:
            continue
        values = np.tensordot(values, weights[other], axes=(other, 0))
    return values


def tensor_gains(tensor: np.ndarray, weights: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Per-player vectors of pure-deviation gains relative to the profile
    value, from a dense payoff tensor."""
    gains = []
    for player, w in enumerate(weights):
        values = deviation_values(tensor, weights, player)
        gains.append(values - float(values @ w))
    return gains


def deviation_gains(game: EmpiricalGame, mixtures: Sequence) -> list[np.ndarray]:
    """Per-player vectors of pure-deviation gains relative to the profile value."""
    weights = [as_weights(m, k) for m, k in zip(mixtures, game.shape)]
    return tensor_gains(payoff_tensor(game), weights)


GAME_FILE_HEADER = "psromix-game v1"


def save_game(game: EmpiricalGame, path) -> None:
    """Write the game as structured text.

    Counts round-trip exactly; payoffs are written with repr so they
    round-trip to the full 17 significant digits of a double.
    """
    lines = [GAME_FILE_HEADER, f"players {game.n_players}", f"epoch {game.epoch}"]
    lines.append("strategies " + " ".join(str(k) for k in game.shape))
    for profile in sorted(game.payoffs.cells):
        payoffs = " ".join(repr(float(v)) for v in game.payoffs.cells[profile])
        count = game.payoffs.sample_counts[profile]
        lines.append(
            "cell " + " ".join(str(i) for i in profile) + f" | {payoffs} | {count}"
        )
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_game(path) -> EmpiricalGame:
    """Read a game written by :func:`save_game`.

    Strategy handles are not stored in the file; the loaded sets contain None
    placeholders which the engine replaces when restoring a checkpoint. A
    malformed file raises ``ValueError``, or ``OutOfBounds`` for a profile
    outside the strategy sets.
    """
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines or lines[0] != GAME_FILE_HEADER:
        raise ValueError(f"{path}: not a psromix game file")
    header = [ln.split() for ln in lines[1:4]]
    if [tokens[:1] for tokens in header] != [["players"], ["epoch"], ["strategies"]]:
        raise ValueError(f"{path}: the players, epoch and strategies lines are required")
    (n_players,), (epoch,), sizes = header[0][1:], header[1][1:], header[2][1:]
    game = EmpiricalGame(int(n_players))
    game.epoch = int(epoch)
    if len(sizes) != game.n_players:
        raise ValueError(f"{path}: {len(sizes)} strategy-set sizes for {n_players} players")
    for player, size in enumerate(sizes):
        for _ in range(int(size)):
            game.add_policy(player, None)
    for line in lines[4:]:
        if not line.startswith("cell "):
            raise ValueError(f"{path}: unexpected line {line!r}")
        body = line[len("cell ") :]
        profile_part, payoff_part, count_part = (part.strip() for part in body.split("|"))
        profile = game._check_bounds(profile_part.split())
        payoffs = [float(tok) for tok in payoff_part.split()]
        game.payoffs.record(profile, payoffs, int(count_part))
    return game
