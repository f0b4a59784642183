"""Value-based and scripted policies.

A policy maps an observation plus the legal action set to an action. Value
policies are backed by a :class:`QTable` (a Q-mixture from
:mod:`psromix.qmixing` is one too); greedy ties always break toward the
lowest action index so behaviour is deterministic given the table.

A table keeps the rows of its known keys in one read-only array and a
key-to-row index; its ``values`` is a read-only view of those rows by key.
Bulk readers (policy files, exact probability tables, value mixtures,
pickles) take many rows with one fancy index (:meth:`QTable.rows_for`)
instead of one lookup per key.
"""

from __future__ import annotations

from itertools import repeat
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

import numpy as np


class QTable:
    """Action-value table keyed by observation, with a default for unseen keys.

    The known keys' vectors are the rows of one read-only ``(n_keys,
    action_count)`` array, ``rows``, in insertion order. ``values`` is a
    read-only mapping from each key to its row, a view into ``rows``, so
    :meth:`lookup` is one dict access; every unseen key looks up the same
    read-only default vector. :meth:`rows_for` gathers many keys' rows at
    once. A table is built in bulk, from a dict of vectors or with
    :meth:`from_rows`, and never changes after: :mod:`psromix.exact` keeps
    the values of the policies it has valued.
    """

    def __init__(
        self,
        action_count: int,
        values: Mapping[bytes, np.ndarray | Sequence[float]] | None = None,
        default_value: float = 0.0,
    ):
        action_count = int(action_count)
        rows = np.empty((0, action_count))
        if values:
            rows = np.array(list(values.values()), dtype=float)
        self._store(action_count, list(values or ()), rows, float(default_value))

    @classmethod
    def from_rows(
        cls, action_count: int, keys: Sequence[bytes], rows: np.ndarray, default_value: float = 0.0
    ) -> QTable:
        """The table whose row ``i`` (copied from ``rows``) is key ``keys[i]``'s."""
        table = cls.__new__(cls)
        table._store(int(action_count), list(keys), rows, float(default_value))
        return table

    def _store(
        self, action_count: int, keys: list[bytes], rows: np.ndarray, default_value: float
    ) -> None:
        n = len(keys)
        rows = np.asarray(rows, dtype=float)
        if rows.shape != (n, action_count):
            raise ValueError(f"rows have shape {rows.shape}, expected ({n}, {action_count})")
        index = dict(zip(keys, range(n)))
        if len(index) != n:
            raise ValueError("a key is repeated")
        # The default is one more row, so rows_for needs one fancy index.
        table = np.empty((n + 1, action_count))
        table[:n] = rows
        table[n] = default_value
        table.flags.writeable = False
        self.action_count = action_count
        self.default_value = default_value
        self.rows = table[:n]
        self._table = table
        self._default = table[n]
        self._index = index
        self._by_key = dict(zip(keys, self.rows))
        self.values: Mapping[bytes, np.ndarray] = MappingProxyType(self._by_key)

    def lookup(self, key: bytes) -> np.ndarray:
        """Return the key's read-only row, or the shared read-only default."""
        return self._by_key.get(key, self._default)

    def rows_for(self, keys: Sequence[bytes]) -> np.ndarray:
        """Row ``i`` is ``lookup(keys[i])``, the default for an unseen key;
        all rows in one new array."""
        positions = map(self._index.get, keys, repeat(len(self._index)))
        return self._table[np.fromiter(positions, np.intp, len(keys))]

    def known_keys(self) -> Iterable[bytes]:
        return self._index.keys()

    def __reduce__(self):
        # Pickled as the one row array: a trained Leduc table pickles and
        # unpickles several times faster than with one array per key.
        return (
            QTable.from_rows,
            (self.action_count, list(self._index), self.rows, self.default_value),
        )


def greedy_over(vec, legal_actions: Sequence[int]) -> int:
    """Lowest-index maximiser of ``vec`` restricted to the legal actions.
    :func:`psromix.oracle.train_best_response` inlines it for the learner's
    greedy step; the tests' reference loop calls it, holding the two alike."""
    best = legal_actions[0]
    best_value = vec[best]
    for a in legal_actions[1:]:
        v = vec[a]
        if v > best_value:
            best, best_value = a, v
    return best


def greedy_rows(values: np.ndarray, legal_mask: np.ndarray) -> np.ndarray:
    """:func:`greedy_over` applied to every row of ``values``, each restricted
    to the actions its row of the boolean ``legal_mask`` allows; the same
    comparisons in the same order, so the same choices."""
    rows = np.arange(len(values))
    best = legal_mask.argmax(axis=1)  # the lowest legal action
    best_value = values[rows, best]
    for action in range(values.shape[1]):
        better = legal_mask[:, action] & (values[:, action] > best_value)
        best = np.where(better, action, best)
        best_value = np.where(better, values[:, action], best_value)
    return best


class ValuePolicy:
    """Policy acting greedily (or epsilon-greedily) on an action-value table.

    ``epsilon`` is the probability of playing a uniform-random legal action;
    ``epsilon=1.0`` yields a uniform-random policy, the conventional initial
    strategy for each player.
    """

    def __init__(self, q: QTable, epsilon: float = 0.0):
        if not 0.0 <= epsilon <= 1.0:
            raise ValueError(f"epsilon must lie in [0, 1], got {epsilon}")
        self.q = q
        self.epsilon = float(epsilon)

    @property
    def action_count(self) -> int:
        return self.q.action_count

    def greedy_action(self, observation, legal_actions: Sequence[int]) -> int:
        return greedy_over(self.q.lookup(observation), legal_actions)

    def act(self, observation, legal_actions: Sequence[int], rng) -> int:
        """With probability ``epsilon`` a uniform legal action, else the
        greedy one. Both draws are ``rng.random()``: the coin, then the
        action ``legal_actions[int(u * len(legal_actions))]``, as training
        draws them for its value-policy opponents (from its own stream)."""
        if self.epsilon > 0.0 and rng.random() < self.epsilon:
            return legal_actions[int(rng.random() * len(legal_actions))]
        return self.greedy_action(observation, legal_actions)

    def action_probabilities(self, observation, legal_actions: Sequence[int]) -> np.ndarray:
        probs = np.zeros(self.q.action_count)
        if self.epsilon > 0.0:
            probs[list(legal_actions)] = self.epsilon / len(legal_actions)
        probs[self.greedy_action(observation, legal_actions)] += 1.0 - self.epsilon
        return probs

    def action_probability_table(self, keys: Sequence[bytes], legal_mask: np.ndarray) -> np.ndarray:
        """Row ``i`` is ``action_probabilities(keys[i], legal)`` for the
        legal actions of ``legal_mask[i]``, bit for bit; all rows at once."""
        values = self.q.rows_for(keys)
        probs = np.zeros(values.shape)
        if self.epsilon > 0.0:
            probs = np.where(legal_mask, (self.epsilon / legal_mask.sum(axis=1))[:, None], 0.0)
        probs[np.arange(len(keys)), greedy_rows(values, legal_mask)] += 1.0 - self.epsilon
        return probs


class FixedMixturePolicy:
    """Scripted policy playing a fixed distribution over actions every step.

    The distribution is not masked by legal actions: sampling an illegal
    action is reported by the environment's ``step`` as a
    policy/environment mismatch.
    """

    def __init__(self, probs):
        self.probs = np.asarray(probs, dtype=float)
        if self.probs.ndim != 1 or not (np.isfinite(self.probs) & (self.probs >= 0)).all():
            raise ValueError("probs must be a finite non-negative vector")
        if abs(self.probs.sum() - 1.0) > 1e-9:
            raise ValueError(f"probs must sum to 1, got {self.probs.sum()!r}")
        self._cumulative = np.cumsum(self.probs)

    @property
    def action_count(self) -> int:
        return len(self.probs)

    def greedy_action(self, observation, legal_actions: Sequence[int]) -> int:
        return greedy_over(self.probs, legal_actions)

    def act(self, observation, legal_actions: Sequence[int], rng) -> int:
        return int(np.searchsorted(self._cumulative, rng.random(), side="right"))

    def action_probabilities(self, observation, legal_actions: Sequence[int]) -> np.ndarray:
        return self.probs.copy()

    def action_probability_table(self, keys: Sequence[bytes], legal_mask: np.ndarray) -> np.ndarray:
        """The same distribution in every row, one row per key."""
        return np.tile(self.probs, (len(keys), 1))


def uniform_random_policy(action_count: int) -> ValuePolicy:
    """A value-based uniform-random policy (empty zero table, epsilon = 1)."""
    return ValuePolicy(QTable(action_count), epsilon=1.0)


def pure_action_policy(action_count: int, action: int) -> FixedMixturePolicy:
    probs = np.zeros(action_count)
    probs[action] = 1.0
    return FixedMixturePolicy(probs)
