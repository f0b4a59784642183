"""Value-based policy aggregation.

A mixture of value policies is itself a value policy: its action values at an
observation are the components' values weighted by the mixture probabilities
(components that never saw the observation contribute their default value).
The weights are fixed, so a mixture is flattened once, when it is built, into
a :class:`~psromix.policies.QTable`: one row per key any component knows,
all in one read-only array, plus one default. Each component gives its rows
for all those keys at once (``rows_for``). The mixture is looked up, saved
and loaded as that table, and a lookup is a single dict access, whatever
the support size. The same construction serves two roles in the epoch
loops: combining a library of stored best responses into a response to a
mixed opponent, and collapsing a mixed opponent into a single
representative policy to train against.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import MissingResponse, NotValueBased
from .games import as_weights
from .policies import QTable, ValuePolicy


class MixedQPolicy(QTable):
    """Weighted sum of component action-value tables, held as a QTable.

    Not to be updated after construction. The sums are taken for every key in
    the union of the components' ``known_keys()``, each as ``total = 0;
    total += weight * component.lookup(key)`` in component order, and stored
    as the table's read-only rows. ``default_value`` is the same weighted sum
    of the components' defaults, so it is also what each unseen key sums to.
    """

    def __init__(self, components: Sequence[QTable], weights):
        self.weights = np.asarray(weights, dtype=float)
        if len(components) != len(self.weights):
            raise ValueError("one weight per component required")
        if len(components) == 0:
            raise ValueError("at least one component required")
        if self.weights.min() < 0:
            raise ValueError("weights must be non-negative")
        if abs(self.weights.sum() - 1.0) > 1e-9:
            raise ValueError(f"weights sum to {self.weights.sum()!r}, expected 1")
        counts = {c.action_count for c in components}
        if len(counts) != 1:
            raise ValueError(f"components disagree on action count: {sorted(counts)}")
        self.components = tuple(components)
        action_count = counts.pop()

        keys = list(set().union(*(c.known_keys() for c in self.components)))
        # Whole-array ops round each element exactly as a per-key loop would.
        totals = np.zeros((len(keys), action_count))
        default_value = 0.0
        for weight, component in zip(self.weights, self.components):
            totals += weight * component.rows_for(keys)
            default_value += weight * component.default_value
        self._store(action_count, keys, totals, default_value)

    # An entry of this class's own: the benchmark's tracer (perfbench/run.py)
    # patches ``lookup`` through each class's ``__dict__``, so mixture lookups
    # are counted apart from plain table lookups.
    lookup = QTable.lookup


def _value_table(policy):
    table = getattr(policy, "q", None)
    if table is None:
        raise NotValueBased(
            f"{type(policy).__name__} exposes no action-value table"
        )
    return table


def _support(solution) -> tuple[np.ndarray, np.ndarray]:
    weights = as_weights(solution)
    support = np.flatnonzero(weights > 0.0)
    if len(support) == 0:
        raise ValueError("opponent solution has empty support")
    return weights, support


def combine_responses(responses: Sequence, opponent_solution) -> ValuePolicy:
    """Aggregate stored per-opponent best responses by the opponent mixture.

    ``responses[j]`` is the best response to the opponent's strategy ``j``;
    entries outside the mixture support may be missing (None).
    """
    _, support = _support(opponent_solution)
    for index in support:
        if index >= len(responses) or responses[index] is None:
            raise MissingResponse(
                f"no stored best response for opponent strategy {index}"
            )
    return combine_opponents(responses, opponent_solution)


def combine_opponents(opponent_policies: Sequence, opponent_solution) -> ValuePolicy:
    """Collapse a mixed opponent into one fixed value-based policy.

    The result plays greedily on the weighted value mixture, removing the
    need to sample a fresh opponent at each episode. Zero-weight policies may
    be arbitrary; supported ones must expose a value table.
    """
    weights, support = _support(opponent_solution)
    components = [_value_table(opponent_policies[index]) for index in support]
    return ValuePolicy(MixedQPolicy(components, weights[support]))
