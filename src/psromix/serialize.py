"""Structured-text serialization of policies.

All files carry a versioned header line. Floats are written with repr so
they round-trip bit-exactly. A value policy's table is written from its one
row array (:meth:`psromix.policies.QTable.rows_for`, keys sorted) and read
back, once every line has passed its checks, into one array. A Q-mixture
(:class:`psromix.qmixing.MixedQPolicy`) is a QTable holding its summed rows
and default, so it is saved as that table and loads back as a plain QTable
with the same lookups, on seen and unseen keys alike.

A policy set is a directory of ``p<player>_<k>.txt`` files (:data:`POLICY_FILE`),
written only by :func:`psromix.engine.save_policy_set`, for checkpoints and
evaluation sets alike.
"""

from __future__ import annotations

import re

import numpy as np

from .errors import CorruptCheckpoint
from .policies import FixedMixturePolicy, QTable, ValuePolicy

POLICY_HEADER = "psromix-policy v1"
POLICY_FILE = re.compile(r"p(\d+)_\d+\.txt")


def policy_to_text(policy) -> str:
    lines = [POLICY_HEADER]
    if isinstance(policy, FixedMixturePolicy):
        lines.append("kind mixture")
        lines.append("probs " + " ".join(repr(float(p)) for p in policy.probs))
        return "\n".join(lines) + "\n"
    if isinstance(policy, ValuePolicy):
        table = policy.q
        keys = sorted(table.known_keys())
        lines.append("kind value")
        lines.append(f"epsilon {policy.epsilon!r}")
        lines.append(f"actions {table.action_count}")
        lines.append(f"default {float(table.default_value)!r}")
        lines.append(f"table {len(keys)}")
        # One line per key, filled a column at a time; %r is repr.
        line = "key %s " + " ".join(["%r"] * table.action_count)
        columns = table.rows_for(keys).T.tolist()
        lines += map(line.__mod__, zip(map(bytes.hex, keys), *columns))
        return "\n".join(lines) + "\n"
    raise TypeError(f"cannot serialize policy of type {type(policy).__name__}")


def _field(lines: list[str], index: int, name: str) -> list[str]:
    """Tokens after ``name`` on header line ``index``."""
    tokens = lines[index].split() if index < len(lines) else []
    if not tokens or tokens[0] != name:
        raise CorruptCheckpoint(f"policy file: line {index + 1} is not the {name!r} line")
    return tokens[1:]


def _scalar(lines: list[str], index: int, name: str) -> str:
    tokens = _field(lines, index, name)
    if len(tokens) != 1:
        raise CorruptCheckpoint(f"policy file: {name!r} takes one value, got {len(tokens)}")
    return tokens[0]


def policy_from_text(text: str):
    """Parse a policy file; any truncation or malformed line raises
    CorruptCheckpoint, so a damaged file never loads as a smaller policy."""
    lines = list(filter(None, map(str.strip, text.splitlines())))
    if not lines or lines[0] != POLICY_HEADER:
        raise CorruptCheckpoint("policy file missing its versioned header")
    try:
        return _parse_policy(lines)
    except ValueError as exc:
        raise CorruptCheckpoint(f"policy file: {exc}") from exc


def _parse_policy(lines: list[str]):
    kind = _scalar(lines, 1, "kind")
    if kind == "mixture":
        probs = [float(tok) for tok in _field(lines, 2, "probs")]
        if len(lines) != 3:
            raise CorruptCheckpoint("policy file: unexpected lines after 'probs'")
        return FixedMixturePolicy(probs)
    if kind != "value":
        raise CorruptCheckpoint(f"unknown policy kind {kind!r}")
    epsilon = float(_scalar(lines, 2, "epsilon"))
    actions = int(_scalar(lines, 3, "actions"))
    default = float(_scalar(lines, 4, "default"))
    n_keys = int(_scalar(lines, 5, "table"))
    if len(lines) != 6 + n_keys:
        raise CorruptCheckpoint(
            f"policy file: declares {n_keys} table lines, holds {len(lines) - 6}"
        )
    if actions < 0:
        raise CorruptCheckpoint(f"policy file: negative action count {actions}")
    # Every line checked, then parsed a column at a time into one array.
    table_lines = list(map(str.split, lines[6:]))
    if actions + 1 in set(map(len, table_lines)):
        # The empty key's hex is nothing between two spaces: "key  1.0 2.0",
        # or "key" alone (its trailing spaces stripped) with no actions.
        table_lines = [
            ["key", "", *tokens[1:]]
            if len(tokens) == actions + 1 and (line == "key" or line.startswith("key  "))
            else tokens
            for line, tokens in zip(lines[6:], table_lines)
        ]
    columns = list(zip(*table_lines))
    if set(map(len, table_lines)) - {actions + 2} or (columns and set(columns[0]) != {"key"}):
        raise CorruptCheckpoint(
            f"policy file: a table line needs 'key', a hex key and {actions} values"
        )
    keys = list(map(bytes.fromhex, columns[1])) if columns else []
    if len(set(keys)) != n_keys:
        seen = set()
        for key, tokens in zip(keys, table_lines):
            if key in seen:
                raise CorruptCheckpoint(f"policy file: key {tokens[1]} is repeated")
            seen.add(key)
    values = np.array(columns[2:], dtype=float).reshape(actions, n_keys)
    if not (np.isfinite(default) and np.isfinite(values).all()):
        raise CorruptCheckpoint("policy file: a default or table value is not finite")
    table = QTable.from_rows(actions, keys, values.T, default)
    return ValuePolicy(table, epsilon=epsilon)


def save_policy(policy, path) -> None:
    with open(path, "w") as fh:
        fh.write(policy_to_text(policy))


def load_policy(path):
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise CorruptCheckpoint(f"cannot read policy file {path}: {exc}") from exc
    try:
        return policy_from_text(text)
    except CorruptCheckpoint as exc:
        raise CorruptCheckpoint(f"{path}: {exc}") from exc
