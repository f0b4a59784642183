"""Structured-text serialization of policies.

All files carry a versioned header line. Floats are written with repr so
they round-trip bit-exactly. Mixture-backed value policies are flattened to a
plain table on save: the stored vectors are exactly the sums the live mixture
would compute, so behaviour is unchanged after a round trip.
"""

from __future__ import annotations

import numpy as np

from .errors import CorruptCheckpoint
from .policies import FixedMixturePolicy, QTable, ValuePolicy

POLICY_HEADER = "psromix-policy v1"


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
        default = getattr(table, "default_value", 0.0)
        lines.append(f"default {float(default)!r}")
        lines.append(f"table {len(keys)}")
        for key in keys:
            values = table.lookup(key)
            lines.append("key " + key.hex() + " " + " ".join(repr(float(v)) for v in values))
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
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
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
    table = QTable(actions, default_value=default)
    for line in lines[6:]:
        tokens = line.split()
        if tokens[0] != "key" or len(tokens) != actions + 2:
            raise CorruptCheckpoint(
                f"policy file: a table line needs 'key', a hex key and {actions} values"
            )
        table.set(bytes.fromhex(tokens[1]), np.array([float(tok) for tok in tokens[2:]]))
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
