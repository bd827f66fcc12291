"""Answer checks that do not use the program under test.

``fd_problems`` re-checks discovered FDs on the raw rows with plain Python
dicts: an FD ``X -> A`` holds when no two rows agree on ``X`` and differ on
``A``, and it is minimal when no LHS with one attribute fewer already
determines ``A``.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Iterable, Mapping, Sequence


class FDChecker:
    """Checks FDs on a row list column by column, with plain Python dicts."""

    def __init__(self, attributes: Sequence[str], rows: Sequence[Sequence[Any]]) -> None:
        self._columns = {name: [row[i] for row in rows] for i, name in enumerate(attributes)}

    def holds(self, lhs: Sequence[str], rhs: str) -> bool:
        """Whether every LHS value combination maps to one RHS value.

        Stops at the first pair of rows that violates the FD, so checking
        that a smaller LHS does *not* determine the RHS is usually quick.
        """
        seen: dict[Any, Any] = {}
        keys = zip(*(self._columns[name] for name in lhs)) if lhs else iter(lambda: (), None)
        for key, value in zip(keys, self._columns[rhs]):
            if seen.setdefault(key, value) != value:
                return False
        return True


def fd_problems(checker: FDChecker, fds: Iterable[Mapping[str, Any]]) -> list[str]:
    """Every FD record (``{"lhs": [...], "rhs": ...}``) that fails or is not minimal."""
    problems = []
    for record in fds:
        lhs, rhs = list(record["lhs"]), record["rhs"]
        label = f"{','.join(lhs) or '{}'} -> {rhs}"
        if rhs in lhs:
            problems.append(f"trivial: {label}")
        elif not checker.holds(lhs, rhs):
            problems.append(f"does not hold: {label}")
        elif any(checker.holds([a for a in lhs if a != drop], rhs) for drop in lhs):
            problems.append(f"not minimal: {label}")
    return problems


def fingerprint(value: Any) -> str:
    """SHA-256 of the canonical JSON rendering of ``value``."""
    canonical = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def fd_keys(fds: Iterable[Any]) -> list[tuple[tuple[str, ...], str]]:
    """FD objects or records as sorted ``(lhs, rhs)`` tuples, for comparison."""
    keys = []
    for dependency in fds:
        if isinstance(dependency, Mapping):
            keys.append((tuple(sorted(dependency["lhs"])), dependency["rhs"]))
        else:
            keys.append((tuple(sorted(dependency.lhs)), dependency.rhs))
    return sorted(keys)
