"""Deterministic state machines replicated by the SMR layer.

The paper's motivation is BFT state machine replication: "an efficient
broadcast protocol can be converted to an SMR protocol with similar
efficiency guarantees."  The SMR layer applies committed commands in slot
order to a deterministic state machine; we ship a key-value store and a
counter as concrete machines for the examples and tests.
"""
from __future__ import annotations

from typing import Any, Hashable


class StateMachine:
    """Interface: deterministic command application."""

    def apply(self, command: Any) -> Any:
        raise NotImplementedError

    def snapshot(self) -> Any:
        """A hashable digest of the current state (for agreement checks)."""
        raise NotImplementedError


class KeyValueStore(StateMachine):
    """A string-keyed store with set/delete/get commands.

    Commands are tuples: ``("set", key, value)``, ``("del", key)``,
    ``("get", key)``; unknown commands are ignored (applied as no-ops) so
    that a Byzantine leader cannot crash honest replicas with garbage.
    """

    def __init__(self) -> None:
        self._data: dict[Hashable, Any] = {}

    def apply(self, command: Any) -> Any:
        if not isinstance(command, tuple) or not command:
            return None
        op = command[0]
        if op == "set" and len(command) == 3:
            self._data[command[1]] = command[2]
            return command[2]
        if op == "del" and len(command) == 2:
            return self._data.pop(command[1], None)
        if op == "get" and len(command) == 2:
            return self._data.get(command[1])
        return None

    def snapshot(self) -> Any:
        return tuple(sorted(self._data.items(), key=repr))


class Counter(StateMachine):
    """Adds numeric commands; ignores everything else."""

    def __init__(self) -> None:
        self.total = 0

    def apply(self, command: Any) -> Any:
        if isinstance(command, (int, float)):
            self.total += command
        return self.total

    def snapshot(self) -> Any:
        return self.total
