"""BFT SMR built from repeated single-shot psync-VBB instances.

Each *slot* of the replicated log runs one instance of the paper's
(5f-1)-psync-VBB protocol (2 good-case rounds), exactly the construction
the paper motivates ("each view in BFT SMR is similar to an instance of
broadcast") and spells out in its companion paper [5].  The replica
multiplexes slot instances over one network by tagging messages with the
slot number; the leader proposes its next pending command when the
previous slot commits locally, so a stable honest leader commits one
command every 2 message delays.

Commands are applied to the local :class:`~repro.smr.state_machine`
instance in slot order once the committed prefix is contiguous.
"""
from __future__ import annotations

from functools import partial
from typing import Any, Callable

from repro.protocols.psync.vbb_5f1 import PsyncVbb5f1
from repro.sim.hosting import PartyHost
from repro.sim.process import Party
from repro.smr.state_machine import StateMachine
from repro.types import PartyId, Value

SMR = "smr"


class SmrReplica(PartyHost, Party):
    """One replica of the psync-VBB-based SMR; hosts one party per slot."""

    def __init__(
        self,
        world,
        party_id: PartyId,
        *,
        leader: PartyId,
        state_machine_factory: Callable[[], StateMachine],
        workload: list[Value] | None = None,
        num_slots: int = 1,
        big_delta: float = 1.0,
        protocol_cls: type = PsyncVbb5f1,
    ):
        super().__init__(world, party_id)
        self.leader = leader
        self.state_machine = state_machine_factory()
        self.workload = list(workload or [])
        self.num_slots = num_slots
        self.big_delta = big_delta
        self.protocol_cls = protocol_cls
        self.log: dict[int, Value] = {}
        self.applied_upto = 0  # next slot to apply
        self.commit_times: dict[int, float] = {}
        self.results: list[Any] = []

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    def on_start(self) -> None:
        self._open_slot(0)

    def on_message(self, sender: PartyId, payload: Any) -> None:
        if not (
            isinstance(payload, tuple)
            and len(payload) == 3
            and payload[0] == SMR
        ):
            return
        _, slot, inner = payload
        if not isinstance(slot, int) or not 0 <= slot < self.num_slots:
            return
        self._open_slot(slot)
        self.hosted_deliver(slot, sender, inner)

    def _open_slot(self, slot: int) -> None:
        if slot in self.hosted or slot >= self.num_slots:
            return
        # ``factory`` hands the command to the leader's instance only.
        command = self.workload[slot] if slot < len(self.workload) else None
        factory = self.protocol_cls.factory(
            broadcaster=self.leader,
            input_value=command,
            big_delta=self.big_delta,
            fallback_value=("noop", slot),
        )
        self.host(slot, factory).start()

    # ------------------------------------------------------------------ #
    # hosting seam: slot traffic travels tagged, one Network call each
    # ------------------------------------------------------------------ #

    def hosted_send(self, slot: int, recipient: PartyId, payload: Any) -> None:
        self.send(recipient, (SMR, slot, payload))

    def hosted_multicast(
        self, slot: int, payload: Any, *, include_self: bool
    ) -> None:
        self.multicast((SMR, slot, payload), include_self=include_self)

    def hosted_commit(
        self, slot: int, value: Value, time: float | None
    ) -> None:
        self.log[slot] = value
        self.commit_times[slot] = self.world.sim.now
        self._apply_contiguous()
        self._open_slot(slot + 1)
        if len(self.log) == self.num_slots and not self.has_committed:
            # Mark overall completion via the Party commit plumbing so the
            # harness can measure end-to-end latency.
            self.commit(self.state_machine.snapshot())

    def _apply_contiguous(self) -> None:
        while self.applied_upto in self.log:
            command = self.log[self.applied_upto]
            self.results.append(self.state_machine.apply(command))
            self.applied_upto += 1

    @property
    def committed_log(self) -> list[Value]:
        return [self.log[s] for s in sorted(self.log)]


def smr_factory(
    *,
    leader: PartyId,
    workload: list[Value],
    state_machine_factory: Callable[[], StateMachine],
    big_delta: float = 1.0,
    protocol_cls: type = PsyncVbb5f1,
) -> Callable[[Any, PartyId], SmrReplica]:
    """Party factory for a full SMR deployment."""
    return partial(
        SmrReplica,
        leader=leader,
        state_machine_factory=state_machine_factory,
        workload=workload,
        num_slots=len(workload),
        big_delta=big_delta,
        protocol_cls=protocol_cls,
    )
