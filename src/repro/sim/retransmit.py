"""Reliable-channel retransmission: ack + bounded exponential backoff.

The base network is *fire-and-forget*: a copy the fault plan drops (or
that arrives inside a crash window) is simply lost, which is why
:meth:`~repro.sim.faults.FaultPlan.check_tolerated` rejects loss on
honest-to-honest links — the paper's models never promise liveness
through unrecovered loss.  Real deployments close that gap with a
reliable transport.  This module is the simulator's opt-in equivalent:

* a :class:`ReliableLink` policy (plain frozen data, picklable into
  sweep workers) fixes the retransmission schedule: first check after
  ``rto``, then ``rto * backoff**k``, up to ``max_retries`` resends;
* a :class:`ReliableChannel` tracks every cross-party copy the network
  schedules, marks it acknowledged at its first successful delivery
  (after ``ack_delay``), and re-sends unacked copies on the timer chain
  — each resend is re-priced through the live delay policy and routed
  through the fault injector again, so a retry can be dropped too;
* :class:`RetransmitCounters` tallies flow into
  :class:`~repro.sim.runner.RunResult` and the bench rows.

Acks are modeled as transport bookkeeping, not simulated messages: the
model's adversary schedules protocol messages, while the ack path here
is the channel's internal state machine (like TCP's, it does not ride
the adversarial delay policy).  ``ack_delay > 0`` still lets a test
force the "retransmit raced the ack" duplicate.

Determinism: the timer chain is a pure function of the send schedule
(no RNG of its own; resend delays come from the world's seeded policy
and the injector's plan-seeded stream), so every preset — and the
reference heap queue — replays the same retransmission schedule.

Off by default: a world without a ``reliable_link`` has no channel at
all — the network keeps its run emitter (batched fan-outs included) and
stays byte-identical, which
``test_retransmit.py::test_off_by_default_stays_byte_identical`` pins.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable

from repro.errors import ConfigurationError
from repro.sim.clock import quantize
from repro.types import PartyId

if TYPE_CHECKING:
    from repro.sim.scheduler import Simulator


@dataclass(frozen=True)
class ReliableLink:
    """Retransmission policy for the opt-in reliable channel.

    ``rto`` is the retransmission timeout before the first resend;
    subsequent checks back off geometrically (``rto * backoff**k``);
    ``max_retries`` bounds the resend budget per copy; ``ack_delay``
    postpones the ack's effect past the delivery instant (0 = the ack
    is visible immediately, the deterministic default).
    """

    rto: float = 2.0
    backoff: float = 2.0
    max_retries: int = 4
    ack_delay: float = 0.0

    def validate(self) -> "ReliableLink":
        if self.rto <= 0:
            raise ConfigurationError(f"rto must be > 0, got {self.rto}")
        if self.backoff < 1.0:
            raise ConfigurationError(
                f"backoff must be >= 1, got {self.backoff}"
            )
        if self.max_retries < 1:
            raise ConfigurationError(
                f"max_retries must be >= 1, got {self.max_retries}"
            )
        if self.ack_delay < 0:
            raise ConfigurationError(
                f"ack_delay must be >= 0, got {self.ack_delay}"
            )
        return self

    def backoff_tail(self) -> float:
        """Upper bound on send-to-last-resend: the full backoff chain.

        Retry ``k`` (1-based) leaves at
        ``send + sum(rto * backoff**i for i in range(k))``; the tail is
        that sum at ``k = max_retries``.  :meth:`FaultPlan.quiet_time`
        extends loss-capable windows by this much — after it, no copy
        sent before the window closed is still being retried.
        """
        return sum(
            self.rto * self.backoff ** k for k in range(self.max_retries)
        )

    def to_json(self) -> dict:
        return {
            "rto": self.rto,
            "backoff": self.backoff,
            "max_retries": self.max_retries,
            "ack_delay": self.ack_delay,
        }

    @classmethod
    def from_json(cls, doc: dict) -> "ReliableLink":
        return cls(
            rto=float(doc.get("rto", 2.0)),
            backoff=float(doc.get("backoff", 2.0)),
            max_retries=int(doc.get("max_retries", 4)),
            ack_delay=float(doc.get("ack_delay", 0.0)),
        ).validate()


@dataclass
class RetransmitCounters:
    """Channel tallies, surfaced on :class:`~repro.sim.runner.RunResult`."""

    retransmissions: int = 0
    acks_sent: int = 0
    retries_exhausted: int = 0


class _Transfer:
    """One tracked cross-party copy: endpoints, payload, ack state."""

    __slots__ = ("sender", "recipient", "payload", "acked", "ack_pending")

    def __init__(self, sender: PartyId, recipient: PartyId, payload: Any):
        self.sender = sender
        self.recipient = recipient
        self.payload = payload
        self.acked = False
        self.ack_pending = False


class ReliableChannel:
    """The compiled :class:`ReliableLink`: per-copy ack + retry chains.

    ``resend`` is the network's callback ``(transfer) -> bool``: re-price
    the copy through the delay policy at the current instant, route it
    through the injector (drops can recur), schedule the delivery; return
    whether a retry actually left (a crashed sender retransmits nothing,
    but its chain keeps ticking and resumes after recovery).
    """

    def __init__(
        self,
        policy: ReliableLink,
        sim: "Simulator",
        resend: "Callable[[_Transfer], bool]",
    ) -> None:
        self.policy = policy.validate()
        self._sim = sim
        self._resend = resend
        self.counters = RetransmitCounters()
        #: Cross-party copies registered (original sends, not retries).
        self.tracked = 0

    # ------------------------------------------------------------------ #
    # network-facing seams
    # ------------------------------------------------------------------ #

    def register(
        self, sender: PartyId, recipient: PartyId, payload: Any
    ) -> _Transfer:
        """Track one just-priced copy; arm its first retransmit check."""
        transfer = _Transfer(sender, recipient, payload)
        self.tracked += 1
        self._arm(transfer, self._sim.now, 0)
        return transfer

    def acknowledge(self, transfer: _Transfer) -> None:
        """The copy reached its recipient's inbox: stop retransmitting.

        Called by the network at the first successful delivery of any
        scheduled instance (original or retry).  With ``ack_delay > 0``
        the ack's *effect* lands later, so a check firing in between
        still retransmits — the classic spurious-retry duplicate.
        """
        if transfer.acked or transfer.ack_pending:
            return
        self.counters.acks_sent += 1
        if self.policy.ack_delay <= 0.0:
            transfer.acked = True
            return
        transfer.ack_pending = True
        self._sim.schedule_at(
            quantize(self._sim.now + self.policy.ack_delay),
            self._mark_acked,
            priority=2,
            args=(transfer,),
            transient=True,
        )

    # ------------------------------------------------------------------ #
    # timer chain
    # ------------------------------------------------------------------ #

    def _arm(
        self, transfer: _Transfer, base_time: float, retries_done: int
    ) -> None:
        delay = self.policy.rto * (self.policy.backoff ** retries_done)
        # Priority 2: at an exact tie the in-flight delivery (priority 0)
        # and protocol timers (priority 1) run first, so a copy landing
        # exactly at its check instant is acked before the check fires.
        self._sim.schedule_at(
            quantize(base_time + delay),
            self._check,
            priority=2,
            args=(transfer, retries_done),
            transient=True,
        )

    def _check(self, transfer: _Transfer, retries_done: int) -> None:
        if transfer.acked:
            return
        if retries_done >= self.policy.max_retries:
            self.counters.retries_exhausted += 1
            return
        if self._resend(transfer):
            self.counters.retransmissions += 1
        self._arm(transfer, self._sim.now, retries_done + 1)

    def _mark_acked(self, transfer: _Transfer) -> None:
        transfer.ack_pending = False
        transfer.acked = True
