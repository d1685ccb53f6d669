"""The hosted-party seam: an honest :class:`Party` run inside another agent.

Two layers need it: the paper's proofs corrupt parties that "behave
honestly except ..." (:mod:`repro.adversary.behaviors` runs honest
*brains* behind a send filter, a partition or a crash window), and its
motivating application runs one broadcast instance per SMR slot
(:mod:`repro.smr.replica`).  In both the hosted party is built against a
:class:`HostedWorld` — the surface of :class:`~repro.sim.runner.World`,
so a protocol runs unmodified — and its host, a :class:`PartyHost`,
decides what leaves and what the harness sees.

What a hosted party sees of the outer world:

* **forwarded** as is — ``n``, ``f``, ``sim``, ``start_offsets``,
  ``instrumentation`` (same observability mode; hosted quorum trackers
  enrol with the outer counters), ``intern_payload`` and ``shared_memo``
  (equal vote cores collapse to the honest parties' objects, certificate
  verdicts pool; memo keys carry the registry and the full checker
  configuration, so pooling across hosts is structurally safe);
* **replaced** — ``registry`` verifies through the real PKI but hands out
  only the host's signer (the real registry issues one signer per id,
  a host may instantiate several parties under its id), and ``network``
  turns every send and multicast into a call on the host;
* **not pooled**, deliberately — ``shared_identity_memo`` and
  ``shared_entry_store`` answer ``None`` (the party keeps private ones):
  two brains of one corrupted id, or two slots of one replica, tally
  *different* values under the same ``(view, value)`` bucket names and
  would overwrite the entries honest parties read back; ``accountant``
  and ``fault_injector`` are ``None`` (a hosted commit is no atomic step
  of the outer execution, and a plan's crash windows gate the host);
* **routed to the host** — ``note_commit`` becomes
  :meth:`PartyHost.hosted_commit`; commit conflicts and view entries stop
  here.  Nothing a hosted party does reaches ``commit_order`` or an
  attached monitor: the harness hears the host's own ``commit``, if any.

Adding a host: mix :class:`PartyHost` into an ``Agent`` that has a
``signer`` (first in the bases); create each hosted party with
``self.host(key, factory)``, feed it through ``self.hosted_deliver(key,
sender, payload)``; define ``hosted_send`` (what to do with one outgoing
copy) and, where the default "one send per recipient in ascending order,
then one zero-delay self-delivery event" is not wanted,
``hosted_multicast``; override ``hosted_deliver`` to gate what a hosted
party hears (its own multicasts included) and ``hosted_commit`` to react
to its commit.  A world service protocols start reading is added to
``World`` and here together (``tests/sim/test_world_surface.py`` names it).
"""
from __future__ import annotations

from typing import Any, Callable

from repro.types import PartyId


class _OwnSignerRegistry:
    """PKI view: verifies like the real registry, signs only as the host."""

    def __init__(self, real, signer):
        self._signer = signer
        self.verify = real.verify
        self.verify_batch = real.verify_batch

    def signer_for(self, party: PartyId):
        if party != self._signer.party:
            raise ValueError(
                f"hosted party {party} asked for a signer it does not own"
            )
        return self._signer


class _HostNetwork:
    """Network view: every send of the hosted party is the host's call."""

    def __init__(self, host: "PartyHost", key: Any):
        self._host = host
        self._key = key

    def send(self, sender, recipient, payload, *, delay_override=None):
        self._host.hosted_send(self._key, recipient, payload)

    def multicast(
        self, sender, payload, *, include_self=True, delay_override=None
    ):
        self._host.hosted_multicast(
            self._key, payload, include_self=include_self
        )


class HostedWorld:
    """The world seen by the party ``host`` runs under ``key``."""

    accountant = None
    fault_injector = None

    def __init__(self, host: "PartyHost", key: Any):
        outer = host.world
        self.n = outer.n
        self.f = outer.f
        self.sim = outer.sim
        self.start_offsets = outer.start_offsets
        self.instrumentation = outer.instrumentation
        self.intern_payload = outer.intern_payload
        self.shared_memo = outer.shared_memo
        self.registry = _OwnSignerRegistry(outer.registry, host.signer)
        self.network = _HostNetwork(host, key)
        self._host = host
        self._key = key

    def shared_identity_memo(self, name, max_entries=0) -> None:
        return None

    def shared_entry_store(self, name) -> None:
        return None

    def note_commit(self, party, value=None, time=None) -> None:
        self._host.hosted_commit(self._key, value, time)

    def note_commit_conflict(self, party, old, new, time) -> None:
        """Stops here: the host's business, not the harness's."""

    def note_view_change(self, party, view, time=None) -> None:
        """Stops here: the host's business, not the harness's."""


class PartyHost:
    """Mixin for an agent that runs parties inside itself (see module doc)."""

    def __init__(self, *args: Any, **kwargs: Any):
        super().__init__(*args, **kwargs)
        #: key -> hosted party, in creation order.
        self.hosted: dict[Any, Any] = {}

    def host(self, key: Any, factory: Callable[[Any, PartyId], Any]):
        """Build ``factory``'s party under this host's id and keep it."""
        party = self.hosted[key] = factory(HostedWorld(self, key), self.id)
        return party

    def hosted_send(self, key: Any, recipient: PartyId, payload: Any) -> None:
        raise NotImplementedError

    def hosted_multicast(
        self, key: Any, payload: Any, *, include_self: bool
    ) -> None:
        for recipient in range(self.world.n):
            if recipient != self.id:
                self.hosted_send(key, recipient, payload)
        if include_self:
            self.hosted_self_deliver(key, payload)

    def hosted_self_deliver(self, key: Any, payload: Any) -> None:
        self.world.sim.schedule_after(
            0.0,
            lambda: self.hosted_deliver(key, self.id, payload),
            label=f"hosted self-deliver p{self.id}",
        )

    def hosted_deliver(self, key: Any, sender: PartyId, payload: Any) -> None:
        self.hosted[key].deliver(sender, payload)

    def hosted_commit(self, key: Any, value: Any, time: float | None) -> None:
        """Hosted commits are the host's business, not the harness's."""
