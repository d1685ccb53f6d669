"""The reference fan-out: the run walk gathering plain lists.

The oracle the network's typed columns must replay.  ``ListNetwork``
keeps :class:`~repro.sim.network.Network` whole but for the instant and
emit stages, which it writes the plain way: every fan-out takes the run
walk (``Network._runs``, no fast instant pass), and the emitters gather
one Python float and one recipient per copy into lists, handing those
lists to ``schedule_batch`` as they are, and the routed emitter routes
each copy on its own (``fault_route_oracle.route_copy``).
``test_typed_columns.py`` drives both networks with the same fan-outs
and compares what they schedule.
"""
from __future__ import annotations

from typing import Any, Iterable, Sequence

from repro.crypto.messages import digest
from repro.errors import SimulationError
from repro.sim.clock import quantize
from repro.sim.network import Emitter, Network, Run
from repro.types import PartyId

from fault_route_oracle import route_copy


class ListNetwork(Network):
    """A network whose fan-outs always walk runs and gather lists."""

    def _fan_out(
        self,
        sender: PartyId,
        recipients: Sequence[PartyId],
        delays: Sequence[float],
        payload: Any,
        send_time: float,
        emit: Emitter,
        order_key: bytes | None = None,
    ) -> bytes | None:
        if len(delays) != len(recipients):
            raise SimulationError(
                f"policy returned {len(delays)} delays for "
                f"{len(recipients)} recipients"
            )
        if delays and min(delays) < 0:
            raise SimulationError(
                f"policy produced negative delay {min(delays)}"
            )
        return emit(
            sender, recipients, self._runs(recipients, delays, send_time),
            payload, send_time, order_key,
        )

    def _schedule_copies(
        self,
        times: list[float],
        sender: PartyId,
        targets: list[PartyId],
        payload: Any,
        order_key: bytes | None,
        msg_ids: list[int] | None = None,
    ) -> bytes:
        if order_key is None:
            order_key = digest(payload)
        self._sim.schedule_batch(
            times, self._deliver, sender, targets, payload, msg_ids,
            order_key=order_key,
        )
        return order_key

    def _emit_run(
        self,
        sender: PartyId,
        recipients: Sequence[PartyId],
        runs: Iterable[Run],
        payload: Any,
        send_time: float,
        order_key: bytes | None,
    ) -> bytes | None:
        accountant = self._accountant
        observed = accountant is not None
        times: list[float] = []
        targets: list[PartyId] = []
        msg_ids: list[int] | None = [] if observed else None
        for start, end, deliver_time in runs:
            if end - start == 1 or observed or deliver_time <= send_time:
                for recipient in recipients[start:end]:
                    times.append(deliver_time)
                    targets.append(recipient)
                    if observed:
                        msg_ids.append(accountant.register_send())
                continue
            if times:
                order_key = self._schedule_copies(
                    times, sender, targets, payload, order_key
                )
                times, targets = [], []
            elif order_key is None:
                order_key = digest(payload)
            self.delivery_runs_batched += 1
            self.deliveries_batched += end - start
            self._sim.schedule_at(
                deliver_time, self._deliver_many, order_key=order_key,
                args=(sender, recipients[start:end], payload),
                transient=True,
            )
        if times:
            order_key = self._schedule_copies(
                times, sender, targets, payload, order_key,
                msg_ids,
            )
        return order_key

    def _emit_routed(
        self,
        sender: PartyId,
        recipients: Sequence[PartyId],
        runs: Iterable[Run],
        payload: Any,
        send_time: float,
        order_key: bytes | None,
    ) -> bytes | None:
        injector = self._injector
        accountant = self._accountant
        times: list[float] = []
        targets: list[PartyId] = []
        msg_ids: list[int] | None = [] if accountant is not None else None
        for start, end, deliver_time in runs:
            for recipient in recipients[start:end]:
                for instant in route_copy(
                    injector, sender, recipient, send_time, deliver_time
                ):
                    times.append(quantize(instant))
                    targets.append(recipient)
                    if msg_ids is not None:
                        msg_ids.append(accountant.register_send())
        if times:
            order_key = self._schedule_copies(
                times, sender, targets, payload, order_key,
                msg_ids,
            )
        return order_key
