"""Message-delay policies: how the adversary schedules the network.

In every timing model of the paper the adversary picks each message's
delay, subject to the model's constraint:

* synchrony: delays between honest pairs lie in ``[0, delta]`` for the
  execution's actual bound ``delta`` (``delta <= Delta`` and unknown to the
  protocol); delays touching a Byzantine party are arbitrary (the Byzantine
  party can pretend);
* partial synchrony: arbitrary before GST, ``<= Delta`` after GST (GST
  is a :class:`~repro.sim.faults.GstChurn` fault layered over a policy
  here, not a policy of its own);
* asynchrony: arbitrary but finite for honest pairs.

A :class:`DelayPolicy` maps ``(sender, recipient, payload, send_time)`` to
a delay.  Scripted policies (:class:`TableDelay`) reproduce the exact delay
assignments in the paper's lower-bound constructions.

Randomized policies come in two stream modes:

* ``"sequential"`` (the default, and the historical behavior): one
  ``random.Random(seed)`` consumed in scheduling order.  Bit-for-bit
  reproducible on a single process — every tracked latency-distribution
  percentile was produced this way — but the stream depends on *global*
  call order, so sharded execution (which prices a sender's local and
  remote recipients in separate calls, in different worker processes)
  would diverge; sequential policies force ``shards=1``.
* ``"counter"``: every copy's uniform variate is a pure SplitMix64-style
  hash of ``(seed, sender, recipient, k)`` where ``k`` is that directed
  link's message counter.  ``k`` is shard-invariant — all of a sender's
  pricing happens in its own shard, in deterministic order, and a link's
  count never depends on other links' interleaving — so the sharded
  schedule is *identical to* ``shards=1`` by construction and
  ``shard_safe()`` returns True.  Migrating a tracked seed from
  sequential to counter changes its draw values (different generator),
  which is why the default stays ``"sequential"``.

A counter-stream fan-out is priced in one *packed* pass when its
recipients are a non-empty step-1 ``range`` (every multicast's are;
:meth:`CounterStream.packed_words`): one Python int holds a 128-bit lane
per recipient, and whole-int xor, add, shift and multiply, each followed
by a lane mask, run SplitMix64 on every lane at once, exact mod 2**64.
Its draws are the per-copy loop's bit for bit, and the loop still prices
recipient lists.
"""
from __future__ import annotations

import random
import sys
from array import array
from typing import Any, Callable, Mapping, Sequence

from repro.types import INF, PartyId

_MASK64 = (1 << 64) - 1
#: SplitMix64 increment (golden-ratio) and the two finalizer multipliers.
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
#: Odd 64-bit constants keying the (sender, recipient, counter) tuple
#: into one word before finalization.
_KEY_SENDER = 0x8CB92BA72F3D8DD7
_KEY_RECIPIENT = 0xFF51AFD7ED558CCD
_KEY_COUNTER = 0xC4CEB9FE1A85EC53
_INV_2_64 = 1.0 / 2.0**64

#: The packed pass (:meth:`CounterStream.packed_words`) holds one 64-bit
#: word per 128-bit lane of a Python int: a word times a 64-bit constant
#: stays inside its lane, so whole-int arithmetic plus a lane mask is
#: SplitMix64 on every lane at once, exact mod 2**64.
_LANE_BITS = 128
_LANE_BYTES = _LANE_BITS // 8
_NATIVE_LITTLE = sys.byteorder == "little"


def _pack(words: Sequence[int]) -> int:
    """One 64-bit word per 128-bit lane, lane 0 lowest."""
    lanes = array("Q", bytes(_LANE_BYTES * len(words)))
    lanes[::2] = array("Q", words)
    if not _NATIVE_LITTLE:
        lanes.byteswap()
    return int.from_bytes(lanes, "little")


def splitmix64(x: int) -> int:
    """The SplitMix64 finalizer: a cheap, well-avalanched 64-bit mix."""
    x = (x + _GOLDEN) & _MASK64
    x = ((x ^ (x >> 30)) * _MIX1) & _MASK64
    x = ((x ^ (x >> 27)) * _MIX2) & _MASK64
    return x ^ (x >> 31)


class CounterStream:
    """Per-link counter-indexed randomness: pure draws, shard-safe.

    Owns the per-directed-link message counters (``k``) and derives every
    variate as ``splitmix64(base ^ key(sender, recipient, k))`` — a pure
    function of ``(seed, salt, sender, recipient, k)``, independent of
    the global order links are priced in.  ``salt`` separates consumers
    sharing a seed value (the delay policy and the fault injector draw
    from unrelated streams even when ``plan.seed == policy seed``).

    Counters live in per-sender lists indexed by recipient (lazily grown)
    rather than a ``(sender, recipient)``-keyed dict: at n=2001 the tuple
    keys alone would cost hundreds of MB, while a list row is one pointer
    per recipient and only senders that actually send pay for one.
    """

    __slots__ = ("seed", "salt", "_base", "_counters", "_lanes")

    def __init__(self, seed: int, *, salt: int = 0):
        self.seed = seed
        self.salt = salt
        self._base = splitmix64(splitmix64(seed) ^ salt)
        self._counters: dict[PartyId, list[int]] = {}
        #: The packed pass's constants for recipients ``0 .. lanes - 1``,
        #: ``(lanes, ones, recipient keys)``: a 1 in every lane, and lane
        #: ``r`` holding ``(r + 1) * _KEY_RECIPIENT mod 2**64``.  One
        #: table, grown to the largest fan-out priced (the world size),
        #: which every fan-out slices.
        self._lanes = (0, 0, 0)

    def _row(self, sender: PartyId, recipient: PartyId) -> list[int]:
        counts = self._counters.get(sender)
        if counts is None:
            counts = self._counters[sender] = []
        if recipient >= len(counts):
            counts.extend([0] * (recipient + 1 - len(counts)))
        return counts

    def copy_key(self, sender: PartyId, recipient: PartyId) -> int:
        """Consume one counter tick on the link; return the copy's key."""
        counts = self._row(sender, recipient)
        k = counts[recipient]
        counts[recipient] = k + 1
        return (
            self._base
            ^ ((sender + 1) * _KEY_SENDER)
            ^ ((recipient + 1) * _KEY_RECIPIENT)
            ^ (k * _KEY_COUNTER)
        ) & _MASK64

    def packed_words(self, sender: PartyId, recipients: range) -> array:
        """``splitmix64(copy_key(sender, r))`` for each ``r`` of a
        non-empty step-1 ``recipients`` range, in order, in one packed
        pass.

        Consumes one counter tick per link, exactly as a loop of
        :meth:`copy_key` would, and returns the same words bit for bit,
        but as whole-int arithmetic over one Python int with a 128-bit
        lane per recipient (``_LANE_BITS``): the sender and counter keys
        are broadcast across the lanes (each lane's counter packed in
        when the links' counters differ), the recipient keys are a slice
        of the stream's lane table, and each mixing step masks every lane
        back to 64 bits before the next multiply.
        """
        lo = recipients.start
        count = len(recipients)
        if self._lanes[0] < recipients.stop:
            lanes = recipients.stop
            self._lanes = (lanes, _pack([1] * lanes), _pack([
                ((recipient + 1) * _KEY_RECIPIENT) & _MASK64
                for recipient in range(lanes)
            ]))
        _, ones, recipient_keys = self._lanes
        low = (1 << (_LANE_BITS * count)) - 1
        ones &= low
        mask = ones * _MASK64
        counts = self._row(sender, recipients.stop - 1)
        ticks = counts[lo:recipients.stop]
        k = ticks[0]
        sender_key = self._base ^ ((sender + 1) * _KEY_SENDER)
        if ticks.count(k) == count:
            counts[lo:recipients.stop] = [k + 1] * count
            x = ones * ((sender_key ^ (k * _KEY_COUNTER)) & _MASK64)
        else:
            counts[lo:recipients.stop] = [tick + 1 for tick in ticks]
            x = ones * (sender_key & _MASK64) ^ (
                (_pack(ticks) * _KEY_COUNTER) & mask
            )
        x ^= (recipient_keys >> (_LANE_BITS * lo)) & low
        x = (x + ones * _GOLDEN) & mask
        x = ((x ^ (x >> 30)) & mask) * _MIX1 & mask
        x = ((x ^ (x >> 27)) & mask) * _MIX2 & mask
        # Only each lane's low word is read back, so the last step needs
        # no mask: what ``>> 31`` carries in from the next lane lands in
        # this lane's high word.
        x ^= x >> 31
        words = array("Q", x.to_bytes(_LANE_BYTES * count, "little"))
        if not _NATIVE_LITTLE:
            words.byteswap()
        return words[::2]

    def draws(self, sender: PartyId, recipient: PartyId) -> "CopyDraws":
        """An unbounded pure draw sequence for the link's next copy.

        For consumers needing several variates per copy (the fault
        injector's primitive chain): one counter tick, then draw ``i``
        is ``splitmix64(key + i * golden)`` — still pure per
        ``(link, k, i)``, whatever order copies are processed in.
        """
        return CopyDraws(self.copy_key(sender, recipient))


class CopyDraws:
    """A pure per-copy draw sequence (duck-types ``random.Random``'s
    ``random`` method, which is all the fault injector consumes)."""

    __slots__ = ("_key", "_i")

    def __init__(self, key: int):
        self._key = key
        self._i = 0

    def random(self) -> float:
        self._i += 1
        return splitmix64((self._key + self._i * _GOLDEN) & _MASK64) * _INV_2_64


class DelayPolicy:
    """Base interface: decide the delay of a message."""

    #: What :meth:`shard_safe` answers unless a policy decides per
    #: instance; policies that price purely per link set it.
    PURE_PRICING = False

    def delay(
        self,
        sender: PartyId,
        recipient: PartyId,
        payload: Any,
        send_time: float,
    ) -> float:
        raise NotImplementedError

    def delays_for_multicast(
        self,
        sender: PartyId,
        recipients: Sequence[PartyId],
        payload: Any,
        send_time: float,
    ) -> list[float]:
        """Delays for one multicast fan-out, one entry per recipient.

        The base implementation calls :meth:`delay` once per recipient in
        recipient order, so adversarial/scripted policies keep their exact
        per-message semantics (including any internal state consumption)
        without overriding anything.  Simple policies override this with a
        vectorized sample so the honest fan-out costs one call per
        multicast instead of n.
        """
        return [
            self.delay(sender, recipient, payload, send_time)
            for recipient in recipients
        ]

    def shard_safe(self) -> bool:
        """True iff per-link pricing is a pure function of its arguments.

        Sharded execution (``World(shards=k)``) prices a multicast's
        local and remote recipients in separate calls and different
        worker processes, so any policy whose answers depend on *call
        order* or internal mutable state (a seeded RNG stream) would
        diverge from the single-process schedule.  Policies that compute
        the delay purely from ``(sender, recipient, payload, send_time)``
        opt in (``PURE_PRICING = True``); the conservative default forces
        ``shards=1``.
        """
        return self.PURE_PRICING

    def min_delay(self) -> float:
        """Lower bound this policy guarantees for *every* delay.

        This is the sharded coordinator's conservative lookahead: a
        message sent at time ``t`` cannot land before ``t +
        min_delay()``, so all shards may run a window of that width
        between barriers instead of synchronizing every instant.  ``0.0``
        (the safe default) degenerates to per-instant lockstep.
        """
        return 0.0


class FixedDelay(DelayPolicy):
    """Every message takes exactly ``value`` time units."""

    PURE_PRICING = True

    def __init__(self, value: float):
        # ``not`` of the in-range test also rejects NaN.  An infinite
        # delay would silently drop every copy: ``PerLinkDelay`` is the
        # policy that drops links on purpose.
        if not 0 <= value < INF:
            raise ValueError(f"delay must be finite and >= 0, got {value}")
        self.value = value

    def delay(self, sender, recipient, payload, send_time) -> float:
        return self.value

    def delays_for_multicast(
        self, sender, recipients, payload, send_time
    ) -> list[float]:
        return [self.value] * len(recipients)

    def min_delay(self) -> float:
        return self.value


class UniformDelay(DelayPolicy):
    """Seeded i.i.d. uniform delays in ``[low, high]``.

    Deterministic given the seed.  ``stream`` selects the generator (see
    the module docstring): ``"sequential"`` (default) consumes one shared
    ``random.Random`` in scheduling order — the historical behavior every
    tracked latency-distribution percentile pins, not shard-safe;
    ``"counter"`` derives each copy's delay purely from
    ``(seed, sender, recipient, link counter)``, making the policy
    :meth:`shard_safe` with the sharded schedule identical to
    ``shards=1`` by construction.
    """

    def __init__(
        self, low: float, high: float, *, seed: int, stream: str = "sequential"
    ):
        if not 0 <= low <= high < INF:
            raise ValueError(
                f"need 0 <= low <= high < inf, got [{low}, {high}]"
            )
        if stream not in ("sequential", "counter"):
            raise ValueError(
                f"stream must be 'sequential' or 'counter', got {stream!r}"
            )
        self.low = low
        self.high = high
        self.seed = seed
        self.stream = stream
        if stream == "counter":
            self._rng = None
            self._counter = CounterStream(seed)
        else:
            self._rng = random.Random(seed)
            self._counter = None

    def delay(self, sender, recipient, payload, send_time) -> float:
        if self._counter is not None:
            # One U[0, 1) draw for the link's next copy.
            key = self._counter.copy_key(sender, recipient)
            span = self.high - self.low
            return self.low + span * (splitmix64(key) * _INV_2_64)
        return self._rng.uniform(self.low, self.high)

    def delays_for_multicast(
        self, sender, recipients, payload, send_time
    ) -> list[float]:
        # One uniform draw per recipient, in recipient order: consumes
        # exactly what n per-recipient calls would (a shared sequential
        # stream, or one counter tick per link).
        counter = self._counter
        if counter is not None:
            low = self.low
            span = self.high - self.low
            if type(recipients) is range and recipients.step == 1 and (
                recipients
            ):
                return [
                    low + span * (word * _INV_2_64)
                    for word in counter.packed_words(sender, recipients)
                ]
            # ``delay``'s draw with copy_key and splitmix64 inlined: the
            # per-copy hash is the whole cost of a counter-mode fan-out,
            # so the hot loop keeps everything in locals and touches one
            # counter row.
            base = counter._base
            sender_key = base ^ ((sender + 1) * _KEY_SENDER)
            counts = counter._row(
                sender, max(recipients) if len(recipients) else 0
            )
            out = []
            append = out.append
            for recipient in recipients:
                k = counts[recipient]
                counts[recipient] = k + 1
                x = (
                    sender_key
                    ^ ((recipient + 1) * _KEY_RECIPIENT)
                    ^ (k * _KEY_COUNTER)
                ) & _MASK64
                x = (x + _GOLDEN) & _MASK64
                x = ((x ^ (x >> 30)) * _MIX1) & _MASK64
                x = ((x ^ (x >> 27)) * _MIX2) & _MASK64
                append(low + span * ((x ^ (x >> 31)) * _INV_2_64))
            return out
        uniform = self._rng.uniform
        return [uniform(self.low, self.high) for _ in recipients]

    def shard_safe(self) -> bool:
        # The counter stream is a pure per-link function; the sequential
        # stream depends on global pricing order and must stay
        # single-process.
        return self.stream == "counter"

    def min_delay(self) -> float:
        return self.low


class PerLinkDelay(DelayPolicy):
    """Fixed delay per directed link, with a default for unlisted links.

    ``links`` maps ``(sender, recipient)`` to a delay (possibly ``INF``).
    This is the workhorse of the lower-bound constructions, which specify
    delays like "the delay from C to A is Delta - delta".
    """

    PURE_PRICING = True

    def __init__(
        self,
        links: Mapping[tuple[PartyId, PartyId], float],
        *,
        default: float,
    ):
        # ``INF`` (a link that never delivers) is legal; NaN is not.
        for (sender, recipient), value in links.items():
            if not value >= 0:
                raise ValueError(
                    f"delay for link {sender}->{recipient} must be >= 0, "
                    f"got {value}"
                )
        if not default >= 0:
            raise ValueError(f"default delay must be >= 0, got {default}")
        self.links = dict(links)
        self.default = default

    def delay(self, sender, recipient, payload, send_time) -> float:
        return self.links.get((sender, recipient), self.default)

    def delays_for_multicast(
        self, sender, recipients, payload, send_time
    ) -> list[float]:
        links = self.links
        default = self.default
        return [
            links.get((sender, recipient), default)
            for recipient in recipients
        ]

    def min_delay(self) -> float:
        return min([self.default, *self.links.values()])


class FunctionDelay(DelayPolicy):
    """Arbitrary function policy for fully scripted executions."""

    def __init__(self, fn: Callable[[PartyId, PartyId, Any, float], float]):
        self._fn = fn

    def delay(self, sender, recipient, payload, send_time) -> float:
        return self._fn(sender, recipient, payload, send_time)

