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

A counter-stream fan-out is priced in one *packed* pass
(:meth:`CounterStream.packed_words`): one Python int holds a 128-bit lane
per recipient, and whole-int xor, add, shift and multiply, each followed
by a lane mask, run SplitMix64 on every lane at once, exact mod 2**64.
Its draws are a per-copy loop's bit for bit.  A step-1 ``range`` of
recipients (every multicast's) slices its recipient keys off one table;
any other recipient sequence packs them per copy.  A counter-stream
fault injector draws through the same lanes (:class:`LaneKeys`): one key
pass per fan-out, then one packed pass per primitive that draws.
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
    variate from the copy's key ``base ^ (sender + 1) * _KEY_SENDER ^
    (recipient + 1) * _KEY_RECIPIENT ^ k * _KEY_COUNTER`` (mod 2**64),
    as ``splitmix64(key)`` — a pure function of ``(seed, salt, sender,
    recipient, k)``, independent of the global order links are priced
    in.  Every key is computed in a packed pass (:meth:`packed_keys`),
    one 128-bit lane per copy, and a fan-out ticks each copy's link
    once.  ``salt`` separates consumers sharing a seed value (the delay
    policy and the fault injector draw from unrelated streams even when
    ``plan.seed == policy seed``).

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

    def packed_keys(
        self, sender: PartyId, recipients: Sequence[PartyId]
    ) -> tuple[int, int, int]:
        """The key of the next copy on each link ``sender -> r``, for
        each ``r`` of a non-empty ``recipients``, unmixed, one per
        128-bit lane (``_LANE_BITS``, lane 0 the first copy), with a 1 in
        every lane and the lane mask: ``(keys, ones, mask)``.

        Consumes one counter tick per copy, in order (a recipient listed
        twice ticks its link twice and gets two keys), as whole-int
        arithmetic over one Python int: the sender and counter keys are
        broadcast across the lanes (each lane's counter packed in when
        the links' counters differ), and the recipient keys are a slice
        of the stream's lane table for a step-1 ``range``, packed per
        copy otherwise.
        """
        count = len(recipients)
        ranged = type(recipients) is range and recipients.step == 1
        lanes = recipients.stop if ranged else count
        if self._lanes[0] < lanes:
            self._lanes = (lanes, _pack([1] * lanes), _pack([
                ((recipient + 1) * _KEY_RECIPIENT) & _MASK64
                for recipient in range(lanes)
            ]))
        _, ones, recipient_keys = self._lanes
        low = (1 << (_LANE_BITS * count)) - 1
        ones &= low
        mask = ones * _MASK64
        sender_key = self._base ^ ((sender + 1) * _KEY_SENDER)
        if ranged:
            lo, hi = recipients.start, recipients.stop
            recipient_keys = (recipient_keys >> (_LANE_BITS * lo)) & low
            counts = self._row(sender, hi - 1)
            ticks = counts[lo:hi]
            k = ticks[0]
            if ticks.count(k) == count:
                counts[lo:hi] = [k + 1] * count
                x = ones * ((sender_key ^ (k * _KEY_COUNTER)) & _MASK64)
                return x ^ recipient_keys, ones, mask
            counts[lo:hi] = [tick + 1 for tick in ticks]
        else:
            recipient_keys = _pack([
                ((recipient + 1) * _KEY_RECIPIENT) & _MASK64
                for recipient in recipients
            ])
            counts = self._row(sender, max(recipients))
            ticks = []
            for recipient in recipients:
                ticks.append(counts[recipient])
                counts[recipient] += 1
        x = ones * (sender_key & _MASK64) ^ (
            (_pack(ticks) * _KEY_COUNTER) & mask
        )
        return x ^ recipient_keys, ones, mask

    def packed_words(
        self, sender: PartyId, recipients: Sequence[PartyId]
    ) -> array:
        """``splitmix64`` of the next copy's key on each link
        ``sender -> r`` of a non-empty ``recipients``, in order, in one
        packed pass (:meth:`packed_keys`, then :func:`_mix`)."""
        return _mix(*self.packed_keys(sender, recipients), len(recipients))


def _mix(x: int, ones: int, mask: int, count: int) -> array:
    """SplitMix64 of each of the ``count`` lanes of ``x`` (lane-masked),
    lane 0 first: whole-int add, xor, shift and multiply, each followed
    by the lane mask, so a word times a 64-bit constant stays inside its
    lane, exact mod 2**64."""
    x = (x + ones * _GOLDEN) & mask
    x = ((x ^ (x >> 30)) & mask) * _MIX1 & mask
    x = ((x ^ (x >> 27)) & mask) * _MIX2 & mask
    # Only each lane's low word is read back, so the last step needs no
    # mask: what ``>> 31`` carries in from the next lane lands in this
    # lane's high word.
    x ^= x >> 31
    words = array("Q", x.to_bytes(_LANE_BYTES * count, "little"))
    if not _NATIVE_LITTLE:
        words.byteswap()
    return words[::2]


class LaneKeys:
    """The fault injector's draws for one fan-out's copies, a 128-bit
    lane per copy.

    Built by one packed key pass (:meth:`CounterStream.packed_keys`,
    one counter tick per copy).  Draw ``i`` (from 1) of copy ``j`` is
    ``splitmix64(key_j + i * golden)``, a pure function of
    ``(link, k, i)``, and each lane keeps its own ``i``: :meth:`draw`
    computes the next draw of any set of lanes in one :func:`_mix` pass.
    """

    __slots__ = ("_keys", "_ones", "_mask", "_count", "_level", "_levels")

    def __init__(
        self,
        stream: CounterStream,
        sender: PartyId,
        recipients: Sequence[PartyId],
    ):
        self._keys, self._ones, self._mask = stream.packed_keys(
            sender, recipients
        )
        self._count = len(recipients)
        #: Draws every lane has made, while they agree; then ``None``
        #: and ``_levels`` holds one count per lane.
        self._level = 0
        self._levels: list[int] | None = None

    def draw(
        self, lanes: Sequence[int], live: Sequence[int]
    ) -> list[float]:
        """The next ``U[0, 1)`` draw of each lane in ``lanes`` (lane
        indices, increasing), out of ``live``, the lanes that may still
        draw.  While every live lane draws, their draw counts stay one
        number; after the first draw that skips one, they go per lane."""
        if self._levels is None and len(lanes) != len(live):
            self._levels = [self._level] * self._count
        levels = self._levels
        if levels is None:
            self._level += 1
            steps = self._ones * ((self._level * _GOLDEN) & _MASK64)
        else:
            for lane in lanes:
                levels[lane] += 1
            steps = _pack([(level * _GOLDEN) & _MASK64 for level in levels])
        words = _mix(
            (self._keys + steps) & self._mask, self._ones, self._mask,
            self._count,
        )
        return [words[lane] * _INV_2_64 for lane in lanes]


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
            [word] = self._counter.packed_words(sender, (recipient,))
            span = self.high - self.low
            return self.low + span * (word * _INV_2_64)
        return self._rng.uniform(self.low, self.high)

    def delays_for_multicast(
        self, sender, recipients, payload, send_time
    ) -> list[float]:
        # One uniform draw per recipient, in recipient order: consumes
        # exactly what n per-recipient calls would (a shared sequential
        # stream, or one counter tick per link).
        counter = self._counter
        if counter is not None:
            if not recipients:
                return []
            low = self.low
            span = self.high - self.low
            return [
                low + span * (word * _INV_2_64)
                for word in counter.packed_words(sender, recipients)
            ]
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

