"""Per-party view digests and machine-checked indistinguishability.

The paper's lower bounds all use the standard indistinguishability
argument: an honest party that has the same initial state and receives the
same messages at the same *local* times behaves identically in two
executions.  A party's view is the multiset of its receive events
``(local_time, sender, payload_digest)``.  :class:`Transcript` folds each
event into a 64-bit running sum of 8-byte BLAKE2b hashes, kept at every
distinct local instant, so witnesses can assert view equality up to a
cut-off.  A sum ignores the order of its terms: the scheduler's processing
order among simultaneous deliveries (which the model lets the adversary
choose freely) cannot move it.
"""
from __future__ import annotations

from array import array
from bisect import bisect_left
from hashlib import blake2b
from math import inf, nextafter
from struct import Struct
from typing import Any

from repro.crypto.messages import digest
from repro.types import PartyId

_MASK = (1 << 64) - 1
_pack_channel = Struct("<dq").pack
_pack_content = Struct("<d").pack


def _hash(data: bytes) -> int:
    return int.from_bytes(blake2b(data, digest_size=8).digest(), "little")


class Transcript:
    """One party's view: ``instants`` holds its distinct local receive
    instants in order, and the ``"channel"`` and ``"content"`` sums at
    index ``i`` cover every receive at or before ``instants[i]``, with and
    without the sender.  Nothing is kept per receive."""

    __slots__ = ("party", "instants", "_sums")

    def __init__(self, party: PartyId):
        self.party = party
        self.instants = array("d")
        self._sums = {"channel": array("Q"), "content": array("Q")}

    def record_start(self, local_time: float) -> None:
        """No-op; the frozen benchmark adapter wraps this name."""

    def record_recv(
        self, local_time: float, sender: PartyId, payload: Any
    ) -> None:
        time = local_time + 0.0  # one instant for -0.0 and 0.0
        body = digest(payload)
        channel = _hash(_pack_channel(time, sender) + body)
        content = _hash(_pack_content(time) + body)
        instants = self.instants
        channel_sums = self._sums["channel"]
        content_sums = self._sums["content"]
        if not instants or time > instants[-1]:
            instants.append(time)
            channel_sums.append(channel_sums[-1] if channel_sums else 0)
            content_sums.append(content_sums[-1] if content_sums else 0)
        elif time != instants[-1]:
            raise ValueError(f"receive at {time} after {instants[-1]}")
        channel_sums[-1] = (channel_sums[-1] + channel) & _MASK
        content_sums[-1] = (content_sums[-1] + content) & _MASK

    def record_commit(self, local_time: float, value: Any) -> None:
        """No-op; the frozen benchmark adapter wraps this name."""

    def digest(self, local_cutoff: float = inf, compare: str = "channel"):
        """The ``compare`` sum over receives before ``local_cutoff``."""
        if compare not in self._sums:
            raise ValueError(f"unknown comparison mode {compare!r}")
        index = bisect_left(self.instants, local_cutoff)
        return self._sums[compare][index - 1] if index else 0


def indistinguishable(
    a: Transcript,
    b: Transcript,
    *,
    local_cutoff: float,
    compare: str = "channel",
) -> bool:
    """True iff two parties' views match before a local cut-off.

    ``compare="channel"`` (default) matches ``(local_time, sender,
    payload_digest)``: the same messages from the same channels at the
    same local times.  ``compare="content"`` drops the sender, the right
    notion for protocols that authenticate by signature and never read
    the channel (the paired executions often route the *same signed
    message* through different parties).  For a deterministic protocol,
    matching views imply identical behaviour up to the cut-off.
    """
    return a.digest(local_cutoff, compare) == b.digest(local_cutoff, compare)


def first_divergence(
    a: Transcript, b: Transcript, compare: str = "channel"
) -> float | None:
    """The first local instant after which the two ``compare`` sums
    differ (for debugging witnesses), or ``None`` if they never do."""
    for instant in sorted({*a.instants, *b.instants}):
        after = nextafter(instant, inf)
        if a.digest(after, compare) != b.digest(after, compare):
            return instant
    return None
