"""Canonical message encoding and content-addressed digests.

Protocol payloads are values: tuples, frozensets, scalars and frozen
dataclasses.  To sign or compare them we need a *canonical* byte encoding
that is identical across processes.  We use a small type-tagged encoder
over the value types the protocols actually use, then SHA-256.  The paper
assumes ideal hash/signature primitives, so the only property we need is
injectivity over the message space, which the type-tagged encoding
provides.

On a real wire a message is bytes and cannot change once sent, so the
encoder accepts only immutable values: a ``list``, a ``dict`` or a
``_canonical_fields`` holder that is not itself declared a frozen
dataclass raises ``TypeError`` naming its type.  ``Network.send`` /
``multicast`` (the order key), ``Signer.sign`` and the shard wire digest
every payload they carry, so a mutable payload fails in its sender's own
call and never reaches a receiver.

Two properties make this module the perf-critical substrate of the whole
simulator and shape its design:

* **The encoder is iterative.**  Certificates and forwarded vote quorums
  nest arbitrarily deep (countersigned payloads of countersigned payloads),
  so the encoder runs an explicit work stack instead of recursing — depth
  is bounded by memory, not by the interpreter recursion limit.  Nested
  *digests* (Merkle-style encodings like ``SignedPayload``'s) go through
  the :class:`DigestOf` marker and are derived on the same work stack, so
  deep countersign chains cost zero extra Python frames too.

* **Three cache tiers over the one canonical encoding** (a tier can skip
  work, never change a digest):

  1. the *identity digest memo* (``_CACHE``, ``id(obj) -> (obj,
     digest)``): payload objects travel by reference — a multicast hands
     one tuple to every recipient — so one object is digested many times;
  2. the *holder-encoding memo* (``_ENCODINGS``): the encoding bytes of
     each ``_canonical_fields`` holder by identity, so a fresh forwarded
     quorum splices its votes' cached encodings and hashes once; bounded
     in entries and bytes;
  3. the *content intern table* (``_INTERN``) for values of at most
     ``_MAX_INTERN_LEAVES`` leaves: every party builds its *own* equal
     vote/echo object, so these are keyed by content — a flat *shape*
     (type tags, arities, holder classes) plus the *leaf values* — and
     equal rebuilds share one digest.  A larger value (a quorum) is
     rebuilt by no one: it skips the key and goes straight to tier 2.

  Tier 3 sits below tier 1: an identity hit never builds a key.  Every
  value a tier holds was encoded, so its bytes can never change; identity
  entries pin their key object, so an ``id`` can never alias a recycled
  address.
"""
from __future__ import annotations

import hashlib
from typing import Any

from repro.types import BOTTOM

_sha256 = hashlib.sha256

# --------------------------------------------------------------------- #
# identity-keyed memoization
# --------------------------------------------------------------------- #


class IdentityMemo:
    """An identity-keyed memo: ``id(obj) -> (obj, value)``.

    The single home of the invariants that make ``id``-keyed caching
    sound, shared by the digest cache, the holder-encoding memo, the
    registry's verified set and the certificate checker's valid-verdict
    memo:

    * the entry keeps a *strong reference* to the key object, pinning its
      ``id`` so an entry can never alias a recycled address;
    * the memo wholesale-clears at ``max_entries`` — eviction costs
      recomputation, never correctness;
    * callers must only :meth:`put` values that can be replayed for the
      same object forever (digests of values, monotone-positive verdicts).
    """

    __slots__ = ("_entries", "max_entries")

    def __init__(self, max_entries: int):
        self._entries: dict[int, tuple[Any, Any]] = {}
        self.max_entries = max_entries

    def get(self, obj: Any) -> Any | None:
        hit = self._entries.get(id(obj))
        if hit is not None and hit[0] is obj:
            return hit[1]
        return None

    def put(self, obj: Any, value: Any) -> bool:
        """Store ``value``; returns True when a wholesale clear happened."""
        evicted = len(self._entries) >= self.max_entries
        if evicted:
            self._entries.clear()
        self._entries[id(obj)] = (obj, value)
        return evicted

    def clear(self) -> None:
        self._entries.clear()


class _EncodingMemo(IdentityMemo):
    """An :class:`IdentityMemo` of ``bytes`` that also wholesale-clears
    before holding more than ``max_bytes`` (and skips larger values)."""

    __slots__ = ("max_bytes", "_bytes")

    def __init__(self, max_entries: int, max_bytes: int):
        super().__init__(max_entries)
        self.max_bytes, self._bytes = max_bytes, 0

    def put(self, obj: Any, value: bytes) -> bool:
        if len(value) > self.max_bytes:
            return False
        evicted = (len(self._entries) >= self.max_entries
                   or self._bytes + len(value) > self.max_bytes)
        if evicted:
            self.clear()
        self._entries[id(obj)] = (obj, value)
        self._bytes += len(value)
        return evicted

    def clear(self) -> None:
        self._entries.clear()
        self._bytes = 0


class ContentMemo:
    """A bounded content-keyed memo with wholesale-clear eviction.

    The content-addressed sibling of :class:`IdentityMemo`: keys are
    hashable value tuples (shape keys, digests), so equal keys built by
    different parties hit without sharing objects.  Same eviction rule —
    the memo wholesale-clears at ``max_entries``, which costs
    recomputation, never correctness — so callers must only :meth:`put`
    values that can be replayed for the same key forever.
    """

    __slots__ = ("_entries", "max_entries")

    def __init__(self, max_entries: int):
        self._entries: dict[Any, Any] = {}
        self.max_entries = max_entries

    def get(self, key: Any) -> Any | None:
        return self._entries.get(key)

    def put(self, key: Any, value: Any) -> bool:
        """Store ``value``; returns True when a wholesale clear happened."""
        evicted = len(self._entries) >= self.max_entries
        if evicted:
            self._entries.clear()
        self._entries[key] = value
        return evicted

    def clear(self) -> None:
        self._entries.clear()


# --------------------------------------------------------------------- #
# digest cache
# --------------------------------------------------------------------- #

#: Bulk-eviction threshold: a sweep over many independent worlds stays at
#: O(threshold) memory.
_MAX_CACHE_ENTRIES = 1 << 18

_CACHE = IdentityMemo(_MAX_CACHE_ENTRIES)

#: Holder-encoding memo (tier 2).  A vote and its signature encode to ~160
#: bytes, so n=1001's votes take ~2,000 entries and ~0.3 MiB.
_MAX_ENCODING_ENTRIES = 1 << 15
_MAX_ENCODING_BYTES = 1 << 22
_ENCODINGS = _EncodingMemo(_MAX_ENCODING_ENTRIES, _MAX_ENCODING_BYTES)

#: Content intern table (tier 3): ``(shape, leaves) -> digest``.  Keys pin
#: only leaf scalars and type/class objects, never payload object graphs.
_MAX_INTERN_ENTRIES = 1 << 17

_INTERN = ContentMemo(_MAX_INTERN_ENTRIES)


class DigestStats:
    """Running counters for the digest subsystem (cheap, always on).

    ``plans_compiled`` always reads 0: the shape-plan tier it counted is
    gone, and it stays only because ``benchmarks/e2e/run.py`` reads it.
    """

    __slots__ = ("encode_calls", "digests_computed", "cache_hits",
                 "cache_evictions", "interned_hits", "intern_evictions",
                 "plans_compiled")

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        for name in self.__slots__:
            setattr(self, name, 0)

    def snapshot(self) -> dict[str, int]:
        return {name: getattr(self, name) for name in self.__slots__}

    def __repr__(self) -> str:
        return f"DigestStats({self.snapshot()})"


#: Module-wide counters; benchmarks diff ``digest_stats.snapshot()``.
digest_stats = DigestStats()


def clear_digest_cache() -> None:
    """Drop every memoized digest and encoding (tests / between bench
    runs)."""
    _CACHE.clear()
    _ENCODINGS.clear()
    _INTERN.clear()


# --------------------------------------------------------------------- #
# iterative canonical encoder
# --------------------------------------------------------------------- #

# Work-stack task tags.  "enc" encodes one value; the "fin_*" tasks run
# after all of a composite's children finished and assemble its body.
_ENC, _FIN_SEQ, _FIN_FSET, _FIN_OBJ, _FIN_DIGEST = range(5)

_NoneType = type(None)


class DigestOf:
    """Marker for ``_canonical_fields``: encode as the *digest* of ``value``.

    Returning ``DigestOf(x)`` from ``_canonical_fields`` encodes exactly
    like returning ``digest(x)`` (the 32 digest bytes), but the digest is
    computed on the encoder's own work stack — no re-entrant ``digest``
    call, so arbitrarily deep Merkle nestings (countersign chains) cost
    zero extra Python frames.  Sub-digests are entered into the digest
    cache along the way.
    """

    __slots__ = ("value",)

    def __init__(self, value: Any):
        self.value = value


def _length_prefix(data: bytes) -> bytes:
    return b"%d:" % len(data)


def _encode(obj: Any) -> bytes:
    """The canonical encoding of ``obj`` (see :func:`canonical_encode`)."""
    root: list[bytes] = []
    # Each stack item: (_ENC, value, dest) or (_FIN_*, parts, dest[, ...]).
    # Children are pushed in reverse so they pop (and complete) in order,
    # appending their encodings to the parent frame's ``parts`` list.
    stack: list[tuple] = [(_ENC, obj, root)]
    push = stack.append
    # The holder-encoding memo's dict, probed inline (one probe per holder
    # visited; ``IdentityMemo.get``'s check, without the call).
    encodings = _ENCODINGS._entries
    while stack:
        task = stack.pop()
        tag = task[0]
        if tag == _ENC:
            o, dest = task[1], task[2]
            t = type(o)
            if t is tuple:
                parts: list[bytes] = []
                push((_FIN_SEQ, parts, dest))
                for item in reversed(o):
                    push((_ENC, item, parts))
            elif t is str:
                data = o.encode()
                dest.append(b"s" + _length_prefix(data) + data)
            elif t is int:
                data = b"%d" % o
                dest.append(b"i" + _length_prefix(data) + data)
            elif t is bytes:
                dest.append(b"y" + _length_prefix(o) + o)
            elif t is bool:
                dest.append(b"b1" if o else b"b0")
            elif t is _NoneType:
                dest.append(b"N")
            elif o is BOTTOM:
                dest.append(b"_")
            elif t is float:
                data = repr(o).encode()
                dest.append(b"f" + _length_prefix(data) + data)
            elif t is frozenset:
                parts = []
                push((_FIN_FSET, parts, dest))
                for item in o:
                    push((_ENC, item, parts))
            elif t is DigestOf:
                inner = o.value
                hit = _CACHE.get(inner)
                if hit is not None:
                    digest_stats.cache_hits += 1
                    dest.append(b"y" + _length_prefix(hit) + hit)
                else:
                    parts = []
                    push((_FIN_DIGEST, parts, dest, inner))
                    push((_ENC, inner, parts))
            else:
                hit = encodings.get(id(o))
                if hit is not None and hit[0] is o:
                    dest.append(hit[1])
                    continue
                fields = getattr(o, "_canonical_fields", None)
                if fields is None or not _is_frozen_holder(t):
                    raise TypeError(
                        f"cannot canonically encode {t.__name__}: {o!r}"
                    )
                name = t.__name__.encode()
                parts = []
                push((_FIN_OBJ, parts, dest, name, o))
                push((_ENC, fields(), parts))
        elif tag == _FIN_SEQ:
            body = b"".join(task[1])
            task[2].append(b"t" + _length_prefix(body) + body)
        elif tag == _FIN_FSET:
            body = b"".join(sorted(task[1]))
            task[2].append(b"S" + _length_prefix(body) + body)
        elif tag == _FIN_OBJ:
            name = task[3]
            encoding = b"o" + _length_prefix(name) + name + task[1][0]
            task[2].append(encoding)
            _ENCODINGS.put(task[4], encoding)
        else:  # _FIN_DIGEST
            inner = task[3]
            value = _sha256(task[1][0]).digest()
            digest_stats.digests_computed += 1
            if _cacheable(inner) and _CACHE.put(inner, value):
                digest_stats.cache_evictions += 1
            task[2].append(b"y" + _length_prefix(value) + value)
    return root[0]


def canonical_encode(obj: Any) -> bytes:
    """Encode ``obj`` into a canonical, type-tagged byte string.

    Supported types: ``None``, ``BOTTOM``, ``bool``, ``int``, ``float``,
    ``str``, ``bytes``, tuples, frozensets (sorted by element encoding),
    and any frozen dataclass exposing ``_canonical_fields()`` returning a
    tuple.  Anything else (a ``list``, a ``dict``, a subclass of an
    accepted type, a non-frozen holder) raises ``TypeError``.
    """
    digest_stats.encode_calls += 1
    return _encode(obj)


# --------------------------------------------------------------------- #
# content keys (intern tier)
# --------------------------------------------------------------------- #

# A content key is ``(shape, leaves)``: ``shape`` is a flat tuple of
# structural atoms — scalar type objects, "(" + arity for tuples, "o" +
# class for frozen ``_canonical_fields`` holders, "N"/"_" for None/BOTTOM,
# "D" for a sub-value standing in as its identity-cached digest — and
# ``leaves`` carries the varying values in walk order.  The grammar is a
# prefix code (every composite atom states its arity), so equal shapes
# mean equal structure; floats contribute their ``repr`` as the leaf so
# 0.0 and -0.0 (equal, same hash, different encodings) never collide, and
# bool/int leaves are split by the type atom for the same reason.

#: Key caps: nesting depth, and per key a leaf cap plus ``_ATOMS_PER_LEAF``
#: shape atoms per allowed leaf — atom-only content like ``(None,) * k``
#: has no leaves, so a leaf cap alone never bounded it.
_MAX_KEY_DEPTH = 16
_ATOMS_PER_LEAF = 4
#: :func:`digest`'s leaf cap.  Every intern hit the benchmark workloads
#: produce is a key of at most 23 leaves / 83 atoms (a vote rebuilt by
#: each party); a forwarded quorum (~3 leaves per vote) is rebuilt by no
#: one, and a cap that admits quorums (4,096 clears n=301) lets their
#: never-hit keys pin memory: 334 of them held 24 MiB at n=1001.
_MAX_INTERN_LEAVES = 32
#: :func:`intern_key`'s leaf cap, for the object interner and certificate
#: memo, which key whole payloads (the workloads' largest: 12 leaves).
_MAX_KEY_LEAVES = 4096


def _key_walk(
    o: Any, atoms: list, leaves: list, depth: int, structural: bool,
    max_leaves: int,
) -> bool:
    """Append ``o``'s shape atoms / leaves; False when not internable.

    Succeeds only on scalar leaves, tuples, frozen holders and values
    already in the digest memo; anything else goes to the encoder, which
    rejects what is not a value.  Gives up past ``max_leaves`` leaves or
    ``_ATOMS_PER_LEAF * max_leaves`` atoms (checked per composite and per
    tuple element, so the work is bounded).

    ``structural=True`` is the stricter mode for *object* interners: it
    refuses the two key-level digest stand-ins ("D" atoms and
    :class:`DigestOf` leaves), so a key never equates a raw digest value
    with a structurally different object.  Note the remaining, deliberate
    reliance: a *stamped* ``SignedPayload`` contributes its Merkle fields
    (payload digest + signature) in both modes, so equal keys equate
    signed envelopes whose payloads agree by digest — exactly the
    injectivity the ideal-hash model (and ``Signature`` equality itself)
    already assumes.
    """
    t = type(o)
    if t is str or t is int or t is bytes:
        atoms.append(t)
        leaves.append(o)
        return True
    if t is bool:
        atoms.append(bool)
        leaves.append(o)
        return True
    if t is float:
        atoms.append(float)
        leaves.append(repr(o))
        return True
    if o is None:
        atoms.append("N")
        return True
    if o is BOTTOM:
        atoms.append("_")
        return True
    # Composite values: one already digested (its digest sits in the
    # identity memo) is keyed by that digest — ideal-hash injectivity
    # makes the digest as good as the content, and the walk stays O(1).
    if not structural:
        hit = _CACHE.get(o)
        if hit is not None:
            atoms.append("D")
            leaves.append(hit)
            return True
    max_atoms = _ATOMS_PER_LEAF * max_leaves
    if depth <= 0 or len(leaves) > max_leaves or len(atoms) > max_atoms:
        return False
    if t is tuple:
        atoms.append("(")
        atoms.append(len(o))
        for item in o:
            # Cap check per element: a single wide flat tuple must not
            # bypass the bound a nested one would hit on entry.
            if len(leaves) > max_leaves or len(atoms) > max_atoms:
                return False
            if not _key_walk(
                item, atoms, leaves, depth - 1, structural, max_leaves
            ):
                return False
        return True
    if t is DigestOf:
        if structural:
            return False
        inner = o.value
        hit = _CACHE.get(inner)
        if hit is None:
            return False
        # DigestOf encodes exactly like the digest bytes, so it keys as
        # a bytes leaf.
        atoms.append(bytes)
        leaves.append(hit)
        return True
    if getattr(o, "_canonical_fields", None) is not None and (
        _is_frozen_holder(t)
    ):
        atoms.append("o")
        atoms.append(t)
        return _key_walk(
            o._canonical_fields(), atoms, leaves, depth - 1, structural,
            max_leaves,
        )
    return False


def _content_key(obj: Any, max_leaves: int, structural: bool = False):
    """``(shape, leaves)`` for ``obj`` within the caps, else None."""
    atoms: list = []
    leaves: list = []
    if (_key_walk(obj, atoms, leaves, _MAX_KEY_DEPTH, structural, max_leaves)
            and len(leaves) <= max_leaves
            and len(atoms) <= _ATOMS_PER_LEAF * max_leaves):
        return (tuple(atoms), tuple(leaves))
    return None


def intern_key(obj: Any, *, structural: bool = False) -> tuple | None:
    """Content key for ``obj``, or None when it must not be interned.

    A non-None key certifies an immutable value; equal keys guarantee
    byte-identical canonical encodings.  With ``structural=True`` a key
    additionally never stands a raw digest in for a composite value
    ("D"/``DigestOf`` atoms are refused), which is what an *object*
    interner substituting one value for another needs — see
    :func:`_key_walk` for the one digest reliance that remains (stamped
    ``SignedPayload`` Merkle fields, sound under the ideal-hash model).
    Exposed for content-keyed caches above this module (payload-object
    interners, certificate memos); values over ``_MAX_KEY_LEAVES`` leaves
    (or the matching atom cap) get None.
    """
    return _content_key(obj, _MAX_KEY_LEAVES, structural)


# --------------------------------------------------------------------- #
# digests
# --------------------------------------------------------------------- #


def _is_frozen_holder(t: type) -> bool:
    """True iff a ``_canonical_fields`` type's own fields cannot be
    reassigned.  The type must *itself* be declared a frozen dataclass: a
    plain subclass merely inherits ``__dataclass_params__`` and may
    reintroduce mutability, so the encoder rejects it (like every
    container subclass)."""
    if "__dataclass_fields__" not in t.__dict__:
        return False
    params = getattr(t, "__dataclass_params__", None)
    return params is not None and params.frozen


def _cacheable(obj: Any) -> bool:
    """Composite values worth memoizing (scalars are cheap to re-encode).
    Only asked about values that encoded, so a holder is a frozen one."""
    t = type(obj)
    return t is tuple or t is frozenset or hasattr(t, "_canonical_fields")


def digest(obj: Any) -> bytes:
    """SHA-256 digest of the canonical encoding of ``obj``.

    Lookup order: identity memo (same object: re-digesting the tuple a
    multicast hands every recipient is a dict lookup), then — for values
    of at most ``_MAX_INTERN_LEAVES`` leaves — the content intern table
    (equal content rebuilt by another party), else the encoder (which
    splices memoized holder encodings).  Raises ``TypeError`` on a
    value the encoder rejects.
    """
    hit = _CACHE.get(obj)
    if hit is not None:
        digest_stats.cache_hits += 1
        return hit
    key = _content_key(obj, _MAX_INTERN_LEAVES)
    value = _INTERN.get(key) if key is not None else None
    if value is not None:
        digest_stats.interned_hits += 1
    else:
        digest_stats.encode_calls += 1
        encoding = _encode(obj)
        digest_stats.digests_computed += 1
        value = _sha256(encoding).digest()
        if key is not None and _INTERN.put(key, value):
            digest_stats.intern_evictions += 1
    if _cacheable(obj) and _CACHE.put(obj, value):
        digest_stats.cache_evictions += 1
    return value


def digest_ex(obj: Any) -> tuple[bytes, bool]:
    """``(digest(obj), True)``; kept only for the benchmark adapter."""
    return digest(obj), True


def seed_digest(obj: Any, value: bytes) -> None:
    """Pre-seed the identity digest cache: ``digest(obj)`` is ``value``.

    The sharded wire: ``value`` must come from :func:`digest` on a value
    *equal* to ``obj`` (a pickle round-trip of it).  The canonical
    encoding is a function of content alone, so the transferred digest is
    exactly what a local walk would compute — seeding it just skips the
    walk, which keeps an unpickled certificate's first digest O(1)
    instead of O(size).  Scalars (which the cache never holds) are
    ignored.
    """
    if _cacheable(obj) and _CACHE.put(obj, value):
        digest_stats.cache_evictions += 1
