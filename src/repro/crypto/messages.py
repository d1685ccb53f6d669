"""Canonical message encoding and content-addressed digests.

Protocol payloads are plain Python data (tuples, ints, strings, frozen
dataclasses).  To sign or compare them we need a *canonical* byte encoding
that is stable across processes and insensitive to dict ordering.  We use a
small type-tagged encoder over the value types the protocols actually use,
then SHA-256.  The paper assumes ideal hash/signature primitives, so the
only property we need is injectivity over the message space, which the
type-tagged encoding provides.

Two properties make this module the perf-critical substrate of the whole
simulator and shape its design:

* **The encoder is iterative.**  Certificates and forwarded vote quorums
  nest arbitrarily deep (countersigned payloads of countersigned payloads),
  so the encoder runs an explicit work stack instead of recursing — depth
  is bounded by memory, not by the interpreter recursion limit.  Nested
  *digests* (Merkle-style encodings like ``SignedPayload``'s) go through
  the :class:`DigestOf` marker and are derived on the same work stack, so
  deep countersign chains cost zero extra Python frames too.

* **Four cache tiers over the one canonical encoding** (a tier can skip
  work, never change a digest):

  1. the *identity digest memo* (``_CACHE``, ``id(obj) -> (obj,
     digest)``): payload objects travel by reference — a multicast hands
     one tuple to every recipient — so one object is digested many times;
  2. the *holder-encoding memo* (``_ENCODINGS``): the encoding bytes of
     each frozen ``_canonical_fields`` holder by identity, so a fresh
     forwarded quorum splices its votes' cached encodings and hashes
     once; bounded in entries and bytes;
  3. the *content intern table* (``_INTERN``) for values of at most
     ``_MAX_INTERN_LEAVES`` leaves: every party builds its *own* equal
     vote/echo object, so these are keyed by content — a flat *shape*
     (type tags, arities, holder classes) plus the *leaf values* — and
     equal rebuilds share one digest.  A larger value (a quorum) is
     rebuilt by no one: it skips the key and goes straight to tier 2;
  4. *shape plans* (``_PLANS``): per interned shape, a compiled encoder
     that makes the first, interning encode of a small payload cheap.

  Tiers 3 and 4 sit below tier 1: an identity hit never builds a key.
  Every tier holds only *deeply immutable* values — the key walk fails on
  anything mutable, and the encoder memoizes a digest or a holder encoding
  only when its subtree saw no ``list``, ``dict`` or mutable holder — so
  mutation is always observed; identity entries pin their key object, so
  an ``id`` can never alias a recycled address.

Stability is tracked *through* nested digests: a ``_canonical_fields``
holder that calls back into :func:`digest` (e.g. ``SignedPayload``'s
Merkle-style encoding) would hide a mutable sub-value behind a 32-byte
hash, so the encoder keeps a re-entrancy stack and propagates "mutable
seen" from inner encodings to the enclosing one.  :func:`digest_ex`
exposes the flag to callers (signing and verification refuse to stamp or
memoize anything whose bytes could change).
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
      same object forever (stable digests, monotone-positive verdicts).
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

    def __len__(self) -> int:
        return len(self._entries)


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

    def __len__(self) -> int:
        return len(self._entries)


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
    """Running counters for the digest subsystem (cheap, always on)."""

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
    """Drop every memoized digest, encoding and plan (tests / between
    bench runs)."""
    _CACHE.clear()
    _ENCODINGS.clear()
    _INTERN.clear()
    _PLANS.clear()


def digest_cache_len() -> int:
    """Number of live entries in the identity-keyed digest cache."""
    return len(_CACHE)


def intern_table_len() -> int:
    """Number of live entries in the content-keyed intern table."""
    return len(_INTERN)


# --------------------------------------------------------------------- #
# iterative canonical encoder
# --------------------------------------------------------------------- #

# Work-stack task tags.  "enc" encodes one value; the "fin_*" tasks run
# after all of a composite's children finished and assemble its body.
_ENC, _FIN_SEQ, _FIN_FSET, _FIN_DICT, _FIN_OBJ, _FIN_DIGEST = range(6)

_NoneType = type(None)


class DigestOf:
    """Marker for ``_canonical_fields``: encode as the *digest* of ``value``.

    Returning ``DigestOf(x)`` from ``_canonical_fields`` encodes exactly
    like returning ``digest(x)`` (the 32 digest bytes), but the digest is
    computed on the encoder's own work stack — no re-entrant ``digest``
    call, so arbitrarily deep Merkle nestings (countersign chains) cost
    zero extra Python frames.  Sub-digests of stable subtrees are entered
    into the digest cache along the way.
    """

    __slots__ = ("value",)

    def __init__(self, value: Any):
        self.value = value


def _length_prefix(data: bytes) -> bytes:
    return b"%d:" % len(data)


#: Re-entrancy stack of mutability cells.  A ``_canonical_fields`` holder
#: may call back into :func:`digest` mid-encode (Merkle-style encodings);
#: when that *nested* encoding sees a mutable value, the fact must reach
#: the *enclosing* encoding too — otherwise a mutable payload hidden
#: behind a child digest would be memoized as stable.
_ACTIVE_ENCODES: list[list[bool]] = []


def _encode_ex(obj: Any) -> tuple[bytes, bool]:
    """Encode ``obj``; returns ``(encoding, stable)``.

    ``stable`` is True iff no ``list``/``dict`` (or other mutable holder)
    occurs anywhere in the value — including inside nested digests taken
    via re-entrant ``digest`` calls — i.e. the encoding can never change
    and the digest may be memoized by identity.
    """
    cell = [True]
    _ACTIVE_ENCODES.append(cell)
    try:
        encoding = _encode_loop(obj, cell)
    finally:
        _ACTIVE_ENCODES.pop()
    if not cell[0] and _ACTIVE_ENCODES:
        _ACTIVE_ENCODES[-1][0] = False
    return encoding, cell[0]


def _encode_loop(obj: Any, cell: list[bool]) -> bytes:
    # Mutability is an event *counter* (not a flag) so that a _FIN_DIGEST
    # frame can tell whether its own subtree saw a mutable value: snapshot
    # the count when the frame is pushed, compare at finalization.
    mut_events = 0
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
            if t is tuple or t is list:
                if t is list:
                    mut_events += 1
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
            elif t is dict:
                mut_events += 1
                parts = []
                push((_FIN_DICT, parts, dest))
                for key, value in o.items():
                    push((_ENC, value, parts))
                    push((_ENC, key, parts))
            elif t is DigestOf:
                inner = o.value
                hit = _CACHE.get(inner)
                if hit is not None:
                    digest_stats.cache_hits += 1
                    dest.append(b"y" + _length_prefix(hit) + hit)
                else:
                    parts = []
                    push((_FIN_DIGEST, parts, dest, inner, mut_events))
                    push((_ENC, inner, parts))
            else:
                hit = encodings.get(id(o))
                if hit is not None and hit[0] is o:
                    dest.append(hit[1])
                    continue
                fields = getattr(o, "_canonical_fields", None)
                if fields is not None:
                    name = t.__name__.encode()
                    parts = []
                    if _is_frozen_holder(t):
                        # The holder and the event count at push: its
                        # encoding is memoized if the subtree stays stable.
                        push((_FIN_OBJ, parts, dest, name, o, mut_events))
                    else:
                        mut_events += 1
                        push((_FIN_OBJ, parts, dest, name, None, 0))
                    push((_ENC, fields(), parts))
                elif _encode_subclass(o, dest, push):
                    mut_events += 1
        elif tag == _FIN_SEQ:
            body = b"".join(task[1])
            task[2].append(b"t" + _length_prefix(body) + body)
        elif tag == _FIN_FSET:
            body = b"".join(sorted(task[1]))
            task[2].append(b"S" + _length_prefix(body) + body)
        elif tag == _FIN_DICT:
            parts = task[1]
            body = b"".join(
                sorted(
                    parts[i] + parts[i + 1] for i in range(0, len(parts), 2)
                )
            )
            task[2].append(b"d" + _length_prefix(body) + body)
        elif tag == _FIN_OBJ:
            name = task[3]
            encoding = b"o" + _length_prefix(name) + name + task[1][0]
            task[2].append(encoding)
            # Same stability rule as _FIN_DIGEST's: no mutable event in the
            # holder's subtree and no nested re-entrant encode reported one.
            holder = task[4]
            if holder is not None and mut_events == task[5] and cell[0]:
                _ENCODINGS.put(holder, encoding)
        else:  # _FIN_DIGEST
            inner, snapshot = task[3], task[4]
            value = _sha256(task[1][0]).digest()
            digest_stats.digests_computed += 1
            # The subtree between push and pop is exactly `inner`'s; it is
            # stable iff no mutable event fired in that window (and no
            # nested re-entrant encode reported one).
            if mut_events == snapshot and cell[0] and _cacheable(inner):
                if _CACHE.put(inner, value):
                    digest_stats.cache_evictions += 1
            task[2].append(b"y" + _length_prefix(value) + value)
    if mut_events:
        cell[0] = False
    return root[0]


def _encode_subclass(o: Any, dest: list[bytes], push) -> bool:
    """Slow path for subclasses of the supported types (IntEnum etc.).

    Mirrors the exact-type dispatch with ``isinstance`` checks in the
    original precedence order (bool before int; tuple/list before dict).
    Returns True when the value must be treated as mutable: subclasses of
    the container types may carry extra mutable state the encoder cannot
    see, so none of them are ever digest-cached.
    """
    if isinstance(o, bool):
        dest.append(b"b1" if o else b"b0")
    elif isinstance(o, int):
        data = b"%d" % o
        dest.append(b"i" + _length_prefix(data) + data)
    elif isinstance(o, float):
        data = repr(o).encode()
        dest.append(b"f" + _length_prefix(data) + data)
    elif isinstance(o, str):
        data = o.encode()
        dest.append(b"s" + _length_prefix(data) + data)
    elif isinstance(o, bytes):
        dest.append(b"y" + _length_prefix(o) + o)
    elif isinstance(o, (tuple, list)):
        parts: list[bytes] = []
        push((_FIN_SEQ, parts, dest))
        for item in reversed(o):
            push((_ENC, item, parts))
        return True
    elif isinstance(o, frozenset):
        parts = []
        push((_FIN_FSET, parts, dest))
        for item in o:
            push((_ENC, item, parts))
        return True
    elif isinstance(o, dict):
        parts = []
        push((_FIN_DICT, parts, dest))
        for key, value in o.items():
            push((_ENC, value, parts))
            push((_ENC, key, parts))
        return True
    else:
        raise TypeError(
            f"cannot canonically encode {type(o).__name__}: {o!r}"
        )
    return False


def canonical_encode(obj: Any) -> bytes:
    """Encode ``obj`` into a canonical, type-tagged byte string.

    Supported types: ``None``, ``BOTTOM``, ``bool``, ``int``, ``float``,
    ``str``, ``bytes``, tuples/lists (encoded identically), frozensets
    (sorted by element encoding), dicts (sorted by key encoding), and any
    object exposing ``_canonical_fields()`` returning a tuple.
    """
    digest_stats.encode_calls += 1
    return _encode_ex(obj)[0]


# --------------------------------------------------------------------- #
# content keys and shape plans (intern tier)
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
#: :func:`digest_ex`'s leaf cap.  Every intern hit the benchmark workloads
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

    Succeeds only on deeply immutable values (scalar leaves, tuples,
    frozen holders, already-proven-stable digests), so a successful walk
    doubles as the stability verdict the memo tiers gate on.  Gives up
    past ``max_leaves`` leaves or ``_ATOMS_PER_LEAF * max_leaves`` atoms
    (checked per composite and per tuple element, so the work is bounded).

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
    # Composite values: one already proven stable (its digest sits in the
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
        # DigestOf encodes exactly like the digest bytes, so it keys —
        # and plan-encodes — as a bytes leaf.
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

    A non-None key certifies deep immutability; equal keys guarantee
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


# Shape plans: per-shape compiled encoders.  A plan takes the key's leaf
# tuple and produces the canonical encoding without the generic work
# stack — constant structural parts (type tags, holder-name prefixes) are
# baked in at compile time.  Only keys within ``_MAX_INTERN_LEAVES`` get
# here, so plans stay small and their count tracks message types, not n.
# Shapes containing "D" atoms have no plan (the digest stands in for the
# sub-value in the *key*, but the *encoding* still needs the full
# subtree), so those fall back to the generic encoder on an intern miss.
_MAX_PLAN_ENTRIES = 1 << 12
_PLANS: dict[tuple, Any] = {}


def _framed(tag: bytes, data: bytes) -> bytes:
    return tag + b"%d:" % len(data) + data


#: Per leaf atom, the encoder of the next leaf from the iterator ``it``.
_LEAF_ENCODERS = {
    str: lambda it: _framed(b"s", next(it).encode()),
    int: lambda it: _framed(b"i", b"%d" % next(it)),
    bytes: lambda it: _framed(b"y", next(it)),
    bool: lambda it: b"b1" if next(it) else b"b0",
    float: lambda it: _framed(b"f", next(it).encode()),  # leaf: the repr
    "N": lambda it: b"N",
    "_": lambda it: b"_",
}


def _compile_node(atoms: tuple, i: int):
    """Compile the shape node at ``atoms[i]``; returns ``(fn, next_i)``."""
    atom = atoms[i]
    encoder = _LEAF_ENCODERS.get(atom)
    if encoder is not None:
        return encoder, i + 1
    if atom == "(":
        count = atoms[i + 1]
        i += 2
        children = []
        for _ in range(count):
            fn, i = _compile_node(atoms, i)
            children.append(fn)
        children = tuple(children)

        def seq(it, _children=children):
            body = b"".join(fn(it) for fn in _children)
            return b"t%d:" % len(body) + body

        return seq, i
    # atom == "o": holder class + one child (the fields tuple)
    name = atoms[i + 1].__name__.encode()
    prefix = b"o%d:" % len(name) + name
    fn, i = _compile_node(atoms, i + 2)

    def obj(it, _prefix=prefix, _fn=fn):
        return _prefix + _fn(it)

    return obj, i


def _plan_for(shape: tuple):
    """The compiled plan for ``shape`` (None when it cannot be planned)."""
    try:
        return _PLANS[shape]
    except KeyError:
        pass
    if len(_PLANS) >= _MAX_PLAN_ENTRIES:
        _PLANS.clear()
    if "D" in shape:
        plan = None
    else:
        fn, end = _compile_node(shape, 0)
        assert end == len(shape), "shape atoms must parse exactly"

        def plan(leaves, _fn=fn):
            return _fn(iter(leaves))

        digest_stats.plans_compiled += 1
    _PLANS[shape] = plan
    return plan


# --------------------------------------------------------------------- #
# digests
# --------------------------------------------------------------------- #


def _is_frozen_holder(t: type) -> bool:
    """True iff a ``_canonical_fields`` type's own fields cannot be
    reassigned (frozen dataclass).  The deep-immutability scan sees
    lists/dicts inside the encoding but not field reassignment, so only
    frozen holders count as immutable — at any nesting depth.  The type
    must *itself* be declared a frozen dataclass: a plain subclass merely
    inherits ``__dataclass_params__`` and may reintroduce mutability, so
    it is distrusted (like every container subclass)."""
    if "__dataclass_fields__" not in t.__dict__:
        return False
    params = getattr(t, "__dataclass_params__", None)
    return params is not None and params.frozen


def _cacheable(obj: Any) -> bool:
    """Container types worth memoizing (scalars are cheap to re-encode)."""
    t = type(obj)
    if t is tuple or t is frozenset:
        return True
    return (
        getattr(obj, "_canonical_fields", None) is not None
        and _is_frozen_holder(t)
    )


def digest_ex(obj: Any) -> tuple[bytes, bool]:
    """SHA-256 digest of ``obj`` plus its *stability*.

    The second element is True iff the value is deeply immutable (no
    ``list``/``dict``/mutable holder anywhere, even behind nested
    digests), i.e. the returned digest can never go stale.  Signing and
    verification use the flag to decide whether a digest may be stamped
    or a verdict memoized.

    Lookup order: identity memo (same object), then — for values of at
    most ``_MAX_INTERN_LEAVES`` leaves — the content intern table (equal
    content rebuilt by another party) and a shape-plan encode, else the
    generic encoder (which splices memoized holder encodings).  Every
    cache tier only ever holds stable values.
    """
    hit = _CACHE.get(obj)
    if hit is not None:
        digest_stats.cache_hits += 1
        return hit, True
    # A key certifies stability; without one the encoder decides.
    key = _content_key(obj, _MAX_INTERN_LEAVES)
    value = _INTERN.get(key) if key is not None else None
    stable = True
    if value is not None:
        digest_stats.interned_hits += 1
    else:
        digest_stats.encode_calls += 1
        plan = _plan_for(key[0]) if key is not None else None
        if plan is not None:
            encoding = plan(key[1])
        elif key is not None:  # "D" atoms: a cheap key, a full encoding
            encoding = _encode_ex(obj)[0]
        else:
            encoding, stable = _encode_ex(obj)
        digest_stats.digests_computed += 1
        value = _sha256(encoding).digest()
        if key is not None and _INTERN.put(key, value):
            digest_stats.intern_evictions += 1
    if stable and _cacheable(obj) and _CACHE.put(obj, value):
        digest_stats.cache_evictions += 1
    return value, stable


def digest(obj: Any) -> bytes:
    """SHA-256 digest of the canonical encoding of ``obj``.

    Memoized by object identity for deeply immutable container values:
    re-digesting the same tuple / ``SignedPayload`` / ``Certificate``
    object is a dict lookup, which is what makes multicast fan-out and
    quorum re-verification cheap.
    """
    return digest_ex(obj)[0]


def stable_digest(obj: Any) -> bytes | None:
    """Digest of ``obj`` when it is deeply immutable, else ``None``.

    The sharded wire's export half: a sender ships a payload's digest
    alongside the payload only when the stability flag certifies the
    digest can never go stale, so the receiving worker may seed its own
    cache with it (:func:`seed_digest`) instead of re-walking the value.
    """
    value, stable = digest_ex(obj)
    return value if stable else None


def seed_digest(obj: Any, value: bytes) -> None:
    """Pre-seed the identity digest cache: ``digest(obj)`` is ``value``.

    The sharded wire's import half: ``value`` must come from
    :func:`stable_digest` on a value *equal* to ``obj`` (a pickle
    round-trip of it).  Stability and the canonical encoding are both
    functions of content alone, so the transferred digest is exactly
    what a local walk would compute — seeding it just skips the walk,
    which is what keeps an unpickled certificate's first digest O(1)
    instead of O(size).  Values the cache would not hold anyway
    (scalars) are ignored.
    """
    if _cacheable(obj):
        if _CACHE.put(obj, value):
            digest_stats.cache_evictions += 1


def short_digest(obj: Any) -> str:
    """First 8 hex chars of :func:`digest`; for debugging and repr only."""
    return digest(obj).hex()[:8]
