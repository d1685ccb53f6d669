"""Shared type aliases and small value objects used across the library.

The paper's model is parameterized by:

* ``n`` parties, of which at most ``f`` are Byzantine;
* an *actual* (unknown to the protocol) message-delay bound ``delta``;
* a *conservative* (known) message-delay bound ``Delta >= delta``;
* a clock skew bound ``sigma`` (parties start at most ``sigma`` apart).

Party identifiers are small integers ``0..n-1``.  Values broadcast by the
designated broadcaster are arbitrary hashable Python objects (tests use
small ints and strings).  ``BOTTOM`` is the distinguished "no value"
placeholder the paper writes as the symbol bottom.
"""
from __future__ import annotations

import math
from typing import Hashable

PartyId = int
Value = Hashable
View = int
Round = int

#: A message delay of INF means "never delivered" (the adversary withholds
#: the message forever; the paper's "simulated delay of infinity").
INF = math.inf


class _Bottom:
    """Singleton for the paper's bottom (no value) placeholder."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "BOTTOM"


BOTTOM = _Bottom()


def validate_resilience(n: int, f: int, *, requirement: str) -> None:
    """Validate an ``n >= a*f + b`` style requirement written as a string.

    ``requirement`` uses the paper's notation, one of: ``"3f+1"``,
    ``"5f-1"``, ``"5f+1"``, ``"f<n/3"``, ``"f<=n/3"``, ``"f<n/2"``,
    ``"f<n"``.  Raises :class:`ValueError` when violated, and for any
    ``(n, f)`` outside ``n >= 1``, ``0 <= f < n``.
    """
    if n < 1:
        raise ValueError(f"need at least one party, got n={n}")
    if not 0 <= f < n:
        raise ValueError(f"need 0 <= f < n, got n={n} f={f}")
    ok = {
        "3f+1": n >= 3 * f + 1,
        "5f-1": n >= 5 * f - 1,
        "5f+1": n >= 5 * f + 1,
        "f<n/3": f < n / 3,
        "f<=n/3": f <= n / 3,
        "f<n/2": f < n / 2,
        "f<n": f < n,
    }
    if requirement not in ok:
        raise ValueError(f"unknown resilience requirement {requirement!r}")
    if not ok[requirement]:
        raise ValueError(
            f"resilience requirement n {requirement} violated for n={n}, f={f}"
        )
