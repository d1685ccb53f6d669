"""Fixtures shared by every suite."""
import pytest

import repro.crypto.messages as messages


def _memo_sizes() -> tuple[int, int, int]:
    return tuple(
        len(memo._entries)
        for memo in (messages._CACHE, messages._ENCODINGS, messages._INTERN)
    )


def _assert_rejected(call, type_name: str) -> None:
    """``call()`` raises ``TypeError`` naming ``type_name`` and leaves the
    identity memo, the holder-encoding memo and the intern table as they
    were: a rejected value memoizes nothing."""
    before = _memo_sizes()
    with pytest.raises(
        TypeError, match=f"cannot canonically encode {type_name}:"
    ):
        call()
    assert _memo_sizes() == before


@pytest.fixture(scope="session")
def assert_rejected():
    """The :func:`_assert_rejected` check (session-scoped, so hypothesis
    properties may take it)."""
    return _assert_rejected
