"""Unit tests for the Figure 2 certificate check."""
import pytest

from repro.crypto.signatures import KeyRegistry
from repro.protocols.psync.certificates import (
    Certificate,
    CertificateChecker,
    make_bottom_entry,
    make_leader_pair,
    make_value_entry,
)
from repro.types import BOTTOM

N, F = 9, 2  # n = 5f - 1 -> quorum 7, t1 = 2f-1 = 3, t2 = 2f = 4
LEADER = 0


@pytest.fixture()
def setup():
    registry = KeyRegistry(N)
    signers = {i: registry.signer_for(i) for i in range(N)}
    checker = CertificateChecker(
        n=N, f=F, registry=registry, leader_of=lambda view: LEADER
    )
    return registry, signers, checker


def value_entries(signers, value, view, contributors):
    pair = make_leader_pair(signers[LEADER], value, view)
    return [make_value_entry(signers[j], pair) for j in contributors]


def bottom_entries(signers, view, contributors):
    return [make_bottom_entry(signers[j], view) for j in contributors]


class TestThresholds:
    def test_paper_thresholds_at_5f_minus_1(self, setup):
        _, _, checker = setup
        assert checker.quorum == N - F == 4 * F - 1
        assert checker.t1 == 2 * F - 1
        assert checker.t2 == 2 * F


class TestValidity:
    def test_genesis_is_valid_and_locks_any(self, setup):
        _, _, checker = setup
        status = checker.evaluate(Certificate.genesis())
        assert status.valid
        assert status.locks_any
        assert status.locks("anything", lambda v: True)
        assert not status.locks("anything", lambda v: False)
        assert not status.locks(BOTTOM, lambda v: True)

    def test_quorum_of_bottoms_is_valid_but_locks_nothing(self, setup):
        _, signers, checker = setup
        entries = bottom_entries(signers, 1, range(7))
        status = checker.evaluate(Certificate(1, tuple(entries)))
        assert status.valid
        assert status.locked_value is None
        assert not status.locks_any

    def test_too_few_entries_invalid(self, setup):
        _, signers, checker = setup
        entries = bottom_entries(signers, 1, range(6))
        status = checker.evaluate(Certificate(1, tuple(entries)))
        assert not status.valid

    def test_duplicate_contributors_invalid(self, setup):
        _, signers, checker = setup
        entries = bottom_entries(signers, 1, range(6))
        entries.append(make_bottom_entry(signers[5], 1))
        status = checker.evaluate(Certificate(1, tuple(entries)))
        assert not status.valid

    def test_wrong_view_entries_invalid(self, setup):
        _, signers, checker = setup
        entries = bottom_entries(signers, 2, range(7))
        status = checker.evaluate(Certificate(1, tuple(entries)))
        assert not status.valid

    def test_value_entry_not_signed_by_leader_invalid(self, setup):
        _, signers, checker = setup
        pair = make_leader_pair(signers[3], "v", 1)  # party 3 is not leader
        entries = [make_value_entry(signers[j], pair) for j in range(7)]
        status = checker.evaluate(Certificate(1, tuple(entries)))
        assert not status.valid

    def test_externally_invalid_value_rejected(self, setup):
        registry, signers, _ = setup
        checker = CertificateChecker(
            n=N,
            f=F,
            registry=registry,
            leader_of=lambda view: LEADER,
            external_validity=lambda v: v != "bad",
        )
        entries = value_entries(signers, "bad", 1, range(7))
        status = checker.evaluate(Certificate(1, tuple(entries)))
        assert not status.valid


class TestLocking:
    def test_condition_1_locks_with_t1_unanimous(self, setup):
        _, signers, checker = setup
        entries = value_entries(signers, "v", 1, range(3))  # t1 = 3
        entries += bottom_entries(signers, 1, range(3, 7))
        status = checker.evaluate(Certificate(1, tuple(entries)))
        assert status.valid
        assert status.locked_value == "v"

    def test_condition_1_blocked_by_conflicting_entry(self, setup):
        _, signers, checker = setup
        entries = value_entries(signers, "v", 1, range(3))
        entries += value_entries(signers, "w", 1, [3])
        entries += bottom_entries(signers, 1, range(4, 7))
        status = checker.evaluate(Certificate(1, tuple(entries)))
        assert status.valid
        # 3 entries for v but a conflicting w entry, and only 3 < t2=4
        # non-leader entries for v: locks nothing.
        assert status.locked_value is None

    def test_condition_2_locks_despite_conflict(self, setup):
        _, signers, checker = setup
        # 4 non-leader entries for v (t2 = 4) beat a conflicting entry.
        entries = value_entries(signers, "v", 1, [1, 2, 3, 4])
        entries += value_entries(signers, "w", 1, [5])
        entries += bottom_entries(signers, 1, [6, 7])
        status = checker.evaluate(Certificate(1, tuple(entries)))
        assert status.valid
        assert status.locked_value == "v"

    def test_condition_2_leader_countersignature_does_not_count(self, setup):
        _, signers, checker = setup
        # 3 non-leader + the leader's own countersignature: condition 2
        # needs 4 *non-leader* entries, so this locks nothing (and
        # condition 1 fails because of the conflicting entry).
        entries = value_entries(signers, "v", 1, [LEADER, 1, 2, 3])
        entries += value_entries(signers, "w", 1, [4])
        entries += bottom_entries(signers, 1, [5, 6])
        status = checker.evaluate(Certificate(1, tuple(entries)))
        assert status.valid
        assert status.locked_value is None

    def test_lock_uniqueness(self, setup):
        # Two values cannot both lock: 2 * t2 > quorum.
        _, signers, checker = setup
        assert 2 * checker.t2 > checker.quorum

    def test_bottom_value_entries_rejected(self, setup):
        _, signers, checker = setup
        pair = make_leader_pair(signers[LEADER], BOTTOM, 1)
        entry = make_value_entry(signers[1], pair)
        assert checker.parse_entry(entry, 1) is None

    def test_parse_entry_roundtrip(self, setup):
        _, signers, checker = setup
        pair = make_leader_pair(signers[LEADER], "v", 1)
        entry = make_value_entry(signers[2], pair)
        parsed = checker.parse_entry(entry, 1)
        assert parsed is not None
        assert parsed.contributor == 2
        assert parsed.value == "v"
        assert not parsed.is_bottom
        bottom = make_bottom_entry(signers[2], 1)
        parsed_bottom = checker.parse_entry(bottom, 1)
        assert parsed_bottom is not None
        assert parsed_bottom.is_bottom
