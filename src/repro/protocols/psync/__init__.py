"""Partially synchronous broadcast protocols (psync-VBB family).

All three run on the PBFT view framework of :mod:`.base`
(:class:`~repro.protocols.psync.base.ViewParty`: round-robin leaders,
the ``4 * Delta`` view timer, timeout quorums, view entry; PBFT and FaB
also share :class:`~repro.protocols.psync.base.ViewChangeParty`, the
proposal head and view-change tally) and contain only what the paper
says distinguishes them: PBFT's prepare/commit phases and prepared
certificates (3 rounds, ``n >= 3f + 1``), FaB's single vote round and
majority rule (2 rounds, ``n >= 5f + 1``), and the (5f-1)-psync-VBB's
countersigned pairs, Figure-2 certificates and status round (2 rounds,
``n >= 5f - 1``).
"""
from repro.protocols.psync.base import (
    ViewChangeParty,
    ViewParty,
    round_robin_leader,
)
from repro.protocols.psync.certificates import (
    Certificate,
    CertificateChecker,
    CertStatus,
    always_valid,
    make_bottom_entry,
    make_leader_pair,
    make_value_entry,
)
from repro.protocols.psync.fab import FabPsync
from repro.protocols.psync.pbft import PbftPsync, PreparedCert
from repro.protocols.psync.vbb_5f1 import PsyncVbb5f1

__all__ = [
    "CertStatus",
    "Certificate",
    "CertificateChecker",
    "FabPsync",
    "PbftPsync",
    "PreparedCert",
    "PsyncVbb5f1",
    "ViewChangeParty",
    "ViewParty",
    "always_valid",
    "make_bottom_entry",
    "make_leader_pair",
    "make_value_entry",
    "round_robin_leader",
]
