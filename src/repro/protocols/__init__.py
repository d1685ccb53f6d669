"""Broadcast protocol implementations (upper bounds + baselines)."""
from repro.protocols.ba import DolevStrongBa, DolevStrongInstance
from repro.protocols.base import BroadcastParty
from repro.protocols.brb_2round import Brb2Round
from repro.protocols.brb_bracha import BrachaBrb
from repro.protocols.dolev_strong import DolevStrongBb
from repro.protocols.phase_king import PhaseKingBa
from repro.protocols.psync.fab import FabPsync
from repro.protocols.psync.pbft import PbftPsync
from repro.protocols.psync.vbb_5f1 import PsyncVbb5f1
from repro.protocols.sync.bb_2delta import Bb2Delta

#: Bench / chaos label -> party class: the one place a protocol is named
#: by string (``repro chaos --protocols``, latency-distribution grids).
PROTOCOLS: dict[str, type[BroadcastParty]] = {
    "bb_2delta": Bb2Delta,
    "brb_2round": Brb2Round,
    "brb_bracha": BrachaBrb,
    "dolev_strong": DolevStrongBb,
    "psync_fab": FabPsync,
    "psync_pbft": PbftPsync,
    "psync_vbb_5f1": PsyncVbb5f1,
}

__all__ = [
    "BrachaBrb",
    "Brb2Round",
    "BroadcastParty",
    "DolevStrongBa",
    "DolevStrongInstance",
    "DolevStrongBb",
    "PROTOCOLS",
    "PhaseKingBa",
]
