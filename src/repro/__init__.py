"""Reproduction of "Good-case Latency of Byzantine Broadcast: A Complete
Categorization" (Abraham, Nayak, Ren, Xiang — PODC 2021).

Public surface:

* the simulation substrate — :mod:`repro.sim` (a timing model is the
  paper's numbers: delay policies for ``delta`` / ``Delta``, start offsets
  for the skew ``sigma``, and a :class:`~repro.sim.faults.GstChurn` fault
  for GST);
* protocols (upper bounds + baselines) — :mod:`repro.protocols`;
* adversaries — :mod:`repro.adversary`;
* executable lower-bound witnesses — :mod:`repro.lowerbounds`;
* SMR on top of the 2-round psync-VBB — :mod:`repro.smr`;
* Table 1 / figure regeneration — :mod:`repro.analysis`.
"""
from repro.protocols.base import BroadcastParty
from repro.protocols.brb_2round import Brb2Round
from repro.protocols.brb_bracha import BrachaBrb
from repro.protocols.dolev_strong import DolevStrongBb
from repro.protocols.psync.fab import FabPsync
from repro.protocols.psync.pbft import PbftPsync
from repro.protocols.psync.vbb_5f1 import PsyncVbb5f1
from repro.protocols.sync.bb_2delta import Bb2Delta
from repro.protocols.sync.bb_delta_15delta import BbDelta15Delta
from repro.protocols.sync.bb_delta_2delta import BbDelta2Delta
from repro.protocols.sync.bb_delta_delta_n3 import BbDeltaDeltaN3
from repro.protocols.sync.bb_delta_delta_sync import BbDeltaDeltaSync
from repro.protocols.sync.bb_unauth_3delta import BbUnauth3Delta
from repro.protocols.sync.dishonest_majority import WanStyleBb
from repro.sim.runner import RunResult, World, run_broadcast
from repro.types import BOTTOM

__version__ = "1.0.0"

__all__ = [
    "BOTTOM",
    "Bb2Delta",
    "BbDelta15Delta",
    "BbDelta2Delta",
    "BbDeltaDeltaN3",
    "BbDeltaDeltaSync",
    "BbUnauth3Delta",
    "BrachaBrb",
    "Brb2Round",
    "BroadcastParty",
    "DolevStrongBb",
    "FabPsync",
    "PbftPsync",
    "PsyncVbb5f1",
    "RunResult",
    "WanStyleBb",
    "World",
    "run_broadcast",
]
