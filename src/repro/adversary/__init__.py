"""Byzantine adversary behaviors and strategy builders."""
from repro.adversary.behaviors import (
    ByzantineBehavior,
    CrashBehavior,
    FilteredHonestBehavior,
    HonestExceptBehavior,
    ScriptStep,
    ScriptedBehavior,
    SplitBrainBehavior,
    crash_at,
    fixed_delay_toward,
    pass_all,
    per_party,
)
from repro.adversary.broadcaster import equivocating_broadcaster

__all__ = [
    "ByzantineBehavior",
    "CrashBehavior",
    "FilteredHonestBehavior",
    "HonestExceptBehavior",
    "ScriptStep",
    "ScriptedBehavior",
    "SplitBrainBehavior",
    "crash_at",
    "equivocating_broadcaster",
    "fixed_delay_toward",
    "pass_all",
    "per_party",
]
