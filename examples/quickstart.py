"""Quickstart: run the paper's protocols in three timing models.

    python examples/quickstart.py

Runs (1) the asynchronous 2-round BRB of Figure 1, (2) the 2-round
(5f-1)-psync-VBB of Figure 3, and (3) the synchronous (Delta+1.5delta)-BB
of Figure 9, each in its good case, and prints the measured latencies next
to the paper's tight bounds.
"""
from repro import (
    BbDelta15Delta,
    Brb2Round,
    PsyncVbb5f1,
    run_broadcast,
)
from repro.sim.clock import skewed_offsets
from repro.sim.delays import FixedDelay


def run_async_brb() -> None:
    print("=== Figure 1: 2-round-BRB under asynchrony (n=7, f=2) ===")
    result = run_broadcast(
        n=7,
        f=2,
        party_factory=Brb2Round.factory(broadcaster=0, input_value="hello"),
        delay_policy=FixedDelay(1.0),
    )
    print(f"  committed value : {result.committed_value()!r}")
    print(f"  round latency   : {result.round_latency()} (paper: 2 rounds)")
    print(f"  messages sent   : {result.messages_sent}")


def run_psync_vbb() -> None:
    print("=== Figure 3: (5f-1)-psync-VBB, GST=0, honest leader (n=9, f=2) ===")
    result = run_broadcast(
        n=9,
        f=2,
        party_factory=PsyncVbb5f1.factory(
            broadcaster=0, input_value="block-42", big_delta=1.0
        ),
        delay_policy=FixedDelay(0.1),
    )
    print(f"  committed value : {result.committed_value()!r}")
    print(f"  round latency   : {result.round_latency()} (paper: 2 rounds, "
          "beating 3-round PBFT)")


def run_sync_bb() -> None:
    print("=== Figure 9: (Delta+1.5delta)-BB, unsync start (n=5, f=2) ===")
    # Every message takes delta; parties start up to sigma = delta apart.
    delta, big_delta = 0.25, 1.0
    result = run_broadcast(
        n=5,
        f=2,
        party_factory=BbDelta15Delta.factory(
            broadcaster=0, input_value="tick", big_delta=big_delta
        ),
        delay_policy=FixedDelay(delta),
        start_offsets=skewed_offsets(5, delta),
    )
    latency = result.latency_from(0.0)
    bound = big_delta + 1.5 * delta
    print(f"  committed value : {result.committed_value()!r}")
    print(f"  latency         : {latency:.4g} "
          f"(paper: Delta + 1.5*delta = {bound:.4g})")


if __name__ == "__main__":
    run_async_brb()
    print()
    run_psync_vbb()
    print()
    run_sync_bb()
