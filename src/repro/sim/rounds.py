"""Canetti-Rabin asynchronous round accounting (paper Definitions 9-10).

The paper measures asynchronous and partially synchronous latency in
*asynchronous rounds*: execution proceeds in atomic steps (one party
delivers messages, computes, sends); round 0 consists of the start step of
each party, and for ``r >= 1``, ``l_r`` is the **last** atomic step at
which a round-``(r-1)`` message is delivered — all steps after ``l_{r-1}``
up to and including ``l_r`` are in round ``r``.  A message's round is the
round of the step at which it was sent.

This is a property of the *global schedule*, not of per-party causal
depth: a vote sent in response to a slow proposal is still a round-1
message because the step delivering that proposal lies before the round-1
cut.  We therefore record the step structure during simulation and compute
rounds post-hoc with exactly the fixed-point the definition prescribes.

Messages sent outside any recorded step (e.g. from a timer handler) get no
round and do not extend the cuts; steps that only deliver such messages
inherit the round in force at that point.  In the good-case executions the
paper's round bounds are about, no timers fire before commit, so the
accounting is exact there.
"""
from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(slots=True)
class _Step:
    # Slotted: one _Step is allocated per delivery, which makes this the
    # accountant's hottest allocation site under the "full" preset.
    kind: str  # "start" | "deliver"
    party: int
    msg_id: int | None = None


@dataclass
class RoundAccountant:
    """Records steps and message causality; computes Definition-10 rounds."""

    steps: list[_Step] = field(default_factory=list)
    msg_sent_step: dict[int, int | None] = field(default_factory=dict)
    msg_delivered_step: dict[int, int] = field(default_factory=dict)
    _current_step: int | None = None
    _msg_counter: int = 0
    _computed: list[int] | None = None

    # ------------------------------------------------------------------ #
    # recording (called by the network / world during the run)
    # ------------------------------------------------------------------ #

    def begin_start_step(self, party: int) -> int:
        return self._begin(_Step("start", party))

    def begin_delivery_step(self, party: int, msg_id: int) -> int:
        index = self._begin(_Step("deliver", party, msg_id))
        self.msg_delivered_step[msg_id] = index
        return index

    def _begin(self, step: _Step) -> int:
        self.steps.append(step)
        self._current_step = len(self.steps) - 1
        self._computed = None
        return self._current_step

    def end_step(self) -> None:
        self._current_step = None

    def register_send(self) -> int:
        """Record a message send in the current step; returns a message id."""
        msg_id = self._msg_counter
        self._msg_counter += 1
        self.msg_sent_step[msg_id] = self._current_step
        return msg_id

    @property
    def current_step(self) -> int | None:
        return self._current_step

    def last_step_index(self) -> int | None:
        if not self.steps:
            return None
        return len(self.steps) - 1

    # ------------------------------------------------------------------ #
    # post-hoc round computation (Definition 10)
    # ------------------------------------------------------------------ #

    def step_rounds(self) -> list[int]:
        """Round number of every recorded step."""
        if self._computed is not None:
            return self._computed
        n_steps = len(self.steps)
        step_round: list[int | None] = [None] * n_steps
        msg_round: dict[int, int] = {}
        for index, step in enumerate(self.steps):
            if step.kind == "start":
                step_round[index] = 0
        for msg_id, sent in self.msg_sent_step.items():
            if sent is not None and self.steps[sent].kind == "start":
                msg_round[msg_id] = 0
        current = 0
        while True:
            cut_candidates = [
                self.msg_delivered_step[msg_id]
                for msg_id, round_ in msg_round.items()
                if round_ == current and msg_id in self.msg_delivered_step
            ]
            if not cut_candidates:
                break
            cut = max(cut_candidates)
            newly_assigned = False
            for index in range(cut + 1):
                if step_round[index] is None:
                    step_round[index] = current + 1
                    newly_assigned = True
            for msg_id, sent in self.msg_sent_step.items():
                if msg_id in msg_round or sent is None:
                    continue
                if step_round[sent] == current + 1:
                    msg_round[msg_id] = current + 1
            current += 1
            if not newly_assigned and current > n_steps:
                break  # defensive: cannot assign more than n_steps rounds
        # Steps beyond the last cut (deliveries of round-less messages):
        # inherit the round in force.
        in_force = 0
        for index in range(n_steps):
            if step_round[index] is None:
                step_round[index] = in_force
            else:
                in_force = step_round[index]
        self._computed = step_round  # type: ignore[assignment]
        return self._computed

    def round_of_step(self, index: int) -> int:
        return self.step_rounds()[index]
