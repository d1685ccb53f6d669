"""Tour of the executable lower-bound witnesses.

    python examples/lower_bound_tour.py

Runs all six impossibility constructions from the paper against strawman
protocols that claim better-than-tight latency, machine-checks the
indistinguishability claims from the proofs, and prints the agreement
violations they produce.
"""
from repro.lowerbounds import WITNESSES, run_witness

if __name__ == "__main__":
    for key in WITNESSES:
        report = run_witness(key)
        print(report.summary())
        assert report.all_checks_hold, "an indistinguishability check failed"
        assert report.violation_found, "witness failed to find a violation"
        print()
    print("All six lower bounds witnessed: the strawmen that beat the "
          "paper's bounds violate agreement, exactly where the proofs "
          "say they must.")
