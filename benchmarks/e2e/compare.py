"""Compare two result files of ``run.py``: the parent's and the change's.

    python benchmarks/e2e/compare.py out/A.json out/B.json

Per end-to-end metric and workload: both medians, how much worse B is
than A, the bound and a verdict.  The bound is the one in
``BENCHMARK.json`` but never wider than :data:`RESOLUTION`: the gate's
bounds have to clear this box's worst same-commit spread, a comparison
can be run again when it lands in a noisy quarter of an hour.

* ``ok``: B's median is no worse than A's by more than the bound;
* ``worse``: it is;
* ``unresolved``: the run-to-run spread (distance between the quartiles
  over the median, the wider of the two sides) exceeds the bound, so the
  medians decide nothing — unless every sample of B beats every sample
  of A, which is ``ok``.

Simulated results (``good_case_latency``, message and delivery counts)
and every per-layer count must be identical.  Exits 1 on any ``worse``,
any mismatch, or more failed ops in B than in A; 2 when the two files
are not comparable (different seed, size or run length).
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
#: The widest bound a comparison is judged at (the issue's 10 %).
RESOLUTION = 0.10
#: Per-layer units whose values are made by the program, not the clock.
EXACT_UNITS = frozenset({"count", "ratio", "B", "Delta"})


def verdict(a: dict, b: dict, *, lower_is_better: bool, bound: float):
    """``(share by which B is worse than A, spread, verdict)``."""
    sign = 1 if lower_is_better else -1
    worse_by = sign * (b["median"] - a["median"]) / a["median"]
    spread = max((s["q3"] - s["q1"]) / s["median"] for s in (a, b))
    if spread > bound:
        b_wins = (
            max(b["samples"]) < min(a["samples"]) if lower_is_better
            else min(b["samples"]) > max(a["samples"])
        )
        return worse_by, spread, "ok" if b_wins else "unresolved"
    return worse_by, spread, "worse" if worse_by > bound else "ok"


def failed_ops(row: dict) -> int:
    return sum(row[p]["failed"] for p in ("untraced", "traced") if p in row)


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    a, b = (json.loads(Path(path).read_text()) for path in argv[1:])
    for key in ("seed", "size", "seconds"):
        if a["meta"][key] != b["meta"][key]:
            print(f"not comparable: {key} {a['meta'][key]!r} vs "
                  f"{b['meta'][key]!r}", file=sys.stderr)
            return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    print(f"A: rev {a['meta']['rev']}  nproc {a['meta']['nproc']}\n"
          f"B: rev {b['meta']['rev']}  nproc {b['meta']['nproc']}\n")
    tally = {"ok": 0, "worse": 0, "unresolved": 0, "mismatch": 0}
    for name in (w["name"] for w in declared["workloads"]):
        row_a, row_b = a["workloads"].get(name), b["workloads"].get(name)
        if row_a is None or row_b is None:
            continue
        print(f"== {name}")
        if failed_ops(row_b) > failed_ops(row_a):
            tally["worse"] += 1
            print(f"   failed ops: {failed_ops(row_a)} -> "
                  f"{failed_ops(row_b)}  worse")
        for key, value in row_a.get("exact", {}).items():
            if row_b.get("exact", {}).get(key) != value:
                tally["mismatch"] += 1
                print(f"   {key}: {value!r} != "
                      f"{row_b.get('exact', {}).get(key)!r}  MISMATCH")
        for metric in declared["end_to_end"]:
            sa = row_a.get("end_to_end", {}).get(metric["name"])
            sb = row_b.get("end_to_end", {}).get(metric["name"])
            if sa is None or sb is None:
                continue
            bound = min(metric["bound"], RESOLUTION)
            worse_by, spread, status = verdict(
                sa, sb, lower_is_better=metric["better"] == "lower",
                bound=bound,
            )
            tally[status] += 1
            print(
                f"   {metric['name']:<28} {sa['median']:>12.6g} "
                f"{sb['median']:>12.6g} {metric['unit']:<5} "
                f"worse by {worse_by:+7.2%}  spread {spread:6.2%}  "
                f"bound {bound:.0%}  {status}"
            )
        for metric in declared["per_layer"]:
            va = row_a.get("per_layer", {}).get(metric["name"])
            vb = row_b.get("per_layer", {}).get(metric["name"])
            if va is None or vb is None:
                continue
            if metric["unit"] in EXACT_UNITS:
                if va != vb:
                    tally["mismatch"] += 1
                    print(f"   {metric['name']:<28} {va!r} != {vb!r}  MISMATCH")
            elif va or vb:
                change = (vb - va) / va if va else float("inf")
                print(f"   {metric['name']:<28} {va:>12.6g} {vb:>12.6g} "
                      f"{metric['unit']:<5} change {change:+7.2%}")
    print("\n" + "  ".join(f"{k} {v}" for k, v in tally.items()))
    return 1 if tally["worse"] or tally["mismatch"] else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
