"""Compare a parent result set with a change result set.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the JSON records that perfbench/run.py writes to
perfbench/results/ (only --trace 0 records are used).  Runs are paired by
workload and seed.  For every workload and end-to-end metric the tool prints
each side's median and quartiles, the pairs the change won, and a verdict:

- gain: the change wins at least 9/10 of the pairs (ties count for neither)
  and the medians differ by more than the parent's interquartile range;
- unresolved: a side's interquartile range, as a share of its median, is
  wider than the metric's bound, unless every change run beats every
  parent run;
- regression: the change's median is worse than the parent's by more than
  the bound (a share of the parent's median);
- within bound: none of the above.

Bounds and directions come from BENCHMARK.json.  The strict fail_ratio of
each side is printed alongside, as a median.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory: Path) -> dict[str, dict[int, dict]]:
    runs: dict[str, dict[int, dict]] = {}
    for path in sorted(directory.glob("*.json")):
        rec = json.loads(path.read_text())
        if rec.get("trace") == 0:
            runs.setdefault(rec["workload"], {})[rec["seed"]] = rec
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent, change, better, bound, paired):
    sign = 1.0 if better == "higher" else -1.0
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    wins = sum(sign * (c - p) > 0 for p, c in paired)
    gap = sign * (cm - pm)
    if paired and wins >= 0.9 * len(paired) and gap > p3 - p1:
        return "gain", wins
    spread = max((p3 - p1) / abs(pm), (c3 - c1) / abs(cm))
    if spread > bound:
        all_better = all(sign * (c - p) > 0 for p in parent for c in change)
        return ("better (every run)" if all_better else "unresolved"), wins
    if -gap > bound * abs(pm):
        return "regression", wins
    return "within bound", wins


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent, change = load(args.parent), load(args.change)
    bad = False
    print(f"{'workload':9s} {'metric':15s} {'parent q1/median/q3':>32s} "
          f"{'change q1/median/q3':>32s} {'won':>7s}  verdict")
    for wl in sorted(set(parent) & set(change)):
        seeds = sorted(set(parent[wl]) & set(change[wl]))
        for m in spec["end_to_end"]:
            name = m["name"]
            pv = [parent[wl][s]["metrics"][name] for s in sorted(parent[wl])]
            cv = [change[wl][s]["metrics"][name] for s in sorted(change[wl])]
            paired = [(parent[wl][s]["metrics"][name], change[wl][s]["metrics"][name])
                      for s in seeds]
            v, wins = verdict(pv, cv, m["better"], m["bound"], paired)
            bad |= v == "regression"
            fmt = lambda q: "/".join(f"{x:.4g}" for x in q)
            print(f"{wl:9s} {name:15s} {fmt(quartiles(pv)):>32s} {fmt(quartiles(cv)):>32s} "
                  f"{wins:3d}/{len(paired):<3d}  {v}")
        fr = lambda runs: statistics.median(r["fail_ratio"] for r in runs.values())
        print(f"{wl:9s} {'fail_ratio':15s} {fr(parent[wl]):>32.4g} {fr(change[wl]):>32.4g}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
