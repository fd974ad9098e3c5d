"""Compare the two sides of a committed BENCH_*.json, metric by metric.

    python3 tools/benchdiff.py BENCH_9.json [--benchmark BENCHMARK.json]

A BENCH file holds alternating parent/change runs, one pair per seed, at
``end_to_end.<workload>.metrics.<metric>.{parent,change}``.  For every
metric this prints the median and quartiles of each side (linear
interpolation, as numpy.percentile), how many pairs the change won, and
the claim rule's verdict: a gain holds when the change wins at least 9 of
every 10 pairs and its median is better than the parent's by more than the
parent's interquartile range.  Which direction is better, and the bound a
median may worsen by, come from BENCHMARK.json (by default the one beside
the BENCH file).  A metric whose parent IQR is a larger share of the
parent median than that bound is "unresolved": its runs spread too widely
to tell a change within the bound, unless every run of the change is
better than every run of the parent.  A change whose own IQR is wider
than the bound on the parent median is flagged too: its runs differ too
much from one to the next to tell whether the metric moved.  Standard
library only.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3), interpolated linearly between order statistics."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def compare(parent: list[float], change: list[float], higher_is_better: bool,
            bound: float = float("inf")) -> dict:
    """Pair wins, quartiles, the claim rule and whether either side's spread exceeds ``bound``."""
    sign = 1 if higher_is_better else -1
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    ties = sum(c == p for p, c in zip(parent, change))
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    gain = sign * (cm - pm)
    return {"pairs": len(parent), "wins": wins, "ties": ties,
            "parent": (p1, pm, p3), "change": (c1, cm, c3),
            "gain": gain, "parent_iqr": p3 - p1,
            "relative": (cm - pm) / pm if pm else 0.0,
            "holds": 10 * wins >= 9 * len(parent) and gain > p3 - p1,
            "unresolved": (p3 - p1 > bound * abs(pm)
                           and min(sign * c for c in change) <= max(sign * p for p in parent)),
            "spread": c3 - c1 > bound * abs(pm)}


def _side(q: tuple[float, float, float]) -> str:
    return f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("bench", help="a BENCH_*.json file")
    parser.add_argument("--benchmark", help="BENCHMARK.json (default: beside the BENCH file)")
    args = parser.parse_args(argv)
    with open(args.bench, encoding="utf-8") as fh:
        bench = json.load(fh)
    spec_path = args.benchmark or os.path.join(os.path.dirname(os.path.abspath(args.bench)),
                                               "BENCHMARK.json")
    with open(spec_path, encoding="utf-8") as fh:
        spec = {m["name"]: m for m in json.load(fh)["end_to_end"]}
    for workload, entry in bench["end_to_end"].items():
        print(f"{workload} ({entry['pairs']} pairs, seeds {entry['seeds']})")
        print(f"  {'metric':<12} {'parent median [q1, q3]':<32} {'change median [q1, q3]':<32}"
              f" {'wins':>6}  verdict")
        for metric, sides in entry["metrics"].items():
            if metric not in spec:
                continue
            higher, bound = spec[metric]["better"] == "higher", spec[metric]["bound"]
            r = compare(sides["parent"], sides["change"], higher, bound)
            if r["holds"]:
                verdict = f"gain holds: {r['gain']:.4g} > parent IQR {r['parent_iqr']:.4g}"
            elif r["unresolved"]:
                verdict = (f"unresolved: parent IQR {r['parent_iqr']:.4g} > bound {bound}"
                           f" × median {r['parent'][1]:.4g}")
            else:
                verdict = f"no gain: {r['gain']:.4g}, parent IQR {r['parent_iqr']:.4g}"
                if -r["relative"] * (1 if higher else -1) > bound:
                    verdict += f"; WORSE than the bound {bound}"
            if r["spread"]:
                verdict += (f"; change IQR {r['change'][2] - r['change'][0]:.4g} > bound {bound}"
                            f" × parent median")
            print(f"  {metric:<12} {_side(r['parent']):<32} {_side(r['change']):<32}"
                  f" {r['wins']:>3}/{r['pairs']:<2}  {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
