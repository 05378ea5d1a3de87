"""Compare two sets of benchmark results.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds the result files that perfbench/run.py writes (pass
--results DIR to run.py; the default is perfbench/results).  For every
workload and end-to-end metric this prints the median and quartiles of each
set, the change of the new median against the base median, and a verdict
against the metric's bound in BENCHMARK.json:

  worse      the new median is worse than the base by more than the bound
  unresolved the base set's own quartile spread exceeds the bound
  ok         otherwise

It also compares the share of failed operations, which must be equal.
Exits 1 if any metric is worse or the failed shares differ.
"""

import glob
import json
import os
import statistics
import sys
from collections import defaultdict
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(directory: str) -> dict:
    """workload -> {"metrics": {name: [values]}, "failed": set of shares}"""
    out = defaultdict(lambda: {"metrics": defaultdict(list), "failed": set(), "runs": 0})
    for path in sorted(glob.glob(os.path.join(directory, "*-trace0.json"))):
        with open(path) as fh:
            r = json.load(fh)
        entry = out[r["workload"]]
        entry["runs"] += 1
        entry["failed"].add(Fraction(r["failed"], r["attempted"]))
        for name, m in r["metrics"].items():
            entry["metrics"][name].append(m["value"])
    return out


def quartiles(values: list):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main(argv) -> int:
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    base, new = load(argv[1]), load(argv[2])
    bad = False
    for workload in sorted(set(base) | set(new)):
        b, n = base.get(workload), new.get(workload)
        if b is None or n is None:
            print(f"{workload}: present in only one set")
            bad = True
            continue
        print(f"{workload}: {b['runs']} base runs, {n['runs']} new runs")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            bq, nq = quartiles(b["metrics"][name]), quartiles(n["metrics"][name])
            change = (nq[1] - bq[1]) / bq[1]
            worse = change if metric["better"] == "lower" else -change
            spread = (bq[2] - bq[0]) / bq[1]
            if worse > bound:
                verdict = "worse"
                bad = True
            elif spread > bound:
                verdict = "unresolved"
            else:
                verdict = "ok"
            print(f"  {name:<12} base {bq[1]:.4g} [{bq[0]:.4g}, {bq[2]:.4g}]  "
                  f"new {nq[1]:.4g} [{nq[0]:.4g}, {nq[2]:.4g}]  "
                  f"change {100 * change:+.1f}%  bound {100 * bound:.0f}%  {verdict}")
        same = b["failed"] == n["failed"] and len(b["failed"]) == 1
        shares = [", ".join(str(f) for f in sorted(x["failed"])) for x in (b, n)]
        print(f"  failed share base {shares[0]} new {shares[1]}"
              f"  {'ok' if same else 'differs'}")
        bad = bad or not same
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
