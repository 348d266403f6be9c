#!/usr/bin/env python3
"""Compare end-to-end records of two trees, workload by workload.

    python3 perfbench/compare.py PARENT/.bench_out CHANGE/.bench_out

Each directory holds the records ``run.py`` writes (one per run).  For every
workload and metric this prints each side's median and quartiles over its
runs and the ratio of the medians.  It refuses to compare (exit code 2) when
the records disagree on the kernel backend, since ``JCGRID_PURE`` or a built
compiled extension changes the program being measured.
"""

import argparse
import glob
import json
import os
import statistics
import sys


def load(directory):
    """{workload: [record, ...]} for the untraced records in ``directory``."""
    out = {}
    for path in sorted(glob.glob(os.path.join(directory, "*-trace0.json"))):
        with open(path) as fh:
            rec = json.load(fh)
        out.setdefault(rec["env"]["workload"], []).append(rec)
    return out


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("base")
    p.add_argument("change")
    args = p.parse_args(argv)
    base, change = load(args.base), load(args.change)
    backends = {rec["env"]["backend"] for side in (base, change)
                for recs in side.values() for rec in recs}
    if len(backends) != 1:
        print(f"refusing to compare runs on different backends: {sorted(backends)}",
              file=sys.stderr)
        return 2
    for workload in sorted(set(base) & set(change)):
        print(f"{workload}  (runs: {len(base[workload])} base, {len(change[workload])} change)")
        metrics = base[workload][0]["result"]["metrics"]
        for name, first in metrics.items():
            sides = []
            for recs in (base[workload], change[workload]):
                sides.append(_quartiles([r["result"]["metrics"][name]["value"] for r in recs]))
            (bq1, bmed, bq3), (cq1, cmed, cq3) = sides
            print(f"  {name:12s} base {bmed:.4g} [{bq1:.4g}, {bq3:.4g}]  "
                  f"change {cmed:.4g} [{cq1:.4g}, {cq3:.4g}]  "
                  f"change/base {cmed / bmed:.3f} {first['unit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
