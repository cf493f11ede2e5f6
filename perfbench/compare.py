#!/usr/bin/env python3
"""Compare two sets of benchmark runs against the bounds in BENCHMARK.json.

Each set is a directory of files named <workload>-<anything>, each holding the
standard output of one `run.py --trace 0` run (the last line is its result):

    for s in 0 1 2 3 4 5 6 7 8 9; do
      python3 perfbench/run.py --workload small --seed $s --seconds 40 --trace 0 \\
        > perfbench/results/before/small-$s.txt
    done
    python3 perfbench/compare.py perfbench/results/before perfbench/results/after

For every workload and end-to-end metric it prints each set's median and
quartiles and their spread (the quartile distance over the median).  With one
set it stops there; with two it also says whether the second median is worse
than the first by more than the metric's bound, and whether the share of
failed operations is the same.  Exits 1 if any comparison disagrees.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load(directory: str) -> dict[str, list[dict]]:
    runs: dict[str, list[dict]] = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name)) as fh:
            lines = [line for line in fh.read().splitlines() if line.strip()]
        try:
            result = json.loads(lines[-1]) if lines else None
        except json.JSONDecodeError:
            result = None
        if not isinstance(result, dict) or "metrics" not in result:
            sys.stderr.write(f"skipping {name}: its last line is not a run result\n")
            continue
        runs.setdefault(name.split("-", 1)[0], []).append(result)
    return runs


def summary(values: list[float]) -> tuple[float, float, float, float]:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def main() -> int:
    if len(sys.argv) not in (2, 3):
        sys.stderr.write(__doc__)
        return 2
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        metrics = json.load(fh)["end_to_end"]
    sets = [load(d) for d in sys.argv[1:]]
    disagree = False
    for workload in sorted(sets[0]):
        print(f"== {workload}")
        for metric in metrics:
            name, bound = metric["name"], metric["bound"]
            cells, medians = [], []
            for runs in sets:
                values = [r["metrics"][name]["value"] for r in runs.get(workload, []) if name in r["metrics"]]
                if not values:
                    cells.append("no runs")
                    continue
                med, q1, q3, spread = summary(values)
                medians.append(med)
                flag = "" if spread <= bound else " SPREAD>BOUND"
                disagree |= bool(flag)
                cells.append(f"n={len(values)} med {med:.6g} q1 {q1:.6g} q3 {q3:.6g} spread {spread:.3f}{flag}")
            verdict = ""
            if len(medians) == 2:
                change = (medians[1] - medians[0]) / medians[0]
                worse = change if metric["better"] == "lower" else -change
                ok = worse <= bound
                disagree |= not ok
                verdict = f" | change {change:+.3f} {'within' if ok else 'OUTSIDE'} bound {bound}"
            print(f"  {name:12s} " + " || ".join(cells) + verdict)
        shares = []
        for runs in sets:
            rs = runs.get(workload, [])
            shares.append({r["failed"] / r["attempted"] for r in rs})
        same = all(len(s) == 1 for s in shares) and len({min(s) for s in shares}) == 1
        disagree |= not same
        print(f"  failed share {' vs '.join(str(sorted(s)) for s in shares)} {'same' if same else 'DIFFERS'}")
        correct = [all(r["correct"] for r in runs.get(workload, [])) for runs in sets]
        disagree |= not all(correct)
        print(f"  correct: {' vs '.join(map(str, correct))}")
    return 1 if disagree else 0


if __name__ == "__main__":
    sys.exit(main())
