"""Compare two sets of benchmark runs under the bounds in BENCHMARK.json.

    python3 perfbench/compare.py BASE_DIR NEW_DIR
    python3 perfbench/compare.py RUNS_DIR

Each directory holds one `<workload>.jsonl` per workload, one run's result
line (the last stdout line of run.py) per line; runs of the two sides are
paired in file order.  For each end-to-end metric of each workload the
verdict is:

  worse       the new median is worse than the base median by more than the bound
  unresolved  otherwise, if the base runs spread (quartile distance over median)
              wider than the bound and not every new run beats every base run
  improved    the new run wins at least 9 in 10 pairs and the medians differ
              by more than the base quartile distance
  unchanged   otherwise

With one directory it prints each metric's median and spread against its bound.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(directory: Path, workload: str) -> list[dict]:
    path = directory / f"{workload}.jsonl"
    if not path.is_file():
        return []
    return [json.loads(line) for line in path.read_text().splitlines() if line.strip()]


def verdict(base, new, bound, better) -> str:
    sign = 1 if better == "lower" else -1
    b1, bmed, b3 = statistics.quantiles(base, n=4)
    nmed = statistics.median(new)
    if sign * (nmed - bmed) > bound * abs(bmed):
        return "worse"
    if b3 - b1 > bound * abs(bmed) and not all(sign * (n - b) < 0 for n in new for b in base):
        return "unresolved"
    wins = sum(sign * (n - b) < 0 for b, n in zip(base, new))
    if wins >= 0.9 * min(len(base), len(new)) and abs(nmed - bmed) > b3 - b1:
        return "improved"
    return "unchanged"


def failed_share(runs) -> str:
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    correct = all(r["correct"] for r in runs)
    return f"{failed}/{attempted} failed, {'all correct' if correct else 'CHECK FAILURES'}"


def main(argv) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK.read_text())
    sides = [Path(a) for a in argv]
    worse = False
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [load(side, workload) for side in sides]
        if any(len(r) < 2 for r in runs):
            print(f"{workload}: fewer than two runs on a side, skipped")
            continue
        print(f"{workload}: " + " | ".join(failed_share(r) for r in runs))
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [[r["metrics"][name]["value"] for r in side] for side in runs]
            stats = []
            for side in values:
                q1, med, q3 = statistics.quantiles(side, n=4)
                stats.append(f"{med:12.6g} (spread {(q3 - q1) / abs(med):6.2%})")
            line = f"  {name:14s} bound {bound:5.0%}  " + "  ".join(stats)
            if len(values) == 2:
                result = verdict(values[0], values[1], bound, metric["better"])
                worse |= result == "worse"
                line += f"  {result}"
            print(line)
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
