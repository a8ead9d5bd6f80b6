"""Compare two benchmark result files: the parent commit and a change.

    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl

Each file holds the records ``perfbench/run.py`` appends, one run per line.
For every (workload, metric) the command prints both sides' median and
quartiles, the paired win ratio and a verdict:

* ``improved``: the change wins at least nine tenths of at least ten pairs
  (ties count for neither side) and the medians differ by more than the
  parent's own spread (the distance between its quartiles);
* ``unresolved``: the parent's spread, as a share of its median, is wider
  than the metric's bound, unless every change run beats every parent run;
* ``worse``: the change's median is worse than the parent's by more than
  the bound (per-layer metrics have no bound: worse means the parent wins
  the pairs the way ``improved`` requires of the change);
* ``unchanged``: otherwise.

A change whose runs fail more operations, or fail more runs, than the
parent's on a workload is ``worse`` on that workload whatever its times,
and none of its metrics there counts as ``improved``.  Failed runs report
no times, so their counts are printed above each table.

Runs pair up by seed, in file order.  The exit code is 1 if any verdict is
``worse``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from dataclasses import dataclass, field

from run import BENCHMARK, metric_specs

MIN_PAIRS = 10
WIN_SHARE = 0.9


@dataclass
class Side:
    """One commit's runs of one (workload, trace) pair."""

    #: seed -> list of {metric: value}, one per run in file order.
    runs: dict = field(default_factory=lambda: defaultdict(list))
    attempted: int = 0
    failed: int = 0
    failed_runs: int = 0
    total_runs: int = 0


def load(path: str) -> dict[tuple[str, int], Side]:
    """(workload, trace) -> that side's runs and failure counts."""
    sides: dict = defaultdict(Side)
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if not line.strip():
                continue
            record = json.loads(line)
            if record["trace"]:
                values = dict(record.get("layers", {}))
            else:
                values = {name: entry["value"]
                          for name, entry in record["metrics"].items()}
            side = sides[(record["workload"], record["trace"])]
            side.runs[record["seed"]].append(values)
            side.attempted += record.get("attempted", 0)
            side.failed += record.get("failed", 0)
            side.failed_runs += bool(record.get("failed", 0))
            side.total_runs += 1
    return sides


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent: list[float], change: list[float],
            pairs: list[tuple[float, float]], better: str,
            bound: float | None) -> tuple[str, int, int]:
    """The comparison rule; returns (verdict, wins, losses)."""
    sign = 1 if better == "lower" else -1

    def gain(before, after):          # > 0 when ``after`` is better
        return sign * (before - after)

    wins = sum(1 for before, after in pairs if gain(before, after) > 0)
    losses = sum(1 for before, after in pairs if gain(before, after) < 0)
    q1, median_p, q3 = quartiles(parent)
    median_c = statistics.median(change)
    spread = q3 - q1
    decisive = len(pairs) >= MIN_PAIRS and abs(median_c - median_p) > spread
    if decisive and wins >= WIN_SHARE * len(pairs) and gain(median_p, median_c) > 0:
        return "improved", wins, losses
    if bound is None:
        if decisive and losses >= WIN_SHARE * len(pairs):
            return "worse", wins, losses
        return "unchanged", wins, losses
    all_better = all(gain(before, after) > 0 for before in parent for after in change)
    if median_p and spread / abs(median_p) > bound and not all_better:
        return "unresolved", wins, losses
    if median_p and -gain(median_p, median_c) / abs(median_p) > bound:
        return "worse", wins, losses
    return "unchanged", wins, losses


def compare(parent_path: str, change_path: str) -> int:
    parent_sides, change_sides = load(parent_path), load(change_path)
    specs = metric_specs()
    layers = {m["name"]: (m["unit"], m["better"], None)
              for m in BENCHMARK["per_layer"]}
    worse = 0
    for key in sorted(set(parent_sides) & set(change_sides)):
        workload, trace = key
        side_p, side_c = parent_sides[key], change_sides[key]
        by_seed_p, by_seed_c = side_p.runs, side_c.runs
        names = sorted({name for runs in by_seed_p.values() for run in runs
                        for name in run})
        print(f"== {workload} ({'traced, per layer' if trace else 'end to end'}) ==")
        more_failures = (side_c.failed > side_p.failed
                         or side_c.failed_runs > side_p.failed_runs)
        print(f"  failed operations: parent {side_p.failed}/{side_p.attempted} "
              f"in {side_p.failed_runs}/{side_p.total_runs} runs, change "
              f"{side_c.failed}/{side_c.attempted} in {side_c.failed_runs}/"
              f"{side_c.total_runs} runs  {'worse' if more_failures else 'unchanged'}")
        worse += more_failures
        print(f"  {'metric':<30} {'unit':<6} {'parent median [q1, q3]':>32} "
              f"{'change median [q1, q3]':>32} {'delta':>8} {'wins':>7}  verdict")
        for name in names:
            parent = [run[name] for runs in by_seed_p.values() for run in runs
                      if name in run]
            change = [run[name] for runs in by_seed_c.values() for run in runs
                      if name in run]
            if not parent or not change:
                continue
            pairs = [(p[name], c[name]) for seed in by_seed_p
                     for p, c in zip(by_seed_p[seed], by_seed_c.get(seed, []))
                     if name in p and name in c]
            unit, better, bound = (layers if trace else specs)[name]
            outcome, wins, _ = verdict(parent, change, pairs, better, bound)
            if more_failures and outcome == "improved":
                outcome = "unresolved"
            worse += outcome == "worse"
            qp, qc = quartiles(parent), quartiles(change)
            delta = ((qc[1] - qp[1]) / abs(qp[1]) * 100) if qp[1] else 0.0
            parent_text = f"{qp[1]:.5g} [{qp[0]:.5g}, {qp[2]:.5g}]"
            change_text = f"{qc[1]:.5g} [{qc[0]:.5g}, {qc[2]:.5g}]"
            print(f"  {name:<30} {unit:<6} {parent_text:>32} {change_text:>32} "
                  f"{delta:>+7.1f}% {wins:>3}/{len(pairs):<3}  {outcome}")
    return 1 if worse else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="results file of the parent commit")
    parser.add_argument("change", help="results file of the change")
    args = parser.parse_args(argv)
    return compare(args.parent, args.change)


if __name__ == "__main__":
    sys.exit(main())
