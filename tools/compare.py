"""Compare the throughput of two checkouts on one workload by alternating runs.

Each pair runs ``bench/run.py --trace 0`` once in the parent tree and once in
the change tree, the parent first in even pairs and the change first in odd
ones, so that a drift of the host's speed falls on both sides alike.  Each
directory is a tree made by ``git archive <ref> | tar -x -C DIR``.

Usage::

    python tools/compare.py --parent DIR --change DIR --workload nogo \\
        --pairs 8 --seconds 20

Prints one JSON object about ``ops_per_s``: the parent's median and
interquartile range, the change's median, the median of the per-pair ratios
change / parent, the number of pairs the change wins (a ratio above 1) and
every run's value; and every run's end-to-end metrics.  Under ``metrics``
it judges each end-to-end metric that the parent tree's ``BENCHMARK.json``
declares, with that file's ``bound`` and ``better`` direction: the parent's
median and interquartile range, the change's median and a verdict,
``"unresolved"`` when the parent's interquartile range is wider than the
bound (relative to its median) and not every change run reads better than
every parent run, else ``"worse"`` when the change's median is worse than
the parent's by more than the bound, else ``"within"``.  Exits 1 if a run
reports a wrong result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(tree: str, workload: str, seed: int, seconds: float) -> dict:
    """One ``bench/run.py`` run in ``tree``: its JSON result line."""
    proc = subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float]:
    """The first and third quartiles (``statistics.quantiles``, inclusive
    method); one value is both of its own quartiles."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summarize(parent: list[float], change: list[float]) -> dict:
    """The comparison of paired throughputs: ``parent[i]`` and ``change[i]``
    are pair ``i``, which the change wins when its ratio change / parent is
    above 1."""
    ratios = [c / p for p, c in zip(parent, change)]
    q1, q3 = quartiles(parent)
    return {
        "pairs": len(ratios),
        "parent_median": statistics.median(parent),
        "parent_iqr": q3 - q1,
        "change_median": statistics.median(change),
        "median_ratio": statistics.median(ratios),
        "wins": sum(r > 1 for r in ratios),
        "ratios": ratios,
    }


def judge(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """The verdict on one end-to-end metric from its runs in each tree:
    ``better`` is ``"lower"`` or ``"higher"`` and ``bound`` the largest
    relative change for the worse that is still within.  A spread wider than
    the bound leaves the metric unresolved, unless every run of the change
    reads better than every run of the parent."""
    q1, q3 = quartiles(parent)
    before, after = statistics.median(parent), statistics.median(change)
    sign = 1 if better == "lower" else -1  # sign * value grows as the metric gets worse
    if q3 - q1 <= bound * abs(before):
        verdict = "worse" if sign * (after - before) > bound * abs(before) else "within"
    else:
        clear = max(sign * x for x in change) < min(sign * x for x in parent)
        verdict = "within" if clear else "unresolved"
    return {"parent_median": before, "parent_iqr": q3 - q1, "change_median": after,
            "better": better, "bound": bound, "verdict": verdict}


def end_to_end(tree: str) -> list[dict]:
    """The end-to-end metrics that ``tree``'s ``BENCHMARK.json`` declares
    (none without the file)."""
    path = os.path.join(tree, "BENCHMARK.json")
    if not os.path.exists(path):
        return []
    with open(path) as fh:
        return json.load(fh)["end_to_end"]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--parent", required=True)
    p.add_argument("--change", required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, default=8)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args(argv)
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    for i in range(args.pairs):
        for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
            tree = args.parent if side == "parent" else args.change
            runs[side].append(run_once(tree, args.workload, args.seed, args.seconds))
    flat = {side: [{m: v["value"] for m, v in r["metrics"].items()} for r in rs]
            for side, rs in runs.items()}
    values = {side: [r["ops_per_s"] for r in rs] for side, rs in flat.items()}
    result = {"workload": args.workload, "metric": "ops_per_s", "seed": args.seed,
              "seconds": args.seconds,
              **summarize(values["parent"], values["change"]),
              "parent": values["parent"], "change": values["change"],
              "correct": all(r["correct"] for rs in runs.values() for r in rs),
              "metrics": {m["name"]: judge([r[m["name"]] for r in flat["parent"]],
                                           [r[m["name"]] for r in flat["change"]],
                                           m["better"], m["bound"])
                          for m in end_to_end(args.parent) if m["name"] in flat["parent"][0]},
              "runs": flat}
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
