"""Alternating benchmark pairs between two checkouts of bergman-lab.

    python3 tools/ab_pairs.py PARENT CHANGE --workload theorem-nonclass \\
        --pairs 10 --seed 341 [--seconds 10]

Runs `python3 bench/run.py --workload W --seed S --seconds T --trace 0` from
the root of each checkout (T is --seconds, 10 by default, so shorter rounds
can be asked for), pair i on seed S + i, the parent first in even pairs and the
change first in odd ones.  It reads only the JSON line each run prints, and
prints every run's metrics, then per end-to-end metric each side's median
and quartiles, the pairs the change won (ties count for neither side), the
relative change of the median, and a verdict:

    gain        at least ten pairs ran, the change won at least nine tenths
                of them, and its median is better by more than the parent's
                interquartile range
    unresolved  otherwise, where the parent's interquartile range is wider
                than the metric's bound in BENCHMARK.json (relative to its
                median) and not every change run is better than every
                parent run
    worse       otherwise, where the median is worse than the parent's by
                more than the bound
    within      otherwise

The failed share of operations is printed for each side, and so are each
run's minor page faults and system seconds with their medians per side.
These two are read as RUSAGE_CHILDREN deltas around the run, so they
include the fresh interpreters that bench/run.py starts to time setup_s;
no verdict is drawn from them.  Standard library only (resource is
Unix-only); the benchmark's files are neither changed nor imported.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path


def run_bench(checkout: Path, workload: str, seed: int, seconds: float = 10.0) -> dict:
    """One untraced benchmark run of about `seconds` in checkout: its final
    JSON line, with the run's minor page faults and system seconds added
    under "rusage"."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=False)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"bench/run.py failed in {checkout} (seed {seed}, exit "
                           f"{proc.returncode}):\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    result["rusage"] = {"minflt": after.ru_minflt - before.ru_minflt,
                        "sys_s": after.ru_stime - before.ru_stime}
    return result


def rusage_summary(runs: list) -> str:
    """Medians and quartiles of the runs' minor page faults and system seconds."""
    faults = quartiles([r["rusage"]["minflt"] for r in runs])
    sys_s = quartiles([r["rusage"]["sys_s"] for r in runs])
    return (f"minor faults {faults[1]:.0f} [{faults[0]:.0f}, {faults[2]:.0f}], "
            f"system {sys_s[1]:.3f} s [{sys_s[0]:.3f}, {sys_s[2]:.3f}]")


def quartiles(values: list) -> tuple:
    """(first quartile, median, third quartile), inclusive method."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def compare(parent: list, change: list, better: str, bound: float) -> dict:
    """The pair statistics of one metric; parent[i] and change[i] are pair i."""
    sign = 1.0 if better == "lower" else -1.0
    # gain[i] > 0 where the change is better in pair i
    gain = [sign * (p - c) for p, c in zip(parent, change)]
    wins = sum(g > 0 for g in gain)
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    iqr = p3 - p1
    better_by = sign * (pm - cm)
    all_better = (max(change) < min(parent) if better == "lower"
                  else min(change) > max(parent))
    if len(gain) >= 10 and 10 * wins >= 9 * len(gain) and better_by > iqr:
        verdict = "gain"
    elif iqr > bound * abs(pm) and not all_better:
        verdict = "unresolved"
    elif -better_by > bound * abs(pm):
        verdict = "worse"
    else:
        verdict = "within"
    return {"parent": (p1, pm, p3), "change": (c1, cm, c3), "wins": wins,
            "pairs": len(gain), "rel": (cm - pm) / pm if pm else 0.0, "verdict": verdict}


def metric_rules(checkout: Path) -> dict:
    """name -> (better, bound) for the end-to-end metrics in BENCHMARK.json."""
    spec = json.loads((checkout / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: (m["better"], float(m["bound"])) for m in spec["end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, required=True, help="seed of the first pair")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="run length passed to bench/run.py")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    if not args.seconds > 0.0:
        parser.error("--seconds must be positive")

    rules = metric_rules(args.parent)
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    runs = {"parent": [], "change": []}
    for i in range(args.pairs):
        seed = args.seed + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            result = run_bench(sides[side], args.workload, seed, args.seconds)
            runs[side].append(result)
            values = " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items())
            usage = result["rusage"]
            print(f"pair {i} seed {seed} {side}: {values} failed "
                  f"{result['failed']}/{result['attempted']} minflt={usage['minflt']} "
                  f"sys_s={usage['sys_s']:.3f}", flush=True)

    last_seed = args.seed + args.pairs - 1
    print(f"\n{args.workload}: {args.pairs} pairs, seeds {args.seed}-{last_seed}")
    print(f"{'metric':<12} {'parent median [q1, q3]':<30} {'change median [q1, q3]':<30} "
          f"{'won':>6} {'median':>8}  verdict")
    for name, (better, bound) in rules.items():
        parent = [r["metrics"][name]["value"] for r in runs["parent"]]
        change = [r["metrics"][name]["value"] for r in runs["change"]]
        s = compare(parent, change, better, bound)
        fmt = "{1:.4g} [{0:.4g}, {2:.4g}]"
        print(f"{name:<12} {fmt.format(*s['parent']):<30} {fmt.format(*s['change']):<30} "
              f"{s['wins']:>3}/{s['pairs']:<2} {100 * s['rel']:>+7.1f}%  {s['verdict']}")
    for side in ("parent", "change"):
        failed = sum(r["failed"] for r in runs[side])
        attempted = sum(r["attempted"] for r in runs[side])
        print(f"{side} failed {failed} of {attempted} operations; "
              f"{rusage_summary(runs[side])}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
