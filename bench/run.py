"""bergman-lab benchmark: one workload per run, checked, with an optional trace.

    python3 bench/run.py --workload theorem-class --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; the package is imported from
./src.  The run repeats whole rounds of the workload's operations until
--seconds have passed (at least one round), checks every result against
bench/reference.py, and prints as its last stdout line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, measured untraced.
With --trace 1 the run makes one warm-up round, then alternates untraced
and traced rounds, and reports the per-layer metrics (medians over traced
rounds) and the tracing overhead; the aggregated spans go to
bench/out/trace-*.json.
Progress and problems go to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from checks import OpFailed

BENCH = Path(__file__).resolve().parent
OUT = BENCH / "out"
SETUP_REPEATS = 5

END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "analysis.functional.shallow_s": "s",
    "analysis.functional.deep_s": "s",
    "analysis.functional.kept_ratio": "ratio",
    "analysis.majorant_s": "s",
    "analysis.cesaro_s": "s",
    "analysis.class_diagnostics_s": "s",
    "kernel.circle_mean.calls": "count",
    "kernel.circle_mean.self_s": "s",
    "kernel.fft.calls": "count",
    "kernel.fft.nodes": "count",
    "kernel.fft.levels_per_mean": "calls/mean",
    "kernel.coeffs.degrees": "count",
    "kernel.coeffs.ensure_s": "s",
    "weights.moment_grid_s": "s",
    "weights.moments_arith.terms": "count",
    "weights.moments_arith_s": "s",
    "weights.tail.calls": "count",
    "weights.tail_s": "s",
    "quadrature.integrate_radial.calls": "count",
    "quadrature.integrate_radial.self_s": "s",
    "projection.project.calls": "count",
    "projection.project_s": "s",
    "projection.bloch_image_s": "s",
    "projection.symbol_points": "count",
    "serialize.dumps_s": "s",
    "serialize.report_bytes": "bytes",
    "trace.overhead_s": "s",
}
WORKLOAD_NAMES = ("theorem-class", "theorem-nonclass", "diagnose-family",
                  "project-slice")

_SETUP_CODE = """\
import sys
sys.path.insert(0, sys.argv[1])
import bergman_lab.cli
from bergman_lab.serialize import load_weight_file
for path in sys.argv[2:]:
    load_weight_file(path)
"""


def log(msg: str):
    print(msg, file=sys.stderr, flush=True)


def measure_setup(src: Path, descriptors) -> float:
    """Median wall time of a fresh interpreter that imports the CLI and
    loads the workload's descriptors, as every CLI call does first."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", _SETUP_CODE, str(src),
                        *map(str, descriptors)], check=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class Tally:
    """Attempted, failed and successful timings of the run's operations."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.wall: list[float] = []
        self.cpu: list[float] = []


def run_round(workload, tally: Tally, tracer=None):
    """Run each operation once; time it, then check it."""
    results = []
    for op in workload.ops:
        tally.attempted += 1
        if tracer is not None:
            tracer.enter("op")
        wall0, cpu0 = time.perf_counter(), time.process_time()
        try:
            result = op.run()
            error = None
        except Exception as exc:  # an operation that raises has failed
            result, error = None, f"{type(exc).__name__}: {exc}"
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        if tracer is not None:
            tracer.leave()
            tracer.end_op()
        results.append((op, result, error, wall, cpu))
    for op, result, error, wall, cpu in results:
        if error is None:
            try:
                problems = op.check(result)
            except OpFailed as exc:
                error = str(exc)
        if error is not None:
            tally.failed += 1
            log(f"  {op.name}: FAILED ({error}) after {wall:.3f} s")
            continue
        tally.wall.append(wall)
        tally.cpu.append(cpu)
        tally.problems += [f"{op.name}: {p}" for p in problems]
        log(f"  {op.name}: {wall:.3f} s{'' if not problems else ' WRONG'}")


def metric_block(values: dict, units: dict) -> dict:
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "bergman_lab" / "__init__.py").is_file():
        log(f"error: no bergman_lab source under {src}; run from a checkout root")
        return 2
    sys.path.insert(0, str(src))
    import bergman_lab
    if Path(bergman_lab.__file__).resolve().parent != (src / "bergman_lab").resolve():
        log(f"error: bergman_lab imported from {bergman_lab.__file__}, not {src}")
        return 2
    import workloads
    from spans import Tracer

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix=f"{args.workload}-") as tmp:
        workload = workloads.WORKLOADS[args.workload](args.seed, Path(tmp))
        log(f"{args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
        setup_s = None if args.trace else measure_setup(src, workload.descriptors)

        untraced, traced, warmup = Tally(), Tally(), Tally()
        tracer = Tracer() if args.trace else None
        if tracer is not None:
            # a process's first operations pay one-off allocation costs;
            # keep them out of both sides of trace.overhead_s
            run_round(workload, warmup)
        n_rounds, rounds = 0, []
        start = time.perf_counter()
        while not n_rounds or time.perf_counter() - start < args.seconds:
            n_rounds += 1
            run_round(workload, untraced)
            if tracer is None:
                continue
            tracer.reset()
            points0 = workload.symbol_points()
            with tracer.installed():
                run_round(workload, traced, tracer)
            layer = tracer.layer_metrics()
            layer["projection.symbol_points"] = workload.symbol_points() - points0
            rounds.append({"metrics": layer, "coverage": tracer.coverage(),
                           "spans": {p: v for p, v in sorted(tracer.paths.items())}})

    if tracer is None:
        if not untraced.wall:
            log("error: no operation succeeded")
            return 1
        tally, units = untraced, END_TO_END
        values = {"setup_s": setup_s,
                  "wall_s": statistics.median(untraced.wall),
                  "cpu_s": statistics.median(untraced.cpu),
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    else:
        tally, units = untraced, PER_LAYER
        for other in (warmup, traced):
            tally.attempted += other.attempted
            tally.failed += other.failed
            tally.problems += other.problems
        values = {name: statistics.median(r["metrics"][name] for r in rounds)
                  for name in PER_LAYER if name != "trace.overhead_s"}
        values["trace.overhead_s"] = (statistics.median(traced.wall)
                                      - statistics.median(untraced.wall)
                                      if traced.wall and untraced.wall else 0.0)
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}-{os.getpid()}.json"
        trace_path.write_text(json.dumps({"workload": args.workload, "seed": args.seed,
                                          "rounds": rounds}, indent=1), encoding="utf-8")
        log(f"span coverage of traced op time: "
            f"{min(r['coverage'] for r in rounds):.4f} (min over rounds); "
            f"spans in {trace_path}")

    for p in tally.problems:
        log(f"WRONG {p}")
    log(f"{n_rounds} rounds, {tally.attempted} operations, {tally.failed} failed")
    print(json.dumps({
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metric_block(values, units),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
