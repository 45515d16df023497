"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; xmodal is imported from ./src.  Workloads
are pipeline-default, cli-wide and retrieval-paper (see workloads.py).

--trace 0 sets up, repeats whole rounds until the rounds add up to at
least S seconds (at least one round), sets up again, and reports the
end-to-end metrics: setup_s (median set-up), round_s (median round) and
peak_rss_mb.
--trace 1 runs one traced set-up and round, then one untraced set-up
and round, and reports the per-layer metrics of the traced pass plus
the tracing overhead, both as the measured gap between the two passes
and as the calibrated cost of the spans recorded.  Either way the
outputs are checked, and the last line of stdout is one JSON object:
correct, attempted, failed, metrics.
Results and traces are written to bench/out/.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import tracing

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "bench" / "out"
# Set-up runs twice before the rounds and once after them, and each
# group repeats until it adds up to SETUP_SECONDS.  The machine's speed
# drifts over seconds, so samples spread over the whole run give a
# steadier median than samples taken back to back.
SETUP_SECONDS = 0.5

# the workloads measure the machine's default thread environment
THREAD_VARS = ("XMODAL_THREADS", "OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
               "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {"setup_s": "s", "round_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {name: unit for name, unit, _ in tracing.LAYER_METRICS}
PER_LAYER.update({"trace.overhead_s": "s", "trace.span_cost_s": "s",
                  "trace.spans": "count"})


class Runner:
    """Runs a workload's set-ups and rounds and counts its operations."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.outputs = []
        self.step_times = []

    def setup(self):
        t0 = time.perf_counter()
        self.workload.setup()
        return time.perf_counter() - t0

    def round(self):
        """Run one whole round and return its seconds.  The operations
        after a failed one count as failed too, so every round attempts
        the same operations."""
        out = {}
        steps = self.workload.steps(out)
        self.attempted += len(steps)
        marks = [time.perf_counter()]
        for i, step in enumerate(steps):
            try:
                step()
            except Exception:  # keep measuring; the failure is counted
                traceback.print_exc(file=sys.stderr)
                self.failed += len(steps) - i
                return time.perf_counter() - marks[0]
            marks.append(time.perf_counter())
        elapsed = marks[-1] - marks[0]
        self.step_times.append([b - a for a, b in zip(marks, marks[1:])])
        self.outputs.append((out, self.workload.digest(out)))
        return elapsed


def setups(runner, at_least):
    times = []
    while len(times) < at_least or sum(times) < SETUP_SECONDS:
        times.append(runner.setup())
    return times


def measure(runner, seconds):
    before = setups(runner, 2)
    rounds = []
    while not rounds or sum(rounds) < seconds:
        rounds.append(runner.round())
    setup_times = before + setups(runner, 1)
    metrics = {"setup_s": statistics.median(setup_times),
               "round_s": statistics.median(rounds),
               "peak_rss_mb": resource.getrusage(
                   resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    return metrics, {"setups_s": setup_times, "rounds_s": rounds,
                     "steps_s": runner.step_times}


def measure_traced(runner, xmodal, trace_path):
    # the traced pass goes first, in the place of an untraced run's round
    tracer = tracing.Tracer()
    tracer.install(xmodal)
    try:
        t0 = time.perf_counter()
        runner.setup()
        runner.round()
        traced = time.perf_counter() - t0
    finally:
        tracer.restore()
    t0 = time.perf_counter()
    runner.setup()
    runner.round()
    untraced = time.perf_counter() - t0
    spans = tracer.spans
    metrics = {name: fn(spans) for name, _, fn in tracing.LAYER_METRICS}
    # the measured gap carries the machine's drift between the passes; the
    # calibrated cost of the recorded spans is what tracing itself adds
    metrics["trace.overhead_s"] = traced - untraced
    metrics["trace.span_cost_s"] = len(spans) * tracing.span_cost()
    metrics["trace.spans"] = len(spans)
    branches = {i: {k: round(v, 4) for k, v in sorted(b.items())}
                for i, b in tracing.per_branch(spans).items()}
    with open(trace_path, "w", encoding="utf-8") as fh:
        json.dump({"spans": spans, "branch_busy_s": branches}, fh)
    return metrics, {"untraced_s": untraced, "traced_s": traced,
                     "branch_busy_s": branches}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "xmodal" / "__init__.py").is_file():
        print(f"error: no xmodal package under {src}", file=sys.stderr)
        return 2
    dropped = {v: os.environ.pop(v) for v in THREAD_VARS if v in os.environ}
    # numpy reads the BLAS thread variables when it is first imported, so
    # the program and the workloads are imported only now
    sys.path.insert(0, str(src))
    import xmodal
    # loads every traced module as an attribute of the package
    from xmodal import cli, dataio, embednet, evalkit, sgt, synthgen, trainer  # noqa: F401
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r};"
              f" choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    workdir = ROOT / "bench" / f"work-{os.getpid()}"
    try:
        workload = WORKLOADS[args.workload](xmodal, args.seed, workdir)
        runner = Runner(workload)
        if args.trace:
            metrics, info = measure_traced(runner, xmodal,
                                           OUT / f"trace-{stem}.json")
            units = PER_LAYER
        else:
            metrics, info = measure(runner, args.seconds)
            units = END_TO_END
        checks = None
        if runner.outputs:
            checks = workload.check(runner.outputs[0][0])
            checks.expect(len({d for _, d in runner.outputs}) == 1,
                          "rounds of one run gave different outputs")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    info.update(workload=args.workload, seed=args.seed, trace=args.trace,
                nproc=os.cpu_count(), dropped_env=dropped,
                checks_failed=[] if checks is None else checks.failed,
                notes={} if checks is None else checks.notes)
    result = {"correct": checks is not None and checks.ok,
              "attempted": runner.attempted, "failed": runner.failed,
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in metrics.items()}}
    with open(OUT / f"{stem}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump({**result, "info": info}, fh, indent=1)
    print("# " + json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
