"""One run of one workload inside a fresh single-threaded process.

run.py starts this with the thread pools pinned and ``src`` on the path.
It builds the inputs of the workload's variant (untimed), runs the
operations as a closed loop with one client, checks every output against
reference.json, and prints one JSON line with attempted/failed counts, the
metrics it measured and the environment record.

Untraced (--trace 0): the first operation runs once untimed as a
warm-up, then operations run until their summed time reaches --seconds.
The reference kernel of calibrate.py runs between every two operations,
and each operation's time is rescaled to reference time by the kernel
times on either side of it, so the drift of a shared host's speed cancels
out; ``frames_per_s`` is the frames of the operations that passed their
check over the summed reference time of all operations. Traced (--trace 1):
every operation runs twice in a row, first with the layer wrappers switched
off and then on, in whole passes over the operation list until the untraced
calls reach half of --seconds; per-layer values are per pass.

Either loop also stops after twice --seconds of wall time, or after
MAX_FAILED_IN_A_ROW failed operations in a row, so operations that fail
at once still end the run with a result. A failing operation's traceback
is printed the first time only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy

import calibrate
import vosmem
import workloads

HERE = Path(__file__).resolve().parent
MAX_FAILED_IN_A_ROW = 50


class Runner:
    """Runs operations one at a time and counts the ones whose output is wrong."""

    def __init__(self, ops, refs, tracer=None):
        self.ops, self.refs, self.tracer = ops, refs, tracer
        self.attempted = 0
        self.failed = 0
        self.rates: list[float] = []  # frames per second of each passing operation
        self.frames = 0  # frames of work done by passing operations
        self.busy = 0.0
        # reference kernel times, one before the first calibrated operation
        # and one after each; None until start_calibration()
        self.kernel: list[float] | None = None
        self.reference_busy = 0.0  # summed operation times rescaled to reference time
        self.failed_in_a_row = 0
        self.reported: set[int] = set()  # operations whose failure was printed
        self.stats = {"tokens": 0, "steps": 0, "jf": []}

    def report(self, index: int, message: str) -> None:
        if index not in self.reported:
            self.reported.add(index)
            print(message, file=sys.stderr)

    def start_calibration(self) -> None:
        """Rescale the time of every timed call from here on to reference time."""
        calibrate.kernel_seconds()  # the first pass pays one-off set-up
        self.kernel = [calibrate.kernel_seconds()]

    def call(self, i: int, timed: bool = True) -> None:
        """Run and check one operation; an untimed call only counts its check."""
        index = i % len(self.ops)
        op = self.ops[index]
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.run = self.attempted
            self.tracer.enabled = True
        start = perf_counter()
        try:
            output = op.run()
        except Exception:
            output = None
            self.report(index, traceback.format_exc())
        finally:
            elapsed = perf_counter() - start
            if self.tracer is not None:
                self.tracer.enabled = False
        if timed:
            self.busy += elapsed
            if self.kernel is not None:
                self.kernel.append(calibrate.kernel_seconds())
                kernel = (self.kernel[-2] + self.kernel[-1]) / 2
                self.reference_busy += calibrate.reference_seconds(elapsed, kernel)
        try:
            ok = output is not None and op.digest(output) == self.refs[index]
            if ok and self.tracer is not None:
                for key, value in op.stats(output).items():
                    self.stats[key] += value
        except Exception:
            ok = False
            self.report(index, traceback.format_exc())
        if ok:
            if timed:
                self.frames += op.frames
                self.rates.append(op.frames / elapsed)
            self.failed_in_a_row = 0
        else:
            self.failed += 1
            self.failed_in_a_row += 1
            self.report(index, f"operation {index} (call {self.attempted}) failed its check")

    def stuck(self) -> bool:
        return self.failed_in_a_row >= MAX_FAILED_IN_A_ROW


def _ratio(a, b) -> float:
    return a / b if b else 0.0


def layer_metrics(names, tracer, cycles, traced_s, untraced_s, stats) -> dict:
    calls, self_s, covered = tracer.layer_totals()
    counts = tracer.counts
    special = {
        "other.self_s": (traced_s - covered) / cycles,
        "trace.overhead_s": (traced_s - untraced_s) / cycles,
        "memory.prune_step.fire_ratio": _ratio(counts["memory.prune_step.fired"],
                                               calls["memory.prune_step"]),
        "memory.retained_mean": _ratio(counts["memory.prune_step.retained"],
                                       calls["memory.prune_step"]),
        "metrics.boundary_f.no_dilate_ratio": _ratio(counts["metrics.boundary_f.no_dilate"],
                                                     calls["metrics.boundary_f"]),
        "readout_tokens_per_frame": _ratio(stats["tokens"], stats["steps"]),
        "jf_mean": statistics.fmean(stats["jf"]) if stats["jf"] else 0.0,
    }
    values = {}
    for name in names:
        if name.startswith("import."):
            continue  # measured by run.py in its own interpreter
        if name in special:
            values[name] = special[name]
        elif name.endswith(".calls"):
            values[name] = calls[name.removesuffix(".calls")] / cycles
        elif name.endswith(".self_s"):
            values[name] = self_s[name.removesuffix(".self_s")] / cycles
        elif name.endswith((".bytes", ".pixels")):
            values[name] = counts[name] / cycles
        else:
            raise SystemExit(f"per-layer metric {name!r} has no rule in child.py")
    return values


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(args, variant) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "threads": {k: os.environ.get(k) for k in
                    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "workload": args.workload,
        "seed": args.seed,
        "variant": variant,
        "profile": args.profile,
        "seconds": args.seconds,
    }


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--profile", choices=sorted(workloads.PROFILES), required=True)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args()
    # one CPU, so each reference kernel pass runs where the operations run
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    src = (Path.cwd() / "src").resolve()
    if src not in Path(vosmem.__file__).resolve().parents:
        raise SystemExit(f"vosmem was imported from {vosmem.__file__}, not from {src}")
    variant = args.seed % workloads.VARIANTS
    references = json.loads((HERE / "reference.json").read_text())
    try:
        refs = references[args.profile][args.workload][str(variant)]
    except KeyError:
        raise SystemExit(f"reference.json has no {args.profile}/{args.workload}/{variant}") from None
    ops = workloads.build(args.workload, variant, args.profile, args.workdir)
    if len(refs) != len(ops):
        raise SystemExit(f"reference.json holds {len(refs)} digests for {len(ops)} operations")

    spec = json.loads((Path.cwd() / "BENCHMARK.json").read_text())
    detail: dict = {"operations": len(ops)}
    start = perf_counter()
    if args.trace == 0:
        runner = Runner(ops, refs)
        runner.call(0, timed=False)  # warm-up: first-call costs, checked but not timed
        runner.start_calibration()
        i = 0
        while (runner.busy < args.seconds and not runner.stuck()
               and perf_counter() - start < 2 * args.seconds):
            runner.call(i)
            i += 1
        attempted, failed = runner.attempted, runner.failed
        metrics = {
            "frames_per_s": runner.frames / runner.reference_busy,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        detail.update(samples=len(runner.rates), busy_s=runner.busy,
                      reference_busy_s=runner.reference_busy,
                      wall_frames_per_s=runner.frames / runner.busy,
                      kernel_median_s=statistics.median(runner.kernel), fps=runner.rates)
    else:
        import tracer as tracing  # only here, so untraced runs never load the wrappers

        tracer = tracing.install()
        untraced, traced = Runner(ops, refs), Runner(ops, refs, tracer)
        cycles = 0
        while cycles == 0 or (untraced.busy < args.seconds / 2
                              and not (untraced.stuck() or traced.stuck())
                              and perf_counter() - start < 2 * args.seconds):
            for i in range(len(ops)):  # pairs share the machine's state of the moment
                untraced.call(i)
                traced.call(i)
            cycles += 1
        attempted = untraced.attempted + traced.attempted
        failed = untraced.failed + traced.failed
        names = [m["name"] for m in spec["per_layer"]]
        metrics = layer_metrics(names, tracer, cycles, traced.busy, untraced.busy, traced.stats)
        spans_path = Path(args.workdir).parent / f"spans-{args.workload}.jsonl"
        tracer.write(spans_path)
        detail.update(cycles=cycles, spans=len(tracer.spans), spans_file=str(spans_path),
                      untraced_s=untraced.busy, traced_s=traced.busy, unpatched=tracer.missing)
    print(json.dumps({"attempted": attempted, "failed": failed, "metrics": metrics,
                      "env": environment(args, variant), "detail": detail}))


if __name__ == "__main__":
    main()
