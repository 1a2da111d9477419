"""vosmem benchmark: one workload, one run, one JSON result on the last line.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The program is taken from ``src/`` of the current checkout; nothing needs to
be installed or built. Every measurement happens in fresh child processes
with BLAS/OpenMP pinned to one thread:

* ``--trace 0`` runs the workload untraced in one fresh interpreter
  (``frames_per_s``, ``peak_rss_mb``) and times ``import vosmem.cli`` in
  several others, half before the workload and half after it (``setup_s``,
  the median), so the samples are spread over the whole run. Each import
  sample then times calibrate.py's reference kernel in the same
  interpreter and is rescaled to reference time, as the workload is;
* ``--trace 1`` takes the import breakdown from ``python -X importtime``
  and runs the workload traced for the per-layer metrics.

Workloads, metrics and the layer map are described in perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = {"full": 6, "smoke": 1}
TIME_LIMIT_S = 170.0
# pinned to one CPU, like the workload; the import is timed first, cold;
# the kernel's first pass pays one-off set-up, and the median of the next
# three is the speed of the CPU the import ran on
SETUP_CODE = ("import os; os.sched_setaffinity(0, {{min(os.sched_getaffinity(0))}}); "
              "import time; t = time.perf_counter(); import vosmem.cli; "
              "s = time.perf_counter() - t; import statistics, sys; sys.path.insert(0, {here!r}); "
              "import calibrate as c; c.kernel_seconds(); "
              "print(s, c.reference_seconds(s, statistics.median(c.kernel_seconds() for _ in range(3))))")
PINNED = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                                 "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.update(PINNED)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(argv, deadline, capture_stderr=False) -> subprocess.CompletedProcess:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("time limit reached before a child process could start")
    try:
        done = subprocess.run(argv, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE if capture_stderr else None,
                              text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError(f"child process exceeded the time limit: {argv[1:3]}") from None
    if done.returncode != 0:
        if capture_stderr:
            sys.stderr.write(done.stderr)
        raise BenchError(f"child process exited with {done.returncode}: {argv[1:3]}")
    return done


def setup_seconds(samples, deadline) -> list[tuple[float, float]]:
    """(wall, reference) seconds of cold imports, one fresh interpreter each."""
    code = SETUP_CODE.format(here=str(HERE))
    runs = [run_child([sys.executable, "-c", code], deadline) for _ in range(samples)]
    return [tuple(map(float, done.stdout.split())) for done in runs]


def import_breakdown(deadline) -> dict[str, float]:
    """Cumulative import seconds per module, from ``python -X importtime``."""
    done = run_child([sys.executable, "-X", "importtime", "-c", "import vosmem.cli"], deadline,
                     capture_stderr=True)
    cumulative = {}
    for line in done.stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line.split("|")
        if len(parts) == 3 and parts[1].strip().isdigit():
            cumulative[parts[2].strip()] = int(parts[1]) / 1e6
    return cumulative


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        help="a workload of BENCHMARK.json, or eval-davis (see README.md)")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--profile", choices=sorted(SETUP_SAMPLES), default="full",
                        help="input sizes; 'smoke' is the tiny profile of the smoke test")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    deadline = time.monotonic() + TIME_LIMIT_S

    if not (ROOT / "src" / "vosmem" / "__init__.py").is_file():
        print(f"error: no vosmem sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    scratch = ROOT / ".bench_build" / "perfbench"
    scratch.mkdir(parents=True, exist_ok=True)
    workdir = scratch / f"run-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        metrics = {}
        if args.trace == 0:
            # the machine's speed drifts over tens of seconds; samples from
            # both ends of the run give a median nearer the run's typical
            # speed than samples taken back to back
            samples = setup_seconds(SETUP_SAMPLES[args.profile] // 2, deadline)
            wanted = spec["end_to_end"]
        else:
            imports = import_breakdown(deadline)
            for m in spec["per_layer"]:
                if m["name"].startswith("import."):
                    module = m["name"].removeprefix("import.").removesuffix(".s")
                    metrics[m["name"]] = imports.get(module, 0.0)
            wanted = spec["per_layer"]
        done = run_child([sys.executable, str(HERE / "child.py"),
                          "--workload", args.workload, "--seed", str(args.seed),
                          "--seconds", str(args.seconds), "--trace", str(args.trace),
                          "--profile", args.profile, "--workdir", str(workdir)], deadline)
        child = json.loads(done.stdout.splitlines()[-1])
        if args.trace == 0:
            samples += setup_seconds(SETUP_SAMPLES[args.profile] - len(samples), deadline)
            metrics["setup_s"] = statistics.median(ref for _, ref in samples)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics.update(child["metrics"])
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1
    detail = dict(child["detail"])
    if args.trace == 0:
        detail["setup_wall_s"] = [wall for wall, _ in samples]
        detail["setup_reference_s"] = [ref for _, ref in samples]
    print(json.dumps({"env": child["env"], "detail": detail}))
    print(json.dumps({
        "correct": child["failed"] == 0,
        "attempted": child["attempted"],
        "failed": child["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
