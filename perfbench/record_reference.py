"""Record the reference digests the benchmark checks every operation against.

Usage, from the repository root, at a commit whose outputs are known good:

    python3 perfbench/record_reference.py

Runs every operation of every variant of every workload, in every size
profile, once and writes perfbench/reference.json from scratch. A change
that alters program outputs on purpose records again and says why; any
other change must leave these digests matching.
"""

from __future__ import annotations

import os

for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402


def main() -> None:
    scratch = HERE.parent / ".bench_build" / "perfbench"
    scratch.mkdir(parents=True, exist_ok=True)
    reference: dict = {}
    for profile in workloads.PROFILES:
        for name in workloads.WORKLOADS:
            table = reference.setdefault(profile, {}).setdefault(name, {})
            for variant in range(workloads.VARIANTS):
                with tempfile.TemporaryDirectory(dir=scratch) as workdir:
                    ops = workloads.build(name, variant, profile, workdir)
                    table[str(variant)] = [op.digest(op.run()) for op in ops]
                print(f"{profile} {name} variant {variant}: {len(ops)} operations", flush=True)
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
