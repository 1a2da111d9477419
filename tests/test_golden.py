"""Golden outputs: a fixed grid of CLI runs must reproduce recorded hashes.

Every ``simulate`` metric and mode (with noise and a gap) at capacities
2, 3 and 7, a ``--no-prune`` run, a run with every default (no noise),
``eval --per-frame`` on two ``simulate`` runs, ``prune`` over float32 and
float64 tensors, and ``sample`` with ``--phase-policy all``, with every
default and with unsorted strides under ``--max-frames`` go through
:func:`vosmem.cli.run_command`, and the demo scripts in ``scripts/`` run as
CI runs them. Mask bytes, integers and stdout (which holds every ``prune``
score) are hashed exactly, and scores are the same bits on every CPU. JSON
floats are rounded to 12 significant digits first, so the JSON files pin
every decision (a prune victim, a readout pick, a mask pixel) and each float
to 12 digits.

Re-record only when an output is meant to change, and say why in
CHANGES.md::

    PYTHONPATH=src python tests/test_golden.py --record
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

import vosmem
from ften import ften_bytes
from vosmem.cli import run_command
from vosmem.memory import PRUNE_MODES, SIMILARITY_METRICS

GOLDEN_PATH = Path(__file__).with_name("golden.json")
SCRIPTS_DIR = Path(__file__).resolve().parent.parent / "scripts"
SCRIPTS = ("metric_shootout", "pruning_cost", "stride_views")

PER_FRAME_EVAL = ("simulate-spearman-select-3", "simulate-disk")

SCENE = ["--velocity", "1,1", "--frames", "16", "--gaps", "5:6",
         "--noise-sigma", "0.2", "--seed", "3"]


def _cases() -> dict[str, list[str]]:
    cases = {}
    for metric in SIMILARITY_METRICS:
        for mode in PRUNE_MODES:
            for capacity in (2, 3, 7):
                cases[f"simulate-{metric}-{mode}-{capacity}"] = [
                    "simulate", *SCENE, "--metric", metric, "--mode", mode,
                    "--capacity", str(capacity), "--out", "{out}"]
    cases["simulate-no-prune"] = ["simulate", *SCENE, "--capacity", "3",
                                  "--no-prune", "--out", "{out}"]
    # every default, so the encoder runs without noise
    cases["simulate-default"] = ["simulate", "--out", "{out}"]
    cases["simulate-disk"] = ["simulate", "--shape", "disk", "--size", "5",
                              "--start", "2,4", "--velocity", "2,1", "--frames", "12",
                              "--gaps", "3:4,9", "--grid", "48x40", "--feature-res", "6x5",
                              "--noise-sigma", "0.05", "--seed", "11", "--radius", "3",
                              "--out", "{out}"]
    for metric in SIMILARITY_METRICS:
        for dtype in ("float32", "float64"):
            cases[f"prune-{metric}-{dtype}"] = [
                "prune", "--features", "{features_" + dtype + "}", "--metric", metric,
                "--capacity", "5"]
    cases["prune-select-float32"] = ["prune", "--features", "{features_float32}",
                                     "--mode", "select", "--metric", "spearman"]
    cases["sample-all"] = ["sample", "--length", "23", "--strides", "1,3,4",
                           "--phase-policy", "all", "--max-frames", "5"]
    cases["sample-long"] = ["sample", "--length", "149", "--strides", "2,5",
                            "--phase-policy", "all"]
    cases["sample-default"] = ["sample", "--length", "10"]
    cases["sample-short"] = ["sample", "--length", "7", "--strides", "3,1",
                             "--max-frames", "2"]
    return cases


def _write_features(directory: Path, dtype: str) -> None:
    """Twelve 3x4x4 tensors with near-duplicates so every metric prunes."""
    rng = np.random.default_rng(20)
    base = rng.normal(size=(12, 3, 4, 4))
    base[4] = base[3] + 1e-3 * rng.normal(size=(3, 4, 4))
    base[9] = base[8] * 1.01
    for i, data in enumerate(base):
        (directory / f"{i:03d}.ften").write_bytes(ften_bytes(data, dtype))


def _round(value):
    if isinstance(value, float):
        return float(f"{value:.12g}")
    if isinstance(value, list):
        return [_round(v) for v in value]
    if isinstance(value, dict):
        return {k: _round(v) for k, v in value.items()}
    return value


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _digest(path: Path) -> str:
    data = path.read_bytes()
    if path.suffix in (".json", ".jsonl"):
        lines = data.decode().splitlines() if path.suffix == ".jsonl" else [data.decode()]
        data = "\n".join(json.dumps(_round(json.loads(line))) for line in lines).encode()
    return _sha(data)


def _run(name: str, argv: list[str], root: Path, features: dict[str, Path]) -> dict:
    out = root / "out"
    fields = {"out": str(out), **{f"features_{k}": str(v) for k, v in features.items()}}
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = run_command([a.format(**fields) for a in argv])
    result = {"exit": code, "stdout": _sha(stdout.getvalue().encode())}
    if out.is_dir():
        result["files"] = {p.relative_to(out).as_posix(): _digest(p)
                           for p in sorted(out.rglob("*")) if p.is_file()}
        if name in PER_FRAME_EVAL:
            report = root / "report.json"
            with contextlib.redirect_stdout(io.StringIO()):
                run_command(["eval", "--pred", str(out / "pred"), "--gt", str(out / "gt"),
                             "--per-frame", "--out", str(report)])
            result["eval_per_frame"] = _digest(report)
            report.unlink()
    return result


def _run_script(name: str) -> dict:
    """Run one demo script in a fresh interpreter on the package under test."""
    src = str(Path(vosmem.__file__).resolve().parent.parent)
    proc = subprocess.run([sys.executable, str(SCRIPTS_DIR / f"{name}.py")],
                          capture_output=True, env={**os.environ, "PYTHONPATH": src},
                          timeout=300)
    return {"exit": proc.returncode, "stdout": _sha(proc.stdout)}


def compute_all() -> dict[str, dict]:
    results = {f"script-{name}": _run_script(name) for name in SCRIPTS}
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        features = {}
        for dtype in ("float32", "float64"):
            features[dtype] = root / f"features_{dtype}"
            features[dtype].mkdir()
            _write_features(features[dtype], dtype)
        for name, argv in _cases().items():
            case_root = root / name
            case_root.mkdir()
            results[name] = _run(name, argv, case_root, features)
    return results


@pytest.fixture(scope="module")
def computed():
    return compute_all()


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


def _names() -> list[str]:
    return sorted([*_cases(), *(f"script-{name}" for name in SCRIPTS)])


def test_golden_covers_every_case(golden):
    assert sorted(golden) == _names()


@pytest.mark.parametrize("name", _names())
def test_output_matches_golden(name, computed, golden):
    assert computed[name] == golden[name]


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --record")
    GOLDEN_PATH.write_text(json.dumps(compute_all(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
