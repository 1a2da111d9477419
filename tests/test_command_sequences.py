"""Properties over command sequences: ``simulate``, ``eval``, ``sample`` and
``prune`` run in-process, in any order, over two shared output directories,
while a file target may be replaced by a directory and the features
directory may be refilled or spoilt between commands."""

import contextlib
import io
import json
import shutil
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, rule

from ften import ften_bytes
from test_cli import tree_snapshot
from vosmem.cli import run_command
from vosmem.core import FeatureMap
from vosmem.io import write_tensor
from vosmem.memory import PRUNE_MODES, SIMILARITY_METRICS

RUNS = ("a", "b")  # the shared simulate --out directories
FILES = ("trace.jsonl", "report.json", "eval.json")  # file targets inside each
TARGETS = st.sampled_from(FILES + ("gt",))  # where eval, sample and prune write
FEATURES = "features"  # the prune --features directory, beside the runs


class CommandSequences(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.root = Path(tempfile.mkdtemp(prefix="vosmem-sequences-"))
        self.runs = {}  # directory -> (frames, table) of its last successful simulate
        self.features = None  # tensors in FEATURES, or None while prune must refuse it

    def teardown(self):
        shutil.rmtree(self.root)

    def run(self, argv) -> tuple[int, str]:
        """Run one command and check what every command keeps: exit 0, 1 or
        2; a failure prints nothing to stdout, one ``error:`` line to stderr
        and changes no file; nothing staged is left behind."""
        before = tree_snapshot(self.root)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run_command(argv)
        assert code in (0, 1, 2)
        if code:
            assert out.getvalue() == ""
            errors = [line for line in err.getvalue().splitlines() if "error:" in line]
            assert len(errors) == 1, err.getvalue()
            if code == 1:
                assert err.getvalue() == errors[0] + "\n" and errors[0].startswith("error: ")
            assert tree_snapshot(self.root) == before
        assert not list(self.root.rglob("*.tmp"))
        return code, out.getvalue()

    @initialize(frames=st.integers(2, 6))
    def first_runs(self, frames):
        """Start from a run in each directory, so that ``eval`` has one to score,
        and from features that ``prune`` reads."""
        for run in RUNS:
            self.simulate(run, frames, (1, 0), 0, 3)
            assert run in self.runs
        self.write_features(3, ".ften", "float64")

    @rule(run=st.sampled_from(RUNS), frames=st.integers(0, 6),
          velocity=st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
          seed=st.integers(0, 3), capacity=st.integers(2, 5))
    def simulate(self, run, frames, velocity, seed, capacity):
        code, table = self.run([
            "simulate", "--out", str(self.root / run), "--grid", "16x16", "--size", "4",
            "--feature-res", "4x4", "--noise-sigma", "0.1", "--frames", str(frames),
            "--velocity={},{}".format(*velocity), "--seed", str(seed),
            "--capacity", str(capacity)])
        if code == 0:
            self.runs[run] = (frames, table)

    @rule(dirs=st.sampled_from([(run, run) for run in RUNS] + [RUNS, RUNS[::-1]]),
          out=st.sampled_from(RUNS), name=TARGETS)
    def eval(self, dirs, out, name):
        pred, gt = dirs
        report = self.root / out / name
        writable = not report.is_dir()
        code, table = self.run(["eval", "--pred", str(self.root / pred / "pred"),
                                "--gt", str(self.root / gt / "gt"), "--per-frame",
                                "--out", str(report)])
        if pred == gt and pred in self.runs and writable:
            # a run's pred/ and gt/ score exactly as simulate scored them
            frames, simulated = self.runs[pred]
            assert (code, table) == (0, simulated)
            rows = json.loads(report.read_text())["per_frame"]["1"]
            assert [row["frame_index"] for row in rows] == list(range(frames))

    @rule(out=st.sampled_from(RUNS), name=TARGETS, length=st.sampled_from(["0", "5", "x"]))
    def sample(self, out, name, length):
        self.run(["sample", "--length", length, "--out", str(self.root / out / name)])

    @rule(frames=st.integers(1, 4), suffix=st.sampled_from([".ften", ".bin"]),
          dtype=st.sampled_from(["float32", "float64"]))
    def write_features(self, frames, suffix, dtype):
        """Fill the features directory afresh with float32 or float64 tensors."""
        directory = self.root / FEATURES
        shutil.rmtree(directory, ignore_errors=True)
        directory.mkdir()
        rng = np.random.default_rng(frames)
        for i in range(frames):
            (directory / f"{i:03d}{suffix}").write_bytes(
                ften_bytes(rng.normal(size=(2, 2, 2)), dtype))
        self.features = frames

    @rule(name=st.sampled_from(["frame.ften", "009.bin"]))
    def plant_bad_feature(self, name):
        """Add a file the features reader refuses: a valid tensor under a stem
        without digits, or a tensor cut short after its magic."""
        directory = self.root / FEATURES
        directory.mkdir(exist_ok=True)
        if name == "frame.ften":
            write_tensor(FeatureMap(0, np.zeros((2, 2, 2))), directory / name)
        else:
            (directory / name).write_bytes(b"FTEN\x01")
        self.features = None

    @rule(out=st.sampled_from(RUNS), name=TARGETS, capacity=st.integers(1, 4),
          metric=st.sampled_from(SIMILARITY_METRICS), mode=st.sampled_from(PRUNE_MODES))
    def prune(self, out, name, capacity, metric, mode):
        """``prune --out F`` replaces F whole with what it prints without
        --out and touches nothing else, or fails and leaves F as it was."""
        argv = ["prune", "--features", str(self.root / FEATURES), "--capacity", str(capacity),
                "--metric", metric, "--mode", mode]
        readable = self.features is not None and capacity >= 2
        code, text = self.run(argv)
        assert code == (0 if readable else 1)
        target = self.root / out / name
        writable = not target.is_dir()
        before = tree_snapshot(self.root)
        code, _ = self.run(argv + ["--out", str(target)])
        assert code == (0 if readable and writable else 1)
        if code == 0:
            steps = [json.loads(line)["step"] for line in text.splitlines()]
            assert steps == list(range(self.features))
            before[str(target.relative_to(self.root))] = text.encode()
            assert tree_snapshot(self.root) == before

    @rule(run=st.sampled_from(RUNS), name=st.sampled_from(FILES))
    def plant_directory(self, run, name):
        """Replace a file target by a directory, as another program might."""
        target = self.root / run / name
        if target.is_file():
            target.unlink()
        target.mkdir(parents=True, exist_ok=True)


CommandSequences.TestCase.settings = settings(max_examples=50, stateful_step_count=10,
                                              deadline=None)
TestCommandSequences = CommandSequences.TestCase
