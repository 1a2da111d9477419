"""Properties over command sequences: ``simulate``, ``eval`` and ``sample``
run in-process, in any order, over two shared output directories, while a
file target may be replaced by a directory between commands."""

import contextlib
import io
import json
import shutil
import tempfile
from pathlib import Path

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, rule

from test_cli import tree_snapshot
from vosmem.cli import run_command

RUNS = ("a", "b")  # the shared simulate --out directories
FILES = ("trace.jsonl", "report.json", "eval.json")  # file targets inside each
TARGETS = st.sampled_from(FILES + ("gt",))  # where eval and sample write


class CommandSequences(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.root = Path(tempfile.mkdtemp(prefix="vosmem-sequences-"))
        self.runs = {}  # directory -> (frames, table) of its last successful simulate

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
        """Start from a run in each directory, so that ``eval`` has one to score."""
        for run in RUNS:
            self.simulate(run, frames, (1, 0), 0, 3)
            assert run in self.runs

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
