"""Command-line interface: wiring, exit codes, reproducible outputs."""

import contextlib
import errno
import io
import json
import os
import re
import resource
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vosmem
from ften import ften_bytes
from vosmem.cli import _parser, run_command
from vosmem.core import FeatureMap, FrameSequence, LabelMask
from vosmem.harness import SceneConfig, ToyEncoderConfig, generate_scene
from vosmem.io import write_outputs, write_tensor
from vosmem.memory import DEFAULT_CAPACITY, DEFAULT_METRIC, DEFAULT_MODE
from vosmem.metrics import DEFAULT_BOUNDARY_RADIUS
from vosmem.sampling import DEFAULT_PHASE_POLICY, DEFAULT_STRIDES


def test_flag_defaults_match_library_defaults():
    parser = _parser()
    sample = parser.parse_args(["sample", "--length", "5"])
    assert (sample.strides, sample.phase_policy) == (DEFAULT_STRIDES, DEFAULT_PHASE_POLICY)
    assert parser.parse_args(["eval", "--pred", "p", "--gt", "g"]).radius == DEFAULT_BOUNDARY_RADIUS
    sim = parser.parse_args(["simulate", "--out", "o"])
    scene = SceneConfig(grid=sim.grid, shape=sim.shape, size=sim.size, velocity=sim.velocity,
                        n_frames=sim.frames, gaps=sim.gaps, seed=sim.seed, start=sim.start)
    assert scene == SceneConfig()
    encoder = ToyEncoderConfig(feature_resolution=sim.feature_res, noise_sigma=sim.noise_sigma)
    assert encoder == ToyEncoderConfig()
    assert sim.radius == DEFAULT_BOUNDARY_RADIUS
    for args in (sim, parser.parse_args(["prune", "--features", "f"])):
        assert (args.capacity, args.metric, args.mode) == (
            DEFAULT_CAPACITY, DEFAULT_METRIC, DEFAULT_MODE)


def test_run_command_builds_its_parser_once(capsys):
    assert run_command(["sample", "--length", "3"]) == 0
    first = capsys.readouterr().out
    assert _parser() is _parser()
    # the cached parser is left as it was by the run before
    assert run_command(["sample", "--length", "3"]) == 0
    assert capsys.readouterr().out == first


class TestSampleCommand:
    def test_stdout_json(self, capsys):
        assert run_command(["sample", "--length", "149"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert list(payload) == ["schema_version", "clip_length", "views"]
        assert payload["schema_version"] == 1
        assert payload["clip_length"] == 149
        views = payload["views"]
        assert all(list(v) == ["stride", "phase", "indices"] for v in views)
        assert [(v["stride"], v["phase"], len(v["indices"])) for v in views] == [
            (1, 0, 149), (2, 0, 75)]
        assert views[1]["indices"][:3] == [0, 2, 4]

    def test_out_file_and_flags(self, tmp_path, capsys):
        out = tmp_path / "plan.json"
        code = run_command(["sample", "--length", "10", "--strides", "3",
                            "--phase-policy", "all", "--max-frames", "2",
                            "--out", str(out)])
        assert code == 0
        assert capsys.readouterr().out == ""
        payload = json.loads(out.read_text())
        assert [(v["phase"], v["indices"]) for v in payload["views"]] == [
            (0, [0, 3]), (1, [1, 4]), (2, [2, 5])]

    @pytest.mark.parametrize("length", ["9999999999", "99999999999999999999"])
    def test_huge_length_with_max_frames_lists_only_those_frames(self, capsys, length):
        assert run_command(["sample", "--length", length, "--strides", "1,2",
                            "--max-frames", "2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [v["indices"] for v in payload["views"]] == [[0, 1], [0, 2]]

    def test_repeated_runs_are_byte_identical(self, tmp_path):
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        run_command(["sample", "--length", "50", "--out", str(first)])
        run_command(["sample", "--length", "50", "--out", str(second)])
        assert first.read_bytes() == second.read_bytes()


def write_duplicate_features(directory):
    """Seven tensors, frames 10..16, where 15 duplicates 16 and 11 duplicates 10."""
    rng = np.random.default_rng(5)
    ramp = np.linspace(1.0, 2.0, 8)
    newest = rng.normal(size=8) + ramp
    oldest = rng.normal(size=8) - ramp
    rows = {i: 0.01 * rng.normal(size=8) for i in range(10, 17)}
    rows[16] = newest
    rows[15] = newest.copy()
    rows[10] = oldest
    rows[11] = oldest.copy()
    for idx, values in rows.items():
        write_tensor(FeatureMap(idx, np.reshape(values, (2, 2, 2))), directory / f"{idx:03d}.ften")


class TestPruneCommand:
    def test_replay_prunes_duplicates(self, tmp_path, capsys):
        write_duplicate_features(tmp_path)
        assert run_command(["prune", "--features", str(tmp_path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 7
        records = [json.loads(line) for line in lines]
        assert [r["step"] for r in records] == list(range(7))
        assert all(r["pruned"] == [] for r in records[:6])
        last = records[6]
        assert last["bank_before"] == list(range(10, 17))
        assert last["pruned"] == [11, 15]
        assert last["retained"] == [10, 12, 13, 14, 16]
        assert last["mode"] == "persistent"
        assert last["metric"] == "cosine"
        assert set(last["scores"]) == {"short", "long"}

    def test_select_mode_keeps_bank(self, tmp_path, capsys):
        write_duplicate_features(tmp_path)
        run_command(["prune", "--features", str(tmp_path), "--mode", "select"])
        last = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert last["pruned"] == [11, 15]
        assert last["mode"] == "select"

    def test_repeated_runs_are_byte_identical(self, tmp_path):
        src = tmp_path / "features"
        src.mkdir()
        write_duplicate_features(src)
        first, second = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        run_command(["prune", "--features", str(src), "--out", str(first)])
        run_command(["prune", "--features", str(src), "--out", str(second)])
        assert first.read_bytes() == second.read_bytes()


class TestEvalCommand:
    def _dirs(self, tmp_path):
        scene = generate_scene(SceneConfig(n_frames=5, velocity=(1, 1)))
        gt, pred = tmp_path / "gt", tmp_path / "pred"
        write_outputs({gt: scene, pred: scene})
        return pred, gt

    def test_perfect_agreement_prints_table(self, tmp_path, capsys):
        pred, gt = self._dirs(tmp_path)
        assert run_command(["eval", "--pred", str(pred), "--gt", str(gt)]) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert lines[0].split() == ["object", "J&F[%]", "J[%]", "F[%]",
                                    "Dice[%]", "CIoU[%]"]
        assert lines[1].split() == ["1"] + ["100.00"] * 5
        assert lines[2].split() == ["mean"] + ["100.00±0.00"] * 5

    def test_json_report(self, tmp_path, capsys):
        pred, gt = self._dirs(tmp_path)
        out = tmp_path / "report.json"
        run_command(["eval", "--pred", str(pred), "--gt", str(gt),
                     "--metrics", "J,Dice", "--out", str(out)])
        capsys.readouterr()
        payload = json.loads(out.read_text())
        assert payload["schema_version"] == 1
        assert payload["radius"] == 14
        assert payload["per_object"] == {"1": {"J": 1.0, "Dice": 1.0}}
        assert payload["aggregate"] == {"J": {"mean": 1.0, "sd": 0.0},
                                        "Dice": {"mean": 1.0, "sd": 0.0}}
        assert "per_frame" not in payload

    def test_per_frame_report(self, tmp_path, capsys):
        pred, gt = self._dirs(tmp_path)
        out = tmp_path / "report.json"
        run_command(["eval", "--pred", str(pred), "--gt", str(gt),
                     "--metrics", "J", "--per-frame", "--out", str(out)])
        capsys.readouterr()
        payload = json.loads(out.read_text())
        rows = payload["per_frame"]["1"]
        assert [row["frame_index"] for row in rows] == [0, 1, 2, 3, 4]
        assert all(row["J"] == 1.0 for row in rows)

    def test_radius_beyond_image_matches_radius_h_plus_w(self, tmp_path, capsys):
        run = tmp_path / "run"
        assert run_command(["simulate", "--out", str(run), "--velocity", "1,1",
                            "--frames", "12", "--gaps", "4:5", "--noise-sigma", "0.3"]) == 0
        capsys.readouterr()
        reports = []
        for radius in ("64", "1000000"):  # 64 = h + w of the 32x32 grid
            out = tmp_path / f"r{radius}.json"
            assert run_command(["eval", "--pred", str(run / "pred"), "--gt", str(run / "gt"),
                                "--radius", radius, "--per-frame", "--out", str(out)]) == 0
            report = json.loads(out.read_text())
            assert report.pop("radius") == int(radius)
            reports.append((capsys.readouterr(), report))
        assert reports[0] == reports[1]


class TestSimulateCommand:
    ARGS = ["simulate", "--velocity", "1,0", "--frames", "10",
            "--noise-sigma", "0.1", "--seed", "3"]

    def test_writes_full_tree(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert run_command(self.ARGS + ["--out", str(out)]) == 0
        table = capsys.readouterr().out
        assert table.splitlines()[0].startswith("object")
        assert sorted(p.name for p in out.iterdir()) == [
            "gt", "pred", "report.json", "trace.jsonl"]
        assert len(list((out / "gt").glob("*.pgm"))) == 10
        assert len(list((out / "pred").glob("*.pgm"))) == 10
        assert len((out / "trace.jsonl").read_text().splitlines()) == 9
        report = json.loads((out / "report.json").read_text())
        assert report["schema_version"] == 1
        assert set(report["per_object"]["1"]) == {"J&F", "J", "F", "Dice", "CIoU"}

    def test_readme_table_is_what_its_command_prints(self, tmp_path, monkeypatch, capsys):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        command = re.search(r"^vosmem (simulate [^#\n]*)", readme, re.M).group(1).split()
        block = re.search(r"^```\n(object .*?)^```$", readme, re.M | re.S).group(1)
        monkeypatch.chdir(tmp_path)
        assert run_command(command) == 0
        assert capsys.readouterr().out == block

    def test_repeated_runs_are_byte_identical(self, tmp_path, capsys):
        first, second = tmp_path / "a", tmp_path / "b"
        run_command(self.ARGS + ["--out", str(first)])
        run_command(self.ARGS + ["--out", str(second)])
        capsys.readouterr()
        for name in ("trace.jsonl", "report.json", "pred/005.pgm"):
            assert (first / name).read_bytes() == (second / name).read_bytes()

    def test_no_prune_flag_disables_pruning(self, tmp_path, capsys):
        out = tmp_path / "run"
        run_command(self.ARGS + ["--out", str(out), "--no-prune"])
        capsys.readouterr()
        records = [json.loads(line)
                   for line in (out / "trace.jsonl").read_text().splitlines()]
        assert all(r["pruned"] == [] for r in records)
        # capacity 7 FIFO: after step 9 the bank holds the 7 newest frames
        assert records[-1]["bank_after"] == [3, 4, 5, 6, 7, 8, 9]

    def test_rerun_with_fewer_frames_leaves_only_its_own(self, tmp_path, capsys):
        out = tmp_path / "run"
        for frames in ("30", "10"):
            assert run_command(["simulate", "--out", str(out), "--frames", frames]) == 0
        report = tmp_path / "eval.json"
        assert run_command(["eval", "--pred", str(out / "pred"), "--gt", str(out / "gt"),
                            "--per-frame", "--out", str(report)]) == 0
        capsys.readouterr()
        frames = [f"{i:03d}.pgm" for i in range(10)]
        assert sorted(p.name for p in (out / "gt").iterdir()) == frames
        assert sorted(p.name for p in (out / "pred").iterdir()) == frames
        rows = json.loads(report.read_text())["per_frame"]["1"]
        assert [row["frame_index"] for row in rows] == list(range(10))

    @pytest.mark.parametrize("foreign", ["file", "subdirectory", "symlink"])
    def test_pred_holding_other_entries_is_refused_and_nothing_replaced(
            self, tmp_path, capsys, foreign):
        out = tmp_path / "run"
        assert run_command(self.ARGS + ["--out", str(out)]) == 0
        pred = out / "pred"
        if foreign == "file":
            (pred / "notes.txt").write_text("keep me\n")
            reason = "it holds 'notes.txt', which is not a NNN.pgm frame file"
        elif foreign == "subdirectory":
            (pred / "masks").mkdir()
            (pred / "masks" / "000.pgm").write_bytes(b"mine")
            reason = "it holds 'masks', which is not a NNN.pgm frame file"
        else:
            pred.rename(tmp_path / "elsewhere")
            pred.symlink_to(tmp_path / "elsewhere", target_is_directory=True)
            reason = "it is a symlink"
        before = tree_snapshot(tmp_path)
        capsys.readouterr()
        assert run_command(["simulate", "--out", str(out), "--frames", "4"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: refusing to replace {pred}: {reason}"]
        assert tree_snapshot(tmp_path) == before

    def test_failed_pred_write_leaves_the_whole_first_run(self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "run"
        assert run_command(self.ARGS + ["--out", str(out)]) == 0
        before = tree_snapshot(tmp_path)
        capsys.readouterr()
        staged, mask_bytes = [], vosmem.io._mask_bytes

        def second_pred_frame_fails(mask):
            # gt/ is staged first: with 6 frames, call 8 is pred/'s frame 1
            staged.append(mask.frame_index)
            if len(staged) == 8:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            return mask_bytes(mask)

        monkeypatch.setattr(vosmem.io, "_mask_bytes", second_pred_frame_fails)
        assert run_command(["simulate", "--out", str(out), "--frames", "6",
                            "--velocity", "0,1"]) == 1
        assert staged == [0, 1, 2, 3, 4, 5, 0, 1]
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}"]
        assert tree_snapshot(tmp_path) == before
        assert not list(tmp_path.rglob("*.tmp"))

    @pytest.mark.parametrize("name", ["trace.jsonl", "report.json"])
    def test_file_output_made_a_directory_is_refused_and_nothing_replaced(
            self, tmp_path, capsys, name):
        out = tmp_path / "run"
        assert run_command(["simulate", "--out", str(out), "--frames", "30"]) == 0
        taken = out / name
        taken.unlink()
        taken.mkdir()
        before = tree_snapshot(tmp_path)
        capsys.readouterr()
        assert run_command(["simulate", "--out", str(out), "--frames", "10"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"error: [Errno {errno.EISDIR}] {os.strerror(errno.EISDIR)}: '{taken}'"]
        assert tree_snapshot(tmp_path) == before

    def test_output_files_get_a_plain_files_mode(self, tmp_path, capsys):
        out, report = tmp_path / "run", tmp_path / "eval.json"
        assert run_command(self.ARGS + ["--out", str(out)]) == 0
        assert run_command(["eval", "--pred", str(out / "pred"), "--gt", str(out / "gt"),
                            "--out", str(report)]) == 0
        capsys.readouterr()
        for path in (out / "report.json", out / "trace.jsonl", report):
            with open(path.parent / "plain", "wb"):
                pass
            assert stat.S_IMODE(path.stat().st_mode) == \
                stat.S_IMODE((path.parent / "plain").stat().st_mode), path


def tree_snapshot(root) -> dict:
    """Every entry under ``root``, symlinks not followed: a file's bytes, a
    symlink's target, or None for a directory."""
    snapshot = {}
    for path in sorted(Path(root).rglob("*")):
        key = str(path.relative_to(root))
        if path.is_symlink():
            snapshot[key] = ("link", os.readlink(path))
        else:
            snapshot[key] = None if path.is_dir() else path.read_bytes()
    return snapshot


def run_cli_process(*args, preexec_fn=None):
    """Run ``python -m vosmem.cli`` or ``python -c`` in a fresh interpreter."""
    src = str(Path(vosmem.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env, timeout=120, preexec_fn=preexec_fn)


def _limit_address_space():
    limit = 600 * 2**20
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


class TestErrorHandling:
    @pytest.mark.parametrize("capacity", ["3", "7"])
    def test_overflowing_scores_exit_1_with_one_error_line(self, tmp_path, capacity):
        # finite features near +-1e308 whose euclidean distances overflow
        for i in range(8):
            write_tensor(FeatureMap(i, np.reshape([(-1.0) ** i * 1e308, 1.0], (1, 1, 2))),
                         tmp_path / f"{i:03d}.ften")
        proc = run_cli_process("-m", "vosmem.cli", "prune", "--features", str(tmp_path),
                               "--metric", "euclidean", "--capacity", capacity)
        assert proc.returncode == 1
        lines = proc.stderr.splitlines()
        assert len(lines) == 1, proc.stderr
        assert lines[0].startswith("error: euclidean score -inf for frame ")

    @pytest.mark.parametrize("blob", [ften_bytes(np.zeros((0, 2, 2)), "float64"),
                                      ften_bytes(np.array([[[np.nan]]]), "float64"),
                                      b"JUNK" + bytes(8)],
                             ids=["zero-dimension", "nan", "junk"])
    def test_invalid_tensor_exits_1_naming_the_file(self, tmp_path, capsys, blob):
        (tmp_path / "003.ften").write_bytes(blob)
        assert run_command(["prune", "--features", str(tmp_path)]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: {tmp_path / '003.ften'}: ")
        assert lines[0].count("003.ften") == 1

    def test_import_does_not_load_scipy_stats(self):
        proc = run_cli_process("-c", "import sys, vosmem.cli; print('scipy.stats' in sys.modules)")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_unknown_subcommand_exits_2(self, capsys):
        assert run_command(["polish"]) == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_unknown_flag_exits_2(self, capsys):
        assert run_command(["sample", "--length", "5", "--bogus"]) == 2
        capsys.readouterr()

    def test_missing_required_flag_exits_2(self, capsys):
        assert run_command(["sample"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("argv, message", [
        (["sample", "--length", "5", "--strides", "1,x"],
         "argument --strides: expected comma-separated integers, got '1,x'"),
        (["simulate", "--out", "o", "--velocity", "1"],
         "argument --velocity: expected two integers 'a,b', got '1'"),
        (["simulate", "--out", "o", "--grid", "3"],
         "argument --grid: expected dimensions 'HxW', got '3'"),
        (["simulate", "--out", "o", "--grid", "3xa"],
         "argument --grid: expected dimensions 'HxW', got '3xa'"),
        (["simulate", "--out", "o", "--gaps", "a:b"],
         "argument --gaps: expected gaps as 'lo:hi,lo:hi,...', got 'a:b'"),
    ], ids=["strides", "velocity", "grid parts", "grid integers", "gaps"])
    def test_malformed_flag_value_exits_2_with_one_error_line(self, capsys, argv, message):
        assert run_command(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1] == f"vosmem {argv[0]}: error: {message}"
        assert "Traceback" not in captured.err

    def test_empty_gaps_flag_means_no_gaps(self):
        assert _parser().parse_args(["simulate", "--out", "o", "--gaps", ""]).gaps == ()

    def test_domain_error_exits_1_with_message(self, tmp_path, capsys):
        missing = tmp_path / "nowhere"
        assert run_command(["eval", "--pred", str(missing), "--gt", str(missing)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")

    def test_negative_radius_eval_exits_1(self, tmp_path, capsys):
        # an empty prediction scores F = 0 without dilating any boundary, so
        # only an up-front check catches the radius
        scene = generate_scene(SceneConfig(n_frames=3))
        blank = [LabelMask(f.frame_index, np.zeros_like(f.labels)) for f in scene]
        write_outputs({tmp_path / "gt": scene, tmp_path / "pred": FrameSequence(blank)})
        out = tmp_path / "report.json"
        assert run_command(["eval", "--pred", str(tmp_path / "pred"), "--gt",
                            str(tmp_path / "gt"), "--radius", "-5", "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["error: radius must be >= 0, got -5"]
        assert not out.exists()

    def test_eval_out_onto_a_directory_prints_nothing_and_names_it(self, tmp_path, capsys):
        gt = tmp_path / "gt"
        write_outputs({gt: generate_scene(SceneConfig(n_frames=3))})
        taken = tmp_path / "taken"
        taken.mkdir()
        argv = ["eval", "--pred", str(gt), "--gt", str(gt), "--out", str(taken)]
        errors = []
        for _ in range(2):
            assert run_command(argv) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            errors.append(captured.err)
        message = f"error: [Errno {errno.EISDIR}] {os.strerror(errno.EISDIR)}: '{taken}'\n"
        assert errors == [message, message]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["gt", "taken"]

    def test_negative_radius_simulate_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert run_command(["simulate", "--out", str(out), "--radius", "-2"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["error: radius must be >= 0, got -2"]
        assert not out.exists()

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_64_bits_simulate_writes_nothing(self, tmp_path, capsys, seed):
        out = tmp_path / "run"
        assert run_command(["simulate", "--out", str(out), "--seed", str(seed),
                            "--noise-sigma", "0.1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: seed must be in 0..2**64-1, got {seed}"]
        assert not out.exists()

    def test_view_too_long_to_list_exits_1_with_one_error_line(self, capsys):
        assert run_command(["sample", "--length", "99999999999999999999",
                            "--strides", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: a view of clip length 99999999999999999999 has too many frames to list"]

    def test_out_of_memory_exits_1_with_one_error_line(self):
        # phase policy "all" builds one view per phase: 10**8 views here
        proc = run_cli_process("-m", "vosmem.cli", "sample", "--length", "100000000",
                               "--strides", "100000000", "--phase-policy", "all",
                               "--max-frames", "1", preexec_fn=_limit_address_space)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.splitlines() == ["error: out of memory"]

    def test_infinite_noise_sigma_simulate_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert run_command(["simulate", "--out", str(out), "--noise-sigma", "inf"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["error: noise_sigma must be finite and >= 0, got inf"]
        assert not out.exists()

    def test_empty_feature_dir_exits_1(self, tmp_path, capsys):
        assert run_command(["prune", "--features", str(tmp_path)]) == 1
        assert "no tensor files" in capsys.readouterr().err

    def test_bad_capacity_exits_1(self, tmp_path, capsys):
        write_duplicate_features(tmp_path)
        assert run_command(["prune", "--features", str(tmp_path),
                            "--capacity", "1"]) == 1
        assert "capacity" in capsys.readouterr().err


class TestNumpyOnly:
    def test_simulate_and_eval_without_scipy_match_a_normal_run(self, tmp_path, capsys):
        blocked = "import sys; sys.modules['scipy'] = None; from vosmem.cli import main; main()"
        outputs = {}
        for side in ("normal", "no-scipy"):
            root = tmp_path / side
            commands = [
                ["simulate", "--out", str(root / "run"), "--velocity", "1,1", "--frames", "12",
                 "--noise-sigma", "0.3", "--gaps", "4:5", "--metric", "spearman"],
                ["eval", "--pred", str(root / "run" / "pred"), "--gt", str(root / "run" / "gt"),
                 "--radius", "3", "--per-frame", "--out", str(root / "eval.json")],
            ]
            stdout = []
            for argv in commands:
                if side == "normal":
                    assert run_command(argv) == 0
                    stdout.append(capsys.readouterr().out)
                else:
                    proc = run_cli_process("-c", blocked, *argv)
                    assert proc.returncode == 0, proc.stderr
                    stdout.append(proc.stdout)
            files = {p.relative_to(root).as_posix(): p.read_bytes()
                     for p in sorted(root.rglob("*")) if p.is_file()}
            outputs[side] = (stdout, files)
        assert len(outputs["normal"][1]) == 12 + 12 + 3
        assert outputs["no-scipy"] == outputs["normal"]


# ---------------------------------------------------------------------------
# argv fuzzing: exit status 0, 1 or 2 and never a traceback

_small = st.integers(-2, 6).map(str)


def _pair(lo, hi):
    return st.tuples(st.integers(lo, hi), st.integers(lo, hi)).map(lambda t: f"{t[0]},{t[1]}")


def _dims(lo, hi):
    return st.tuples(st.integers(lo, hi), st.integers(lo, hi)).map(lambda t: f"{t[0]}x{t[1]}")


_garbage = st.sampled_from(["", "x", "1,", ",", "-", "1e3", "nan", "2:1", "0x0"])
_REQUIRED = {"sample": ("--length",), "prune": ("--features",), "eval": ("--pred", "--gt"),
             "simulate": ("--out",)}
_PATH_FLAGS = {"--out", "--features", "--pred", "--gt"}  # kept inside the fixture's directory
_radius = st.one_of(st.integers(-2, 20), st.integers(10**5, 10**7)).map(str)


def _mostly(valid, *others):
    """``valid`` three times in four, else one of ``others``."""
    return st.integers(0, 3).flatmap(lambda i: st.just(valid) if i else st.sampled_from(others))


def _flag_values(paths):
    """Per subcommand, each flag with values drawn from small bounded ranges."""
    return {
        "sample": {
            # a view past 2**63 frames cannot be listed; no length between 10**8
            # and 2**63 is drawn, since without --max-frames it would be listed
            "--length": st.one_of(_small, st.just("99999999999999999999")),
            "--strides": st.sampled_from(["1", "1,2", "0", "3,3", "-1"]),
            "--phase-policy": st.sampled_from(["single", "all", "both"]),
            "--max-frames": _small, "--out": st.just(paths["out_file"]),
        },
        "prune": {
            "--features": _mostly(paths["features"], paths["empty"], paths["missing"],
                                  paths["gt"]),
            "--capacity": _small, "--metric": st.sampled_from(["cosine", "spearman", "l2"]),
            "--mode": st.sampled_from(["select", "persistent", "both"]),
            "--out": st.just(paths["out_file"]),
        },
        "eval": {
            "--pred": _mostly(paths["pred"], paths["gt"], paths["empty"], paths["missing"],
                              paths["small"]),
            "--gt": _mostly(paths["gt"], paths["pred"], paths["features"]),
            "--radius": _radius,
            "--metrics": st.sampled_from(["J", "F,Dice", "J&F", "CIoU,J", "K", ","]),
            "--out": st.just(paths["out_file"]), "--per-frame": st.just(None),
        },
        "simulate": {
            "--out": st.just(paths["run"]), "--grid": _dims(0, 12),
            "--shape": st.sampled_from(["square", "disk", "star"]), "--size": _small,
            "--start": _pair(-1, 6), "--velocity": _pair(-2, 2), "--frames": _small,
            "--gaps": st.sampled_from(["", "1:2", "3", "2:1", "-1:0", "0:9"]),
            "--feature-res": _dims(0, 6), "--noise-sigma": st.sampled_from(["0", "0.5", "-1", "inf"]),
            "--seed": st.one_of(_small, st.sampled_from(
                ["-1", "18446744073709551615", "18446744073709551616"])),
            "--capacity": _small,
            "--metric": st.sampled_from(["dot", "pearson", "manhattan"]),
            "--mode": st.sampled_from(["select", "persistent"]),
            "--no-prune": st.just(None), "--radius": _radius,
        },
    }


@st.composite
def argvs(draw, paths):
    table = _flag_values(paths)
    command = draw(st.sampled_from(sorted(table) + ["polish"]))
    flags = table.get(command, {})
    chosen = draw(st.lists(st.sampled_from(sorted(flags)), max_size=6)) if flags else []
    if draw(st.integers(0, 9)):  # most runs carry the required flags
        chosen = [f for f in _REQUIRED.get(command, ()) if f not in chosen] + chosen
    argv = [command]
    for flag in chosen:
        argv.append(flag)
        value = draw(flags[flag])  # None for a switch
        if value is not None:
            garbled = flag not in _PATH_FLAGS and draw(st.integers(0, 7)) == 0
            argv.append(draw(_garbage) if garbled else value)
    if draw(st.integers(0, 9)) == 0:
        argv.insert(draw(st.integers(0, len(argv))), "--bogus")
    return argv


@pytest.fixture(scope="module")
def fuzz_paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    scene = generate_scene(SceneConfig(grid=(12, 12), size=3, n_frames=4, velocity=(1, 1)))
    shifted = generate_scene(SceneConfig(grid=(12, 12), size=3, n_frames=4, start=(2, 1)))
    write_outputs({root / "gt": scene, root / "pred": shifted,
                     root / "small": generate_scene(SceneConfig(grid=(8, 8), n_frames=4))})
    features = root / "features"
    features.mkdir()
    write_duplicate_features(features)
    (root / "empty").mkdir()
    names = ("gt", "pred", "small", "features", "empty", "missing", "run")
    paths = {name: str(root / name) for name in names}
    paths["out_file"] = str(root / "out.json")
    return paths


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_fuzzed_argv_exits_0_1_or_2_without_traceback(fuzz_paths, data):
    argv = data.draw(argvs(fuzz_paths), label="argv")
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = run_command(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 1:
        assert err.getvalue().startswith("error: ")
