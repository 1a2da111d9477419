"""Command-line interface: wiring, exit codes, reproducible outputs."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import vosmem
from vosmem.cli import RunConfig, run_command
from vosmem.core import make_feature_map
from vosmem.harness import SceneConfig, generate_scene
from vosmem.io import write_mask_dir, write_tensor
from vosmem.sampling import SamplingConfig


class TestRunConfig:
    def test_defaults(self):
        cfg = RunConfig()
        assert cfg.capacity == 7
        assert cfg.metric == "cosine"
        assert cfg.mode == "persistent"
        assert cfg.strides == (1, 2)
        assert cfg.phase_policy == "zero"
        assert cfg.max_frames is None
        assert cfg.radius == 14
        assert cfg.seed == 0
        assert cfg.paths == ()

    def test_dict_round_trip(self):
        cfg = RunConfig(capacity=5, metric="spearman", strides=(2, 3), seed=9)
        assert RunConfig.from_dict(cfg.to_dict()) == cfg

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown config keys: window"):
            RunConfig.from_dict({"capacity": 5, "window": 3})

    def test_from_dict_coerces_sequences(self):
        cfg = RunConfig.from_dict({"strides": [1, 4], "paths": ["a", "b"]})
        assert cfg.strides == (1, 4)
        assert cfg.paths == ("a", "b")

    @pytest.mark.parametrize("bad", [
        {"capacity": 1},
        {"metric": "sad"},
        {"mode": "lazy"},
        {"radius": -1},
        {"seed": -3},
        {"strides": ()},
        {"strides": (0,)},
        {"strides": (2, 2)},
        {"phase_policy": "odd"},
        {"max_frames": 0},
    ])
    def test_invalid_values_rejected(self, bad):
        with pytest.raises(ValueError):
            RunConfig(**bad)

    def test_sampling_config_carries_fields(self):
        cfg = RunConfig(strides=(3, 1), phase_policy="all", max_frames=10)
        sampled = cfg.sampling_config()
        assert isinstance(sampled, SamplingConfig)
        assert sampled.strides == (3, 1)
        assert sampled.phase_policy == "all"
        assert sampled.max_frames == 10


class TestSampleCommand:
    def test_stdout_json(self, capsys):
        assert run_command(["sample", "--length", "149"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema_version"] == 1
        assert payload["clip_length"] == 149
        views = payload["views"]
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
        write_tensor(make_feature_map(idx, 2, 2, 2, values), directory / f"{idx:03d}.ften")


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
        write_mask_dir(scene, gt)
        write_mask_dir(scene, pred)
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


def run_cli_process(*args):
    """Run ``python -m vosmem.cli`` or ``python -c`` in a fresh interpreter."""
    src = str(Path(vosmem.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env, timeout=120)


class TestErrorHandling:
    @pytest.mark.parametrize("capacity", ["3", "7"])
    def test_overflowing_scores_exit_1_with_one_error_line(self, tmp_path, capacity):
        # finite features near +-1e308 whose euclidean distances overflow
        for i in range(8):
            write_tensor(make_feature_map(i, 1, 1, 2, [(-1.0) ** i * 1e308, 1.0]),
                         tmp_path / f"{i:03d}.ften")
        proc = run_cli_process("-m", "vosmem.cli", "prune", "--features", str(tmp_path),
                               "--metric", "euclidean", "--capacity", capacity)
        assert proc.returncode == 1
        lines = proc.stderr.splitlines()
        assert len(lines) == 1, proc.stderr
        assert lines[0].startswith("error: euclidean score -inf for frame ")

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

    def test_domain_error_exits_1_with_message(self, tmp_path, capsys):
        missing = tmp_path / "nowhere"
        assert run_command(["eval", "--pred", str(missing), "--gt", str(missing)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")

    def test_empty_feature_dir_exits_1(self, tmp_path, capsys):
        assert run_command(["prune", "--features", str(tmp_path)]) == 1
        assert "no tensor files" in capsys.readouterr().err

    def test_bad_capacity_exits_1(self, tmp_path, capsys):
        write_duplicate_features(tmp_path)
        assert run_command(["prune", "--features", str(tmp_path),
                            "--capacity", "1"]) == 1
        assert "capacity" in capsys.readouterr().err
