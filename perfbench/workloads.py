"""The four benchmark workloads: inputs made from a seed, the timed operation, and its check.

Each workload function takes a seeded NumPy generator, a size profile and a work
directory, writes any input files there, and returns the workload's
operation list. One ``Op`` is one closed-loop call: ``run()`` is the timed
part and returns the program's output; ``digest(output)`` is untimed and
reduces that output to a hash that is compared with the reference recorded
in ``reference.json``; ``stats(output)`` is untimed and returns exact
per-output quantities (readout tokens, J&F) for the traced metrics.

Program calls always go through module attributes (``harness.track_sequence``,
not ``from ... import``), so the tracer's patches see them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io as pyio
import json
import math
import struct
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Any, Callable

import numpy as np

from vosmem import cli, harness, memory, metrics
from vosmem import io as vio

# Inputs come from variant = seed % VARIANTS; reference.json holds the
# digests of every variant, so any seed is checked against recorded outputs.
VARIANTS = 32

SIMILARITY = ("cosine", "manhattan", "euclidean", "dot", "spearman", "pearson")
MODES = ("persistent", "select")
EVAL_METRICS = ("J&F", "J", "F", "Dice", "CIoU")
CAPACITY = 7
RADIUS = 14

PROFILES = {
    "full": {
        "stream-track": {"grid": 256, "features": 64, "frames": 120, "scenes": 16},
        "prune-replay": {"channels": 64, "side": 32, "frames": 12},
        "eval-davis": {"height": 480, "width": 854, "frames": 3},
        "sweep-small": {"grid": 32, "features": 8, "frames": 24},
    },
    "smoke": {
        "stream-track": {"grid": 32, "features": 8, "frames": 12, "scenes": 2},
        "prune-replay": {"channels": 4, "side": 4, "frames": 9},
        "eval-davis": {"height": 96, "width": 172, "frames": 3},
        "sweep-small": {"grid": 16, "features": 4, "frames": 8},
    },
}


@dataclass(frozen=True)
class Op:
    run: Callable[[], Any]
    frames: int  # frames of work one call does; frames_per_s = frames / call time
    digest: Callable[[Any], str]
    stats: Callable[[Any], dict]


def _no_stats(output) -> dict:
    return {}


def canonical(obj):
    """JSON-ready copy with floats as 8-significant-digit strings.

    Rounding keeps the digest stable under last-ulp changes in summation
    order while any changed decision, index or mask still changes it.
    """
    if isinstance(obj, bool) or obj is None or isinstance(obj, (int, str)):
        return obj
    if isinstance(obj, float):
        return format(obj + 0.0, ".8g")
    if isinstance(obj, dict):
        return {str(k): canonical(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [canonical(v) for v in obj]
    raise TypeError(f"cannot canonicalize {type(obj).__name__}")


def _hash_json(h, obj) -> None:
    h.update(json.dumps(canonical(obj), sort_keys=True, separators=(",", ":")).encode())


# ---------------------------------------------------------------------------
# stream-track: streaming memory-bank tracking, no evaluation


def _track_both(config, encoder):
    scene = harness.generate_scene(config)
    return [harness.track_sequence(scene, encoder, bank_capacity=CAPACITY, metric="cosine",
                                   mode=mode, seed=config.seed)
            for mode in MODES]


def _track_digest(output) -> str:
    h = hashlib.sha256()
    for predicted, trace in output:
        _hash_json(h, vio.track_records(trace))
        for frame in predicted:
            h.update(struct.pack("<3I", frame.frame_index, *frame.labels.shape))
            h.update(frame.labels.tobytes())
    return h.hexdigest()


def _track_stats(output) -> dict:
    costs = [c for _, trace in output for c in harness.readout_cost(trace)]
    return {"tokens": sum(costs), "steps": len(costs)}


def _scene_config(rng, grid, frames, shape, size, gap_len):
    # One pixel per frame along each moving axis, starting where the object
    # stays in view for the whole clip: an object that leaves the grid would
    # skip boundary dilation and make the cost depend on the seed.
    extent = size if shape == "square" else 2 * size + 1
    velocity = (0, 0)
    while velocity == (0, 0):
        velocity = tuple(int(v) for v in rng.integers(-1, 2, size=2))
    travel = frames - 1
    start = tuple(int(rng.integers(max(0, -v * travel), grid - extent - max(0, v * travel) + 1))
                  for v in velocity)
    gap_start = int(rng.integers(1, frames - gap_len))
    return harness.SceneConfig(
        grid=(grid, grid), shape=shape, size=size, velocity=velocity, n_frames=frames,
        gaps=((gap_start, gap_start + gap_len - 1),), seed=int(rng.integers(0, 2**31)),
        start=start)


def stream_track(rng, size, workdir) -> list[Op]:
    grid, feat, frames = size["grid"], size["features"], size["frames"]
    encoder = harness.ToyEncoderConfig(feature_resolution=(feat, feat), noise_sigma=0.05)
    ops = []
    for k in range(size["scenes"]):
        shape = ("square", "disk")[k % 2]
        obj = int(rng.integers(grid // 16, grid // 10 + 1))
        config = _scene_config(rng, grid, frames, shape, obj, gap_len=max(2, frames // 10))
        ops.append(Op(partial(_track_both, config, encoder), 2 * frames,
                      _track_digest, _track_stats))
    return ops


# ---------------------------------------------------------------------------
# prune-replay: backbone-sized tensors from disk through every metric and mode


def _ften_bytes(array: np.ndarray) -> bytes:
    arr = np.ascontiguousarray(array, dtype="<f4")
    return (struct.pack("<4sHBB", b"FTEN", 1, 0, arr.ndim)
            + struct.pack(f"<{arr.ndim}I", *arr.shape) + arr.tobytes())


def _replay(directory):
    out = {}
    for metric in SIMILARITY:
        for mode in MODES:
            features = vio.read_feature_dir(directory)
            bank = memory.MemoryBank(capacity=CAPACITY)
            pruned = []
            for fmap in features:
                bank.append(memory.MemoryEntry(fmap.frame_index, fmap))
                pruned.append(list(bank.prune_step(metric=metric, mode=mode).pruned_frame_indices))
            out[f"{metric}/{mode}"] = pruned
    return out


def _json_digest(output) -> str:
    h = hashlib.sha256()
    _hash_json(h, output)
    return h.hexdigest()


def prune_replay(rng, size, workdir) -> list[Op]:
    c, side, frames = size["channels"], size["side"], size["frames"]
    directory = Path(workdir) / "features"
    directory.mkdir(parents=True)
    rho = float(rng.uniform(0.8, 0.95))  # temporal correlation of consecutive frames
    x = rng.standard_normal((c, side, side))
    for t in range(frames):
        x = rho * x + math.sqrt(1.0 - rho * rho) * rng.standard_normal(x.shape)
        (directory / f"{t:04d}.ften").write_bytes(_ften_bytes(x))
    return [Op(partial(_replay, directory), len(SIMILARITY) * len(MODES) * frames,
               _json_digest, _no_stats)]


# ---------------------------------------------------------------------------
# eval-davis: DAVIS-protocol J/F/Dice/CIoU on 480p masks read from PGM


def _pgm_bytes(labels: np.ndarray) -> bytes:
    h, w = labels.shape
    return f"P5\n{w} {h}\n255\n".encode("ascii") + labels.astype(np.uint8).tobytes()


def _evaluate_dirs(pred_dir, gt_dir):
    pred = vio.read_mask_dir(pred_dir)
    gt = vio.read_mask_dir(gt_dir)
    return metrics.evaluate(pred, gt, radius=RADIUS, metrics=EVAL_METRICS)


def _report_digest(report) -> str:
    return _json_digest(report.to_dict(include_per_frame=True))


def _report_stats(report) -> dict:
    return {"jf": [report.aggregate["J&F"].mean]}


def eval_davis(rng, size, workdir) -> list[Op]:
    height, width, frames = size["height"], size["width"], size["frames"]
    scale = height / 480
    yy, xx = np.mgrid[:height, :width]
    # object id -> (semi-axis range in pixels at 480p, horizontal band of the
    # frame its centre stays in): large, medium and small objects that
    # barely overlap, so every id is scored
    layout = {1: ((90, 130), (0.0, 0.5)), 2: ((35, 55), (0.5, 0.8)), 3: ((6, 12), (0.8, 1.0))}
    absent = {2: range(1, frames)}  # the medium object leaves the scene after frame 0
    margin = 12 * scale  # room for the motion over the clip
    objects = {}
    for oid, ((lo, hi), (left, right)) in layout.items():
        ry, rx = np.maximum(rng.uniform(lo, hi, size=2) * scale, 2.0).tolist()
        cy = rng.uniform(ry + margin, height - ry - margin)
        cx = rng.uniform(left * width + rx + margin, right * width - rx - margin)
        vy, vx = (rng.uniform(-6, 6, size=2) * scale).tolist()
        objects[oid] = (cy, cx, ry, rx, vy, vx)
    pred_dir = Path(workdir) / "pred"
    gt_dir = Path(workdir) / "gt"
    pred_dir.mkdir(parents=True)
    gt_dir.mkdir(parents=True)
    for t in range(frames):
        gt = np.zeros((height, width), np.uint8)
        pred = np.zeros((height, width), np.uint8)
        for oid, (cy, cx, ry, rx, vy, vx) in objects.items():  # later ids draw on top
            if t in absent.get(oid, ()):
                continue
            cy, cx = cy + t * vy, cx + t * vx
            gt[((yy - cy) / ry) ** 2 + ((xx - cx) / rx) ** 2 <= 1.0] = oid
            dy, dx = (rng.uniform(-4, 4, size=2) * scale).tolist()
            sy, sx = rng.uniform(0.9, 1.1, size=2).tolist()
            pred[((yy - cy - dy) / (ry * sy)) ** 2 + ((xx - cx - dx) / (rx * sx)) ** 2 <= 1.0] = oid
        (gt_dir / f"{t:05d}.pgm").write_bytes(_pgm_bytes(gt))
        (pred_dir / f"{t:05d}.pgm").write_bytes(_pgm_bytes(pred))
    return [Op(partial(_evaluate_dirs, pred_dir, gt_dir), frames, _report_digest, _report_stats)]


# ---------------------------------------------------------------------------
# sweep-small: simulate + eval through the CLI entry point, many tiny runs


def _sweep_item(simulate_argv, eval_argv):
    with contextlib.redirect_stdout(pyio.StringIO()):
        return cli.run_command(simulate_argv), cli.run_command(eval_argv)


def _sweep_files(item_dir):
    item_dir = Path(item_dir)
    trace = [json.loads(line) for line in (item_dir / "trace.jsonl").read_text().splitlines()]
    report = json.loads((item_dir / "report.json").read_text())
    evaluated = json.loads((item_dir / "eval.json").read_text())
    return trace, report, evaluated


def _sweep_digest(item_dir, codes) -> str:
    return _json_digest([list(codes), *_sweep_files(item_dir)])


def _sweep_stats(item_dir, codes) -> dict:
    trace, report, _ = _sweep_files(item_dir)
    costs = [r["readout_cost"] for r in trace]
    return {"tokens": sum(costs), "steps": len(costs), "jf": [report["aggregate"]["J&F"]["mean"]]}


def _sweep_scene_argv(rng, grid, feat, frames) -> list[str]:
    shape = ("square", "disk")[int(rng.integers(0, 2))]
    obj = int(rng.integers(3, 6)) if shape == "square" else int(rng.integers(1, 3))
    config = _scene_config(rng, grid, frames, shape, obj, gap_len=max(2, frames // 8))
    (gap_lo, gap_hi), = config.gaps
    # "--flag=value" keeps negative velocities from reading as options
    return [
        f"--grid={grid}x{grid}", f"--feature-res={feat}x{feat}", f"--frames={frames}",
        f"--shape={shape}", f"--size={obj}", "--start={},{}".format(*config.start),
        "--velocity={},{}".format(*config.velocity), f"--gaps={gap_lo}:{gap_hi}",
        "--noise-sigma=0.05", f"--seed={config.seed}", f"--capacity={CAPACITY}",
        f"--radius={RADIUS}"]


def sweep_small(rng, size, workdir) -> list[Op]:
    grid, feat, frames = size["grid"], size["features"], size["frames"]
    settings = [["--metric", m, "--mode", mode] for m in SIMILARITY for mode in MODES]
    settings.append(["--no-prune"])
    ops = []
    # every item gets a scene of its own, so a run's cost does not hang on
    # the shape and size of a single scene
    for k, setting in enumerate(settings):
        item_dir = Path(workdir) / f"item{k:02d}"
        scene_argv = _sweep_scene_argv(rng, grid, feat, frames)
        simulate_argv = ["simulate", "--out", str(item_dir), *scene_argv, *setting]
        eval_argv = ["eval", "--pred", str(item_dir / "pred"), "--gt", str(item_dir / "gt"),
                     "--radius", str(RADIUS), "--out", str(item_dir / "eval.json")]
        ops.append(Op(partial(_sweep_item, simulate_argv, eval_argv), frames,
                      partial(_sweep_digest, item_dir), partial(_sweep_stats, item_dir)))
    return ops


WORKLOADS = {
    "stream-track": stream_track,
    "prune-replay": prune_replay,
    "eval-davis": eval_davis,
    "sweep-small": sweep_small,
}


def build(workload: str, variant: int, profile: str, workdir) -> list[Op]:
    """Write the inputs of one variant under workdir and return its operations."""
    salt = list(WORKLOADS).index(workload)
    rng = np.random.default_rng([variant, salt])
    return WORKLOADS[workload](rng, PROFILES[profile][workload], workdir)
