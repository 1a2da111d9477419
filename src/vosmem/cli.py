"""Command-line surface: ``sample``, ``prune``, ``eval``, ``simulate``.

Every run is explicit (no environment variables) and reproducible: given
the same inputs, flags, and seed, output files are byte-identical. Only
:mod:`vosmem.io` writes files: ``simulate`` replaces its four outputs in one
:func:`vosmem.io.write_outputs` call, and every other JSON document or
JSON-lines text goes through :func:`_emit`.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

import numpy as np

from . import io as vio
from .harness import (
    OBJECT_SHAPES,
    SceneConfig,
    ToyEncoderConfig,
    generate_scene,
    track_sequence,
)
from .memory import (
    DEFAULT_CAPACITY,
    DEFAULT_METRIC,
    DEFAULT_MODE,
    PRUNE_MODES,
    SIMILARITY_METRICS,
    MemoryBank,
    MemoryEntry,
)
from .metrics import DEFAULT_BOUNDARY_RADIUS, METRIC_NAMES, evaluate
from .sampling import DEFAULT_PHASE_POLICY, DEFAULT_STRIDES, PHASE_POLICIES, build_plan


# ---------------------------------------------------------------------------
# flag parsing helpers


def _int_tuple(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(p) for p in text.split(",") if p != "")
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}") from None


def _int_pair(text: str) -> tuple[int, int]:
    vals = _int_tuple(text)
    if len(vals) != 2:
        raise argparse.ArgumentTypeError(f"expected two integers 'a,b', got {text!r}")
    return vals[0], vals[1]


def _dims(text: str) -> tuple[int, int]:
    parts = text.lower().split("x")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected dimensions 'HxW', got {text!r}")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected dimensions 'HxW', got {text!r}") from None


def _gap_list(text: str) -> tuple[tuple[int, int], ...]:
    """'2:3,10:12' -> ((2, 3), (10, 12)); a bare number is a 1-frame gap."""
    if not text:
        return ()
    out = []
    try:
        for part in text.split(","):
            if ":" in part:
                lo, hi = part.split(":", 1)
                out.append((int(lo), int(hi)))
            else:
                v = int(part)
                out.append((v, v))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected gaps as 'lo:hi,lo:hi,...', got {text!r}") from None
    return tuple(out)


def _metric_names(text: str) -> tuple[str, ...]:
    names = tuple(p for p in text.split(",") if p)
    if not names:
        raise argparse.ArgumentTypeError("expected at least one metric name")
    return names


def _emit(text: str, out: str | Path | None) -> None:
    """Send ``text`` to stdout, or to the file ``out`` through the atomic writer."""
    if out is None:
        sys.stdout.write(text)
    else:
        vio.atomic_write_bytes(out, text.encode("utf-8"))


# ---------------------------------------------------------------------------
# subcommands


def _cmd_sample(args: argparse.Namespace) -> int:
    views = build_plan(args.length, strides=args.strides, phase_policy=args.phase_policy,
                       max_frames=args.max_frames)
    plan = {"clip_length": args.length,
            "views": [{"stride": v.stride, "phase": v.phase, "indices": list(v.indices)}
                      for v in views]}
    _emit(vio._json_text(plan), args.out)
    return 0


def _cmd_prune(args: argparse.Namespace) -> int:
    features = vio.read_feature_dir(args.features)
    bank = MemoryBank(capacity=args.capacity)
    records = []
    for step, fmap in enumerate(features):
        bank.append(MemoryEntry(fmap.frame_index, fmap))
        outcome = bank.prune_step(metric=args.metric, mode=args.mode)
        records.append(vio._prune_record(step, outcome))
    _emit(vio._jsonl_text(records), args.out)
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    pred = vio.read_mask_dir(args.pred)
    gt = vio.read_mask_dir(args.gt)
    report = evaluate(pred, gt, radius=args.radius, metrics=args.metrics)
    # written before the table is printed, so a failed write prints nothing
    if args.out is not None:
        _emit(vio._json_text(report.to_dict(include_per_frame=args.per_frame)), args.out)
    sys.stdout.write(report.format_table() + "\n")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    scene_config = SceneConfig(
        grid=args.grid, shape=args.shape, size=args.size, velocity=args.velocity,
        n_frames=args.frames, gaps=args.gaps, seed=args.seed, start=args.start)
    encoder_config = ToyEncoderConfig(
        feature_resolution=args.feature_res, noise_sigma=args.noise_sigma)
    scene = generate_scene(scene_config)
    predicted, trace = track_sequence(
        scene, encoder_config, bank_capacity=args.capacity, metric=args.metric,
        mode=args.mode, prune_enabled=not args.no_prune, seed=args.seed)
    # scored before any write, so a failing run leaves no partial directory
    report = evaluate(predicted, scene, radius=args.radius)

    out = Path(args.out)
    # all four staged before any is replaced, so a failed write keeps the old run
    vio.write_outputs({out / "gt": scene, out / "pred": predicted,
                       out / "trace.jsonl": vio._jsonl_text(vio.track_records(trace)).encode(),
                       out / "report.json": vio._json_text(report.to_dict()).encode()})
    sys.stdout.write(report.format_table() + "\n")
    return 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser :func:`run_command` reuses: parse_args leaves it as it
    was, so building it once per process saves each call the build."""
    # every default is read from the module that owns the setting
    parser = argparse.ArgumentParser(
        prog="vosmem",
        description="Streaming memory management and evaluation for promptable "
                    "video object segmentation.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="emit a stride-augmentation index plan as JSON")
    p.add_argument("--length", type=int, required=True, help="clip length in frames")
    p.add_argument("--strides", type=_int_tuple, default=DEFAULT_STRIDES,
                   help=f"comma-separated strides (default {','.join(map(str, DEFAULT_STRIDES))})")
    p.add_argument("--phase-policy", dest="phase_policy", choices=PHASE_POLICIES,
                   default=DEFAULT_PHASE_POLICY)
    p.add_argument("--max-frames", dest="max_frames", type=int, default=None,
                   help="cap each view at this many indices")
    p.add_argument("--out", default=None, help="write JSON here instead of stdout")
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("prune", help="replay a feature directory through the memory bank")
    p.add_argument("--features", required=True, help="directory of tensor files")
    p.add_argument("--capacity", type=int, default=DEFAULT_CAPACITY)
    p.add_argument("--metric", choices=SIMILARITY_METRICS, default=DEFAULT_METRIC)
    p.add_argument("--mode", choices=PRUNE_MODES, default=DEFAULT_MODE)
    p.add_argument("--out", default=None, help="write JSON-lines here instead of stdout")
    p.set_defaults(func=_cmd_prune)

    p = sub.add_parser("eval", help="score predicted masks against ground truth")
    p.add_argument("--pred", required=True, help="directory of predicted masks")
    p.add_argument("--gt", required=True, help="directory of ground-truth masks")
    p.add_argument("--radius", type=int, default=DEFAULT_BOUNDARY_RADIUS,
                   help=f"boundary dilation radius in pixels (default {DEFAULT_BOUNDARY_RADIUS})")
    p.add_argument("--metrics", type=_metric_names, default=METRIC_NAMES,
                   help=f"comma-separated subset of {','.join(METRIC_NAMES)}")
    p.add_argument("--out", default=None, help="write the JSON report here")
    p.add_argument("--per-frame", dest="per_frame", action="store_true",
                   help="include per-frame rows in the JSON report")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("simulate", help="run the synthetic tracker end to end")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--grid", type=_dims, default=SceneConfig.grid, help="scene size HxW")
    p.add_argument("--shape", choices=OBJECT_SHAPES, default=SceneConfig.shape)
    p.add_argument("--size", type=int, default=SceneConfig.size,
                   help="square side length or disk radius")
    p.add_argument("--start", type=_int_pair, default=SceneConfig.start,
                   help="object top-left x,y at frame 0")
    p.add_argument("--velocity", type=_int_pair, default=SceneConfig.velocity,
                   help="pixels per frame vx,vy")
    p.add_argument("--frames", type=int, default=SceneConfig.n_frames, help="number of frames")
    p.add_argument("--gaps", type=_gap_list, default=SceneConfig.gaps,
                   help="frame intervals with the object absent, e.g. 2:3,10:12")
    p.add_argument("--feature-res", dest="feature_res", type=_dims,
                   default=ToyEncoderConfig.feature_resolution,
                   help="encoder resolution hxw; must divide the grid")
    p.add_argument("--noise-sigma", dest="noise_sigma", type=float,
                   default=ToyEncoderConfig.noise_sigma)
    p.add_argument("--seed", type=int, default=SceneConfig.seed,
                   help="scene and encoder noise seed, 0..2**64-1")
    p.add_argument("--capacity", type=int, default=DEFAULT_CAPACITY)
    p.add_argument("--metric", choices=SIMILARITY_METRICS, default=DEFAULT_METRIC)
    p.add_argument("--mode", choices=PRUNE_MODES, default=DEFAULT_MODE)
    p.add_argument("--no-prune", dest="no_prune", action="store_true",
                   help="disable pruning (bank still evicts FIFO at capacity)")
    p.add_argument("--radius", type=int, default=DEFAULT_BOUNDARY_RADIUS)
    p.set_defaults(func=_cmd_simulate)

    return parser


def run_command(argv=None) -> int:
    """Parse and execute one subcommand; returns the process exit status.

    Failures never propagate: argparse exits become their status code, and
    domain errors and MemoryError print one ``error:`` line to stderr.
    """
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 0 if code is None else 1
    try:
        # A score that overflows is reported once, as the ValueError that
        # memory._argmax_frame raises, rather than as numpy warnings too.
        with np.errstate(over="ignore", invalid="ignore"):
            return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
