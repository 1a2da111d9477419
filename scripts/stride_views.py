#!/usr/bin/env python3
"""Track strided views of one scene: stride s looks like s-times the speed.

Builds a single moving-object scene and samples it at several temporal
strides (phase 0). Every view is truncated to the same number of frames
so the tracker takes the same number of steps in each run; the object
then moves s times farther per step in the stride-s view, and accuracy
decays with the stride while wall-clock frames shrink.
"""

import argparse

from vosmem.harness import SceneConfig, ToyEncoderConfig, generate_scene, track_sequence
from vosmem.metrics import evaluate
from vosmem.sampling import build_plan, materialize


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--frames", type=int, default=30)
    parser.add_argument("--strides", default="1,2,3",
                        help="comma-separated strides to compare")
    parser.add_argument("--seed", type=int, default=3)
    args = parser.parse_args()
    strides = tuple(int(s) for s in args.strides.split(","))

    scene = generate_scene(SceneConfig(
        grid=(32, 32), shape="square", size=8, start=(0, 12),
        velocity=(1, 0), n_frames=args.frames, seed=args.seed))
    encoder = ToyEncoderConfig(feature_resolution=(8, 8), noise_sigma=0.05)
    views = build_plan(len(scene), strides=strides)
    budget = len(views[-1].indices)  # the largest stride's view is the shortest

    print(f"scene: {args.frames} frames, 32x32, square moving (1,0) px/frame; "
          f"every view truncated to {budget} frames")
    print()
    print("stride  px/step  last frame  J&F[%]  Dice[%]  CIoU[%]")
    for sampled in views:  # in stride order
        stride, indices = sampled.stride, sampled.indices[:budget]
        view = materialize(scene, indices)
        predicted, _ = track_sequence(view, encoder, seed=args.seed)
        agg = evaluate(predicted, view).aggregate
        print(f"{stride:>6}  {stride:>7}  {indices[-1]:>10}"
              f"  {100 * agg['J&F'].mean:6.2f}  {100 * agg['Dice'].mean:7.2f}"
              f"  {100 * agg['CIoU'].mean:7.2f}")


if __name__ == "__main__":
    main()
