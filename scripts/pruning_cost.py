#!/usr/bin/env python3
"""Compare memory readout cost and accuracy with pruning on vs off.

Runs the synthetic tracker twice on the same moving-object scene — once
with per-step redundancy pruning, once with the plain FIFO bank — and
prints the per-step readout cost (memory tokens consulted) side by side
with the fired prune decisions, followed by the accuracy summary of both
runs. Deterministic for a fixed seed.
"""

import argparse

from vosmem.harness import SceneConfig, ToyEncoderConfig, generate_scene, track_sequence
from vosmem.metrics import evaluate


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--frames", type=int, default=24)
    parser.add_argument("--capacity", type=int, default=7)
    parser.add_argument("--metric", default="cosine")
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()

    scene = generate_scene(SceneConfig(
        grid=(32, 32), shape="square", size=4, start=(0, 12),
        velocity=(1, 0), n_frames=args.frames, seed=args.seed))
    encoder = ToyEncoderConfig(feature_resolution=(8, 8), noise_sigma=0.1)

    pred_on, steps_on = track_sequence(
        scene, encoder, bank_capacity=args.capacity, metric=args.metric,
        prune_enabled=True, seed=args.seed)
    pred_off, steps_off = track_sequence(
        scene, encoder, bank_capacity=args.capacity, metric=args.metric,
        prune_enabled=False, seed=args.seed)

    print(f"scene: {args.frames} frames, capacity {args.capacity}, "
          f"metric {args.metric}, seed {args.seed}")
    print()
    print("step  cost(pruned)  cost(fifo)  saved  pruned frames")
    total_on = total_off = 0
    for on, off in zip(steps_on, steps_off):
        total_on += on.readout_cost
        total_off += off.readout_cost
        saved = off.readout_cost - on.readout_cost
        pruned = ",".join(str(i) for i in on.outcome.pruned_frame_indices) or "-"
        print(f"{on.step:>4}  {on.readout_cost:>12}  {off.readout_cost:>10}"
              f"  {saved:>5}  {pruned}")
    pct = 100.0 * (total_off - total_on) / total_off
    print(f"\ntotal readout: {total_on} vs {total_off} tokens "
          f"({pct:.1f}% saved at matched steps)")

    for label, pred in (("pruned", pred_on), ("fifo  ", pred_off)):
        report = evaluate(pred, scene)
        agg = report.aggregate
        print(f"{label}  J&F {100 * agg['J&F'].mean:6.2f}   "
              f"Dice {100 * agg['Dice'].mean:6.2f}   "
              f"CIoU {100 * agg['CIoU'].mean:6.2f}")


if __name__ == "__main__":
    main()
