#!/usr/bin/env python3
"""Show how each similarity metric scores and prunes the same memory bank.

Builds two full 7-entry banks — one with planted duplicates of the two
group references, one with independent random features — and prints, for
every metric, the per-group redundancy scores and the frames each metric
would prune. All metrics agree on planted duplicates; on random features
they are free to disagree.
"""

import numpy as np

from vosmem.core import FeatureMap
from vosmem.memory import SIMILARITY_METRICS, MemoryBank, MemoryEntry


def duplicate_bank() -> MemoryBank:
    """Frames 10..16 where 15 duplicates the newest (16) and 12 the oldest (10)."""
    rng = np.random.default_rng(5)
    ramp = np.linspace(1.0, 2.0, 8)
    values = {idx: 0.01 * rng.normal(size=8) for idx in range(10, 17)}
    values[16] = rng.normal(size=8) + ramp
    values[15] = values[16].copy()
    values[10] = rng.normal(size=8) - ramp
    values[12] = values[10].copy()
    bank = MemoryBank(capacity=7)
    for idx in range(10, 17):
        bank.append(MemoryEntry(idx, FeatureMap(idx, np.reshape(values[idx], (2, 2, 2)))))
    return bank


def random_bank(seed: int = 11) -> MemoryBank:
    rng = np.random.default_rng(seed)
    bank = MemoryBank(capacity=7)
    for idx in range(10, 17):
        bank.append(MemoryEntry(idx, FeatureMap(idx, rng.normal(size=(2, 2, 2)))))
    return bank


def show(title: str, bank: MemoryBank) -> None:
    print(f"== {title} ==")
    print(f"bank: {list(bank.frame_indices)}   "
          f"short ref {bank.frame_indices[-1]}, long ref {bank.frame_indices[0]}")
    print(f"{'metric':<10} {'pruned':<10} scores (frame: value vs reference)")
    for metric in SIMILARITY_METRICS:
        outcome = bank.prune_step(metric=metric, mode="select")
        pruned = ",".join(str(i) for i in outcome.pruned_frame_indices)
        cells = []
        for group in ("short", "long"):
            pairs = sorted(outcome.scores[group].items())
            cells.append(" ".join(f"{idx}:{score:+.3f}" for idx, score in pairs))
        print(f"{metric:<10} {pruned:<10} {cells[0]}  |  {cells[1]}")
    print()


def main() -> None:
    show("planted duplicates (15 copies 16, 12 copies 10)", duplicate_bank())
    show("independent random features", random_bank())


if __name__ == "__main__":
    main()
