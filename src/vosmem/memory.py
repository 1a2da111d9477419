"""Streaming memory bank: FIFO insertion, short/long-term splitting, pruning.

A full bank of capacity n is split by recency into a short-term group (the
newest ceil(n/2) entries, scored against the newest frame) and a long-term
group (the remaining oldest entries, scored against the oldest frame). Each
group then drops its single most redundant candidate; the two reference
frames are never dropped. With the default capacity of 7 this is a 4/3
split that retains 5 frames whenever pruning fires. Below capacity the
bank is left untouched.

Redundancy is a similarity score where higher means "more like the group
reference". Distances (L1, L2) are negated so one argmax rule
(:func:`argmax_frame`) selects the prune victim for every metric, and the
harness's readout uses the same rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import FeatureMap, LabelMask

PRUNE_MODES = ("persistent", "select")

DEFAULT_CAPACITY = 7
DEFAULT_METRIC = "cosine"
DEFAULT_MODE = "persistent"


def _check_metric(metric: str) -> None:
    if metric not in SIMILARITY_METRICS:
        raise ValueError(f"unknown similarity metric {metric!r}, expected one of {SIMILARITY_METRICS}")


def _check_mode(mode: str) -> None:
    if mode not in PRUNE_MODES:
        raise ValueError(f"unknown prune mode {mode!r}, expected one of {PRUNE_MODES}")


# Cosine, Pearson and Spearman read the per-frame keys that FeatureMap
# computes once, so each pair costs one dot product. Pairs are not batched
# across a group: a stacked reduction sums in another order, and a one-ulp
# change can flip a tie between candidates.


def _cosine(a: FeatureMap, b: FeatureMap) -> float:
    # Sum of per-channel cosines; a zero-norm channel contributes 0.
    x = a.data.reshape(a.channels, -1)
    y = b.data.reshape(b.channels, -1)
    dots = np.einsum("ij,ij->i", x, y)
    norms = a.channel_norms * b.channel_norms
    ok = norms > 0.0
    return float(np.sum(dots[ok] / norms[ok]))


def _manhattan(a: FeatureMap, b: FeatureMap) -> float:
    return -float(np.sum(np.abs(a.data - b.data)))


def _euclidean(a: FeatureMap, b: FeatureMap) -> float:
    d = a.data - b.data
    return -math.sqrt(float(np.sum(d * d)))


def _dot(a: FeatureMap, b: FeatureMap) -> float:
    return float(np.sum(a.data * b.data))


def _correlation(x: tuple[np.ndarray, float], y: tuple[np.ndarray, float]) -> float:
    # Pearson correlation of two centred keys. Zero variance on either side
    # yields 0 (degenerate inputs rank as non-redundant rather than dividing
    # by zero).
    (xc, vx), (yc, vy) = x, y
    if vx == 0.0 or vy == 0.0:
        return 0.0
    return float(np.dot(xc, yc)) / math.sqrt(vx * vy)


def _pearson(a: FeatureMap, b: FeatureMap) -> float:
    return _correlation(a.centred, b.centred)


def _spearman(a: FeatureMap, b: FeatureMap) -> float:
    # Rank correlation with average ranks for ties.
    return _correlation(a.centred_ranks, b.centred_ranks)


_METRIC_FUNCS = {
    "cosine": _cosine,
    "manhattan": _manhattan,
    "euclidean": _euclidean,
    "dot": _dot,
    "spearman": _spearman,
    "pearson": _pearson,
}
SIMILARITY_METRICS = tuple(_METRIC_FUNCS)


def similarity(metric: str, a: FeatureMap, b: FeatureMap) -> float:
    """Redundancy score between two feature maps; higher = more redundant.

    cosine sums per-channel cosines (bounded by the channel count);
    manhattan and euclidean are negated distances over the flattened
    tensor; dot, spearman, and pearson operate on the flattened tensor.
    """
    _check_metric(metric)
    if a.shape != b.shape:
        raise ValueError(f"feature shapes differ: {a.shape} vs {b.shape}")
    return _METRIC_FUNCS[metric](a, b)


def argmax_frame(metric: str, scores: dict[int, float]) -> int:
    """Frame index with the highest score; ties go to the smallest frame_index
    so results are deterministic across platforms.

    Raises ValueError naming the metric and the frame when a score is not
    finite (features near the float64 limits can overflow a score).
    """
    order = sorted(scores)
    for idx in order:
        if not math.isfinite(scores[idx]):
            raise ValueError(
                f"{metric} score {scores[idx]} for frame {idx} is not finite")
    return max(order, key=scores.__getitem__)


@dataclass(frozen=True)
class MemoryEntry:
    """One stored frame: its features plus the mask predicted/observed for it.

    Only the bank holds entries. The mask is what the template segmenter
    copies at readout; it may be omitted when a bank is built from features
    alone (e.g. the prune CLI).
    """

    frame_index: int
    features: FeatureMap
    mask: LabelMask | None = None

    def __post_init__(self):
        if self.features.frame_index != self.frame_index:
            raise ValueError(
                f"features.frame_index {self.features.frame_index} != entry frame_index {self.frame_index}")
        if self.mask is not None and self.mask.frame_index != self.frame_index:
            raise ValueError(
                f"mask.frame_index {self.mask.frame_index} != entry frame_index {self.frame_index}")


@dataclass(frozen=True)
class MemoryGroup:
    """A split half of a full bank: one reference frame plus its candidates."""

    name: str  # "short" or "long"
    reference: MemoryEntry
    candidates: tuple[MemoryEntry, ...]


@dataclass(frozen=True)
class PruneOutcome:
    """Result of one prune step, as frame indices: it holds no features.

    retained is the temporally ordered tuple of frame indices fed to readout;
    scores maps group name -> {candidate frame_index: redundancy score}.
    When the bank was below capacity nothing is scored or pruned.
    """

    retained: tuple[int, ...]
    pruned_frame_indices: tuple[int, ...]
    scores: dict[str, dict[int, float]] = field(default_factory=dict)

    @property
    def fired(self) -> bool:
        return bool(self.pruned_frame_indices)


def redundancy_scores(metric: str, group: MemoryGroup) -> dict[int, float]:
    """Score each candidate against the group reference (reference excluded)."""
    if not group.candidates:
        raise ValueError(f"group {group.name!r} has no candidates to score")
    return {
        c.frame_index: similarity(metric, group.reference.features, c.features)
        for c in group.candidates
    }


class MemoryBank:
    """Capacity-bounded, temporally ordered store of memory entries.

    Single writer: ``append`` and ``prune_step`` mutate the bank and must be
    serialized externally. Scoring is pure and may run concurrently.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        if capacity < 2:
            raise ValueError(f"capacity must be >= 2, got {capacity}")
        self.capacity = capacity
        self._entries: list[MemoryEntry] = []

    @property
    def short_size(self) -> int:
        return (self.capacity + 1) // 2

    @property
    def long_size(self) -> int:
        return self.capacity - self.short_size

    @property
    def entries(self) -> tuple[MemoryEntry, ...]:
        return tuple(self._entries)

    @property
    def frame_indices(self) -> tuple[int, ...]:
        return tuple(e.frame_index for e in self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def append(self, entry: MemoryEntry) -> None:
        """FIFO insert: evicts the oldest entry when the bank is full."""
        if self._entries and entry.frame_index <= self._entries[-1].frame_index:
            raise ValueError(
                f"frame_index must increase: got {entry.frame_index} after "
                f"{self._entries[-1].frame_index}")
        if len(self._entries) == self.capacity:
            self._entries.pop(0)
        self._entries.append(entry)

    def split(self) -> tuple[MemoryGroup, MemoryGroup]:
        """Split a full bank into (short, long) groups.

        The short group is the newest ceil(capacity/2) entries with the
        newest entry as reference; the long group is the remaining oldest
        entries with the oldest entry as reference.
        """
        if len(self._entries) != self.capacity:
            raise ValueError(
                f"split requires a full bank ({self.capacity} entries), have {len(self._entries)}")
        long_part = self._entries[:self.long_size]
        short_part = self._entries[self.long_size:]
        short = MemoryGroup("short", reference=short_part[-1], candidates=tuple(short_part[:-1]))
        long = MemoryGroup("long", reference=long_part[0], candidates=tuple(long_part[1:]))
        return short, long

    def prune_step(self, metric: str = DEFAULT_METRIC, mode: str = DEFAULT_MODE) -> PruneOutcome:
        """Prune the most redundant candidate from each group of a full bank.

        Below capacity this is a no-op that retains everything. Groups
        smaller than two entries have no candidates and prune nothing
        (possible only for capacities below four). In ``persistent`` mode
        the bank itself shrinks to the retained entries; in ``select`` mode
        the outcome is a per-step view and the bank is left unchanged.
        """
        _check_mode(mode)
        _check_metric(metric)
        if len(self._entries) < self.capacity:
            return PruneOutcome(retained=self.frame_indices, pruned_frame_indices=())
        short, long = self.split()
        scores: dict[str, dict[int, float]] = {}
        victims: list[int] = []
        for group in (short, long):
            if not group.candidates:
                scores[group.name] = {}
                continue
            group_scores = redundancy_scores(metric, group)
            scores[group.name] = group_scores
            victims.append(argmax_frame(metric, group_scores))
        kept = [e for e in self._entries if e.frame_index not in victims]
        if mode == "persistent":
            self._entries = kept
        return PruneOutcome(
            retained=tuple(e.frame_index for e in kept),
            pruned_frame_indices=tuple(sorted(victims)),
            scores=scores,
        )
