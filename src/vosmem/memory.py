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
import sys
from dataclasses import dataclass, field

import numpy as np

from .core import FeatureMap, LabelMask, _choice, _integer

PRUNE_MODES = ("persistent", "select")

DEFAULT_CAPACITY = 7
DEFAULT_METRIC = "cosine"
DEFAULT_MODE = "persistent"


# Cosine, Pearson and Spearman read the per-frame keys that FeatureMap
# computes once, so each pair costs one dot product. Pairs are not batched
# across a group: each pair goes through similarity, so the pair memo serves
# it and a tracer that wraps similarity sees every readout and prune score.
# Each pair is scored once per metric: similarity memoizes the score on one
# map of the pair and serves it in either order, which is exact because
# every metric below is symmetric bit for bit (products and sums commute,
# |a - b| = |b - a|).


def _cosine(a: FeatureMap, b: FeatureMap) -> float:
    # Sum of per-channel cosines; a zero-norm channel contributes 0.
    x = a.data.reshape(a.channels, -1)
    y = b.data.reshape(b.channels, -1)
    dots = np.einsum("ij,ij->i", x, y)
    norms = a.channel_norms * b.channel_norms
    ok = norms > 0.0
    return float(np.sum(dots[ok] / norms[ok]))


def _manhattan(a: FeatureMap, b: FeatureMap) -> float:
    d = a.data - b.data
    return -float(np.sum(np.abs(d, out=d)))


def _euclidean(a: FeatureMap, b: FeatureMap) -> float:
    d = a.data - b.data
    return -math.sqrt(float(np.sum(np.square(d, out=d))))


def _dot(a: FeatureMap, b: FeatureMap) -> float:
    return float(np.sum(a.data * b.data))


def _correlation(x: tuple[np.ndarray, float], y: tuple[np.ndarray, float]) -> float:
    # Pearson correlation of two centred keys. Zero variance on either side
    # yields 0 (degenerate inputs rank as non-redundant rather than dividing
    # by zero). A product of the variances that leaves the normal floats
    # (underflows, even to 0.0, or overflows) is replaced by the product of
    # their roots, which stays in range.
    (xc, vx), (yc, vy) = x, y
    if vx == 0.0 or vy == 0.0:
        return 0.0
    vv = vx * vy
    if sys.float_info.min <= vv <= sys.float_info.max:
        return float(np.dot(xc, yc)) / math.sqrt(vv)
    return float(np.dot(xc, yc)) / (math.sqrt(vx) * math.sqrt(vy))


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
    Scores are memoized per pair of maps (by identity) and metric, so asking
    again, in either order, returns the same float without recomputing it.
    """
    _choice("similarity metric", metric, SIMILARITY_METRICS)
    if a.shape != b.shape:
        raise ValueError(f"feature shapes differ: {a.shape} vs {b.shape}")
    serial_a, memo_a = a._memo
    serial_b, memo_b = b._memo
    if serial_a < serial_b:
        memo, key = memo_a, (metric, serial_b)
    else:
        memo, key = memo_b, (metric, serial_a)
    score = memo.get(key)
    if score is None:
        score = memo[key] = _METRIC_FUNCS[metric](a, b)
    return score


def argmax_frame(metric: str, scores: dict[int, float]) -> int:
    """Frame index with the highest score; ties go to the smallest frame_index
    so results are deterministic across platforms.

    Raises ValueError naming the metric when there are no scores, or the
    metric and the frame when a score is not finite (an overflowed score).
    """
    if not scores:
        raise ValueError(f"no {metric} scores to choose a frame from")
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
        object.__setattr__(self, "frame_index", _integer("frame_index", self.frame_index))
        if self.features.frame_index != self.frame_index:
            raise ValueError(
                f"features.frame_index {self.features.frame_index} != entry frame_index {self.frame_index}")
        if self.mask is not None and self.mask.frame_index != self.frame_index:
            raise ValueError(
                f"mask.frame_index {self.mask.frame_index} != entry frame_index {self.frame_index}")


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


class MemoryBank:
    """Capacity-bounded, temporally ordered store of memory entries.

    Single writer: ``append`` and ``prune_step`` mutate the bank and must be
    serialized externally. Scoring is pure and may run concurrently.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        self.capacity = _integer("capacity", capacity, 2)
        self._entries: list[MemoryEntry] = []

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
        if not isinstance(entry, MemoryEntry):
            raise ValueError(f"entry must be a MemoryEntry, got {type(entry).__name__}")
        if self._entries and entry.frame_index <= self._entries[-1].frame_index:
            raise ValueError(
                f"frame_index must increase: got {entry.frame_index} after "
                f"{self._entries[-1].frame_index}")
        if len(self._entries) == self.capacity:
            self._entries.pop(0)
        self._entries.append(entry)

    def prune_step(self, metric: str = DEFAULT_METRIC, mode: str = DEFAULT_MODE) -> PruneOutcome:
        """Prune the most redundant candidate from each group of a full bank.

        Below capacity this is a no-op that retains everything. Groups
        smaller than two entries have no candidates and prune nothing
        (possible only for capacities below four). In ``persistent`` mode
        the bank itself shrinks to the retained entries; in ``select`` mode
        the outcome is a per-step view and the bank is left unchanged.
        """
        _choice("prune mode", mode, PRUNE_MODES)
        _choice("similarity metric", metric, SIMILARITY_METRICS)
        if len(self._entries) < self.capacity:
            return PruneOutcome(retained=self.frame_indices, pruned_frame_indices=())
        # the oldest capacity // 2 entries are the long group, referenced by the
        # oldest; the newest ceil(capacity / 2) are the short group, referenced
        # by the newest
        cut = self.capacity // 2
        long, short = self._entries[:cut], self._entries[cut:]
        scores: dict[str, dict[int, float]] = {}
        victims: list[int] = []
        for name, reference, candidates in (("short", short[-1], short[:-1]),
                                            ("long", long[0], long[1:])):
            scores[name] = group_scores = {
                c.frame_index: similarity(metric, reference.features, c.features)
                for c in candidates}
            if group_scores:
                victims.append(argmax_frame(metric, group_scores))
        kept = [e for e in self._entries if e.frame_index not in victims]
        if mode == "persistent":
            self._entries = kept
        return PruneOutcome(
            retained=tuple(e.frame_index for e in kept),
            pruned_frame_indices=tuple(sorted(victims)),
            scores=scores,
        )
