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
(``_argmax_frame``) selects the prune victim for every metric, and the
harness's readout uses the same rule. Every sum of products in a score is
``_sumprod``, NumPy's own einsum loop, not BLAS: it adds in one order on every
CPU, so scores are bit-identical across CPUs. A sum can overflow on finite
features, and ``similarity`` refuses a score that is not finite, without a warning.
"""

from __future__ import annotations

__all__ = ["DEFAULT_CAPACITY", "DEFAULT_METRIC", "DEFAULT_MODE", "PRUNE_MODES",
           "SIMILARITY_METRICS", "MemoryBank", "MemoryEntry", "PruneOutcome", "similarity"]

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .core import FeatureMap, _choice, _freeze, _instance, _integer

PRUNE_MODES = ("persistent", "select")
_GROUPS = ("short", "long")  # the score groups of a prune step, in scoring order

DEFAULT_CAPACITY = 7
DEFAULT_METRIC = "cosine"
DEFAULT_MODE = "persistent"


# Each pair goes through similarity, not a batch per group, so the pair memo
# serves it and a tracer that wraps similarity sees every score. The memo
# serves (b, a) the score of (a, b): exact because every score below is
# symmetric bit for bit (products and sums commute, |a - b| = |b - a|).


def _sumprod(x: np.ndarray, y: np.ndarray) -> np.ndarray | float:
    return np.einsum("...i,...i->...", x, y)


def _data(data: np.ndarray) -> np.ndarray:
    return data


def _rows(data: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # each channel's row and its norm, the root of its _sumprod, NaN if that overflowed
    rows = data.reshape(data.shape[0], -1)
    norms = np.sqrt(_sumprod(rows, rows))
    return rows, _freeze(np.where(norms < np.inf, norms, np.nan))


def _centre(x: np.ndarray) -> tuple[np.ndarray, float]:
    # equal values centre to exact zeros: x - x.mean() would keep the rounding
    # error of the mean, and a constant map would get a tiny variance above 0
    if (x == x[0]).all():
        return _freeze(np.zeros_like(x)), 0.0
    xc = x - x.mean()
    v = float(_sumprod(xc, xc))
    return _freeze(xc), v if v < math.inf else math.nan  # NaN if it overflowed


def _ranks(data: np.ndarray) -> tuple[np.ndarray, float]:
    """Spearman's key: the flat data's average ranks (as SciPy's
    ``rankdata(method="average")``) minus their mean (n + 1) / 2, and their sum
    of squares. A constant map is one tied run, so every position gets the
    shared rank minus the mean, +0.0, and the sum is 0.0. Costs one sort of
    packed keys, an argsort only when two values share a key prefix, one pass
    over tied runs, and three map-sized buffers live at once (order, key,
    ranks), plus one float for each value in a tied run.
    The ranks are multiples of 0.5, so while n(n + 1)/2 < 2**52 (n below about
    9.4e7) their mean is (n + 1) / 2 exactly and the key is ``ranks - mean``
    bit for bit; above that it is still exactly centred."""
    x = data.ravel()
    n = x.size
    b = max((n - 1).bit_length(), 1)
    # the float64 bits as an unsigned integer in value order (negatives get
    # every bit flipped, the rest the sign bit), the low b bits replaced by the
    # element's index: one integer sort leaves the order in the low bits
    bits = x.view(np.int64)
    low = np.uint64((1 << b) - 1)
    order = np.right_shift(bits, 63)
    order |= np.int64(-1 << 63)
    order ^= bits
    order = order.view(np.uint64)
    order &= ~low
    order |= np.arange(n, dtype=np.uint64)
    order.sort()
    order &= low
    order = order.view(np.intp)
    centred = np.take(x, order)  # the sorted values until the scatter below
    if (centred[1:] < centred[:-1]).any():
        # two values shared a key prefix and their indices put them out of order
        # (float32 data never does while n <= 2**29: its low 29 bits are zeros)
        order = np.argsort(x)
        centred = np.take(x, order)
    half = 0.5 * (n + 1)
    # tied[i]: sorted positions i - 1 and i hold equal values. A tied run at
    # sorted positions lo .. hi-1 flips tied between lo and lo + 1 and between
    # hi - 1 and hi, and shares rank (lo + hi + 1) / 2; a value alone in its
    # run at position p has rank p + 1
    tied = np.zeros(n + 1, bool)
    np.equal(centred[1:], centred[:-1], out=tied[1:n])
    edges = np.flatnonzero(tied[1:] != tied[:-1])
    lo, hi = edges[0::2], edges[1::2] + 1
    ranks = np.arange(1.0 - half, n + 1 - half)
    ranks[tied[1:] | tied[:-1]] = np.repeat(0.5 * (lo + hi + 1) - half, hi - lo)
    centred[order] = ranks
    return _freeze(centred), float(_sumprod(centred, centred))


def _cosine(x: tuple[np.ndarray, np.ndarray], y: tuple[np.ndarray, np.ndarray]) -> float:
    # Sum of per-channel cosines; a zero-norm channel contributes 0, a NaN one NaN.
    (xr, xn), (yr, yn) = x, y
    dots = _sumprod(xr, yr)
    norms = xn * yn
    ok = norms != 0.0
    return float(np.add.reduce(dots[ok] / norms[ok]))  # np.sum's reduction


def _manhattan(x: np.ndarray, y: np.ndarray) -> float:
    d = x - y
    return -float(np.sum(np.abs(d, out=d)))


def _euclidean(x: np.ndarray, y: np.ndarray) -> float:
    d = (x - y).ravel()
    return -math.sqrt(float(_sumprod(d, d)))


def _dot(x: np.ndarray, y: np.ndarray) -> float:
    return float(_sumprod(x.ravel(), y.ravel()))


def _correlation(x: tuple[np.ndarray, float], y: tuple[np.ndarray, float]) -> float:
    # Pearson correlation of two centred keys. Zero variance on either side
    # yields 0 (degenerate inputs rank as non-redundant rather than dividing
    # by zero). A product of the variances that leaves the normal floats
    # (underflows, even to 0.0, or overflows) is replaced by the product of
    # their roots, which stays in range.
    (xc, vx), (yc, vy) = x, y
    if vx == 0.0 or vy == 0.0:
        return 0.0
    xy, vv = float(_sumprod(xc, yc)), vx * vy
    if sys.float_info.min <= vv <= sys.float_info.max:
        return xy / math.sqrt(vv)
    return xy / (math.sqrt(vx) * math.sqrt(vy))


# metric -> (key of one map's data, score of two keys). Cosine's key is the
# channel rows and their norms, Pearson's the centred flat data, Spearman's
# the centred average ranks; the distances and dot score the data.
_METRICS = {
    "cosine": (_rows, _cosine),
    "manhattan": (_data, _manhattan),
    "euclidean": (_data, _euclidean),
    "dot": (_data, _dot),
    "spearman": (_ranks, _correlation),
    "pearson": (lambda data: _centre(data.ravel()), _correlation),
}
SIMILARITY_METRICS = tuple(_METRICS)


def _key(metric: str, fm: FeatureMap):
    """``fm``'s key for ``metric``: computed on first use and kept, read-only,
    in the map's memo; a concurrent first use only computes it twice."""
    memo = fm._memo[1]
    key = memo.get(metric)
    if key is None:
        key = memo[metric] = _METRICS[metric][0](fm.data)
    return key


def similarity(metric: str, a: FeatureMap, b: FeatureMap) -> float:
    """Redundancy score between two feature maps; higher = more redundant.

    cosine sums per-channel cosines (bounded by the channel count);
    manhattan and euclidean are negated distances over the flattened
    tensor; dot, spearman, and pearson operate on the flattened tensor.
    Scores are memoized per pair of maps (by identity) and metric, so asking
    again, in either order, returns the same float without recomputing it.
    A score that is not finite (a sum overflowed) raises ValueError naming
    the metric and both frames, and is not memoized.
    """
    _choice("similarity metric", metric, SIMILARITY_METRICS)
    _instance("a", a, FeatureMap)
    _instance("b", b, FeatureMap)
    if a.shape != b.shape:
        raise ValueError(f"feature shapes differ: {a.shape} vs {b.shape}")
    serial_a, memo_a = a._memo
    serial_b, memo_b = b._memo
    score = memo_a.get((metric, serial_b))
    if score is None:
        with np.errstate(over="ignore", invalid="ignore"):
            score = _METRICS[metric][1](_key(metric, a), _key(metric, b))
        if not math.isfinite(score):
            raise ValueError(f"{metric} score {score} for frames {a.frame_index} "
                             f"and {b.frame_index} is not finite")
        memo_a[metric, serial_b] = memo_b[metric, serial_a] = score
    return score


def _argmax_frame(scores: dict[int, float]) -> int:
    """The highest-scoring frame index; a tie goes to the smallest, on every CPU."""
    return max(sorted(scores), key=scores.__getitem__)


@dataclass(frozen=True)
class MemoryEntry:
    """One stored frame, held only by the bank: its index and its features.
    The bank holds no masks; a tracker keeps its own predictions."""

    frame_index: int
    features: FeatureMap

    def __post_init__(self):
        object.__setattr__(self, "frame_index", _integer("frame_index", self.frame_index))
        _instance("features", self.features, FeatureMap)
        if self.features.frame_index != self.frame_index:
            raise ValueError(
                f"features.frame_index {self.features.frame_index} != entry frame_index {self.frame_index}")


@dataclass(frozen=True)
class PruneOutcome:
    """One prune decision, as frame indices: it holds no features.

    retained is the temporally ordered tuple of frame indices fed to readout;
    metric and mode are the ones the step ran with; scores maps group name ->
    {candidate frame_index: redundancy score}. When the bank was below
    capacity nothing is scored or pruned.
    """

    retained: tuple[int, ...]
    pruned_frame_indices: tuple[int, ...]
    metric: str
    mode: str
    scores: dict[str, dict[int, float]] = field(default_factory=dict)

    @property
    def fired(self) -> bool:
        return bool(self.pruned_frame_indices)

    @property
    def bank_before(self) -> tuple[int, ...]:
        """The bank's frame indices when the step ran: retained and pruned."""
        return tuple(sorted(self.retained + self.pruned_frame_indices))


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

    def append(self, entry: MemoryEntry) -> None:
        """FIFO insert: evicts the oldest entry when the bank is full."""
        _instance("entry", entry, MemoryEntry)
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
            return PruneOutcome(self.frame_indices, (), metric, mode)
        # the oldest capacity // 2 entries are the long group, referenced by the
        # oldest; the newest ceil(capacity / 2) are the short group, referenced
        # by the newest
        cut = self.capacity // 2
        long, short = self._entries[:cut], self._entries[cut:]
        scores: dict[str, dict[int, float]] = {}
        victims: list[int] = []
        for name, (reference, candidates) in zip(_GROUPS, ((short[-1], short[:-1]),
                                                           (long[0], long[1:]))):
            scores[name] = group_scores = {
                c.frame_index: similarity(metric, reference.features, c.features)
                for c in candidates}
            if group_scores:
                victims.append(_argmax_frame(group_scores))
        kept = [e for e in self._entries if e.frame_index not in victims]
        if mode == "persistent":
            self._entries = kept
        return PruneOutcome(tuple(e.frame_index for e in kept), tuple(sorted(victims)),
                            metric, mode, scores)
