"""Segmentation quality metrics over binary pixel sets.

Pixel sets are plain 2-D boolean arrays. The suite covers region overlap
(Jaccard/IoU and Dice), boundary agreement (F measure after dilating both
boundaries with a disk), their J&F average, and a sequence-level IoU that
accumulates intersections and unions over all frames of an object before
dividing (frames are disjoint time slabs of one spatiotemporal volume, so
the accumulated form equals the 3-D IoU of the stacked masks).

Conventions for degenerate inputs: when prediction and ground truth are
both empty the overlap metrics return 1 (nothing was missed and nothing
was hallucinated); when exactly one side is empty they return 0.
"""

from __future__ import annotations

__all__ = ["DEFAULT_BOUNDARY_RADIUS", "METRIC_NAMES", "AggregateStat", "MetricReport",
           "boundary_f", "ciou", "dice", "dilate_disk", "disk_footprint", "evaluate",
           "j_and_f", "jaccard"]

import functools
import math
import numbers
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .core import FrameSequence, _choice, _finite, _freeze, _instance, _integer, _items, _reals

DEFAULT_BOUNDARY_RADIUS = 14
METRIC_NAMES = ("J&F", "J", "F", "Dice", "CIoU")


def _as_pixel_set(name: str, mask) -> np.ndarray:
    """``mask`` as a 2-D bool array; data that is not real numbers raises
    ValueError naming ``name``, by ``core._reals``, and so does a NaN or an
    infinity in a float mask, which no pixel set holds, by ``core._finite``."""
    arr = _reals(name, mask)
    if arr.dtype.kind == "f":  # bool and integer masks are finite
        _finite(name, arr)
    arr = arr.astype(bool, copy=False)
    if arr.ndim != 2:
        raise ValueError(f"pixel set must be 2-D, got {arr.ndim}-D")
    return arr


def _pixel_pair(pred, gt) -> tuple[np.ndarray, np.ndarray]:
    p = _as_pixel_set("pred", pred)
    g = _as_pixel_set("gt", gt)
    if p.shape != g.shape:
        raise ValueError(f"pixel sets differ in shape: {p.shape} vs {g.shape}")
    return p, g


def _overlap(p: np.ndarray, g: np.ndarray) -> tuple[int, int]:
    """Pixel counts of the intersection and the union of two pixel sets."""
    return int(np.count_nonzero(p & g)), int(np.count_nonzero(p | g))


def _ratio(part: int, whole: int) -> float:
    # an empty whole means both sets are empty: nothing missed, nothing extra
    return 1.0 if whole == 0 else part / whole


def _dice(i: int, u: int) -> float:
    return _ratio(2 * i, i + u)  # |P| + |G| == |P & G| + |P | G|


def _ciou(counts: list[tuple[int, int]]) -> float:
    """Sequence IoU from per-frame (intersection, union) pixel counts."""
    return _ratio(sum(i for i, _ in counts), sum(u for _, u in counts))


def jaccard(pred, gt) -> float:
    """Region overlap |P & G| / |P | G|; 1.0 when both sets are empty."""
    return _ratio(*_overlap(*_pixel_pair(pred, gt)))


def dice(pred, gt) -> float:
    """Overlap 2|P & G| / (|P| + |G|); 1.0 when both sets are empty."""
    return _dice(*_overlap(*_pixel_pair(pred, gt)))


def _boundary_pixels(m: np.ndarray) -> np.ndarray:
    """Member pixels of the pixel set ``m`` with a 4-connected neighbor that
    is a non-member or lies outside the image (the image border counts as
    exterior)."""
    interior = np.zeros_like(m)  # a side of 1 or 2 leaves these slices empty
    interior[1:-1, 1:-1] = (m[:-2, 1:-1] & m[2:, 1:-1] & m[1:-1, :-2] & m[1:-1, 2:])
    return m & ~interior


@functools.lru_cache(maxsize=32)
def _half_widths(radius: int) -> np.ndarray:
    """The integer Euclidean ball's half-width at each row offset g = 0..radius:
    the largest dx with g^2 + dx^2 <= radius^2, that is isqrt(radius^2 - g^2).
    Read-only and cached: a dilation at the usual radius costs a few
    microseconds less."""
    return _freeze(np.array([math.isqrt(radius * radius - g * g) for g in range(radius + 1)],
                            dtype=np.int64))


def disk_footprint(radius: int) -> np.ndarray:
    """Integer Euclidean ball: offsets (dy, dx) with dy^2 + dx^2 <= radius^2."""
    radius = _integer("radius", radius, 0)
    offsets = np.abs(np.arange(-radius, radius + 1))
    return offsets <= _half_widths(radius)[offsets, None]  # |dx| <= half-width at |dy|


def dilate_disk(pixels, radius: int) -> np.ndarray:
    """Dilate a pixel set by the disk of the given radius, clipped to the image.

    A thresholded separable distance transform (the two passes of Meijster,
    Roerdink & Hesselink, 2000), in integers throughout:

    1. Crop to the members' bounding box grown by r and clipped to the
       image; nothing outside it is covered.
    2. Row gaps: running maxima along each row, and along the mirrored row,
       give gap[y, x], the distance from x to the nearest member of row y.
    3. Reach: d = isqrt(r^2 - gap^2) for gap <= r, and -1 (reaches no row)
       for a larger gap or a row without members.
    4. Column running maxima: (y, x) is covered iff max over y' <= y of
       d[y', x] + y' is at least y, or max over y' >= y of d[y', x] - y' is
       at least -y.

    This is exact: (y, x) is covered iff some member (y', x') has
    (y - y')^2 + (x - x')^2 <= r^2, iff some row y' has
    (y - y')^2 + gap[y', x]^2 <= r^2, iff |y - y'| <= d[y', x]. A fixed
    number of whole-array passes over the box does the work, so the cost is
    O(box area) whatever r is, and at most two int32 box-sized arrays are
    alive at once. A disk that spans the image diagonal covers the whole
    image from any member, so such a radius costs no more than a fill.
    """
    r = _integer("radius", radius, 0)
    m = _as_pixel_set("pixels", pixels)
    h, w = m.shape
    if r * r >= (h - 1) ** 2 + (w - 1) ** 2:
        return np.full_like(m, m.any())
    out = np.zeros((h, w), dtype=bool)
    rows = m.any(axis=1).nonzero()[0]
    if rows.size == 0:
        return out
    cols = m.any(axis=0).nonzero()[0]
    y0, y1 = max(rows[0] - r, 0), min(rows[-1] + r + 1, h)
    x0, x1 = max(cols[0] - r, 0), min(cols[-1] + r + 1, w)
    box = m[y0:y1, x0:x1]
    bh, bw = box.shape
    # x + r + 1 at members and 0 elsewhere, so that the running maximum
    # subtracted from x + r + 1 is the gap to the last member at or left of
    # x, and more than r where there is none
    xs = np.arange(r + 1, bw + r + 1, dtype=np.int32)
    gap = np.multiply(box, xs)
    np.maximum.accumulate(gap, axis=1, out=gap)
    np.subtract(xs, gap, out=gap)
    right = np.multiply(box[:, ::-1], xs)
    np.maximum.accumulate(right, axis=1, out=right)
    np.subtract(xs, right, out=right)
    np.minimum(gap, right[:, ::-1], out=gap)
    del right  # before the lookup, so that two int32 boxes are the peak
    reach = np.full(bw + r + 1, -1, dtype=np.int32)  # every gap is below bw + r + 1
    reach[:r + 1] = _half_widths(r)
    d = reach[gap]
    ys = np.arange(bh, dtype=np.int32)[:, None]
    down = np.add(d, ys, out=gap)
    np.maximum.accumulate(down, axis=0, out=down)
    cover = out[y0:y1, x0:x1]
    np.greater_equal(down, ys, out=cover)
    np.subtract(d, ys, out=d)
    np.maximum.accumulate(d[::-1], axis=0, out=d[::-1])
    cover |= d >= -ys
    return out


def boundary_f(pred, gt, radius: int = DEFAULT_BOUNDARY_RADIUS) -> float:
    """Boundary F measure: harmonic mean of boundary precision and recall.

    Precision is the fraction of predicted boundary pixels within the
    dilated ground-truth boundary; recall is the fraction of ground-truth
    boundary pixels within the dilated predicted boundary. Both boundaries
    empty -> 1.0; exactly one empty -> 0.0; precision + recall == 0 -> 0.0.
    """
    radius = _integer("radius", radius, 0)
    p, g = _pixel_pair(pred, gt)
    bp = _boundary_pixels(p)
    bg = _boundary_pixels(g)
    np_b = int(np.count_nonzero(bp))
    ng_b = int(np.count_nonzero(bg))
    if np_b == 0 and ng_b == 0:
        return 1.0
    if np_b == 0 or ng_b == 0:
        return 0.0
    precision = int(np.count_nonzero(bp & dilate_disk(bg, radius))) / np_b
    recall = int(np.count_nonzero(bg & dilate_disk(bp, radius))) / ng_b
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def j_and_f(j: float, f: float) -> float:
    """Arithmetic mean of region similarity J and boundary accuracy F."""
    for name, value in (("J", j), ("F", f)):
        if not isinstance(value, numbers.Real):
            raise ValueError(f"{name} must be a real number, got {value!r}")
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"{name} must be in [0, 1], got {value}")
    return (j + f) / 2.0


def ciou(pred_seq: Iterable, gt_seq: Iterable) -> float:
    """Sequence-level IoU: sum of per-frame intersections over sum of
    per-frame unions; 1.0 when every frame pair is empty. Either sequence
    may be any iterable of pixel sets."""
    pred_seq = _items("pred_seq", pred_seq, "pixel sets")
    gt_seq = _items("gt_seq", gt_seq, "pixel sets")
    if len(pred_seq) != len(gt_seq):
        raise ValueError(
            f"sequence lengths differ: {len(pred_seq)} vs {len(gt_seq)}")
    return _ciou([_overlap(*_pixel_pair(pred, gt))
                  for pred, gt in zip(pred_seq, gt_seq)])


@dataclass(frozen=True)
class AggregateStat:
    mean: float
    sd: float


@dataclass(frozen=True)
class MetricReport:
    """Per-object means, optional per-frame rows, and cross-object stats.

    per_object maps object id -> {metric name: value}; aggregate maps
    metric name -> mean and sample standard deviation over objects (sd is
    0.0 when only one object is present). All values are fractions in
    [0, 1]; formatting as percentages happens at presentation time.
    """

    per_object: dict[int, dict[str, float]]
    aggregate: dict[str, AggregateStat]
    per_frame: dict[int, list[dict[str, float]]]
    radius: int

    def to_dict(self, include_per_frame: bool = False) -> dict:
        _instance("include_per_frame", include_per_frame, bool)
        out = {
            "radius": self.radius,
            "per_object": {
                str(oid): {k: float(v) for k, v in vals.items()}
                for oid, vals in self.per_object.items()
            },
            "aggregate": {
                k: {"mean": float(s.mean), "sd": float(s.sd)}
                for k, s in self.aggregate.items()
            },
        }
        if include_per_frame:
            out["per_frame"] = {
                str(oid): [{k: (float(v) if k != "frame_index" else int(v))
                            for k, v in row.items()} for row in rows]
                for oid, rows in self.per_frame.items()
            }
        return out

    def format_table(self) -> str:
        """Aligned table of percentages, mean+/-sd on the aggregate row."""
        names = [n for n in METRIC_NAMES if n in self.aggregate]
        header = ["object"] + [f"{n}[%]" for n in names]
        rows = [header]
        for oid in sorted(self.per_object):
            vals = self.per_object[oid]
            rows.append([str(oid)] + [f"{100.0 * vals[n]:.2f}" for n in names])
        agg = ["mean"] + [
            f"{100.0 * self.aggregate[n].mean:.2f}±{100.0 * self.aggregate[n].sd:.2f}"
            for n in names
        ]
        rows.append(agg)
        widths = [max(len(r[c]) for r in rows) for c in range(len(header))]
        lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
                 for row in rows]
        return "\n".join(lines)


def _check_aligned(pred: FrameSequence, gt: FrameSequence) -> None:
    if len(pred) != len(gt):
        raise ValueError(f"sequence lengths differ: {len(pred)} vs {len(gt)}")
    if pred.spatial_shape != gt.spatial_shape:
        raise ValueError(
            f"spatial dimensions differ: {pred.spatial_shape} vs {gt.spatial_shape}")
    if pred.frame_indices != gt.frame_indices:
        raise ValueError("prediction and ground truth frame indices are not aligned")


def evaluate(pred: FrameSequence, gt: FrameSequence,
             radius: int = DEFAULT_BOUNDARY_RADIUS,
             metrics: str | Sequence[str] = METRIC_NAMES) -> MetricReport:
    """Score aligned mask sequences per object id and aggregate over objects.

    Every object id present in at least one ground-truth frame is scored,
    as the DAVIS protocol does; background is never scored, and a ground
    truth without any object raises ValueError. Masks are binarized per
    object id before any metric. J, F, and Dice are per-frame values
    averaged over the sequence; the sequence-level IoU accumulates counts
    over all frames first.
    """
    radius = _integer("radius", radius, 0)  # a plain int, so the report serializes
    _instance("pred", pred, FrameSequence)
    _instance("gt", gt, FrameSequence)
    _check_aligned(pred, gt)
    requested = ((metrics,) if isinstance(metrics, str)
                 else _items("metrics", metrics, "metric names"))
    for name in requested:
        _choice("evaluation metric", name, METRIC_NAMES)
    if not requested:
        raise ValueError("no metrics requested")

    ids = sorted({i for frame in gt for i in frame.object_ids()})
    if not ids:
        raise ValueError("no objects to score")

    need_j = bool({"J", "J&F"} & set(requested))
    need_f = bool({"F", "J&F"} & set(requested))

    per_object: dict[int, dict[str, float]] = {}
    per_frame: dict[int, list[dict[str, float]]] = {}
    for oid in ids:
        rows = []
        counts = []
        for pf, gf in zip(pred, gt):
            p = pf.binarize(oid)
            g = gf.binarize(oid)
            i, u = _overlap(p, g)
            counts.append((i, u))
            row: dict[str, float] = {"frame_index": pf.frame_index}
            if need_j:
                row["J"] = _ratio(i, u)
            if need_f:
                row["F"] = boundary_f(p, g, radius)
            if "Dice" in requested:
                row["Dice"] = _dice(i, u)
            rows.append(row)
        per_frame[oid] = rows
        means = {name: float(np.mean([r[name] for r in rows]))
                 for name in ("J", "F", "Dice") if name in rows[0]}
        if "J&F" in requested:
            means["J&F"] = j_and_f(means["J"], means["F"])
        means["CIoU"] = _ciou(counts)
        # canonical key order keeps serialized reports byte-stable
        per_object[oid] = {name: means[name] for name in METRIC_NAMES if name in requested}

    aggregate: dict[str, AggregateStat] = {}
    for name in per_object[ids[0]]:
        values = np.array([per_object[oid][name] for oid in ids], dtype=np.float64)
        sd = float(np.std(values, ddof=1)) if len(values) > 1 else 0.0
        aggregate[name] = AggregateStat(mean=float(values.mean()), sd=sd)

    return MetricReport(per_object=per_object, aggregate=aggregate,
                        per_frame=per_frame, radius=radius)
