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

import operator
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import FrameSequence

DEFAULT_BOUNDARY_RADIUS = 14
METRIC_NAMES = ("J&F", "J", "F", "Dice", "CIoU")


def _as_pixel_set(mask) -> np.ndarray:
    arr = np.asarray(mask, dtype=bool)
    if arr.ndim != 2:
        raise ValueError(f"pixel set must be 2-D, got {arr.ndim}-D")
    return arr


def _pixel_pair(pred, gt) -> tuple[np.ndarray, np.ndarray]:
    p = _as_pixel_set(pred)
    g = _as_pixel_set(gt)
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


def _check_radius(radius: int) -> int:
    try:
        radius = operator.index(radius)
    except TypeError:
        raise ValueError(f"radius must be an integer, got {radius!r}") from None
    if radius < 0:
        raise ValueError(f"radius must be >= 0, got {radius}")
    return radius


def jaccard(pred, gt) -> float:
    """Region overlap |P & G| / |P | G|; 1.0 when both sets are empty."""
    return _ratio(*_overlap(*_pixel_pair(pred, gt)))


def dice(pred, gt) -> float:
    """Overlap 2|P & G| / (|P| + |G|); 1.0 when both sets are empty."""
    return _dice(*_overlap(*_pixel_pair(pred, gt)))


def boundary_pixels(mask) -> np.ndarray:
    """Member pixels with a 4-connected neighbor that is a non-member or
    lies outside the image (the image border counts as exterior)."""
    m = _as_pixel_set(mask)
    h, w = m.shape
    interior = np.zeros_like(m)
    if h > 2 and w > 2:
        interior[1:-1, 1:-1] = (m[:-2, 1:-1] & m[2:, 1:-1] & m[1:-1, :-2] & m[1:-1, 2:])
    return m & ~interior


def disk_footprint(radius: int) -> np.ndarray:
    """Integer Euclidean ball: offsets (dy, dx) with dy^2 + dx^2 <= radius^2."""
    _check_radius(radius)
    yy, xx = np.ogrid[-radius:radius + 1, -radius:radius + 1]
    return yy * yy + xx * xx <= radius * radius


def dilate_disk(pixels, radius: int) -> np.ndarray:
    """Dilate a pixel set by the disk of the given radius, clipped to the image.

    The disk is one horizontal run per row offset (Urbach & Wilkinson, IEEE
    TIP 2008). With prefix sums along the rows of the padded set, one
    subtraction tells whether a run covers a member, so the work is
    O(h*w*r). A disk that spans the image diagonal covers the whole image
    from any member, so such a radius costs no more than a fill.
    """
    r = _check_radius(radius)
    m = _as_pixel_set(pixels)
    h, w = m.shape
    if r * r >= (h - 1) ** 2 + (w - 1) ** 2:
        return np.full_like(m, m.any())
    half_widths = np.count_nonzero(disk_footprint(r), axis=1) // 2
    band = np.zeros((h + 2 * r, w + 2 * r + 1), dtype=np.int32)
    np.cumsum(np.pad(m, r), axis=1, out=band[:, 1:])
    out = np.zeros_like(m)
    for top, k in enumerate(half_widths):
        rows = band[top:top + h]
        out |= rows[:, r + k + 1:r + k + 1 + w] > rows[:, r - k:r - k + w]
    return out


def boundary_f(pred, gt, radius: int = DEFAULT_BOUNDARY_RADIUS) -> float:
    """Boundary F measure: harmonic mean of boundary precision and recall.

    Precision is the fraction of predicted boundary pixels within the
    dilated ground-truth boundary; recall is the fraction of ground-truth
    boundary pixels within the dilated predicted boundary. Both boundaries
    empty -> 1.0; exactly one empty -> 0.0; precision + recall == 0 -> 0.0.
    """
    _check_radius(radius)
    p, g = _pixel_pair(pred, gt)
    bp = boundary_pixels(p)
    bg = boundary_pixels(g)
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
    if not 0.0 <= j <= 1.0:
        raise ValueError(f"J must be in [0, 1], got {j}")
    if not 0.0 <= f <= 1.0:
        raise ValueError(f"F must be in [0, 1], got {f}")
    return (j + f) / 2.0


def ciou(pred_seq: Sequence, gt_seq: Sequence) -> float:
    """Sequence-level IoU: sum of per-frame intersections over sum of
    per-frame unions; 1.0 when every frame pair is empty."""
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
             metrics: Sequence[str] = METRIC_NAMES,
             object_ids: Sequence[int] | None = None) -> MetricReport:
    """Score aligned mask sequences per object id and aggregate over objects.

    Masks are binarized per object id before any metric; background is
    never scored. Ids default to every id present in the ground truth;
    explicitly requested ids must appear in at least one ground-truth
    frame. J, F, and Dice are per-frame values averaged over the sequence;
    the sequence-level IoU accumulates counts over all frames first.
    """
    radius = _check_radius(radius)  # a plain int, so the report serializes
    _check_aligned(pred, gt)
    requested = list(metrics)
    unknown = [m for m in requested if m not in METRIC_NAMES]
    if unknown:
        raise ValueError(f"unknown metrics {unknown}, expected a subset of {METRIC_NAMES}")
    if not requested:
        raise ValueError("no metrics requested")

    gt_ids = sorted({i for frame in gt for i in frame.object_ids()})
    ids = gt_ids if object_ids is None else sorted(int(i) for i in object_ids)
    if not ids:
        raise ValueError("no objects to score")
    missing = [i for i in ids if i not in gt_ids]
    if missing:
        raise ValueError(f"object ids {missing} absent from every ground-truth frame")

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
