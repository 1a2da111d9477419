"""Shared value types: feature tensors, label masks, and frame sequences.

Every type validates its payload at construction and freezes it afterwards
(the backing arrays are made read-only), so instances can be shared across
threads without synchronization. A feature map's memory keys (the per-frame
terms of its similarity scores) are computed on first use and stored
read-only; a concurrent first use only computes the same value twice.
Feature data is held as float64 regardless of any on-disk precision so that
similarity sums reproduce across platforms.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Sequence, Union

import numpy as np

MAX_OBJECT_ID = 255


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks of a non-empty array, flattened; ties share the average
    of their positions, as SciPy's ``rankdata(values, method="average")``."""
    x = np.ravel(values)
    order = np.argsort(x)
    xs = x[order]
    new = np.r_[True, xs[1:] != xs[:-1]]
    # run k of equal values holds sorted positions start[k] .. start[k+1]-1
    start = np.r_[np.flatnonzero(new), x.size]
    ranks = np.empty(x.size)
    ranks[order] = (0.5 * (start[:-1] + start[1:] + 1))[np.cumsum(new) - 1]
    return ranks


def _centre(x: np.ndarray) -> tuple[np.ndarray, float]:
    xc = x - x.mean()
    return _freeze(xc), float(np.dot(xc, xc))


@dataclass(frozen=True)
class FeatureMap:
    """Per-frame feature tensor of shape (channels, height, width).

    Values are stored as float64 and must be finite. ``data`` is read-only
    after construction. The memory keys ``channel_norms``, ``centred`` and
    ``centred_ranks`` are computed on first use, once per map, and are
    read-only too; a concurrent first use only computes the same value twice.
    """

    frame_index: int
    data: np.ndarray

    def __post_init__(self):
        if self.frame_index < 0:
            raise ValueError(f"frame_index must be >= 0, got {self.frame_index}")
        arr = np.array(self.data, dtype=np.float64, order="C")
        if arr.ndim != 3:
            raise ValueError(f"feature data must be 3-D (channels, h, w), got {arr.ndim}-D")
        if min(arr.shape) < 1:
            raise ValueError(f"feature dimensions must all be >= 1, got {arr.shape}")
        finite = np.isfinite(arr)
        if not finite.all():
            bad = int(np.flatnonzero(~finite.ravel())[0])
            raise ValueError(f"non-finite feature value at flat index {bad}")
        object.__setattr__(self, "data", _freeze(arr))

    @property
    def channels(self) -> int:
        return self.data.shape[0]

    @property
    def height(self) -> int:
        return self.data.shape[1]

    @property
    def width(self) -> int:
        return self.data.shape[2]

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.data.shape

    @cached_property
    def channel_norms(self) -> np.ndarray:
        """L2 norm of each channel (the cosine key)."""
        return _freeze(np.linalg.norm(self.data.reshape(self.channels, -1), axis=1))

    @cached_property
    def centred(self) -> tuple[np.ndarray, float]:
        """Mean-centred flat data and its squared norm (the Pearson key)."""
        return _centre(self.data.ravel())

    @cached_property
    def centred_ranks(self) -> tuple[np.ndarray, float]:
        """Mean-centred average ranks of the flat data and their squared norm
        (the Spearman key)."""
        return _centre(average_ranks(self.data))


def make_feature_map(frame_index: int, channels: int, height: int, width: int,
                     data: Sequence[float] | np.ndarray) -> FeatureMap:
    """Build a validated :class:`FeatureMap` from a flat row-major buffer.

    Raises ValueError if the buffer length is not channels*height*width or
    any value is non-finite (the message names the offending flat index).
    """
    if channels < 1 or height < 1 or width < 1:
        raise ValueError(f"dimensions must be >= 1, got ({channels}, {height}, {width})")
    flat = np.asarray(data, dtype=np.float64).ravel()
    expected = channels * height * width
    if flat.size != expected:
        raise ValueError(
            f"data length {flat.size} does not match channels*height*width = {expected}")
    return FeatureMap(frame_index, flat.reshape(channels, height, width))


def approx_equal(a: FeatureMap, b: FeatureMap, tol: float) -> bool:
    """True iff shapes match and the max absolute elementwise difference <= tol.

    Shape mismatch compares as unequal rather than raising.
    """
    if tol < 0:
        raise ValueError(f"tol must be >= 0, got {tol}")
    if a.shape != b.shape:
        return False
    return float(np.max(np.abs(a.data - b.data))) <= tol


@dataclass(frozen=True)
class LabelMask:
    """Per-frame integer mask: 0 is background, 1..255 are object ids."""

    frame_index: int
    labels: np.ndarray

    def __post_init__(self):
        if self.frame_index < 0:
            raise ValueError(f"frame_index must be >= 0, got {self.frame_index}")
        arr = np.asarray(self.labels)
        if arr.ndim != 2:
            raise ValueError(f"labels must be 2-D (height, width), got {arr.ndim}-D")
        if min(arr.shape) < 1:
            raise ValueError(f"mask dimensions must be >= 1, got {arr.shape}")
        if not np.issubdtype(arr.dtype, np.integer):
            raise ValueError(f"labels must be integers, got dtype {arr.dtype}")
        if arr.size and (arr.min() < 0 or arr.max() > MAX_OBJECT_ID):
            raise ValueError(f"label values must be in 0..{MAX_OBJECT_ID}")
        object.__setattr__(self, "labels", _freeze(arr.astype(np.uint8, copy=True)))

    @property
    def height(self) -> int:
        return self.labels.shape[0]

    @property
    def width(self) -> int:
        return self.labels.shape[1]

    def object_ids(self) -> list[int]:
        """Sorted ids present in the mask, background excluded."""
        ids = np.unique(self.labels)
        return [int(i) for i in ids if i != 0]

    def binarize(self, object_id: int) -> np.ndarray:
        """Boolean membership map for one object id."""
        return self.labels == object_id


FramePayload = Union[FeatureMap, LabelMask]


@dataclass(frozen=True)
class FrameSequence:
    """Temporally ordered frames (feature maps or masks) on a common grid.

    frame_index must be strictly increasing and all frames must share the
    same spatial dimensions.
    """

    frames: tuple[FramePayload, ...]

    def __post_init__(self):
        frames = tuple(self.frames)
        if not frames:
            raise ValueError("a frame sequence needs at least one frame")
        first = frames[0]
        for prev, cur in zip(frames, frames[1:]):
            if cur.frame_index <= prev.frame_index:
                raise ValueError(
                    f"frame_index must be strictly increasing, got {prev.frame_index} "
                    f"then {cur.frame_index}")
        for f in frames:
            if (f.height, f.width) != (first.height, first.width):
                raise ValueError(
                    f"all frames must share spatial dimensions, got "
                    f"{(first.height, first.width)} and {(f.height, f.width)} "
                    f"at frame {f.frame_index}")
        object.__setattr__(self, "frames", frames)

    def __len__(self) -> int:
        return len(self.frames)

    def __iter__(self) -> Iterator[FramePayload]:
        return iter(self.frames)

    def __getitem__(self, i: int) -> FramePayload:
        return self.frames[i]

    @property
    def frame_indices(self) -> tuple[int, ...]:
        return tuple(f.frame_index for f in self.frames)

    @property
    def spatial_shape(self) -> tuple[int, int]:
        return self.frames[0].height, self.frames[0].width
