"""Shared value types: feature tensors, label masks, and frame sequences.

Every type validates its payload at construction and freezes it afterwards
(the backing arrays are made read-only), so instances can be shared across
threads without synchronization. Intake rule: an array a caller passes is
copied, so no view the caller keeps can change a map or a mask. An array the
library has just built and shares with no one (a fresh encoding, a rasterized
frame, the frozen labels of another mask) is adopted: handed over wrapped in
:class:`_Adopted`, it is validated and frozen without a copy.

A feature map's memory keys (the per-frame terms of its similarity scores)
are computed on first use and stored read-only; a concurrent first use only
computes the same value twice. Because a map's data never changes, the
scores that ``memory.similarity`` computes for it are memoized on the map
too. Pickles and copies are rebuilt through the constructor, so they are
frozen as well and carry neither the keys nor the memo. Feature data is
held as float64 regardless of any on-disk precision so that similarity
sums reproduce across platforms. Feature maps and masks compare and hash
by identity: an array has no single truth value, so field-wise equality
would raise.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property
from itertools import count
from typing import Iterator

import numpy as np

MAX_OBJECT_ID = 255

_SERIALS = count()  # FeatureMap memo serials; never reused within a process


class _Adopted:
    """An array the library built and shares with no one. Passed as a map's
    ``data`` or a mask's ``labels``, it is validated and frozen in place
    instead of copied. Callers' arrays are never wrapped: even a read-only
    array may have a writable view elsewhere."""

    __slots__ = ("array",)

    def __init__(self, array: np.ndarray):
        self.array = array


def _integer(name: str, value, minimum: int | None = None) -> int:
    """The library's one integer rule: ``value`` as a plain int; a non-integer
    (even ``2.0``) or a value below ``minimum`` raises ValueError naming ``name``."""
    try:
        number = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if minimum is not None and number < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {number}")
    return number


def _items(name: str, values, kind: str) -> tuple:
    """``values`` as a tuple; a value that is not iterable raises ValueError
    naming ``name`` and the ``kind`` of item it should hold."""
    try:
        return tuple(values)
    except TypeError:
        raise ValueError(f"{name} must be a sequence of {kind}, got {values!r}") from None


def _integers(name: str, values, minimum: int | None = None,
              count: int | None = None) -> tuple[int, ...]:
    """Each item through :func:`_integer` as ``name[i]``; ``count`` fixes their number."""
    items = _items(name, values, "integers")
    if count is not None and len(items) != count:
        raise ValueError(f"{name} must be {count} integers, got {values!r}")
    return tuple(_integer(f"{name}[{i}]", v, minimum) for i, v in enumerate(items))


def _choice(what: str, value, choices: tuple[str, ...]) -> None:
    """The library's one name rule: ``value`` must be a string in ``choices``;
    anything else (a NumPy array or dtype, None) raises ValueError naming ``what``."""
    if not isinstance(value, str) or value not in choices:
        raise ValueError(f"unknown {what} {value!r}, expected one of {choices}")


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks of a non-empty array, flattened; ties share the average
    of their positions, as SciPy's ``rankdata(values, method="average")``.

    Costs one ``argsort``, one gather, one scatter and one comparison of
    neighbours. Only tied values look up the ends of their run (a binary
    search each), so the tie handling grows with the number of tied values,
    not with the size of the array."""
    x = np.ravel(values)
    order = np.argsort(x)
    xs = x[order]
    ranks = np.empty(x.size)
    # a value alone in its run at sorted position p has rank p + 1
    ranks[order] = np.arange(1.0, x.size + 1)
    # a run of equal values at sorted positions lo .. hi-1 shares rank
    # (lo + hi + 1) / 2; p + 1 above is that same float when hi = lo + 1
    tied = np.flatnonzero(xs[1:] == xs[:-1])
    p = np.concatenate((tied, tied + 1))
    run = xs[p]
    ranks[order[p]] = 0.5 * (np.searchsorted(xs, run, "left")
                             + np.searchsorted(xs, run, "right") + 1)
    return ranks


def _centre(x: np.ndarray) -> tuple[np.ndarray, float]:
    # equal values centre to exact zeros: x - x.mean() would keep the rounding
    # error of the mean, and a constant map would get a tiny variance above 0
    if (x == x[0]).all():
        return _freeze(np.zeros_like(x)), 0.0
    xc = x - x.mean()
    return _freeze(xc), float(np.dot(xc, xc))


@dataclass(frozen=True, eq=False)
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
        object.__setattr__(self, "frame_index", _integer("frame_index", self.frame_index, 0))
        if type(self.data) is _Adopted:
            arr = np.asarray(self.data.array, dtype=np.float64, order="C")
        else:
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

    @cached_property
    def _memo(self) -> tuple[int, dict[tuple[str, int], float]]:
        """This map's serial and the scores ``memory.similarity`` memoized
        for it against maps of higher serial: (metric, serial) -> score.
        Serials are never reused, so the memo holds no reference to a map
        and cannot confuse a dead map with a new one."""
        return next(_SERIALS), {}

    def __reduce__(self):
        # a pickle or copy is rebuilt through __init__, so it is validated and
        # frozen, and starts without the keys and the memo (serials are per
        # process)
        return FeatureMap, (self.frame_index, self.data)


@dataclass(frozen=True, eq=False)
class LabelMask:
    """Per-frame integer mask: 0 is background, 1..255 are object ids."""

    frame_index: int
    labels: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "frame_index", _integer("frame_index", self.frame_index, 0))
        adopted = type(self.labels) is _Adopted
        arr = np.asarray(self.labels.array if adopted else self.labels)
        if arr.ndim != 2:
            raise ValueError(f"labels must be 2-D (height, width), got {arr.ndim}-D")
        if min(arr.shape) < 1:
            raise ValueError(f"mask dimensions must be >= 1, got {arr.shape}")
        if not np.issubdtype(arr.dtype, np.integer):
            raise ValueError(f"labels must be integers, got dtype {arr.dtype}")
        # uint8 holds exactly 0..MAX_OBJECT_ID, so only wider types are scanned
        if arr.dtype != np.uint8 and (arr.min() < 0 or arr.max() > MAX_OBJECT_ID):
            raise ValueError(f"label values must be in 0..{MAX_OBJECT_ID}")
        object.__setattr__(self, "labels", _freeze(arr.astype(np.uint8, copy=not adopted)))

    @property
    def height(self) -> int:
        return self.labels.shape[0]

    @property
    def width(self) -> int:
        return self.labels.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.labels.shape

    def __reduce__(self):
        # rebuilt through __init__, so a pickle or copy is frozen too
        return LabelMask, (self.frame_index, self.labels)

    def object_ids(self) -> list[int]:
        """Sorted ids present in the mask, background excluded."""
        ids = np.unique(self.labels)
        return [int(i) for i in ids if i != 0]

    def binarize(self, object_id: int) -> np.ndarray:
        """Boolean membership map for one object id."""
        return self.labels == object_id


@dataclass(frozen=True)
class FrameSequence:
    """Temporally ordered label masks on a common grid.

    Every frame must be a :class:`LabelMask`, frame_index must be strictly
    increasing and all frames must share the same spatial dimensions.
    """

    frames: tuple[LabelMask, ...]

    def __post_init__(self):
        frames = _items("frames", self.frames, "LabelMask")
        if not frames:
            raise ValueError("a frame sequence needs at least one frame")
        for f in frames:
            if not isinstance(f, LabelMask):
                raise ValueError(f"frames must be LabelMask, got {type(f).__name__}")
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

    def __iter__(self) -> Iterator[LabelMask]:
        return iter(self.frames)

    def __getitem__(self, i: int) -> LabelMask:
        return self.frames[i]

    @property
    def frame_indices(self) -> tuple[int, ...]:
        return tuple(f.frame_index for f in self.frames)

    @property
    def spatial_shape(self) -> tuple[int, int]:
        return self.frames[0].height, self.frames[0].width
