"""Shared value types: feature tensors, label masks, and frame sequences.

Every type validates its payload at construction and freezes it afterwards
(the backing arrays are made read-only), so instances can be shared across
threads without synchronization. Intake rule: an array a caller passes is
copied, so no view the caller keeps can change a map or a mask. An array the
library has just built and shares with no one (a fresh encoding, a rasterized
frame, the frozen labels of another mask) is adopted: handed over wrapped in
:class:`_Adopted`, it is validated and frozen without a copy.

These are values only: how maps are scored lives in :mod:`vosmem.memory`.
A feature map carries a memo (a serial and a dict) that ``memory`` fills
with what it derives from the map's data, which never changes. Pickles and
copies are rebuilt through the constructor, so they are frozen as well and
start with an empty memo. Feature data is held as float64 regardless of
any on-disk precision so that similarity sums reproduce across platforms.
Feature maps and masks compare and hash by identity: an array has no
single truth value, so field-wise equality would raise.
"""

from __future__ import annotations

__all__ = ["MAX_OBJECT_ID", "FeatureMap", "FrameSequence", "LabelMask"]

import operator
from dataclasses import dataclass
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


def _instance(name: str, value, cls: type | tuple[type, ...]) -> None:
    """The library's one kind rule: ``value`` must be an instance of ``cls``
    or one of its types; anything else raises ValueError naming ``name``."""
    if not isinstance(value, cls):
        kinds = " or ".join(c.__name__ for c in (cls if isinstance(cls, tuple) else (cls,)))
        raise ValueError(f"{name} must be a {kinds}, got {type(value).__name__}")


def _choice(what: str, value, choices: tuple[str, ...]) -> None:
    """The library's one name rule: ``value`` must be a string in ``choices``;
    anything else (a NumPy array or dtype, None) raises ValueError naming ``what``."""
    if not isinstance(value, str) or value not in choices:
        raise ValueError(f"unknown {what} {value!r}, expected one of {choices}")


def _reals(name: str, value) -> np.ndarray:
    """The library's one real-number rule: ``value`` through ``np.asarray``,
    so an array is not copied; data that is not real numbers (None, strings,
    complex or object data) raises ValueError naming ``name``."""
    arr = np.asarray(value)
    if arr.dtype.kind not in "biuf":
        raise ValueError(f"{name} must hold real numbers, got {type(value).__name__} "
                         f"of dtype {arr.dtype}")
    return arr


def _finite(name: str, arr: np.ndarray) -> None:
    """The library's one finiteness rule: a NaN or an infinity in ``arr``
    raises ValueError naming ``name`` and the flat index of the first."""
    finite = np.isfinite(arr)
    if not finite.all():
        bad = int(np.flatnonzero(~finite.ravel())[0])
        raise ValueError(f"non-finite {name} value at flat index {bad}")


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class FeatureMap:
    """Per-frame feature tensor of shape (channels, height, width).

    Values must be finite real numbers and are stored as float64. ``data``
    is read-only after construction.
    """

    frame_index: int
    data: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "frame_index", _integer("frame_index", self.frame_index, 0))
        adopted = type(self.data) is _Adopted
        arr = _reals("data", self.data.array if adopted else self.data)
        arr = arr.astype(np.float64, order="C", copy=not adopted)
        if arr.ndim != 3:
            raise ValueError(f"feature data must be 3-D (channels, h, w), got {arr.ndim}-D")
        if min(arr.shape) < 1:
            raise ValueError(f"feature dimensions must all be >= 1, got {arr.shape}")
        _finite("feature", arr)
        object.__setattr__(self, "data", _freeze(arr))
        # memory files a pair score under the other map's serial, so no memo holds a map
        object.__setattr__(self, "_memo", (next(_SERIALS), {}))

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.data.shape

    def __reduce__(self):
        # a pickle or copy is rebuilt through __init__, so it is validated and
        # frozen, and starts with an empty memo (serials are per process)
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
        """Boolean membership map for one object id, an integer."""
        return self.labels == _integer("object_id", object_id)


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
        for i, f in enumerate(frames):
            _instance(f"frames[{i}]", f, LabelMask)
        first = frames[0]
        for prev, cur in zip(frames, frames[1:]):
            if cur.frame_index <= prev.frame_index:
                raise ValueError(
                    f"frame_index must be strictly increasing, got {prev.frame_index} "
                    f"then {cur.frame_index}")
        for f in frames:
            if f.shape != first.shape:
                raise ValueError(
                    f"all frames must share spatial dimensions, got "
                    f"{first.shape} and {f.shape} "
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
        return self.frames[0].shape
