"""File formats and persistence: tensor container, PGM masks, JSON traces.

Two small on-disk formats keep the toolchain dependency-free:

* tensor files: magic ``FTEN``, version u16 LE, dtype code u8 (0 = float32,
  1 = float64), ndim u8, then ndim u32 LE dims and a row-major
  little-endian payload whose byte length must match the header exactly;
  a parsed payload is a read-only view in the file's dtype, and
  :class:`~vosmem.core.FeatureMap` makes the one float64 copy;
* mask files: binary PGM (``P5``) with maxval 255, one byte per pixel
  holding the object id; the filename stem encodes the frame index as
  leading decimal digits.

All writers are atomic (write to a temp file in the target directory,
then rename) and byte-reproducible: JSON keys are emitted in a fixed
order and no timestamps enter any payload.
"""

from __future__ import annotations

import json
import math
import os
import re
import struct
import tempfile
from pathlib import Path
from typing import Iterable

import numpy as np

from .core import FeatureMap, FrameSequence, LabelMask
from .harness import TrackTrace
from .memory import PruneOutcome

SCHEMA_VERSION = 1

TENSOR_MAGIC = b"FTEN"
TENSOR_VERSION = 1
_DTYPE_CODES = {0: np.dtype("<f4"), 1: np.dtype("<f8")}
_CODE_FOR_NAME = {"float32": 0, "float64": 1}


class TensorFormatError(ValueError):
    """Raised for malformed tensor files (bad magic, version, or payload)."""


class MaskFormatError(ValueError):
    """Raised for malformed mask files or inconsistent mask directories."""


# ---------------------------------------------------------------------------
# atomic writers


def atomic_write_bytes(path, data: bytes) -> None:
    """Write via temp file + rename so readers never observe partial files."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=target.parent, prefix=target.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(data)
        os.replace(tmp, target)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


# ---------------------------------------------------------------------------
# tensor container


def tensor_bytes(array: np.ndarray, dtype: str = "float64") -> bytes:
    """Serialize an array into the tensor container format."""
    if dtype not in _CODE_FOR_NAME:
        raise ValueError(f"unsupported dtype {dtype!r}, expected float32 or float64")
    code = _CODE_FOR_NAME[dtype]
    arr = np.ascontiguousarray(array, dtype=_DTYPE_CODES[code])
    header = struct.pack("<4sHBB", TENSOR_MAGIC, TENSOR_VERSION, code, arr.ndim)
    dims = struct.pack(f"<{arr.ndim}I", *arr.shape)
    return header + dims + arr.tobytes(order="C")


def parse_tensor_bytes(blob: bytes) -> np.ndarray:
    """Inverse of tensor_bytes; rejects bad magic, unknown versions or dtype
    codes, truncated headers, and payload/header size mismatches. Returns a
    read-only view of ``blob`` in the file's dtype, without copying."""
    if len(blob) < 8:
        raise TensorFormatError(f"truncated tensor header: {len(blob)} bytes")
    magic, version, code, ndim = struct.unpack_from("<4sHBB", blob, 0)
    if magic != TENSOR_MAGIC:
        raise TensorFormatError(f"bad magic {magic!r}, expected {TENSOR_MAGIC!r}")
    if version != TENSOR_VERSION:
        raise TensorFormatError(f"unsupported version {version}, expected {TENSOR_VERSION}")
    if code not in _DTYPE_CODES:
        raise TensorFormatError(f"unknown dtype code {code}")
    dims_end = 8 + 4 * ndim
    if len(blob) < dims_end:
        raise TensorFormatError("truncated tensor header: dims missing")
    dims = struct.unpack_from(f"<{ndim}I", blob, 8)
    dtype = _DTYPE_CODES[code]
    count = math.prod(dims)  # 1 for a 0-d tensor; exact, never wraps
    expected = count * dtype.itemsize
    if len(blob) - dims_end != expected:
        raise TensorFormatError(
            f"payload holds {len(blob) - dims_end} bytes but header dims {tuple(dims)} "
            f"require {expected}")
    return np.frombuffer(blob, dtype, count, offset=dims_end).reshape(dims)


def write_tensor(fmap: FeatureMap, path, dtype: str = "float64") -> None:
    atomic_write_bytes(path, tensor_bytes(fmap.data, dtype=dtype))


def read_tensor(path, frame_index: int | None = None) -> FeatureMap:
    """Read a 3-D tensor file as a FeatureMap.

    The container itself does not store a frame index; when none is given
    it is decoded from leading digits of the filename stem, defaulting to 0.
    """
    blob = Path(path).read_bytes()
    arr = parse_tensor_bytes(blob)
    if arr.ndim != 3:
        raise TensorFormatError(f"feature maps are 3-D, file holds a {arr.ndim}-D tensor")
    if frame_index is None:
        try:
            frame_index = frame_index_from_stem(Path(path).stem)
        except ValueError:
            frame_index = 0
    try:
        return FeatureMap(frame_index=frame_index, data=arr)
    except ValueError as exc:  # e.g. a zero dimension or a non-finite value
        raise TensorFormatError(f"{path}: {exc}") from None


# ---------------------------------------------------------------------------
# PGM masks


def frame_index_from_stem(stem: str) -> int:
    """Decode the leading decimal digits of a filename stem ('012_x' -> 12)."""
    m = re.match(r"\d+", stem)
    if m is None:
        raise ValueError(f"cannot decode a frame index from filename stem {stem!r}")
    return int(m.group(0))


def mask_bytes(mask: LabelMask) -> bytes:
    h, w = mask.labels.shape
    return f"P5\n{w} {h}\n255\n".encode("ascii") + mask.labels.tobytes(order="C")


# one header token: leading whitespace and "#" comments (each running to the
# end of its line) skipped, then the token, then its single whitespace
# delimiter, so after the maxval token the match ends exactly at the payload
_PGM_TOKEN = re.compile(rb"(?:\s|#[^\n]*\n?)*(\S*)\s?")


def _header_token(data: bytes, pos: int) -> tuple[bytes, int]:
    """The next PGM header token at or after ``pos`` and the offset past it."""
    m = _PGM_TOKEN.match(data, pos)
    if not m.group(1):
        raise MaskFormatError("truncated PGM header")
    return m.group(1), m.end()


def read_mask(path, frame_index: int | None = None) -> LabelMask:
    """Read a binary PGM mask; header comments are allowed, maxval must be
    255, and the payload must hold exactly width*height bytes."""
    with open(path, "rb") as f:  # a few microseconds less than Path.read_bytes
        data = f.read()
    magic, pos = _header_token(data, 0)
    if magic != b"P5":
        raise MaskFormatError(f"bad PGM magic {magic!r}, expected b'P5'")
    fields = []
    for name in ("width", "height", "maxval"):
        token, pos = _header_token(data, pos)
        if not token.isdigit():
            raise MaskFormatError(f"non-numeric PGM {name} token {token!r}")
        try:
            fields.append(int(token))
        except ValueError:  # more digits than int() converts
            raise MaskFormatError(f"PGM {name} token has {len(token)} digits") from None
    width, height, maxval = fields
    if width < 1 or height < 1:
        raise MaskFormatError(f"invalid PGM dimensions {width}x{height}")
    if maxval != 255:
        raise MaskFormatError(f"PGM maxval must be 255, got {maxval}")
    if len(data) - pos != width * height:
        raise MaskFormatError(
            f"payload holds {len(data) - pos} bytes but header claims "
            f"{width}x{height} = {width * height}")
    if frame_index is None:
        try:
            frame_index = frame_index_from_stem(Path(path).stem)
        except ValueError as exc:
            raise MaskFormatError(str(exc)) from None
    labels = np.frombuffer(data, dtype=np.uint8, offset=pos).reshape(height, width)
    return LabelMask(frame_index=frame_index, labels=labels)


def write_mask(mask: LabelMask, path) -> None:
    atomic_write_bytes(path, mask_bytes(mask))


def write_mask_dir(sequence: FrameSequence, directory) -> None:
    """Write one PGM per frame, named by its three-digit zero-padded index."""
    out = Path(directory)
    for frame in sequence:
        write_mask(frame, out / f"{frame.frame_index:03d}.pgm")


def _read_indexed_dir(directory, patterns, read, error, kind: str) -> list:
    """Read every file matching ``patterns`` with ``read(path, frame_index=i)``,
    ordered by the frame index i decoded from each filename stem. A missing or
    empty directory, a stem without leading digits, a duplicate frame index
    and items of different shapes raise ``error``."""
    root = Path(directory)
    if not root.is_dir():
        raise error(f"not a directory: {root}")
    files = [path for pattern in patterns for path in sorted(root.glob(pattern))]
    if not files:
        raise error(f"no {kind} files in {root} (expected {', '.join(patterns)})")
    by_index: dict[int, tuple[Path, object]] = {}
    for path in files:
        try:
            index = frame_index_from_stem(path.stem)
        except ValueError as exc:
            raise error(str(exc)) from None
        if index in by_index:
            raise error(f"duplicate frame index {index}: "
                        f"{by_index[index][0].name} and {path.name}")
        by_index[index] = (path, read(path, frame_index=index))
    items = [by_index[i][1] for i in sorted(by_index)]
    shapes = {item.shape for item in items}
    if len(shapes) > 1:
        raise error(f"inconsistent {kind} dimensions: {sorted(shapes)}")
    return items


def read_mask_dir(directory) -> FrameSequence:
    """Load every .pgm in a directory, ordered by decoded frame index.

    Rejects duplicate frame indices, malformed files, and mixed dimensions.
    """
    return FrameSequence(
        _read_indexed_dir(directory, ("*.pgm",), read_mask, MaskFormatError, ".pgm mask"))


def read_feature_dir(directory) -> list[FeatureMap]:
    """Load every .ften and .bin tensor file in a directory, ordered by
    decoded frame index; rejects as :func:`read_mask_dir` does."""
    return _read_indexed_dir(directory, ("*.ften", "*.bin"), read_tensor,
                             TensorFormatError, "tensor")


# ---------------------------------------------------------------------------
# JSON emission (fixed key order, no timestamps)
#
# Every JSON document and every JSON-lines record leads with the schema
# version; this section is the only place that knows the output schema.


def _stamped(fields: dict) -> dict:
    return {"schema_version": SCHEMA_VERSION, **fields}


def json_text(obj: dict) -> str:
    """A JSON document: ``obj``'s keys behind ``schema_version``."""
    return json.dumps(_stamped(obj), indent=2) + "\n"


def jsonl_text(records: Iterable[dict]) -> str:
    return "".join(json.dumps(r) + "\n" for r in records)


def write_json(obj: dict, path) -> None:
    atomic_write_text(path, json_text(obj))


def write_jsonl(records: Iterable[dict], path) -> None:
    atomic_write_text(path, jsonl_text(records))


def _decision(outcome: PruneOutcome, mode: str, metric: str) -> dict:
    """The keys a record gives one prune decision, in their serialized order."""
    return {
        # [[frame_index, score], ...] keeps indices as integers (JSON object
        # keys would stringify them) and fixes the ordering
        "scores": {group: [[idx, float(s[idx])] for idx in sorted(s)]
                   for group, s in outcome.scores.items()},
        "pruned": list(outcome.pruned_frame_indices),
        "retained": list(outcome.retained),
        "mode": mode,
        "metric": metric,
    }


def prune_record(step: int, bank_before: tuple[int, ...], outcome: PruneOutcome,
                 mode: str, metric: str) -> dict:
    """One JSON-lines record of a prune step (bank state it ran on)."""
    return _stamped({"step": step, "bank_before": list(bank_before),
                     **_decision(outcome, mode, metric)})


def track_records(trace: TrackTrace) -> list[dict]:
    """JSON-lines records for a tracking run, one per step."""
    return [_stamped({
        "step": s.step,
        "frame_index": s.frame_index,
        "bank_before": list(s.bank_before),
        "bank_after": list(s.bank_after),
        **_decision(s.outcome, trace.mode, trace.metric),
        "selected": s.selected_frame_index,
        "readout_cost": s.readout_cost,
    }) for s in trace.steps]
