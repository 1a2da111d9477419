"""File formats and persistence: tensor container, PGM masks, JSON traces.

Two small on-disk formats keep the toolchain dependency-free:

* tensor files: one 3-D feature map each. Magic ``FTEN``, version u16 LE,
  dtype code u8 (0 = float32, 1 = float64), ndim u8 (= 3), then three u32
  LE dims and a row-major little-endian payload whose byte length must
  match the header exactly. They are written as float64 and read as
  float32 or float64: the payload is read as a read-only view in the
  file's dtype, and :class:`~vosmem.core.FeatureMap` makes the one float64
  copy;
* mask files: binary PGM (``P5``) with maxval 255, one byte per pixel
  holding the object id.

Neither format stores a frame index: every reader decodes it from the
leading decimal digits of the filename stem through one helper, which
raises the reader's own format error for a stem without them.

A JSON record reads every field of a prune decision (the bank it ran on,
the scores, the victims, the metric and the mode) from its
:class:`~vosmem.memory.PruneOutcome`.

Every output, file or mask directory, is written by :func:`write_outputs`:
the targets of one call, all in one directory, are staged beside them
first, and only then does each staged copy replace its target by renames,
so no frame of an earlier run survives, no reader sees a partial file, and
a failed write or rename replaces none of the targets. Files and
directories get the mode a plain ``open`` or ``mkdir`` would give them.
Every output is byte-reproducible: JSON keys are emitted in a fixed order
and no timestamps enter any payload.
"""

from __future__ import annotations

import errno
import json
import math
import numbers
import os
import re
import struct
import tempfile
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .core import (FeatureMap, FrameSequence, LabelMask, _choice, _instance, _integer, _integers,
                   _items)
from .harness import TrackStep
from .memory import _GROUPS, PRUNE_MODES, SIMILARITY_METRICS, PruneOutcome

_SCHEMA_VERSION = 1

_TENSOR_MAGIC = b"FTEN"
_TENSOR_VERSION = 1
_DTYPE_CODES = {0: np.dtype("<f4"), 1: np.dtype("<f8")}


class TensorFormatError(ValueError):
    """Raised for malformed tensor files (bad magic, version, or payload)."""


class MaskFormatError(ValueError):
    """Raised for malformed mask files or inconsistent mask directories."""


# ---------------------------------------------------------------------------
# tensor container


def write_tensor(fmap: FeatureMap, path) -> None:
    """Write ``fmap`` as a 3-D little-endian float64 tensor file; a dimension
    the u32 header cannot hold raises ValueError."""
    _instance("fmap", fmap, FeatureMap)
    data = fmap.data
    if max(data.shape) > 0xFFFFFFFF:
        raise ValueError(f"feature dimensions must each be below 2**32, got shape {data.shape}")
    # dtype code 1 (float64), rank 3
    header = struct.pack("<4sHBB3I", _TENSOR_MAGIC, _TENSOR_VERSION, 1, 3, *data.shape)
    atomic_write_bytes(path, header + data.astype("<f8", copy=False).tobytes())


def read_tensor(path) -> FeatureMap:
    """Read a 3-D float32 or float64 tensor file as a FeatureMap whose frame
    index is the leading decimal digits of the filename stem. A stem without
    them raises TensorFormatError; so do a bad magic, version or dtype code, a
    truncated header, a rank other than 3, a zero dimension, a payload whose
    size does not match the header and a non-finite value, with a message
    that begins with ``path``."""
    frame_index = _stem_frame_index(path, TensorFormatError)
    blob = Path(path).read_bytes()
    try:
        if len(blob) < 8:
            raise TensorFormatError(f"truncated tensor header: {len(blob)} bytes")
        magic, version, code, ndim = struct.unpack_from("<4sHBB", blob, 0)
        if magic != _TENSOR_MAGIC:
            raise TensorFormatError(f"bad magic {magic!r}, expected {_TENSOR_MAGIC!r}")
        if version != _TENSOR_VERSION:
            raise TensorFormatError(f"unsupported version {version}, expected {_TENSOR_VERSION}")
        if code not in _DTYPE_CODES:
            raise TensorFormatError(f"unknown dtype code {code}")
        if ndim != 3:
            raise TensorFormatError(f"feature maps are 3-D, file holds a {ndim}-D tensor")
        if len(blob) < 20:  # 8 bytes, then three u32 dims
            raise TensorFormatError("truncated tensor header: dims missing")
        dims = struct.unpack_from("<3I", blob, 8)
        if 0 in dims:  # FeatureMap's own rule, checked before any size is computed
            raise TensorFormatError(f"feature dimensions must all be >= 1, got {dims}")
        dtype = _DTYPE_CODES[code]
        expected = math.prod(dims) * dtype.itemsize  # exact, never wraps
        if len(blob) - 20 != expected:
            raise TensorFormatError(
                f"payload holds {len(blob) - 20} bytes but header dims {dims} require {expected}")
        # a read-only view of the payload; FeatureMap makes the one float64 copy
        arr = np.frombuffer(blob, dtype, offset=20).reshape(dims)
        return FeatureMap(frame_index=frame_index, data=arr)  # refuses a non-finite value
    except ValueError as exc:
        raise TensorFormatError(f"{path}: {exc}") from None


# ---------------------------------------------------------------------------
# PGM masks


def _stem_frame_index(path, error: type[ValueError]) -> int:
    """The frame index a reader gives the file at ``path``: the leading
    decimal digits of its stem ('012_x' -> 12). A stem without them raises
    the reader's format ``error``."""
    _instance("path", path, (str, os.PathLike))
    stem = Path(path).stem
    m = re.match(r"\d+", stem)
    if m is None:
        raise error(f"cannot decode a frame index from filename stem {stem!r}")
    return int(m.group(0))


def _mask_bytes(mask: LabelMask) -> bytes:
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


def read_mask(path) -> LabelMask:
    """Read a binary PGM mask whose frame index is the leading decimal
    digits of the filename stem; a stem without them raises MaskFormatError.
    Header comments are allowed, maxval must be 255, and the payload must
    hold exactly width*height bytes; a file that breaks a rule raises
    MaskFormatError with a message that begins with ``path``."""
    frame_index = _stem_frame_index(path, MaskFormatError)
    with open(path, "rb") as f:  # a few microseconds less than Path.read_bytes
        data = f.read()
    try:
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
    except ValueError as exc:
        raise MaskFormatError(f"{path}: {exc}") from None
    labels = np.frombuffer(data, dtype=np.uint8, offset=pos).reshape(height, width)
    return LabelMask(frame_index=frame_index, labels=labels)


_FRAME_FILE = re.compile(r"\d+\.pgm")


def _check_mask_dir_target(directory) -> None:
    """Raise FileExistsError, naming the path and its first offending entry,
    unless ``directory`` is absent or a real directory that holds only
    regular files named ``<digits>.pgm``: the only kind of directory
    :func:`write_outputs` may delete."""
    target = Path(directory)
    if target.is_symlink():
        raise FileExistsError(f"refusing to replace {target}: it is a symlink")
    if not target.exists():
        return
    if not target.is_dir():
        raise FileExistsError(f"refusing to replace {target}: not a directory")
    with os.scandir(target) as entries:
        foreign = sorted(e.name for e in entries
                         if not (e.is_file(follow_symlinks=False)
                                 and _FRAME_FILE.fullmatch(e.name)))
    if foreign:
        raise FileExistsError(f"refusing to replace {target}: it holds {foreign[0]!r}, "
                              f"which is not a NNN.pgm frame file")


def write_outputs(outputs: Mapping) -> None:
    """Replace every target of ``outputs`` whole. The mapping takes each path
    to a :class:`~vosmem.core.FrameSequence`, written as a directory of one
    PGM per frame named by its three-digit zero-padded index, or to
    ``bytes``, written as a file.

    All targets of one call lie in one directory, created if missing. Each is
    staged first in one private directory beside them; only then is each
    existing target renamed aside into it and its staged copy renamed into its
    place, and the old targets go with it. So no frame of an earlier run
    survives, no reader sees a partial file, and a failed write or rename
    leaves every target as it was; a failed rename names its target. Before
    anything is written, a path that is not a ``str`` or ``os.PathLike`` and
    two targets that are one path or lie in two directories raise ValueError,
    a mask-directory target that is a symlink, is not a directory, or holds
    anything but ``NNN.pgm`` regular files raises FileExistsError, and a file
    target that is a directory raises IsADirectoryError.
    """
    _instance("outputs", outputs, Mapping)
    targets = []  # (path as given, absolute path, content)
    for path, content in outputs.items():
        _instance("path", path, (str, os.PathLike))
        _instance("output", content, (FrameSequence, bytes))
        path = Path(path)  # "" is "."
        if not isinstance(content, bytes):
            _check_mask_dir_target(path)
        elif path.is_dir() and not path.is_symlink():
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
        target = Path(os.path.abspath(path))  # "." has no name to stage beside
        if targets and target.parent != targets[0][1].parent:
            raise ValueError(f"outputs {targets[0][1]} and {target} are in different "
                             f"directories: one call writes into one directory")
        if any(target == other for _, other, _ in targets):
            raise ValueError(f"outputs {target} and {target} overlap: one would replace the other")
        targets.append((path, target, content))
    if not targets:
        return
    # os.mkdir and open give staged copies the mode a plain mkdir or open would
    first = targets[0][1]
    first.parent.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=first.parent, prefix=first.name + ".",
                                     suffix=".tmp") as staging:
        moves = []  # (path as given, target, staged, aside)
        for path, target, content in targets:
            staged = os.path.join(staging, target.name + ".new")
            aside = os.path.join(staging, target.name + ".old")
            moves.append((path, target, staged, aside))
            if isinstance(content, bytes):
                with open(staged, "wb") as f:
                    f.write(content)
                continue
            os.mkdir(staged)
            for frame in content:
                with open(os.path.join(staged, f"{frame.frame_index:03d}.pgm"), "wb") as f:
                    f.write(_mask_bytes(frame))
        try:
            for path, target, staged, aside in moves:
                try:
                    if os.path.lexists(target):
                        os.rename(target, aside)
                    os.rename(staged, target)
                except OSError as exc:  # name the target, not a staged path
                    raise type(exc)(exc.errno, exc.strerror, str(path)) from None
        except BaseException:
            # a target whose staged copy is gone holds it; one set aside goes back
            for _, target, staged, aside in reversed(moves):
                if not os.path.lexists(staged):
                    os.rename(target, staged)
                if os.path.lexists(aside):
                    os.rename(aside, target)
            raise


def atomic_write_bytes(path, data: bytes) -> None:
    """Write one file through :func:`write_outputs`, so readers never observe
    a partial file; it gets the mode a plain ``open(path, "wb")`` would."""
    _instance("path", path, (str, os.PathLike))  # before it keys a mapping
    write_outputs({path: data})


def _read_indexed_dir(directory, suffixes, read, error, kind: str) -> list:
    """Read every file whose name ends with one of ``suffixes`` with
    ``read(path)``, ordered by each item's ``frame_index``, which ``read``
    takes from the filename stem. A missing or empty directory, a matching
    entry that is not a regular file once symlinks are followed, a duplicate
    frame index and items of different shapes raise ``error``; a stem
    without leading digits raises the reader's own format error."""
    _instance("directory", directory, (str, os.PathLike))
    root = Path(directory)
    if not root.is_dir():
        raise error(f"not a directory: {root}")
    with os.scandir(root) as listing:
        found = {e.name: e for e in listing if e.name.endswith(suffixes)}
    # each suffix's matches in name order, the suffixes in their given order
    entries = [found[name] for s in suffixes for name in sorted(found) if name.endswith(s)]
    if not entries:
        raise error(f"no {kind} files in {root} (expected *{', *'.join(suffixes)})")
    by_index: dict[int, tuple[Path, object]] = {}
    for entry in entries:
        path = root / entry.name
        if not entry.is_file():
            raise error(f"not a regular file: {path}")
        item = read(path)
        index = item.frame_index
        if index in by_index:
            raise error(f"duplicate frame index {index}: "
                        f"{by_index[index][0].name} and {path.name}")
        by_index[index] = (path, item)
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
        _read_indexed_dir(directory, (".pgm",), read_mask, MaskFormatError, ".pgm mask"))


def read_feature_dir(directory) -> list[FeatureMap]:
    """Load every .ften and .bin tensor file in a directory, ordered by
    decoded frame index; rejects as :func:`read_mask_dir` does."""
    return _read_indexed_dir(directory, (".ften", ".bin"), read_tensor,
                             TensorFormatError, "tensor")


# ---------------------------------------------------------------------------
# JSON emission (fixed key order, no timestamps)
#
# Every JSON document and every JSON-lines record leads with the schema
# version; this section is the only place that knows the output schema.


def _stamped(fields: dict) -> dict:
    return {"schema_version": _SCHEMA_VERSION, **fields}


def _json_text(obj: dict) -> str:
    """A JSON document: ``obj``'s keys behind ``schema_version``. A
    non-finite float is refused with ValueError, not written as NaN."""
    return json.dumps(_stamped(obj), indent=2, allow_nan=False) + "\n"


def _jsonl_text(records: Iterable[dict]) -> str:
    return "".join(json.dumps(r, allow_nan=False) + "\n" for r in records)


def _decision(outcome) -> dict:
    """The keys a record gives one prune decision, in their serialized order."""
    return {
        # [[frame_index, score], ...] keeps indices as integers (JSON object
        # keys would stringify them) and fixes the ordering
        "scores": {group: [[idx, float(s[idx])] for idx in sorted(s)]
                   for group, s in outcome.scores.items()},
        "pruned": list(outcome.pruned_frame_indices),
        "retained": list(outcome.retained),
        "mode": outcome.mode,
        "metric": outcome.metric,
    }


def _prune_record(step: int, outcome) -> dict:
    """One JSON-lines record of a prune step (bank state it ran on)."""
    return _stamped({"step": step, "bank_before": list(outcome.bank_before),
                     **_decision(outcome)})


def track_records(steps: Sequence[TrackStep]) -> list[dict]:
    """JSON-lines records for a tracking run, one per step. Each field is read
    once, through its rule, and written as the rule returns it; a field of
    another kind raises ValueError naming it, as ``steps[i].outcome.retained``."""
    records = []
    for i, s in enumerate(_items("steps", steps, "TrackStep")):
        at = f"steps[{i}]"
        _instance(at, s, TrackStep)
        step, frame_index, selected, cost = [
            _integer(f"{at}.{name}", getattr(s, name), 0)
            for name in ("step", "frame_index", "selected_frame_index", "readout_cost")]
        outcome = s.outcome
        _instance(f"{at}.outcome", outcome, PruneOutcome)
        frames = []
        for name, value in (("bank_after", s.bank_after), ("outcome.retained", outcome.retained),
                            ("outcome.pruned_frame_indices", outcome.pruned_frame_indices)):
            _instance(f"{at}.{name}", value, tuple)
            frames.append(_integers(f"{at}.{name}", value, 0))
        bank_after, retained, pruned = frames
        _choice("similarity metric", outcome.metric, SIMILARITY_METRICS)
        _choice("prune mode", outcome.mode, PRUNE_MODES)
        _instance(f"{at}.outcome.scores", outcome.scores, dict)
        scores = {}
        for group, raw in outcome.scores.items():
            _choice("score group", group, _GROUPS)
            name = f"{at}.outcome.scores[{group!r}]"
            _instance(name, raw, dict)
            scores[group] = dict(zip(_integers(name, raw, 0), raw.values()))
            for frame, score in scores[group].items():
                _instance(f"{name}[{frame}]", score, numbers.Real)
        checked = PruneOutcome(retained, pruned, outcome.metric, outcome.mode, scores)
        records.append(_stamped({"step": step, "frame_index": frame_index,
                                 "bank_before": list(checked.bank_before),
                                 "bank_after": list(bank_after), **_decision(checked),
                                 "selected": selected, "readout_cost": cost}))
    return records
