"""On-disk formats: tensor container, PGM masks, JSON traces, atomicity."""

import errno
import json
import math
import os
import re
import stat
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import vosmem.io
from ften import ften_bytes
from vosmem.core import FeatureMap, LabelMask
from vosmem.harness import (SceneConfig, ToyEncoderConfig, TrackStep, generate_scene,
                            track_sequence)
from vosmem.io import (
    _TENSOR_MAGIC,
    MaskFormatError,
    TensorFormatError,
    _json_text,
    _jsonl_text,
    _mask_bytes,
    _prune_record,
    atomic_write_bytes,
    read_feature_dir,
    read_mask,
    read_mask_dir,
    read_tensor,
    track_records,
    write_outputs,
    write_tensor,
)
from vosmem.memory import MemoryBank, MemoryEntry, PruneOutcome


def fmap(idx=0, shape=(2, 3, 4), seed=0):
    rng = np.random.default_rng(seed)
    return FeatureMap(idx, rng.normal(size=shape))


def _tree(root):
    """Every path under ``root`` with its bytes (None for a directory)."""
    return {str(p.relative_to(root)): p.read_bytes() if p.is_file() else None
            for p in root.rglob("*")}


def _read_blob(tmp_path, blob, name="000.ften"):
    """read_tensor on a file ``name`` in ``tmp_path`` holding ``blob``."""
    path = tmp_path / name
    path.write_bytes(blob)
    return read_tensor(path)


class TestTensorFormat:
    def test_float64_round_trip_is_exact(self, tmp_path):
        fm = fmap()
        path = tmp_path / "000.ften"
        write_tensor(fm, path)
        back = read_tensor(path)
        assert back.frame_index == 0
        assert np.array_equal(fm.data, back.data)

    def test_float32_file_of_representable_values_reads_exactly(self, tmp_path):
        data = np.float64(np.float32(np.random.default_rng(1).normal(size=(1, 2, 2))))
        back = _read_blob(tmp_path, ften_bytes(data, "float32"), "004.ften")
        assert back.frame_index == 4
        assert np.array_equal(data, back.data)

    def test_header_layout(self, tmp_path):
        fm = FeatureMap(0, np.reshape([1.0, 2.0], (1, 1, 2)))
        write_tensor(fm, tmp_path / "000.ften")
        blob = (tmp_path / "000.ften").read_bytes()
        magic, version, code, ndim = struct.unpack_from("<4sHBB", blob, 0)
        assert magic == b"FTEN"
        assert version == 1
        assert code == 1
        assert ndim == 3
        assert struct.unpack_from("<3I", blob, 8) == (1, 1, 2)
        assert len(blob) == 8 + 12 + 16
        assert blob == ften_bytes(fm.data, "float64")

    def test_bad_magic_rejected(self, tmp_path):
        blob = b"XXXX" + bytes(12)
        with pytest.raises(TensorFormatError, match="bad magic"):
            _read_blob(tmp_path, blob)

    def test_unsupported_version_rejected(self, tmp_path):
        blob = struct.pack("<4sHBB", b"FTEN", 2, 1, 3)
        with pytest.raises(TensorFormatError, match="version"):
            _read_blob(tmp_path, blob)

    def test_unknown_dtype_code_rejected(self, tmp_path):
        blob = struct.pack("<4sHBB", b"FTEN", 1, 9, 3)
        with pytest.raises(TensorFormatError, match="dtype"):
            _read_blob(tmp_path, blob)

    def test_truncated_payload_rejected(self, tmp_path):
        # header claims 1x2x2 but payload holds 3 values
        blob = ften_bytes(np.zeros((1, 2, 2)), "float64")[:-8]
        path = re.escape(str(tmp_path / "000.ften"))
        with pytest.raises(TensorFormatError, match=f"^{path}: payload holds 24 bytes but header "
                                                    r"dims \(1, 2, 2\) require 32$"):
            _read_blob(tmp_path, blob)

    def test_oversized_payload_rejected(self, tmp_path):
        blob = ften_bytes(np.zeros((1, 1, 2)), "float32") + bytes(4)
        with pytest.raises(TensorFormatError, match="payload"):
            _read_blob(tmp_path, blob)

    def test_header_dims_product_does_not_wrap(self, tmp_path):
        # 2**22 * 2**21 * 2**21 wraps to 0 in int64, which would pass an
        # int64 size check against the empty payload
        blob = struct.pack("<4sHBB3I", b"FTEN", 1, 1, 3, 2**22, 2**21, 2**21)
        with pytest.raises(TensorFormatError, match="payload"):
            _read_blob(tmp_path, blob)

    def test_non_3d_file_rejected_as_feature_map(self, tmp_path):
        with pytest.raises(TensorFormatError, match="3-D"):
            _read_blob(tmp_path, ften_bytes(np.zeros((2, 2)), "float64"), "0.ften")

    @pytest.mark.parametrize("blob", [
        ften_bytes(np.zeros((0, 3, 3)), "float64"),
        # a zero dimension is refused whatever the payload holds
        ften_bytes(np.zeros((0, 3, 3)), "float64") + bytes(8),
        ften_bytes(np.array([[[1.0, np.nan]]]), "float64"),
        ften_bytes(np.array([[[np.inf]]]), "float32"),
    ], ids=["zero-dimension", "zero-dimension-with-payload", "nan", "inf-float32"])
    def test_invalid_feature_data_raises_format_error_naming_file(self, tmp_path, blob):
        with pytest.raises(TensorFormatError, match="004.ften"):
            _read_blob(tmp_path, blob, "004.ften")

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_round_trip_property(self, seed):
        rng = np.random.default_rng(seed)
        shape = tuple(int(x) for x in rng.integers(1, 5, size=3))
        fm = FeatureMap(seed, rng.normal(size=shape))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / f"{seed}.ften"
            write_tensor(fm, path)
            back = read_tensor(path)
        assert back.frame_index == seed
        assert np.array_equal(back.data, fm.data)

    def test_read_copies_once_into_float64(self, tmp_path, monkeypatch):
        arr = np.arange(24, dtype=np.float32).reshape(2, 3, 4)
        seen = []

        def feature_map(frame_index, data):
            seen.append(data)
            return FeatureMap(frame_index, data)

        monkeypatch.setattr(vosmem.io, "FeatureMap", feature_map)
        data = _read_blob(tmp_path, ften_bytes(arr, "float32"), "007.ften").data
        # the payload reaches FeatureMap as a read-only view in the file's dtype
        assert seen[0].dtype == np.dtype("<f4")
        assert not seen[0].flags.writeable and not seen[0].flags.owndata
        assert data.dtype == np.float64
        assert data.flags.c_contiguous and not data.flags.writeable
        np.testing.assert_array_equal(data, arr)


@pytest.mark.parametrize("name, blob", [
    ("001.ften", b"JUNK" + bytes(8)),
    ("001.ften", struct.pack("<4sHBB", b"FTEN", 2, 1, 3)),
    ("001.ften", struct.pack("<4sHBB", b"FTEN", 1, 9, 3)),
    ("001.ften", struct.pack("<4sHBB", b"FTEN", 1, 1, 2)),
    ("001.ften", b"FTEN"),
    ("001.ften", struct.pack("<4sHBB", b"FTEN", 1, 1, 3)),
    ("001.ften", ften_bytes(np.zeros((1, 2, 2)), "float64")[:-8]),
    ("001.ften", ften_bytes(np.zeros((0, 3, 3)), "float64")),
    ("001.ften", ften_bytes(np.array([[[np.nan]]]), "float64")),
    ("001.pgm", b"P2\n2 2\n255\n" + bytes(4)),
    ("001.pgm", b"P5\n3"),
    ("001.pgm", b"P5\nwide 2\n255\n" + bytes(4)),
    ("001.pgm", b"P5\n" + b"1" * 5000 + b" 2\n255\n" + bytes(4)),
    ("001.pgm", b"P5\n0 2\n255\n"),
    ("001.pgm", b"P5\n2 2\n65535\n" + bytes(8)),
    ("001.pgm", b"P5\n3 3\n255\n" + bytes(5)),
], ids=["magic", "version", "dtype", "rank", "truncated", "dims-missing", "payload",
        "zero-dimension", "nan", "pgm-magic", "pgm-truncated", "pgm-token", "pgm-digits",
        "pgm-dimensions", "pgm-maxval", "pgm-payload"])
def test_every_format_error_begins_with_the_path_once(tmp_path, name, blob):
    path = tmp_path / name
    path.write_bytes(blob)
    read, error = ((read_mask, MaskFormatError) if name.endswith(".pgm")
                   else (read_tensor, TensorFormatError))
    with pytest.raises(error) as refused:
        read(path)
    message = str(refused.value)
    assert message.startswith(f"{path}: ") and message.count(name) == 1


_READERS = pytest.mark.parametrize("write, read_file, read_dir, suffix, error", [
    (lambda path: write_tensor(fmap(), path), read_tensor, read_feature_dir,
     ".ften", TensorFormatError),
    (lambda path: atomic_write_bytes(
        path, _mask_bytes(LabelMask(0, np.zeros((2, 2), dtype=np.uint8)))),
     read_mask, read_mask_dir, ".pgm", MaskFormatError),
], ids=["tensor", "mask"])


class TestStemDecoding:
    """Every reader takes a file's frame index from the leading decimal
    digits of its stem, whatever the file itself holds."""

    @pytest.mark.parametrize("stem, index", [("000", 0), ("017", 17), ("000_copy", 0),
                                             ("42frame", 42)])
    @_READERS
    def test_leading_digits(self, tmp_path, write, read_file, read_dir, suffix, error,
                            stem, index):
        write(tmp_path / (stem + suffix))
        assert read_file(tmp_path / (stem + suffix)).frame_index == index
        assert [item.frame_index for item in read_dir(tmp_path)] == [index]

    @_READERS
    def test_stem_without_digits_raises_the_readers_format_error(
            self, tmp_path, write, read_file, read_dir, suffix, error):
        write(tmp_path / ("mask" + suffix))
        message = "^cannot decode a frame index from filename stem 'mask'$"
        with pytest.raises(error, match=message):
            read_file(tmp_path / ("mask" + suffix))
        with pytest.raises(error, match=message):
            read_dir(tmp_path)


class TestDirectoryEntries:
    """A directory reader reads every matching regular file, through a
    symlink too, and raises its format error naming a matching entry that is
    not one."""

    @pytest.mark.parametrize("make", [
        lambda path: path.mkdir(),
        lambda path: path.symlink_to(path.with_name("missing")),
    ], ids=["directory", "dangling symlink"])
    @_READERS
    def test_entry_that_is_not_a_file_raises_the_readers_format_error(
            self, tmp_path, write, read_file, read_dir, suffix, error, make):
        write(tmp_path / ("0000" + suffix))
        entry = tmp_path / ("0001" + suffix)
        make(entry)
        with pytest.raises(error, match=f"^{re.escape(f'not a regular file: {entry}')}$"):
            read_dir(tmp_path)

    @_READERS
    def test_symlink_to_a_file_is_read(self, tmp_path, write, read_file, read_dir, suffix,
                                       error):
        (tmp_path / "frames").mkdir()
        write(tmp_path / ("000" + suffix))
        (tmp_path / "frames" / ("003" + suffix)).symlink_to(tmp_path / ("000" + suffix))
        assert [item.frame_index for item in read_dir(tmp_path / "frames")] == [3]


class TestMaskFormat:
    def _mask(self, idx=0):
        rng = np.random.default_rng(idx)
        return LabelMask(idx, rng.integers(0, 3, size=(6, 4)).astype(np.uint8))

    def test_round_trip(self, tmp_path):
        mask = self._mask(7)
        path = tmp_path / "007.pgm"
        atomic_write_bytes(path, _mask_bytes(mask))
        back = read_mask(path)
        assert back.frame_index == 7
        np.testing.assert_array_equal(back.labels, mask.labels)

    def test_header_is_binary_pgm(self):
        blob = _mask_bytes(self._mask())
        assert blob.startswith(b"P5\n4 6\n255\n")
        assert len(blob) == len(b"P5\n4 6\n255\n") + 24

    def test_comments_in_header_are_skipped(self, tmp_path):
        path = tmp_path / "003.pgm"
        payload = bytes(range(6))
        path.write_bytes(b"P5\n# made by hand\n3 2\n# why not\n255\n" + payload)
        mask = read_mask(path)
        assert mask.frame_index == 3
        assert mask.labels.shape == (2, 3)
        assert mask.labels[1, 2] == 5

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "000.pgm"
        path.write_bytes(b"P2\n2 2\n255\n" + bytes(4))
        with pytest.raises(MaskFormatError, match="magic"):
            read_mask(path)

    def test_wrong_maxval_rejected(self, tmp_path):
        path = tmp_path / "000.pgm"
        path.write_bytes(b"P5\n2 2\n65535\n" + bytes(8))
        with pytest.raises(MaskFormatError, match="maxval"):
            read_mask(path)

    def test_payload_size_mismatch_rejected(self, tmp_path):
        path = tmp_path / "000.pgm"
        path.write_bytes(b"P5\n3 3\n255\n" + bytes(5))
        with pytest.raises(MaskFormatError, match="payload"):
            read_mask(path)

    def test_truncated_header_rejected(self, tmp_path):
        path = tmp_path / "000.pgm"
        path.write_bytes(b"P5\n3")
        with pytest.raises(MaskFormatError, match="truncated"):
            read_mask(path)

    def test_non_numeric_dimension_rejected(self, tmp_path):
        path = tmp_path / "000.pgm"
        path.write_bytes(b"P5\nwide 2\n255\n" + bytes(4))
        with pytest.raises(MaskFormatError, match="width"):
            read_mask(path)

    def test_header_number_beyond_int_digit_limit_rejected(self, tmp_path):
        path = tmp_path / "000.pgm"
        path.write_bytes(b"P5\n" + b"1" * 5000 + b" 2\n255\n" + bytes(4))
        with pytest.raises(MaskFormatError, match="width token has 5000 digits"):
            read_mask(path)


class TestMaskDir:
    def _write(self, tmp_path, idx, shape=(4, 4)):
        labels = np.full(shape, idx % 7, dtype=np.uint8)
        atomic_write_bytes(tmp_path / f"{idx:03d}.pgm", _mask_bytes(LabelMask(idx, labels)))

    def test_reads_sorted_by_frame_index(self, tmp_path):
        for idx in (2, 0, 1):
            self._write(tmp_path, idx)
        seq = read_mask_dir(tmp_path)
        assert seq.frame_indices == (0, 1, 2)

    def test_duplicate_frame_index_rejected(self, tmp_path):
        self._write(tmp_path, 0)
        mask = LabelMask(0, np.zeros((4, 4), dtype=np.uint8))
        atomic_write_bytes(tmp_path / "000_copy.pgm", _mask_bytes(mask))
        with pytest.raises(MaskFormatError, match="duplicate frame index 0"):
            read_mask_dir(tmp_path)

    def test_mixed_dimensions_rejected(self, tmp_path):
        self._write(tmp_path, 0, shape=(4, 4))
        self._write(tmp_path, 1, shape=(8, 8))
        with pytest.raises(MaskFormatError, match="dimensions"):
            read_mask_dir(tmp_path)

    def test_write_mask_dir_round_trip(self, tmp_path):
        scene = generate_scene(SceneConfig(n_frames=4, velocity=(1, 0)))
        target = tmp_path / "missing" / "parents" / "gt"
        write_outputs({target: scene})
        back = read_mask_dir(target)
        assert back.frame_indices == scene.frame_indices
        for a, b in zip(back, scene):
            np.testing.assert_array_equal(a.labels, b.labels)
        (tmp_path / "plain").mkdir()
        assert stat.S_IMODE(target.stat().st_mode) == \
            stat.S_IMODE((tmp_path / "plain").stat().st_mode)

    @pytest.mark.parametrize("make, reason", [
        (lambda target: target.write_bytes(b"mine"), "not a directory"),
        (lambda target: (target.mkdir(), (target / "001.pgm").symlink_to("000.pgm"),
                         (target / "000.pgm").write_bytes(b"mine")),
         "it holds '001.pgm', which is not a NNN.pgm frame file"),
        (lambda target: (target.mkdir(), (target / "000.PGM").write_bytes(b"mine")),
         "it holds '000.PGM', which is not a NNN.pgm frame file"),
    ], ids=["file", "symlinked frame", "other suffix"])
    def test_refused_target_is_left_as_it_was(self, tmp_path, make, reason):
        def files():
            return sorted((p.name, p.is_symlink(), p.read_bytes())
                          for p in tmp_path.rglob("*") if p.is_file())

        target = tmp_path / "pred"
        make(target)
        before = files()
        with pytest.raises(FileExistsError, match=f"^refusing to replace {target}: {reason}$"):
            write_outputs({target: generate_scene(SceneConfig(n_frames=2))})
        assert files() == before

    @pytest.mark.parametrize("existing", [True, False], ids=["replacing", "new"])
    def test_failed_write_leaves_previous_directory_and_no_temp(
            self, tmp_path, monkeypatch, existing):
        target = tmp_path / "pred"
        if existing:
            write_outputs({target: generate_scene(SceneConfig(n_frames=4))})
        before = {p.name: p.read_bytes() for p in target.iterdir()} if existing else None
        written = []

        def third_frame_fails(mask):
            written.append(mask.frame_index)
            if len(written) == 3:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            return _mask_bytes(mask)

        monkeypatch.setattr(vosmem.io, "_mask_bytes", third_frame_fails)
        with pytest.raises(OSError, match=os.strerror(errno.ENOSPC)):
            write_outputs({target: generate_scene(SceneConfig(n_frames=6, velocity=(1, 0)))})
        assert written == [0, 1, 2]
        assert sorted(p.name for p in tmp_path.iterdir()) == (["pred"] if existing else [])
        if existing:
            assert {p.name: p.read_bytes() for p in target.iterdir()} == before

    @pytest.mark.parametrize("failing", ["aside", "into place"])
    @pytest.mark.parametrize("name", ["pred", "report.json"])
    def test_failed_rename_puts_every_target_back(self, tmp_path, monkeypatch, name, failing):
        gt, pred, report = tmp_path / "gt", tmp_path / "pred", tmp_path / "report.json"
        write_outputs({gt: generate_scene(SceneConfig(n_frames=3)),
                       pred: generate_scene(SceneConfig(n_frames=2)), report: b"first\n"})
        before = _tree(tmp_path)
        rename, victim = os.rename, tmp_path / name

        def victims_rename_fails(src, dst):
            # a target goes aside to <name>.old in the staging directory; its
            # staged copy is <name>.new
            if (failing == "aside" and (Path(src), Path(dst).name) == (victim, name + ".old")) or \
                    (failing == "into place" and (Path(src).name, Path(dst)) ==
                     (name + ".new", victim)):
                raise OSError(errno.EACCES, os.strerror(errno.EACCES))
            rename(src, dst)

        monkeypatch.setattr(vosmem.io.os, "rename", victims_rename_fails)
        later = generate_scene(SceneConfig(n_frames=5, velocity=(1, 0)))
        with pytest.raises(PermissionError, match=f"{os.strerror(errno.EACCES)}: '{victim}'$"):
            write_outputs({gt: later, pred: later, report: b"second\n"})
        assert _tree(tmp_path) == before

    @pytest.mark.parametrize("second, message", [
        ("gt/.", "overlap: one would replace the other"),
        ("gt/inner", "are in different directories: one call writes into one directory"),
        (".", "are in different directories: one call writes into one directory"),
    ], ids=["same", "inside", "outside"])
    def test_overlapping_targets_are_refused_before_writing(self, tmp_path, monkeypatch,
                                                            second, message):
        monkeypatch.chdir(tmp_path)
        scene = generate_scene(SceneConfig(n_frames=2))
        with pytest.raises(ValueError, match=f"{message}$"):
            write_outputs({"gt": scene, second: scene})
        assert not any(tmp_path.iterdir())

    def test_targets_in_two_directories_are_refused_and_left_as_they_were(self, tmp_path):
        first, second = tmp_path / "a" / "report.json", tmp_path / "b" / "pred"
        atomic_write_bytes(first, b"first\n")
        write_outputs({second: generate_scene(SceneConfig(n_frames=2))})
        before = _tree(tmp_path)
        with pytest.raises(ValueError, match=re.escape(
                f"outputs {first} and {second} are in different directories")):
            write_outputs({first: b"second\n",
                           second: generate_scene(SceneConfig(n_frames=3, velocity=(1, 0)))})
        assert _tree(tmp_path) == before


class TestFeatureDir:
    def test_reads_sorted_and_indexed_by_stem(self, tmp_path):
        for idx in (5, 1, 3):
            write_tensor(fmap(idx, seed=idx), tmp_path / f"{idx:03d}.ften")
        maps = read_feature_dir(tmp_path)
        assert [m.frame_index for m in maps] == [1, 3, 5]

    def test_each_file_is_read_through_the_module_read_tensor(self, tmp_path, monkeypatch):
        # a patch of vosmem.io.read_tensor, as a tracer makes, sees every read
        for idx in (2, 0):
            write_tensor(fmap(idx), tmp_path / f"{idx:03d}.ften")
        seen = []

        def read(path):
            seen.append(Path(path).name)
            return read_tensor(path)

        monkeypatch.setattr(vosmem.io, "read_tensor", read)
        assert [m.frame_index for m in read_feature_dir(tmp_path)] == [0, 2]
        assert sorted(seen) == ["000.ften", "002.ften"]

    def test_duplicate_index_rejected(self, tmp_path):
        write_tensor(fmap(0), tmp_path / "000.ften")
        write_tensor(fmap(0), tmp_path / "000_copy.ften")
        with pytest.raises(TensorFormatError, match="duplicate"):
            read_feature_dir(tmp_path)

    def test_mixed_shapes_rejected(self, tmp_path):
        write_tensor(fmap(0, shape=(2, 3, 3)), tmp_path / "000.ften")
        write_tensor(fmap(1, shape=(5, 1, 1)), tmp_path / "001.ften")
        with pytest.raises(TensorFormatError, match=r"\(2, 3, 3\), \(5, 1, 1\)"):
            read_feature_dir(tmp_path)


class TestAtomicity:
    def test_no_temp_files_left_behind(self, tmp_path):
        atomic_write_bytes(tmp_path / "000.pgm",
                           _mask_bytes(LabelMask(0, np.zeros((2, 2), dtype=np.uint8))))
        write_tensor(fmap(), tmp_path / "000.ften")
        atomic_write_bytes(tmp_path / "t.jsonl", _jsonl_text([{"a": 1}]).encode())
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "000.ften", "000.pgm", "t.jsonl"]

    @pytest.mark.parametrize("path", ["taken", "", "."], ids=["directory", "empty", "dot"])
    def test_failed_write_raises_and_leaves_no_temp_file(self, tmp_path, monkeypatch, path):
        (tmp_path / "taken").mkdir()
        monkeypatch.chdir(tmp_path / "taken" if path != "taken" else tmp_path)
        with pytest.raises(IsADirectoryError, match=f": '{Path(path)}'$"):
            atomic_write_bytes(path, b"data")
        assert [p.name for p in tmp_path.iterdir()] == ["taken"]
        assert not any((tmp_path / "taken").iterdir())

    def test_file_gets_a_plain_files_mode(self, tmp_path):
        atomic_write_bytes(tmp_path / "t.json", b"{}")
        with open(tmp_path / "plain", "wb"):
            pass
        assert stat.S_IMODE((tmp_path / "t.json").stat().st_mode) == \
            stat.S_IMODE((tmp_path / "plain").stat().st_mode)

    def test_overwrite_replaces_content(self, tmp_path):
        path = tmp_path / "000.pgm"
        atomic_write_bytes(path, _mask_bytes(LabelMask(0, np.zeros((2, 2), dtype=np.uint8))))
        atomic_write_bytes(path, _mask_bytes(LabelMask(0, np.ones((2, 2), dtype=np.uint8))))
        assert read_mask(path).labels.max() == 1


class TestTraceRecords:
    def test_json_documents_lead_with_schema_version(self):
        assert _json_text({"b": 1, "a": [2]}) == (
            '{\n  "schema_version": 1,\n  "b": 1,\n  "a": [\n    2\n  ]\n}\n')

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_a_non_finite_float_is_refused_not_written_as_nan(self, bad):
        with pytest.raises(ValueError, match="^Out of range float values are not JSON compliant"):
            _jsonl_text([{"a": 1.0}, {"b": bad}])
        with pytest.raises(ValueError, match="^Out of range float values are not JSON compliant"):
            _json_text({"a": [1.0, bad]})

    def test_jsonl_is_one_line_per_record_in_order_with_no_schema_version(self):
        assert _jsonl_text([{"b": 1, "a": [2.5]}, {}]) == '{"b": 1, "a": [2.5]}\n{}\n'
        assert _jsonl_text([]) == ""

    def test_prune_record_key_order_and_content(self):
        bank = MemoryBank(capacity=4)
        for i in range(4):
            bank.append(MemoryEntry(i, fmap(i, seed=i)))
        outcome = bank.prune_step(metric="dot", mode="select")
        record = _prune_record(2, outcome)
        assert list(record) == ["schema_version", "step", "bank_before", "scores",
                                "pruned", "retained", "mode", "metric"]
        assert (record["bank_before"], record["mode"], record["metric"]) == (
            [0, 1, 2, 3], "select", "dot")
        assert set(record["scores"]) == {"short", "long"}
        assert json.dumps(record)  # JSON-serializable as-is

    def test_track_records_serialize_one_line_per_step(self, tmp_path):
        scene = generate_scene(SceneConfig(n_frames=10, velocity=(1, 0)))
        config = ToyEncoderConfig(feature_resolution=(8, 8), noise_sigma=0.1)
        _, trace = track_sequence(scene, config, seed=1)
        records = track_records(trace)
        assert len(records) == 9
        path = tmp_path / "trace.jsonl"
        atomic_write_bytes(path, _jsonl_text(records).encode())
        lines = path.read_text().splitlines()
        assert len(lines) == 9
        first = json.loads(lines[0])
        assert first["step"] == 1
        assert first["metric"] == "cosine"
        assert first["readout_cost"] == 64

    def test_numpy_integer_fields_are_written_as_plain_ints(self):
        scene = generate_scene(SceneConfig(n_frames=8, velocity=(1, 0)))
        config = ToyEncoderConfig(feature_resolution=(8, 8), noise_sigma=0.1)
        _, trace = track_sequence(scene, config, bank_capacity=4, seed=1)
        assert any(s.outcome.scores for s in trace)

        def as_numpy(frames, kind=np.int64):
            return tuple(kind(f) for f in frames)

        def numpy_step(s):
            o = s.outcome
            outcome = PruneOutcome(as_numpy(o.retained, np.uint16),
                                   as_numpy(o.pruned_frame_indices), o.metric, o.mode,
                                   {g: {np.uint16(f): v for f, v in scores.items()}
                                    for g, scores in o.scores.items()})
            return TrackStep(np.int64(s.step), np.uint16(s.frame_index), as_numpy(s.bank_after),
                             outcome, np.uint16(s.selected_frame_index), np.int64(s.readout_cost))

        def leaves(value):
            if isinstance(value, (dict, list)):
                for item in (value.values() if isinstance(value, dict) else value):
                    yield from leaves(item)
            else:
                yield value

        plain = track_records(trace)
        records = track_records([numpy_step(s) for s in trace])
        assert records == plain
        assert {type(v) for v in leaves(records)} == {int, float, str}
        assert _jsonl_text(records) == _jsonl_text(plain)


# ---------------------------------------------------------------------------
# fuzzing: only the documented format errors may escape the readers

@st.composite
def tensor_blobs(draw):
    """Tensor files whose header fields are each valid most of the time, so
    that payloads with zero dimensions or non-finite values reach the reader."""
    if draw(st.integers(0, 4)) == 0:
        return draw(st.binary(max_size=64))

    def field(valid, other):
        return draw(other) if draw(st.integers(0, 7)) == 0 else valid

    dims = draw(st.lists(st.integers(0, 3), min_size=3, max_size=3)
                | st.lists(st.integers(0, 3), max_size=4))
    code = field(1, st.integers(0, 2))
    head = struct.pack("<4sHBB", field(_TENSOR_MAGIC, st.binary(min_size=4, max_size=4)),
                       field(1, st.integers(0, 2)), code,
                       field(len(dims), st.integers(0, 5)))
    head += struct.pack(f"<{len(dims)}I", *dims)
    count = math.prod(dims)
    if draw(st.booleans()):
        values = draw(st.lists(st.floats(width=32), min_size=count, max_size=count))
        payload = np.array(values, dtype="<f4" if code == 0 else "<f8").tobytes()
    else:
        size = count * (4 if code == 0 else 8)
        payload = draw(st.binary(min_size=max(size - 2, 0), max_size=size + 2))
    return head + payload


@st.composite
def pgm_blobs(draw):
    """PGM files with mutated magic, header tokens, comments and payload size."""
    if draw(st.booleans()):
        return draw(st.binary(max_size=48))
    token = st.one_of(st.integers(0, 6).map(str), st.sampled_from(["", "x", "-1", "2.0", "0003"]))
    magic = draw(st.sampled_from(["P5", "P2", "P6", ""]))
    width, height = draw(token), draw(token)
    maxval = draw(st.sampled_from(["255", "256", "1", "", "#"]))
    sep = st.sampled_from([" ", "\n", "\n# note\n", "\t"])
    head = (magic + draw(sep) + width + draw(sep) + height + draw(sep) + maxval
            + draw(st.sampled_from(["\n", " ", ""])))
    n = int(width) * int(height) if width.isdigit() and height.isdigit() else 4
    payload = draw(st.binary(min_size=max(n - 1, 0), max_size=n + 1))
    return head.encode("ascii") + payload


def _scratch_file(directory, name, blob):
    path = Path(directory) / name
    path.write_bytes(blob)
    return path


class TestFuzzedInputs:
    @given(tensor_blobs(), st.sampled_from(["000.ften", "12.bin", "frame.ften"]))
    # a zero dimension beside two numpy cannot size together
    @example(_TENSOR_MAGIC + struct.pack("<HBB3I", 1, 1, 3, 0, 2**32 - 1, 2**32 - 1), "000.ften")
    @settings(max_examples=300, deadline=None)
    def test_read_tensor_raises_only_format_errors(self, blob, name):
        with tempfile.TemporaryDirectory() as tmp:
            try:
                fm = read_tensor(_scratch_file(tmp, name, blob))
            except TensorFormatError:
                return
        assert fm.data.ndim == 3 and np.isfinite(fm.data).all()
        assert fm.data.size * (4 if blob[6] == 0 else 8) == len(blob) - 20

    @given(pgm_blobs(), st.sampled_from(["000.pgm", "7_a.pgm", "mask.pgm"]))
    @example(b"P5\n" + b"9" * 4400 + b" 1\n255\n\x00", "000.pgm")
    @settings(max_examples=300, deadline=None)
    def test_read_mask_raises_only_format_errors(self, blob, name):
        with tempfile.TemporaryDirectory() as tmp:
            try:
                mask = read_mask(_scratch_file(tmp, name, blob))
            except MaskFormatError:
                return
        assert mask.labels.dtype == np.uint8 and mask.labels.size >= 1

    @given(st.dictionaries(st.sampled_from(["000.pgm", "001.pgm", "000_b.pgm", "01x.pgm",
                                            "x.pgm", "2.txt"]),
                           pgm_blobs(), max_size=4))
    @settings(max_examples=150, deadline=None)
    def test_read_mask_dir_raises_only_format_errors(self, files):
        with tempfile.TemporaryDirectory() as tmp:
            for name, blob in files.items():
                _scratch_file(tmp, name, blob)
            try:
                seq = read_mask_dir(tmp)
            except MaskFormatError:
                return
        assert len(seq) >= 1
