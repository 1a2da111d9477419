"""On-disk formats: tensor container, PGM masks, JSON traces, atomicity."""

import json
import math
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vosmem.core import FrameSequence, LabelMask, approx_equal, make_feature_map
from vosmem.harness import SceneConfig, ToyEncoderConfig, generate_scene, track_sequence
from vosmem.io import (
    TENSOR_MAGIC,
    MaskFormatError,
    TensorFormatError,
    frame_index_from_stem,
    json_text,
    mask_bytes,
    parse_tensor_bytes,
    prune_record,
    read_feature_dir,
    read_mask,
    read_mask_dir,
    read_tensor,
    tensor_bytes,
    track_records,
    write_jsonl,
    write_mask,
    write_mask_dir,
    write_tensor,
)
from vosmem.memory import MemoryBank, MemoryEntry


def fmap(idx=0, shape=(2, 3, 4), seed=0):
    rng = np.random.default_rng(seed)
    return make_feature_map(idx, *shape, rng.normal(size=shape).ravel())


class TestTensorFormat:
    def test_float64_round_trip_is_exact(self, tmp_path):
        fm = fmap()
        path = tmp_path / "000.ften"
        write_tensor(fm, path)
        back = read_tensor(path)
        assert back.frame_index == 0
        assert approx_equal(fm, back, 0.0)

    def test_float32_round_trip_of_representable_values(self, tmp_path):
        data = np.float64(np.float32(np.random.default_rng(1).normal(size=(1, 2, 2))))
        fm = make_feature_map(4, 1, 2, 2, data.ravel())
        path = tmp_path / "004.ften"
        write_tensor(fm, path, dtype="float32")
        assert approx_equal(fm, read_tensor(path), 0.0)

    def test_header_layout(self):
        fm = make_feature_map(0, 1, 1, 2, [1.0, 2.0])
        blob = tensor_bytes(fm.data)
        magic, version, code, ndim = struct.unpack_from("<4sHBB", blob, 0)
        assert magic == b"FTEN"
        assert version == 1
        assert code == 1
        assert ndim == 3
        assert struct.unpack_from("<3I", blob, 8) == (1, 1, 2)
        assert len(blob) == 8 + 12 + 16

    def test_bad_magic_rejected(self):
        blob = b"XXXX" + bytes(12)
        with pytest.raises(TensorFormatError, match="bad magic"):
            parse_tensor_bytes(blob)

    def test_unsupported_version_rejected(self):
        blob = struct.pack("<4sHBB", b"FTEN", 2, 1, 0)
        with pytest.raises(TensorFormatError, match="version"):
            parse_tensor_bytes(blob)

    def test_unknown_dtype_code_rejected(self):
        blob = struct.pack("<4sHBB", b"FTEN", 1, 9, 0)
        with pytest.raises(TensorFormatError, match="dtype"):
            parse_tensor_bytes(blob)

    def test_truncated_payload_rejected(self):
        # header claims 2x2 but payload holds 3 values
        blob = (struct.pack("<4sHBB", b"FTEN", 1, 1, 2)
                + struct.pack("<2I", 2, 2)
                + np.zeros(3, dtype="<f8").tobytes())
        with pytest.raises(TensorFormatError, match="payload"):
            parse_tensor_bytes(blob)

    def test_oversized_payload_rejected(self):
        blob = (struct.pack("<4sHBB", b"FTEN", 1, 0, 1)
                + struct.pack("<I", 2)
                + np.zeros(3, dtype="<f4").tobytes())
        with pytest.raises(TensorFormatError, match="payload"):
            parse_tensor_bytes(blob)

    def test_header_dims_product_does_not_wrap(self):
        # 65536**4 wraps to 0 in int64, which once passed the size check
        blob = struct.pack("<4sHBB", b"FTEN", 1, 1, 4) + struct.pack("<4I", *(65536,) * 4)
        with pytest.raises(TensorFormatError, match="payload"):
            parse_tensor_bytes(blob)

    def test_truncated_header_rejected(self):
        with pytest.raises(TensorFormatError, match="truncated"):
            parse_tensor_bytes(b"FTEN")
        with pytest.raises(TensorFormatError, match="dims"):
            parse_tensor_bytes(struct.pack("<4sHBB", b"FTEN", 1, 1, 3) + b"\x00")

    def test_non_3d_file_rejected_as_feature_map(self, tmp_path):
        path = tmp_path / "0.ften"
        path.write_bytes(tensor_bytes(np.zeros((2, 2))))
        with pytest.raises(TensorFormatError, match="3-D"):
            read_tensor(path)

    @pytest.mark.parametrize("blob", [
        tensor_bytes(np.zeros((0, 3, 3))),
        tensor_bytes(np.array([[[1.0, np.nan]]])),
        tensor_bytes(np.array([[[np.inf]]]), dtype="float32"),
    ], ids=["zero-dimension", "nan", "inf-float32"])
    def test_invalid_feature_data_raises_format_error_naming_file(self, tmp_path, blob):
        path = tmp_path / "004.ften"
        path.write_bytes(blob)
        with pytest.raises(TensorFormatError, match="004.ften"):
            read_tensor(path)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_round_trip_property(self, seed):
        rng = np.random.default_rng(seed)
        shape = tuple(int(x) for x in rng.integers(1, 5, size=3))
        arr = rng.normal(size=shape)
        assert np.array_equal(parse_tensor_bytes(tensor_bytes(arr)), arr)


    def test_read_copies_once_into_float64(self, tmp_path):
        arr = np.arange(24, dtype=np.float32).reshape(2, 3, 4)
        blob = tensor_bytes(arr, dtype="float32")
        parsed = parse_tensor_bytes(blob)
        assert parsed.dtype == np.dtype("<f4")
        assert not parsed.flags.writeable
        path = tmp_path / "007.ften"
        path.write_bytes(blob)
        data = read_tensor(path).data
        assert data.dtype == np.float64
        assert data.flags.c_contiguous and not data.flags.writeable
        np.testing.assert_array_equal(data, arr)


class TestStemDecoding:
    def test_leading_digits(self):
        assert frame_index_from_stem("000") == 0
        assert frame_index_from_stem("017") == 17
        assert frame_index_from_stem("000_copy") == 0
        assert frame_index_from_stem("42frame") == 42

    def test_no_digits_rejected(self):
        with pytest.raises(ValueError, match="frame index"):
            frame_index_from_stem("mask")


class TestMaskFormat:
    def _mask(self, idx=0):
        rng = np.random.default_rng(idx)
        return LabelMask(idx, rng.integers(0, 3, size=(6, 4)).astype(np.uint8))

    def test_round_trip(self, tmp_path):
        mask = self._mask(7)
        path = tmp_path / "007.pgm"
        write_mask(mask, path)
        back = read_mask(path)
        assert back.frame_index == 7
        np.testing.assert_array_equal(back.labels, mask.labels)

    def test_header_is_binary_pgm(self):
        blob = mask_bytes(self._mask())
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
        write_mask(LabelMask(idx, labels), tmp_path / f"{idx:03d}.pgm")

    def test_reads_sorted_by_frame_index(self, tmp_path):
        for idx in (2, 0, 1):
            self._write(tmp_path, idx)
        seq = read_mask_dir(tmp_path)
        assert seq.frame_indices == (0, 1, 2)

    def test_duplicate_frame_index_rejected(self, tmp_path):
        self._write(tmp_path, 0)
        mask = LabelMask(0, np.zeros((4, 4), dtype=np.uint8))
        write_mask(mask, tmp_path / "000_copy.pgm")
        with pytest.raises(MaskFormatError, match="duplicate frame index 0"):
            read_mask_dir(tmp_path)

    def test_mixed_dimensions_rejected(self, tmp_path):
        self._write(tmp_path, 0, shape=(4, 4))
        self._write(tmp_path, 1, shape=(8, 8))
        with pytest.raises(MaskFormatError, match="dimensions"):
            read_mask_dir(tmp_path)

    def test_empty_dir_rejected(self, tmp_path):
        with pytest.raises(MaskFormatError, match="no .pgm"):
            read_mask_dir(tmp_path)

    def test_write_mask_dir_round_trip(self, tmp_path):
        scene = generate_scene(SceneConfig(n_frames=4, velocity=(1, 0)))
        write_mask_dir(scene, tmp_path)
        back = read_mask_dir(tmp_path)
        assert back.frame_indices == scene.frame_indices
        for a, b in zip(back, scene):
            np.testing.assert_array_equal(a.labels, b.labels)


class TestFeatureDir:
    def test_reads_sorted_and_indexed_by_stem(self, tmp_path):
        for idx in (5, 1, 3):
            write_tensor(fmap(idx, seed=idx), tmp_path / f"{idx:03d}.ften")
        maps = read_feature_dir(tmp_path)
        assert [m.frame_index for m in maps] == [1, 3, 5]

    def test_duplicate_index_rejected(self, tmp_path):
        write_tensor(fmap(0), tmp_path / "000.ften")
        write_tensor(fmap(0), tmp_path / "000_copy.ften")
        with pytest.raises(TensorFormatError, match="duplicate"):
            read_feature_dir(tmp_path)

    def test_empty_dir_rejected(self, tmp_path):
        with pytest.raises(TensorFormatError, match="no tensor files"):
            read_feature_dir(tmp_path)

    def test_mixed_shapes_rejected(self, tmp_path):
        write_tensor(fmap(0, shape=(2, 3, 3)), tmp_path / "000.ften")
        write_tensor(fmap(1, shape=(5, 1, 1)), tmp_path / "001.ften")
        with pytest.raises(TensorFormatError, match=r"\(2, 3, 3\), \(5, 1, 1\)"):
            read_feature_dir(tmp_path)


class TestAtomicity:
    def test_no_temp_files_left_behind(self, tmp_path):
        write_mask(LabelMask(0, np.zeros((2, 2), dtype=np.uint8)), tmp_path / "000.pgm")
        write_tensor(fmap(), tmp_path / "000.ften")
        write_jsonl([{"a": 1}], tmp_path / "t.jsonl")
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "000.ften", "000.pgm", "t.jsonl"]

    def test_overwrite_replaces_content(self, tmp_path):
        path = tmp_path / "000.pgm"
        write_mask(LabelMask(0, np.zeros((2, 2), dtype=np.uint8)), path)
        write_mask(LabelMask(0, np.ones((2, 2), dtype=np.uint8)), path)
        assert read_mask(path).labels.max() == 1


class TestTraceRecords:
    def test_json_documents_lead_with_schema_version(self):
        assert json_text({"b": 1, "a": [2]}) == (
            '{\n  "schema_version": 1,\n  "b": 1,\n  "a": [\n    2\n  ]\n}\n')

    def test_prune_record_key_order_and_content(self):
        bank = MemoryBank(capacity=4)
        for i in range(4):
            bank.append(MemoryEntry(i, fmap(i, seed=i)))
        before = bank.frame_indices
        outcome = bank.prune_step(metric="cosine", mode="select")
        record = prune_record(2, before, outcome, "select", "cosine")
        assert list(record) == ["schema_version", "step", "bank_before", "scores",
                                "pruned", "retained", "mode", "metric"]
        assert record["bank_before"] == [0, 1, 2, 3]
        assert set(record["scores"]) == {"short", "long"}
        assert json.dumps(record)  # JSON-serializable as-is

    def test_track_records_serialize_one_line_per_step(self, tmp_path):
        scene = generate_scene(SceneConfig(n_frames=10, velocity=(1, 0)))
        config = ToyEncoderConfig(feature_resolution=(8, 8), noise_sigma=0.1)
        _, trace = track_sequence(scene, config, seed=1)
        records = track_records(trace)
        assert len(records) == 9
        path = tmp_path / "trace.jsonl"
        write_jsonl(records, path)
        lines = path.read_text().splitlines()
        assert len(lines) == 9
        first = json.loads(lines[0])
        assert first["step"] == 1
        assert first["metric"] == "cosine"
        assert first["readout_cost"] == 64


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
    head = struct.pack("<4sHBB", field(TENSOR_MAGIC, st.binary(min_size=4, max_size=4)),
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
    @given(tensor_blobs())
    @settings(max_examples=300, deadline=None)
    def test_parse_tensor_bytes_raises_only_format_errors(self, blob):
        try:
            arr = parse_tensor_bytes(blob)
        except TensorFormatError:
            return
        assert arr.nbytes == len(blob) - 8 - 4 * arr.ndim

    @given(tensor_blobs(), st.sampled_from(["000.ften", "12.bin", "frame.ften"]))
    @settings(max_examples=200, deadline=None)
    def test_read_tensor_raises_only_format_errors(self, blob, name):
        with tempfile.TemporaryDirectory() as tmp:
            try:
                fm = read_tensor(_scratch_file(tmp, name, blob))
            except TensorFormatError:
                return
        assert fm.data.ndim == 3 and np.isfinite(fm.data).all()

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
