"""Value-type construction and validation."""

import copy
import pickle

import numpy as np
import pytest

from vosmem.core import (
    FeatureMap,
    FrameSequence,
    LabelMask,
    _Adopted,
)


class TestFeatureMap:
    def test_valid_construction(self):
        fm = FeatureMap(3, np.zeros((2, 4, 5)))
        assert fm.frame_index == 3
        assert fm.shape == (2, 4, 5)
        assert fm.data.dtype == np.float64

    def test_data_is_read_only(self):
        fm = FeatureMap(0, np.ones((1, 2, 2)))
        with pytest.raises(ValueError):
            fm.data[0, 0, 0] = 5.0

    def test_rejects_nan_and_reports_flat_index(self):
        data = np.zeros((1, 2, 2))
        data[0, 1, 0] = np.nan
        with pytest.raises(ValueError, match="flat index 2"):
            FeatureMap(0, data)

    def test_rejects_inf(self):
        data = np.zeros((1, 1, 2))
        data[0, 0, 1] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            FeatureMap(0, data)

    def test_stores_float64_copy(self):
        src = np.ones((1, 2, 2), dtype=np.float32)
        fm = FeatureMap(0, src)
        src[0, 0, 0] = 9.0
        assert fm.data[0, 0, 0] == 1.0


class TestLabelMask:
    def test_valid_construction_and_ids(self):
        labels = np.array([[0, 1], [2, 2]], dtype=np.int64)
        m = LabelMask(0, labels)
        assert m.labels.dtype == np.uint8
        assert m.object_ids() == [1, 2]

    def test_binarize_selects_single_id(self):
        m = LabelMask(0, np.array([[0, 1], [2, 1]]))
        np.testing.assert_array_equal(m.binarize(1), [[False, True], [False, True]])
        assert not m.binarize(7).any()

    def test_labels_read_only(self):
        m = LabelMask(0, np.zeros((2, 2), dtype=np.uint8))
        with pytest.raises(ValueError):
            m.labels[0, 0] = 1


class TestFrameSequence:
    def _mask(self, idx, shape=(4, 4)):
        return LabelMask(idx, np.zeros(shape, dtype=np.uint8))

    def test_ordering_and_access(self):
        seq = FrameSequence((self._mask(0), self._mask(2), self._mask(5)))
        assert len(seq) == 3
        assert seq.frame_indices == (0, 2, 5)
        assert seq[1].frame_index == 2
        assert [f.frame_index for f in seq] == [0, 2, 5]
        assert seq.spatial_shape == (4, 4)


def _frozen_with_writable_view(arr):
    view = arr[:]
    arr.setflags(write=False)  # read-only and owns its data, yet the view still writes
    return arr, view


class TestIntake:
    def test_caller_array_is_copied(self):
        data = np.zeros((1, 2, 2))
        labels = np.zeros((2, 2), dtype=np.uint8)
        fm, m = FeatureMap(0, data), LabelMask(0, labels)
        data[0, 0, 0], labels[0, 0] = 7.0, 7
        assert fm.data[0, 0, 0] == 0.0 and m.labels[0, 0] == 0
        assert not np.shares_memory(fm.data, data) and not np.shares_memory(m.labels, labels)

    def test_writable_view_of_a_frozen_array_cannot_change_a_map(self):
        data, view = _frozen_with_writable_view(np.zeros((1, 2, 2)))
        fm = FeatureMap(0, data)
        view[0, 0, 0] = 7.0
        assert fm.data[0, 0, 0] == 0.0

    def test_writable_view_of_a_frozen_array_cannot_change_a_mask(self):
        labels, view = _frozen_with_writable_view(np.zeros((2, 2), dtype=np.uint8))
        m = LabelMask(0, labels)
        view[0, 0] = 7
        assert m.labels[0, 0] == 0

    def test_adopted_arrays_are_taken_without_a_copy_and_frozen(self):
        data = np.zeros((1, 2, 2))
        labels = np.zeros((2, 2), dtype=np.uint8)
        fm, m = FeatureMap(0, _Adopted(data)), LabelMask(0, _Adopted(labels))
        assert fm.data is data and m.labels is labels
        assert not data.flags.writeable and not labels.flags.writeable


_CLONES = [lambda x: pickle.loads(pickle.dumps(x)), copy.copy, copy.deepcopy]


class TestClones:
    @pytest.mark.parametrize("clone", _CLONES, ids=["pickle", "copy", "deepcopy"])
    def test_pickled_and_copied_maps_and_masks_stay_frozen(self, clone):
        fm = FeatureMap(3, np.arange(4.0).reshape(1, 2, 2))
        m = LabelMask(2, np.array([[0, 1]], dtype=np.uint8))
        fm2, m2 = clone(fm), clone(m)
        assert (fm2.frame_index, fm2.data.tolist()) == (3, fm.data.tolist())
        assert (m2.frame_index, m2.labels.tolist()) == (2, [[0, 1]])
        with pytest.raises(ValueError):
            fm2.data[0, 0, 0] = 9.0
        with pytest.raises(ValueError):
            m2.labels[0, 0] = 9


class TestIdentityEquality:
    def test_feature_maps_and_masks_compare_and_hash_by_identity(self):
        a = FeatureMap(0, np.ones((1, 1, 2)))
        b = FeatureMap(0, np.ones((1, 1, 2)))
        assert a == a and a != b
        assert hash(a) != hash(b) and len({a, b}) == 2
        m = LabelMask(0, np.ones((2, 2), dtype=np.uint8))
        assert m == m and m != LabelMask(0, np.ones((2, 2), dtype=np.uint8))
        assert {m: 1}[m] == 1

    def test_frame_sequences_compare_without_raising(self):
        frames = (LabelMask(0, np.ones((1, 2), dtype=np.uint8)),
                  LabelMask(1, np.ones((1, 2), dtype=np.uint8)))
        assert FrameSequence(frames) == FrameSequence(frames)
        assert FrameSequence(frames) != FrameSequence(frames[:1])
        assert hash(FrameSequence(frames)) == hash(FrameSequence(frames))
