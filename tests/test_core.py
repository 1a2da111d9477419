"""Value-type construction, validation, and approximate equality."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import rankdata

from vosmem.core import (
    MAX_OBJECT_ID,
    FeatureMap,
    FrameSequence,
    LabelMask,
    approx_equal,
    average_ranks,
    make_feature_map,
)


class TestFeatureMap:
    def test_valid_construction(self):
        fm = FeatureMap(3, np.zeros((2, 4, 5)))
        assert fm.frame_index == 3
        assert fm.shape == (2, 4, 5)
        assert fm.channels == 2 and fm.height == 4 and fm.width == 5
        assert fm.data.dtype == np.float64

    def test_data_is_read_only(self):
        fm = FeatureMap(0, np.ones((1, 2, 2)))
        with pytest.raises(ValueError):
            fm.data[0, 0, 0] = 5.0

    def test_rejects_wrong_rank(self):
        with pytest.raises(ValueError, match="3-D"):
            FeatureMap(0, np.zeros((4, 4)))

    def test_rejects_negative_frame_index(self):
        with pytest.raises(ValueError, match="frame_index"):
            FeatureMap(-1, np.zeros((1, 1, 1)))

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


class TestMemoryKeys:
    def test_keys_are_read_only_and_computed_once(self):
        fm = FeatureMap(0, np.arange(12.0).reshape(3, 2, 2))
        centred, _ = fm.centred
        ranks, _ = fm.centred_ranks
        for key in (fm.channel_norms, centred, ranks):
            with pytest.raises(ValueError):
                key[0] = 5.0
        assert fm.channel_norms is fm.channel_norms
        assert fm.centred is fm.centred
        assert fm.centred_ranks is fm.centred_ranks

    def test_key_values(self):
        fm = FeatureMap(0, np.array([[[3.0, 4.0]], [[0.0, 0.0]]]))
        assert fm.channel_norms.tolist() == [5.0, 0.0]
        centred, sq = fm.centred
        assert centred.tolist() == [1.25, 2.25, -1.75, -1.75] and sq == 12.75
        ranks, sq = fm.centred_ranks
        assert ranks.tolist() == [0.5, 1.5, -1.0, -1.0] and sq == 4.5


_RANK_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5]),
    st.floats(allow_nan=False, allow_infinity=False),
)


class TestAverageRanks:
    @given(st.lists(_RANK_VALUES, min_size=1, max_size=60))
    @settings(max_examples=300, deadline=None)
    def test_matches_scipy_rankdata_bit_for_bit(self, values):
        x = np.array(values)
        expected = rankdata(x, method="average")
        got = average_ranks(x)
        assert got.dtype == expected.dtype
        assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("values", [
        [7.0],
        [2.0] * 9,
        [0.0, -0.0, 0.0, -0.0],
        [3.0, -0.0, 1.0, 0.0, 3.0, 3.0],
    ])
    def test_edge_cases(self, values):
        x = np.array(values)
        assert average_ranks(x).tobytes() == rankdata(x, method="average").tobytes()

    def test_flattens_row_major(self):
        x = np.array([[[3.0, 1.0], [2.0, 1.0]]])
        assert average_ranks(x).tolist() == [4.0, 1.5, 3.0, 1.5]


class TestMakeFeatureMap:
    def test_reshapes_flat_buffer_row_major(self):
        fm = make_feature_map(0, 2, 2, 3, list(range(12)))
        assert fm.data[0, 0, 2] == 2.0
        assert fm.data[1, 0, 0] == 6.0

    def test_length_mismatch_message_names_expected_count(self):
        with pytest.raises(ValueError, match=r"data length 5 .* = 8"):
            make_feature_map(0, 2, 2, 2, [0.0] * 5)

    def test_rejects_nonpositive_dims(self):
        with pytest.raises(ValueError, match="dimensions"):
            make_feature_map(0, 0, 2, 2, [])


class TestApproxEqual:
    def test_identity_tol_zero(self):
        fm = make_feature_map(0, 1, 2, 2, [1.0, 2.0, 3.0, 4.0])
        assert approx_equal(fm, fm, 0.0)

    def test_small_perturbation_within_loose_tol(self):
        a = make_feature_map(0, 1, 1, 3, [0.5, 0.5, 0.5])
        b = make_feature_map(0, 1, 1, 3, [0.5 + 1e-6, 0.5, 0.5 - 1e-6])
        assert approx_equal(a, b, 1e-5)
        assert not approx_equal(a, b, 1e-7)

    def test_unit_difference_fails_half_tol(self):
        a = make_feature_map(0, 1, 1, 1, [0.0])
        b = make_feature_map(0, 1, 1, 1, [1.0])
        assert not approx_equal(a, b, 0.5)

    def test_shape_mismatch_is_unequal_not_error(self):
        a = make_feature_map(0, 1, 1, 2, [0.0, 0.0])
        b = make_feature_map(0, 1, 2, 1, [0.0, 0.0])
        assert not approx_equal(a, b, 100.0)

    def test_negative_tol_rejected(self):
        a = make_feature_map(0, 1, 1, 1, [0.0])
        with pytest.raises(ValueError, match="tol"):
            approx_equal(a, a, -1e-9)

    @given(st.lists(st.floats(-1e6, 1e6), min_size=4, max_size=4),
           st.floats(0.0, 10.0))
    @settings(max_examples=60)
    def test_reflexive_and_symmetric(self, values, tol):
        a = make_feature_map(0, 1, 2, 2, values)
        b = make_feature_map(0, 1, 2, 2, values[::-1])
        assert approx_equal(a, a, tol)
        assert approx_equal(a, b, tol) == approx_equal(b, a, tol)


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

    def test_rejects_float_labels(self):
        with pytest.raises(ValueError, match="integer"):
            LabelMask(0, np.zeros((2, 2), dtype=np.float64))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="0..255"):
            LabelMask(0, np.array([[MAX_OBJECT_ID + 1]]))
        with pytest.raises(ValueError, match="0..255"):
            LabelMask(0, np.array([[-1]]))

    def test_rejects_wrong_rank(self):
        with pytest.raises(ValueError, match="2-D"):
            LabelMask(0, np.zeros((2, 2, 2), dtype=np.int64))

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

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one"):
            FrameSequence(())

    def test_rejects_non_increasing_indices(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            FrameSequence((self._mask(1), self._mask(1)))
        with pytest.raises(ValueError, match="strictly increasing"):
            FrameSequence((self._mask(2), self._mask(0)))

    def test_rejects_mixed_dimensions(self):
        with pytest.raises(ValueError, match="spatial dimensions"):
            FrameSequence((self._mask(0, (4, 4)), self._mask(1, (4, 5))))

    def test_holds_feature_maps_too(self):
        frames = (FeatureMap(0, np.zeros((2, 3, 3))), FeatureMap(4, np.ones((2, 3, 3))))
        seq = FrameSequence(frames)
        assert seq.spatial_shape == (3, 3)
