"""Segmentation metrics: overlap, boundary agreement, reports."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from oracles import (
    boundary_f_oracle,
    boundary_oracle,
    ciou_oracle,
    dice_oracle,
    dilate_oracle,
    dilate_shift_oracle,
    disk_offsets_oracle,
    jaccard_oracle,
)
from vosmem.core import FrameSequence, LabelMask
from vosmem.metrics import (
    METRIC_NAMES,
    boundary_f,
    _boundary_pixels,
    _half_widths,
    ciou,
    dice,
    dilate_disk,
    disk_footprint,
    evaluate,
    j_and_f,
    jaccard,
)


def grid(h, w, ones=()):
    out = np.zeros((h, w), dtype=bool)
    for i, j in ones:
        out[i, j] = True
    return out


def block(h, w, top, left, size):
    out = np.zeros((h, w), dtype=bool)
    out[top:top + size, left:left + size] = True
    return out


class TestJaccardAndDice:
    def test_identity_is_one(self):
        m = block(8, 8, 2, 2, 3)
        assert jaccard(m, m) == 1.0
        assert dice(m, m) == 1.0

    def test_disjoint_is_zero(self):
        a = block(8, 8, 0, 0, 2)
        b = block(8, 8, 4, 4, 2)
        assert jaccard(a, b) == 0.0
        assert dice(a, b) == 0.0

    def test_shifted_block_counts(self):
        # 2x2 block vs itself shifted one column: |inter|=2, |union|=6
        a = block(4, 8, 1, 2, 2)
        b = block(4, 8, 1, 3, 2)
        assert jaccard(a, b) == pytest.approx(1 / 3)
        assert dice(a, b) == pytest.approx(0.5)

    def test_both_empty_is_one(self):
        e = grid(4, 4)
        assert jaccard(e, e) == 1.0
        assert dice(e, e) == 1.0

    def test_one_sided_empty_is_zero(self):
        e = grid(4, 4)
        m = block(4, 4, 0, 0, 2)
        assert jaccard(e, m) == 0.0
        assert dice(m, e) == 0.0

    def test_finite_float_mask_counts_its_nonzero_pixels(self):
        # every nonzero finite value is a member, as it is for bool()
        a = block(4, 8, 1, 2, 2)
        b = block(4, 8, 1, 3, 2)
        soft = np.where(a, np.float32(0.25), np.float32(-0.0))
        assert jaccard(soft, b) == jaccard(a, b)
        assert dice(b, soft.astype(np.float64)) == dice(b, a)


class TestBoundaryPixels:
    def test_single_pixel_is_its_own_boundary(self):
        m = grid(5, 5, [(2, 2)])
        np.testing.assert_array_equal(_boundary_pixels(m), m)

    def test_full_frame_boundary_is_border_ring(self):
        m = np.ones((5, 7), dtype=bool)
        b = _boundary_pixels(m)
        expected = np.ones((5, 7), dtype=bool)
        expected[1:-1, 1:-1] = False
        np.testing.assert_array_equal(b, expected)

    def test_solid_square_perimeter(self):
        m = block(10, 10, 3, 3, 4)
        b = _boundary_pixels(m)
        assert int(b.sum()) == 12
        assert not b[4:6, 4:6].any()

    def test_matches_loop_oracle_on_random_masks(self):
        rng = np.random.default_rng(0)
        # random shapes, and every shape with a side of 1, 2 or 3
        small = [(h, w) for h in range(1, 6) for w in range(1, 6) if min(h, w) <= 3]
        for shape in [tuple(rng.integers(1, 12, size=2)) for _ in range(25)] + small:
            m = rng.random(shape) < 0.5
            expected = np.array(boundary_oracle(m.tolist()), dtype=bool)
            np.testing.assert_array_equal(_boundary_pixels(m), expected)


@st.composite
def sparse_masks(draw):
    """Images up to 48x48 holding at most eight members, with coordinates
    drawn often from the first and last row and column."""
    h = draw(st.integers(1, 48))
    w = draw(st.integers(1, 48))
    ys = st.one_of(st.sampled_from([0, h - 1]), st.integers(0, h - 1))
    xs = st.one_of(st.sampled_from([0, w - 1]), st.integers(0, w - 1))
    return grid(h, w, draw(st.lists(st.tuples(ys, xs), max_size=8)))


class TestDilateDisk:
    def test_radius_zero_is_identity(self):
        m = block(6, 6, 1, 1, 2)
        np.testing.assert_array_equal(dilate_disk(m, 0), m)

    def test_radius_one_plus_shape(self):
        m = grid(5, 5, [(2, 2)])
        out = dilate_disk(m, 1)
        expected = grid(5, 5, [(2, 2), (1, 2), (3, 2), (2, 1), (2, 3)])
        np.testing.assert_array_equal(out, expected)

    def test_disk_footprint_lattice_counts(self):
        # number of integer points with dx^2+dy^2 <= r^2
        for radius, count in [(0, 1), (1, 5), (2, 13), (3, 29), (14, 613)]:
            assert int(disk_footprint(radius).sum()) == count
            assert len(disk_offsets_oracle(radius)) == count

    def test_single_pixel_radius_14_on_big_grid(self):
        m = grid(40, 40, [(20, 20)])
        assert int(dilate_disk(m, 14).sum()) == 613

    def test_clipped_at_image_border(self):
        m = grid(3, 3, [(0, 0)])
        out = dilate_disk(m, 2)
        expected = grid(3, 3, [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0)])
        np.testing.assert_array_equal(out, expected)

    def test_matches_both_oracles_on_random_masks(self):
        rng = np.random.default_rng(3)
        for radius in (0, 1, 3):
            for _ in range(10):
                m = rng.random((rng.integers(1, 14), rng.integers(1, 14))) < 0.3
                loop = np.array(dilate_oracle(m.tolist(), radius), dtype=bool)
                shift = dilate_shift_oracle(m, radius)
                np.testing.assert_array_equal(loop, shift)
                np.testing.assert_array_equal(dilate_disk(m, radius), loop)

    @given(arrays(bool, st.tuples(st.integers(1, 9), st.integers(1, 9))), st.integers(0, 20))
    @example(grid(1, 9, [(0, 0)]), 0)
    @example(grid(1, 9, [(0, 8)]), 3)
    @example(grid(9, 1, [(4, 0)]), 20)
    @example(grid(5, 5, [(0, 0), (4, 4)]), 2)
    @example(np.ones((3, 4), dtype=bool), 1)
    @settings(max_examples=150, deadline=None)
    def test_matches_loop_oracle_under_hypothesis(self, m, radius):
        # radii up to 20 reach past every image of at most 9x9
        expected = np.array(dilate_oracle(m.tolist(), radius), dtype=bool)
        np.testing.assert_array_equal(dilate_disk(m, radius), expected)

    @given(sparse_masks(), st.integers(0, 30))
    @example(grid(48, 48), 30)
    @example(np.ones((40, 48), dtype=bool), 2)
    @example(np.ones((1, 48), dtype=bool), 30)
    @example(grid(48, 48, [(0, 0), (0, 47), (47, 0), (47, 47)]), 5)
    @example(grid(48, 48, [(0, 20), (30, 47)]), 13)
    @example(grid(48, 17, [(47, 16)]), 30)
    @settings(max_examples=200, deadline=None)
    def test_cropped_box_matches_loop_oracle_in_larger_images(self, m, radius):
        # a few members in images up to 48x48 leave the members' box grown by
        # r a strict part of the image, with its sides on the border or not
        expected = np.array(dilate_oracle(m.tolist(), radius), dtype=bool)
        np.testing.assert_array_equal(dilate_disk(m, radius), expected)

    def test_half_widths_are_integer_square_roots(self):
        for radius in [*range(60), 1000, 4099]:
            widths = _half_widths(radius)
            assert widths.tolist() == [math.isqrt(radius * radius - g * g)
                                       for g in range(radius + 1)]
            assert not widths.flags.writeable

    @pytest.mark.parametrize("pixels", ["filled", "boundary"])
    def test_full_frame_memory_is_two_int32_boxes(self, pixels):
        # 480x854 at r = 14 with the box the whole frame: two int32 box-sized
        # arrays, the output and bool temporaries peak near 10 bytes a pixel
        # (about 4.2 MB); the row-run dilation this replaced peaked at 4.0 MB,
        # and the bound is 1.5 times that
        m = np.ones((480, 854), dtype=bool)
        expected = m
        if pixels == "boundary":
            m = _boundary_pixels(m)
            expected = ~np.pad(np.ones((450, 824), dtype=bool), 15)
        tracemalloc.start()
        try:
            out = dilate_disk(m, 14)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(out, expected)
        assert peak <= 1.5 * 4.04e6

    def test_radius_beyond_image_is_bounded_by_it(self):
        m = grid(5, 7, [(0, 0)])
        huge = dilate_disk(m, 10**9)
        np.testing.assert_array_equal(huge, np.ones((5, 7), dtype=bool))
        np.testing.assert_array_equal(huge, dilate_disk(m, 5 + 7))
        assert boundary_f(m, grid(5, 7, [(4, 6)]), radius=10**9) == 1.0

    def test_radius_beyond_diagonal_costs_no_more_than_the_image(self):
        m = grid(120, 200, [(60, 100)])
        empty = grid(120, 200)
        tracemalloc.start()
        try:
            full = dilate_disk(m, 10**9)
            none = dilate_disk(empty, 10**9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert full.all() and not none.any()
        assert peak < 4 * m.nbytes

    @pytest.mark.parametrize("radius", [1.5, 2.0, "3", None])
    def test_non_integer_radius_rejected(self, radius):
        m = grid(6, 6, [(2, 2)])
        with pytest.raises(ValueError, match="radius must be an integer"):
            dilate_disk(m, radius)
        with pytest.raises(ValueError, match="radius must be an integer"):
            boundary_f(m, grid(6, 6, [(3, 3)]), radius)


class TestBoundaryF:
    def test_identical_masks_score_one(self):
        m = block(16, 16, 4, 4, 5)
        assert boundary_f(m, m) == 1.0

    def test_single_pixels_five_apart_radius_14(self):
        a = grid(32, 32, [(10, 10)])
        b = grid(32, 32, [(10, 15)])
        assert boundary_f(a, b, radius=14) == 1.0

    def test_single_pixels_twenty_apart_radius_14(self):
        a = grid(32, 32, [(10, 5)])
        b = grid(32, 32, [(10, 25)])
        assert boundary_f(a, b, radius=14) == 0.0

    def test_both_empty_is_one(self):
        e = grid(8, 8)
        assert boundary_f(e, e) == 1.0

    def test_one_sided_empty_is_zero(self):
        e = grid(8, 8)
        m = block(8, 8, 2, 2, 3)
        assert boundary_f(e, m) == 0.0
        assert boundary_f(m, e) == 0.0

    def test_matches_naive_oracle_exactly(self):
        rng = np.random.default_rng(7)
        for radius in (0, 1, 3):
            for _ in range(15):
                h, w = rng.integers(1, 20, size=2)
                a = rng.random((h, w)) < 0.4
                b = rng.random((h, w)) < 0.4
                assert boundary_f(a, b, radius) == boundary_f_oracle(
                    a.tolist(), b.tolist(), radius)

    @pytest.mark.parametrize("radius", [-1, -5])
    def test_negative_radius_rejected_before_any_early_return(self, radius):
        e = grid(8, 8)
        m = block(8, 8, 2, 2, 3)
        for pred, gt in ((e, e), (e, m), (m, m)):
            with pytest.raises(ValueError, match="radius must be >= 0"):
                boundary_f(pred, gt, radius)

    def test_nondecreasing_in_radius(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            a = rng.random((12, 12)) < 0.4
            b = rng.random((12, 12)) < 0.4
            scores = [boundary_f(a, b, r) for r in (0, 1, 2, 4, 8)]
            assert all(x <= y + 1e-15 for x, y in zip(scores, scores[1:]))


class TestJAndF:
    def test_endpoints(self):
        assert j_and_f(1.0, 1.0) == 1.0
        assert j_and_f(0.0, 1.0) == 0.5

    def test_published_row_consistency(self):
        assert j_and_f(0.9189, 0.9494) == pytest.approx(0.93415, abs=1e-12)


class TestCiou:
    def test_single_frame_equals_jaccard(self):
        a = block(6, 6, 0, 0, 3)
        b = block(6, 6, 1, 1, 3)
        assert ciou([a], [b]) == jaccard(a, b)

    def test_accumulates_before_dividing(self):
        # frame 1: inter 2 / union 6; frame 2: inter 4 / union 4 -> 6/10
        a1, b1 = block(4, 8, 1, 2, 2), block(4, 8, 1, 3, 2)
        a2 = block(4, 8, 0, 0, 2)
        assert ciou([a1, a2], [b1, a2]) == pytest.approx(0.6)

    def test_perfect_sequence_is_one(self):
        frames = [block(5, 5, 0, 0, 2), block(5, 5, 2, 2, 2)]
        assert ciou(frames, frames) == 1.0

    def test_all_empty_is_one(self):
        e = grid(4, 4)
        assert ciou([e, e], [e, e]) == 1.0

    def test_length_mismatch_rejected(self):
        e = grid(4, 4)
        with pytest.raises(ValueError, match="lengths"):
            ciou([e], [e, e])

    def test_iterables_score_as_lists(self):
        a1, b1 = block(4, 8, 1, 2, 2), block(4, 8, 1, 3, 2)
        a2 = block(4, 8, 0, 0, 2)
        expected = ciou([a1, a2], [b1, a2])
        assert ciou((m for m in [a1, a2]), iter([b1, a2])) == expected
        assert ciou((a1, a2), map(np.asarray, [b1, a2])) == expected

    def test_slab_identity_against_3d_oracle(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            depth = int(rng.integers(1, 9))
            h, w = rng.integers(1, 9, size=2)
            pred = [rng.random((h, w)) < 0.5 for _ in range(depth)]
            gt = [rng.random((h, w)) < 0.5 for _ in range(depth)]
            p3 = np.stack(pred)
            g3 = np.stack(gt)
            union = int(np.count_nonzero(p3 | g3))
            stacked = 1.0 if union == 0 else int(np.count_nonzero(p3 & g3)) / union
            assert ciou(pred, gt) == pytest.approx(stacked, abs=0)
            assert ciou(pred, gt) == pytest.approx(ciou_oracle(
                [m.tolist() for m in pred], [m.tolist() for m in gt]), abs=0)


class TestMetricIdentities:
    @given(arrays(bool, (8, 8)), arrays(bool, (8, 8)))
    @settings(max_examples=120)
    def test_dice_jaccard_identity_and_bounds(self, a, b):
        j = jaccard(a, b)
        d = dice(a, b)
        assert d == pytest.approx(2 * j / (1 + j), abs=1e-12)
        assert d >= j
        assert 0.0 <= j <= 1.0 and 0.0 <= d <= 1.0
        if j not in (0.0, 1.0):
            assert d > j

    @given(arrays(bool, (8, 8)), arrays(bool, (8, 8)))
    @settings(max_examples=60)
    def test_symmetry(self, a, b):
        assert jaccard(a, b) == jaccard(b, a)
        assert dice(a, b) == dice(b, a)
        assert boundary_f(a, b, 2) == boundary_f(b, a, 2)
        assert ciou([a], [b]) == ciou([b], [a])

    def test_random_pairs_match_loop_oracles(self):
        rng = np.random.default_rng(21)
        for _ in range(40):
            h, w = rng.integers(1, 16, size=2)
            a = rng.random((h, w)) < 0.5
            b = rng.random((h, w)) < 0.5
            assert jaccard(a, b) == jaccard_oracle(a.tolist(), b.tolist())
            assert dice(a, b) == dice_oracle(a.tolist(), b.tolist())


def _mask_seq(arrays_by_frame):
    frames = [LabelMask(i, np.asarray(labels, dtype=np.uint8))
              for i, labels in enumerate(arrays_by_frame)]
    return FrameSequence(tuple(frames))


class TestEvaluate:
    def _toy(self):
        gt0 = [[1, 1, 0, 0], [1, 1, 0, 2], [0, 0, 0, 2], [0, 0, 0, 0]]
        gt1 = [[0, 1, 1, 0], [0, 1, 1, 2], [0, 0, 0, 2], [0, 0, 0, 0]]
        pr0 = [[1, 1, 0, 0], [1, 1, 0, 2], [0, 0, 0, 2], [0, 0, 0, 0]]
        pr1 = [[1, 1, 0, 0], [1, 1, 0, 0], [0, 0, 0, 2], [0, 0, 0, 2]]
        return _mask_seq([pr0, pr1]), _mask_seq([gt0, gt1])

    def test_perfect_prediction_all_ones(self):
        pred, gt = self._toy()
        report = evaluate(gt, gt, radius=2)
        for vals in report.per_object.values():
            for name in METRIC_NAMES:
                assert vals[name] == 1.0
        for stat in report.aggregate.values():
            assert stat.mean == 1.0
            assert stat.sd == 0.0

    def test_all_background_prediction_scores_zero(self):
        _, gt = self._toy()
        blank = _mask_seq([np.zeros((4, 4), int), np.zeros((4, 4), int)])
        report = evaluate(blank, gt, radius=2)
        for vals in report.per_object.values():
            for name in ("J", "F", "Dice", "CIoU"):
                assert vals[name] == 0.0

    def test_negative_radius_rejected_even_without_dilation(self):
        # only J is requested, so no frame would reach boundary_f
        pred, gt = self._toy()
        with pytest.raises(ValueError, match="radius must be >= 0"):
            evaluate(pred, gt, radius=-5, metrics=["J"])

    def test_hand_counted_two_object_values(self):
        pred, gt = self._toy()
        report = evaluate(pred, gt, radius=0)
        # object 1, frame 0: identical 2x2 blocks -> J = 1
        # object 1, frame 1: pred block at cols 0-1, gt at cols 1-2 -> J = 2/6
        assert report.per_object[1]["J"] == pytest.approx((1.0 + 2 / 6) / 2)
        assert report.per_object[1]["CIoU"] == pytest.approx((4 + 2) / (4 + 6))
        # object 2: frame 0 identical (2 px); frame 1 pred {(1,3)... } shifted
        j2_f1 = jaccard(np.array(pred[1].binarize(2)), np.array(gt[1].binarize(2)))
        assert report.per_object[2]["J"] == pytest.approx((1.0 + j2_f1) / 2)
        # aggregate is the mean over the two object ids
        expected_mean = (report.per_object[1]["J"] + report.per_object[2]["J"]) / 2
        assert report.aggregate["J"].mean == pytest.approx(expected_mean)

    def test_aggregate_sd_is_sample_sd_over_objects(self):
        pred, gt = self._toy()
        report = evaluate(pred, gt, radius=0)
        values = [report.per_object[oid]["J"] for oid in (1, 2)]
        assert report.aggregate["J"].sd == pytest.approx(np.std(values, ddof=1))

    def test_single_object_sd_is_zero(self):
        gt = _mask_seq([[[0, 1], [0, 1]]])
        report = evaluate(gt, gt, radius=1)
        assert report.aggregate["J"].sd == 0.0

    def test_metrics_subset_only_computes_requested(self):
        pred, gt = self._toy()
        report = evaluate(pred, gt, radius=0, metrics=("J", "Dice"))
        assert set(report.per_object[1]) == {"J", "Dice"}
        assert set(report.aggregate) == {"J", "Dice"}

    @pytest.mark.parametrize("name", ["J&F", "J", "CIoU"])
    def test_bare_string_is_one_metric_name(self, name):
        pred, gt = self._toy()
        report = evaluate(pred, gt, radius=1, metrics=name)
        assert report.to_dict() == evaluate(pred, gt, radius=1, metrics=(name,)).to_dict()
        assert list(report.aggregate) == [name]

    def test_empty_metric_list_rejected(self):
        pred, gt = self._toy()
        with pytest.raises(ValueError, match="no metrics requested"):
            evaluate(pred, gt, metrics=[])

    def test_misaligned_lengths_rejected(self):
        pred, gt = self._toy()
        short = _mask_seq([np.zeros((4, 4), int)])
        with pytest.raises(ValueError, match="lengths"):
            evaluate(short, gt)

    def test_misaligned_indices_rejected(self):
        gt = _mask_seq([[[0, 1]], [[0, 1]]])
        pred = FrameSequence((LabelMask(1, np.array([[0, 1]], dtype=np.uint8)),
                              LabelMask(2, np.array([[0, 1]], dtype=np.uint8))))
        with pytest.raises(ValueError, match="not aligned"):
            evaluate(pred, gt)

    def test_every_ground_truth_object_and_no_other_is_scored(self):
        # id 2 is in one ground-truth frame only; id 9 is only predicted
        gt = _mask_seq([[[1, 0]], [[1, 2]]])
        pred = _mask_seq([[[1, 9]], [[1, 0]]])
        report = evaluate(pred, gt, metrics="J")
        assert {oid: vals["J"] for oid, vals in report.per_object.items()} == {1: 1.0, 2: 0.5}
        assert all(type(oid) is int for oid in report.per_object)
        assert report.aggregate["J"].mean == 0.75

    def test_empty_gt_rejected(self):
        blank = _mask_seq([np.zeros((4, 4), int)])
        with pytest.raises(ValueError, match="no objects"):
            evaluate(blank, blank)

    def test_report_dict_casts_to_plain_types(self):
        import json

        pred, gt = self._toy()
        report = evaluate(pred, gt, radius=2)
        payload = report.to_dict(include_per_frame=True)
        text = json.dumps(payload)
        assert '"radius": 2' in text
        assert set(payload["per_object"]) == {"1", "2"}

    @pytest.mark.parametrize("kwargs, rows", [({}, False), ({"include_per_frame": False}, False),
                                              ({"include_per_frame": True}, True)],
                             ids=["default", "False", "True"])
    def test_report_dict_holds_per_frame_rows_only_when_asked(self, kwargs, rows):
        pred, gt = self._toy()
        payload = evaluate(pred, gt).to_dict(**kwargs)
        assert list(payload) == ["radius", "per_object", "aggregate"] + ["per_frame"] * rows

    @pytest.mark.parametrize("radius", [np.int64(2), np.uint8(2)])
    def test_numpy_integer_radius_reported_as_plain_int(self, radius):
        import json

        pred, gt = self._toy()
        report = evaluate(pred, gt, radius=radius)
        assert type(report.radius) is int
        assert '"radius": 2' in json.dumps(report.to_dict())

    def test_format_table_layout(self):
        pred, gt = self._toy()
        table = evaluate(gt, gt, radius=2).format_table()
        lines = table.splitlines()
        assert lines[0].split() == ["object", "J&F[%]", "J[%]", "F[%]", "Dice[%]", "CIoU[%]"]
        assert lines[1].startswith("1")
        assert "100.00" in lines[1]
        assert lines[-1].startswith("mean")
        assert "100.00±0.00" in lines[-1]
