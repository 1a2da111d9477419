"""Stride-view construction: index formulas, phase policies, materialization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vosmem.core import FrameSequence, LabelMask
from vosmem.sampling import (
    DEFAULT_PHASE_POLICY,
    DEFAULT_STRIDES,
    PHASE_POLICIES,
    build_plan,
    materialize,
)


def _views(length, stride):
    """Every phase's view of the clip at one stride, in phase order."""
    return [v.indices for v in build_plan(length, strides=(stride,), phase_policy="all")]


class TestStrideViews:
    def test_stride_one_is_identity(self):
        assert _views(10, 1) == [tuple(range(10))]

    def test_stride_two_phase_zero(self):
        assert _views(10, 2)[0] == (0, 2, 4, 6, 8)

    def test_stride_two_phase_one(self):
        assert _views(10, 2)[1] == (1, 3, 5, 7, 9)

    def test_stride_three_short_clip(self):
        assert _views(7, 3) == [(0, 3, 6), (1, 4), (2, 5)]

    def test_large_stride_keeps_only_phase(self):
        assert build_plan(5, strides=(100,))[0].indices == (0,)
        assert _views(5, 100) == [(0,), (1,), (2,), (3,), (4,)]

    def test_count_formula(self):
        # K+1 indices with K = floor((L-1-t0)/s)
        for length in (1, 2, 9, 64):
            for stride in (1, 2, 3, 8):
                for phase, got in enumerate(_views(length, stride)):
                    assert len(got) == (length - 1 - phase) // stride + 1

    @pytest.mark.parametrize("length", [0, -5])
    def test_empty_clip_is_refused(self, length):
        with pytest.raises(ValueError, match=f"^clip length must be >= 1, got {length}$"):
            build_plan(length)

    @given(st.integers(1, 500), st.integers(1, 20))
    @settings(max_examples=120)
    def test_indices_bounded_and_arithmetic(self, length, stride):
        for phase, got in enumerate(_views(length, stride)):
            assert got[0] == phase
            assert all(0 <= i < length for i in got)
            assert all(b - a == stride for a, b in zip(got, got[1:]))


class TestSamplingConfig:
    def test_defaults(self):
        assert DEFAULT_STRIDES == (1, 2)
        assert DEFAULT_PHASE_POLICY == "zero"
        assert build_plan(5) == build_plan(5, strides=DEFAULT_STRIDES,
                                           phase_policy=DEFAULT_PHASE_POLICY, max_frames=None)


class TestBuildPlan:
    def test_default_plan_on_149_frames(self):
        views = build_plan(149)
        assert isinstance(views, tuple)
        assert [(v.stride, len(v.indices)) for v in views] == [(1, 149), (2, 75)]

    def test_zero_policy_single_phase_per_stride(self):
        views = build_plan(10, strides=(1, 2, 3))
        assert [(v.stride, v.phase) for v in views] == [(1, 0), (2, 0), (3, 0)]

    def test_all_policy_emits_every_phase(self):
        views = build_plan(10, strides=(3,), phase_policy="all")
        assert [(v.stride, v.phase) for v in views] == [(3, 0), (3, 1), (3, 2)]

    def test_all_policy_phases_partition_the_clip(self):
        for stride in (2, 3, 5):
            views = build_plan(13, strides=(stride,), phase_policy="all")
            seen = [i for v in views for i in v.indices]
            assert sorted(seen) == list(range(13))

    def test_all_policy_clamps_phases_to_the_clip(self):
        views = build_plan(2, strides=(5,), phase_policy="all")
        assert [(v.stride, v.phase, v.indices) for v in views] == [
            (5, 0, (0,)), (5, 1, (1,))]

    def test_max_frames_truncates_from_the_end(self):
        assert build_plan(10, strides=(1,), max_frames=4)[0].indices == (0, 1, 2, 3)

    @pytest.mark.parametrize("length", [10**10, 10**20])
    def test_max_frames_applies_before_a_huge_view_is_built(self, length):
        views = build_plan(length, strides=(1, 3), phase_policy="all", max_frames=2)
        assert [(v.stride, v.phase, v.indices) for v in views] == [
            (1, 0, (0, 1)), (3, 0, (0, 3)), (3, 1, (1, 4)), (3, 2, (2, 5))]

    def test_strides_emitted_in_sorted_order(self):
        assert [v.stride for v in build_plan(10, strides=(4, 1, 2))] == [1, 2, 4]

    @given(st.integers(1, 64), st.integers(1, 8))
    @settings(max_examples=100)
    def test_partition_property(self, length, stride):
        chunks = _views(length, stride)
        flat = sorted(i for c in chunks for i in c)
        assert flat == list(range(length))
        assert sum(len(c) for c in chunks) == length

    @given(length=st.integers(1, 500),
           strides=st.lists(st.integers(1, 20), min_size=1, max_size=4, unique=True))
    @settings(max_examples=100)
    def test_zero_policy_views_never_grow_along_the_plan(self, length, strides):
        # scripts/stride_views.py takes the last view's length as the frame budget
        lengths = [len(v.indices) for v in build_plan(length, strides=tuple(strides))]
        assert lengths == sorted(lengths, reverse=True)

    @given(length=st.integers(1, 500),
           strides=st.lists(st.integers(1, 20), min_size=1, max_size=3, unique=True),
           policy=st.sampled_from(PHASE_POLICIES),
           max_frames=st.none() | st.integers(1, 20))
    @settings(max_examples=150)
    def test_views_are_truncated_ranges_in_stride_phase_order(
            self, length, strides, policy, max_frames):
        views = build_plan(length, strides=tuple(strides), phase_policy=policy,
                           max_frames=max_frames)
        assert [(v.stride, v.phase) for v in views] == [
            (s, t0) for s in sorted(strides)
            for t0 in (range(min(s, length)) if policy == "all" else (0,))]
        for v in views:
            assert v.indices == tuple(range(v.phase, length, v.stride)[:max_frames])
        if policy == "all" and max_frames is None:
            for s in strides:
                assert sorted(i for v in views if v.stride == s for i in v.indices) == list(
                    range(length))


class TestMaterialize:
    def _seq(self, n=6):
        frames = [LabelMask(i, np.full((2, 2), i, dtype=np.uint8)) for i in range(n)]
        return FrameSequence(tuple(frames))

    def test_keeps_original_frame_indices(self):
        seq = self._seq()
        out = materialize(seq, [0, 2, 4])
        assert out.frame_indices == (0, 2, 4)
        assert out[1].labels[0, 0] == 2

    def test_stride_one_materialization_is_identity(self):
        seq = self._seq()
        out = materialize(seq, build_plan(len(seq))[0].indices)
        assert out.frame_indices == seq.frame_indices
