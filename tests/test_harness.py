"""Synthetic tracker: scene kinematics, encoder determinism, streaming loop."""

import gc
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import block_mean_oracle

from vosmem import harness
from vosmem.core import FrameSequence, LabelMask
from vosmem.harness import (
    OBJECT_ID,
    SceneConfig,
    ToyEncoderConfig,
    encode_frame,
    generate_scene,
    readout_cost,
    track_sequence,
)
from vosmem.metrics import dice


class TestSceneConfig:
    def test_object_must_fit_at_frame_zero(self):
        with pytest.raises(ValueError, match="does not fit"):
            SceneConfig(grid=(8, 8), shape="square", size=9)
        with pytest.raises(ValueError, match="does not fit"):
            SceneConfig(grid=(8, 8), shape="square", size=4, start=(6, 0))

    def test_disk_extent_uses_diameter(self):
        config = SceneConfig(grid=(9, 9), shape="disk", size=4)
        assert config.extent == (9, 9)
        with pytest.raises(ValueError, match="does not fit"):
            SceneConfig(grid=(8, 8), shape="disk", size=4)

    def test_rejects_bad_shape_and_gaps(self):
        with pytest.raises(ValueError, match="shape"):
            SceneConfig(shape="triangle")
        with pytest.raises(ValueError, match="gap"):
            SceneConfig(gaps=((3, 1),))

    def test_rejects_empty_clip(self):
        with pytest.raises(ValueError, match="n_frames"):
            SceneConfig(n_frames=0)


class TestGenerateScene:
    def test_square_translates_two_px_per_frame(self):
        config = SceneConfig(grid=(32, 32), shape="square", size=4,
                             velocity=(2, 0), n_frames=5)
        scene = generate_scene(config)
        lefts = []
        for frame in scene:
            cols = np.flatnonzero(frame.labels.any(axis=0))
            lefts.append(int(cols[0]))
        assert lefts == [0, 2, 4, 6, 8]
        assert all(int((f.labels != 0).sum()) == 16 for f in scene)

    def test_gap_frames_are_all_background(self):
        config = SceneConfig(n_frames=5, gaps=((2, 3),))
        scene = generate_scene(config)
        present = [bool(f.labels.any()) for f in scene]
        assert present == [True, True, False, False, True]

    def test_zero_velocity_gives_identical_frames(self):
        config = SceneConfig(velocity=(0, 0), n_frames=5)
        scene = generate_scene(config)
        first = scene[0].labels
        assert all(np.array_equal(f.labels, first) for f in scene)

    def test_border_clipping_then_exit(self):
        config = SceneConfig(grid=(8, 8), shape="square", size=4,
                             velocity=(3, 0), n_frames=5)
        scene = generate_scene(config)
        areas = [int((f.labels != 0).sum()) for f in scene]
        # left edge at 0, 3, 6 (clipped to 2 cols), then fully off-grid
        assert areas == [16, 16, 8, 0, 0]

    def test_disk_is_integer_euclidean_ball(self):
        config = SceneConfig(grid=(16, 16), shape="disk", size=3,
                             start=(4, 4), n_frames=1)
        scene = generate_scene(config)
        assert int((scene[0].labels != 0).sum()) == 29

    def test_motion_continues_through_gaps(self):
        config = SceneConfig(grid=(32, 32), shape="square", size=2,
                             velocity=(1, 1), n_frames=6, gaps=((1, 4),))
        scene = generate_scene(config)
        rows = np.flatnonzero(scene[5].labels.any(axis=1))
        cols = np.flatnonzero(scene[5].labels.any(axis=0))
        assert int(rows[0]) == 5 and int(cols[0]) == 5


def _divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


@st.composite
def _occupancy_cases(draw):
    """A mask of up to 24x24 label ids and a feature resolution dividing it."""
    big_h = draw(st.integers(1, 24))
    big_w = draw(st.integers(1, 24))
    fill = draw(st.sampled_from(["empty", "full", "mixed"]))
    ids = {"empty": st.just(0), "full": st.integers(1, 255),
           "mixed": st.one_of(st.just(0), st.integers(1, 255))}[fill]
    values = draw(st.lists(ids, min_size=big_h * big_w, max_size=big_h * big_w))
    labels = np.array(values, dtype=np.uint8).reshape(big_h, big_w)
    resolution = (draw(st.sampled_from(_divisors(big_h))),
                  draw(st.sampled_from(_divisors(big_w))))
    return labels, resolution


class TestEncodeFrame:
    def _mask(self, labels, idx=0):
        return LabelMask(idx, np.asarray(labels, dtype=np.uint8))

    def test_background_mask_fixed_channels(self):
        mask = self._mask(np.zeros((8, 8), int))
        config = ToyEncoderConfig(feature_resolution=(4, 4), noise_sigma=0.0)
        features = encode_frame(mask, config, seed=0, frame_index=0)
        assert features.shape == (4, 4, 4)
        assert not features.data[0].any()
        np.testing.assert_allclose(features.data[1][0], (np.arange(4) + 0.5) / 4)
        np.testing.assert_allclose(features.data[2][:, 0], (np.arange(4) + 0.5) / 4)
        assert not features.data[3].any()

    def test_occupancy_is_block_mean(self):
        labels = np.zeros((4, 4), int)
        labels[0, 0] = OBJECT_ID  # one of four pixels in the top-left block
        mask = self._mask(labels)
        config = ToyEncoderConfig(feature_resolution=(2, 2))
        features = encode_frame(mask, config, seed=0, frame_index=0)
        np.testing.assert_allclose(features.data[0], [[0.25, 0.0], [0.0, 0.0]])

    def test_deterministic_for_same_key(self):
        mask = self._mask(np.zeros((8, 8), int))
        config = ToyEncoderConfig(feature_resolution=(4, 4), noise_sigma=0.5)
        a = encode_frame(mask, config, seed=3, frame_index=7)
        b = encode_frame(mask, config, seed=3, frame_index=7)
        np.testing.assert_array_equal(a.data, b.data)

    def test_frame_index_changes_only_noise(self):
        mask = self._mask(np.zeros((8, 8), int))
        config = ToyEncoderConfig(feature_resolution=(4, 4), noise_sigma=0.5)
        a = encode_frame(mask, config, seed=3, frame_index=1)
        b = encode_frame(mask, config, seed=3, frame_index=2)
        np.testing.assert_array_equal(a.data[:3], b.data[:3])
        assert not np.array_equal(a.data[3], b.data[3])

    def test_seed_changes_noise(self):
        mask = self._mask(np.zeros((8, 8), int))
        config = ToyEncoderConfig(feature_resolution=(4, 4), noise_sigma=0.5)
        a = encode_frame(mask, config, seed=0, frame_index=1)
        b = encode_frame(mask, config, seed=1, frame_index=1)
        assert not np.array_equal(a.data[3], b.data[3])

    def test_resolution_must_divide_grid(self):
        mask = self._mask(np.zeros((8, 8), int))
        config = ToyEncoderConfig(feature_resolution=(3, 4))
        with pytest.raises(ValueError, match="divide"):
            encode_frame(mask, config, seed=0, frame_index=0)

    @pytest.mark.parametrize("value", [-1, 2**64 - 1, 2**64])
    @pytest.mark.parametrize("name", ["seed", "frame_index"])
    def test_key_words_must_fit_64_bits(self, name, value):
        mask = self._mask(np.zeros((8, 8), int))
        config = ToyEncoderConfig(feature_resolution=(4, 4), noise_sigma=0.5)
        key = {"seed": 0, "frame_index": 0, name: value}
        if value == 2**64 - 1:
            features = encode_frame(mask, config, **key)
            assert np.isfinite(features.data).all()
        else:
            with pytest.raises(ValueError, match=rf"{name} must be in 0\.\.2\*\*64-1"):
                encode_frame(mask, config, **key)

    @pytest.mark.parametrize("seeds", [(2**63, 2**63 + 1), (2**64 - 1, 0)])
    def test_key_words_past_63_bits_give_their_own_noise(self, seeds):
        mask = self._mask(np.zeros((8, 8), int))
        config = ToyEncoderConfig(feature_resolution=(4, 4), noise_sigma=0.5)
        a, b = (encode_frame(mask, config, seed=s, frame_index=3).data[3] for s in seeds)
        assert not np.array_equal(a, b)

    @pytest.mark.parametrize("sigma", [5e-324, 1e-310, 0.05, 1e300])
    def test_noise_channel_is_philox_normal_bit_for_bit(self, sigma):
        mask = self._mask(np.zeros((12, 20), int))
        config = ToyEncoderConfig(feature_resolution=(6, 10), noise_sigma=sigma)
        noise = encode_frame(mask, config, seed=7, frame_index=11).data[3]
        key = np.array([7, 11], dtype=np.uint64)
        expected = np.random.Generator(np.random.Philox(key=key)).normal(0.0, sigma, (6, 10))
        assert noise.tobytes() == expected.tobytes()

    def test_overflowing_noise_raises_value_error_without_warning(self):
        mask = self._mask(np.zeros((8, 8), int))
        config = ToyEncoderConfig(feature_resolution=(8, 8), noise_sigma=1e308)
        key = np.array([0, 5], dtype=np.uint64)
        noise = np.random.Generator(np.random.Philox(key=key)).normal(0.0, 1e308, (8, 8))
        first_inf = 3 * 64 + int(np.flatnonzero(np.isinf(noise))[0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError,
                               match=rf"^non-finite feature value at flat index {first_inf}$"):
                encode_frame(mask, config, seed=0, frame_index=5)

    @pytest.mark.parametrize("sigma", [-1.0, float("nan"), float("inf")])
    def test_noise_sigma_must_be_finite_and_non_negative(self, sigma):
        with pytest.raises(ValueError, match=rf"^noise_sigma must be finite and >= 0, got {sigma}$"):
            ToyEncoderConfig(noise_sigma=sigma)

    @given(case=_occupancy_cases())
    @example(case=(np.zeros((24, 24), np.uint8), (24, 24)))  # empty, 1x1 blocks
    @example(case=(np.full((24, 24), 255, np.uint8), (1, 1)))  # full, whole grid
    @example(case=(np.eye(6, 24, dtype=np.uint8), (6, 1)))  # 1xN blocks
    @example(case=(np.eye(24, 6, dtype=np.uint8), (1, 6)))  # Nx1 blocks
    @example(case=(np.full((255, 1), 9, np.uint8), (1, 1)))  # uint8 sums at their maximum
    @example(case=(np.full((256, 1), 9, np.uint8), (1, 1)))  # uint16 sums
    @example(case=(np.full((256, 256), 9, np.uint8), (1, 1)))  # uint32 sums
    @settings(max_examples=200, deadline=None)
    def test_occupancy_matches_block_oracle_and_mean(self, case):
        labels, (h, w) = case
        big_h, big_w = labels.shape
        config = ToyEncoderConfig(feature_resolution=(h, w))
        occ = encode_frame(self._mask(labels), config, seed=0, frame_index=0).data[0]
        expected = np.array(block_mean_oracle(labels.tolist(), h, w), dtype=np.float64)
        mean = (labels != 0).astype(np.float64).reshape(
            h, big_h // h, w, big_w // w).mean(axis=(1, 3))
        assert occ.tobytes() == expected.tobytes()
        assert occ.tobytes() == mean.tobytes()


def _static_scene(n_frames=20):
    return generate_scene(SceneConfig(grid=(32, 32), shape="square", size=4,
                                      velocity=(0, 0), n_frames=n_frames,
                                      start=(10, 10)))


class TestTrackSequence:
    def test_static_scene_predicts_prompt_everywhere(self):
        scene = _static_scene()
        config = ToyEncoderConfig(feature_resolution=(8, 8), noise_sigma=0.0)
        predicted, trace = track_sequence(scene, config)
        prompt = scene[0].labels
        assert all(np.array_equal(f.labels, prompt) for f in predicted)
        assert all(dice(p.binarize(OBJECT_ID), g.binarize(OBJECT_ID)) == 1.0
                   for p, g in zip(predicted, scene))

    def test_prune_fires_at_first_full_step_with_five_retained(self):
        scene = _static_scene()
        config = ToyEncoderConfig(feature_resolution=(8, 8), noise_sigma=0.1)
        _, trace = track_sequence(scene, config, bank_capacity=7)
        first_fired = next(s for s in trace.steps if s.outcome.fired)
        assert first_fired.step == 7
        assert len(first_fired.bank_before) == 7
        assert len(first_fired.outcome.retained) == 5

    def test_duplicate_invariance_pruning_on_vs_off(self):
        scene = _static_scene()
        config = ToyEncoderConfig(feature_resolution=(8, 8), noise_sigma=0.0)
        with_prune, _ = track_sequence(scene, config, prune_enabled=True)
        without, _ = track_sequence(scene, config, prune_enabled=False)
        for a, b in zip(with_prune, without):
            assert np.array_equal(a.labels, b.labels)

    def test_trace_is_reproducible(self):
        from vosmem.io import jsonl_text, track_records

        scene = generate_scene(SceneConfig(velocity=(1, 0), n_frames=15, seed=5))
        config = ToyEncoderConfig(feature_resolution=(8, 8), noise_sigma=0.2)
        p1, t1 = track_sequence(scene, config, seed=5)
        p2, t2 = track_sequence(scene, config, seed=5)
        assert jsonl_text(track_records(t1)) == jsonl_text(track_records(t2))
        assert all(np.array_equal(a.labels, b.labels) for a, b in zip(p1, p2))

    def test_selected_entry_is_argmax_with_smallest_index_tiebreak(self):
        scene = _static_scene(6)
        config = ToyEncoderConfig(feature_resolution=(8, 8), noise_sigma=0.0)
        _, trace = track_sequence(scene, config)
        # all features identical, so the oldest retained entry always wins
        assert [s.selected_frame_index for s in trace.steps] == [0] * 5

    @pytest.mark.parametrize("prune_enabled", [False, True])
    def test_overflowing_readout_scores_raise_value_error(self, prune_enabled):
        # noise near 1e307 is finite, but squared distances overflow
        scene = _static_scene(3)
        config = ToyEncoderConfig(feature_resolution=(8, 8), noise_sigma=1e307)
        with np.errstate(over="ignore"), pytest.raises(
                ValueError, match=r"euclidean score -inf for frame 0 is not finite"):
            track_sequence(scene, config, metric="euclidean", prune_enabled=prune_enabled)

    def test_unknown_mode_rejected_even_without_pruning(self):
        # with pruning off the mode is never used, but it is written to every record
        with pytest.raises(ValueError, match="unknown prune mode 'bogus'"):
            track_sequence(_static_scene(3), ToyEncoderConfig(), mode="bogus",
                           prune_enabled=False)

    def test_scene_too_short_rejected(self):
        scene = generate_scene(SceneConfig(n_frames=1))
        config = ToyEncoderConfig()
        with pytest.raises(ValueError, match="at least 2"):
            track_sequence(scene, config)

    @pytest.mark.parametrize("mode", ["persistent", "select"])
    def test_trace_holds_no_features(self, monkeypatch, mode):
        encode = harness.encode_frame
        maps = []

        def encode_and_watch(*args, **kwargs):
            features = encode(*args, **kwargs)
            maps.append(weakref.ref(features))
            return features

        monkeypatch.setattr(harness, "encode_frame", encode_and_watch)
        config = ToyEncoderConfig(feature_resolution=(8, 8), noise_sigma=0.1)
        result = track_sequence(_static_scene(12), config, mode=mode)
        gc.collect()
        assert len(maps) == 12
        assert [ref for ref in maps if ref() is not None] == []
        _, trace = result
        assert any(s.outcome.fired for s in trace.steps)
        for s in trace.steps:
            assert type(s.outcome.retained) is tuple
            assert all(type(i) is int for i in s.outcome.retained)

    def test_select_mode_bank_stays_full(self):
        scene = _static_scene()
        config = ToyEncoderConfig(feature_resolution=(8, 8), noise_sigma=0.1)
        _, trace = track_sequence(scene, config, mode="select")
        full_steps = [s for s in trace.steps if len(s.bank_before) == 7]
        assert full_steps
        assert all(s.outcome.fired for s in full_steps)
        assert all(len(s.bank_after) == 7 for s in full_steps)


class TestReadoutCost:
    def test_warmup_costs_grow_with_bank(self):
        scene = _static_scene(5)
        config = ToyEncoderConfig(feature_resolution=(4, 8))
        _, trace = track_sequence(scene, config)
        assert readout_cost(trace) == [32, 64, 96, 128]

    def test_pruning_step_cost_ratio_five_sevenths(self):
        scene = generate_scene(SceneConfig(velocity=(1, 0), n_frames=20))
        config = ToyEncoderConfig(feature_resolution=(8, 8), noise_sigma=0.1)
        _, pruned = track_sequence(scene, config, prune_enabled=True, seed=2)
        _, plain = track_sequence(scene, config, prune_enabled=False, seed=2)
        cost_pruned = readout_cost(pruned)
        cost_plain = readout_cost(plain)
        fired = [i for i, s in enumerate(pruned.steps) if s.outcome.fired]
        assert fired
        for i in fired:
            assert cost_pruned[i] * 7 == cost_plain[i] * 5

    def test_disabled_pruning_full_bank_cost(self):
        scene = _static_scene(12)
        config = ToyEncoderConfig(feature_resolution=(8, 8))
        _, trace = track_sequence(scene, config, prune_enabled=False)
        assert readout_cost(trace)[-1] == 7 * 64
