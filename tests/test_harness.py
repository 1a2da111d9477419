"""Synthetic tracker: scene kinematics, encoder determinism, streaming loop."""

import dataclasses
import gc
import threading
import warnings
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import block_mean_oracle, track_oracle

from vosmem import harness, memory
from vosmem.core import LabelMask
from vosmem.harness import (
    OBJECT_ID,
    OBJECT_SHAPES,
    SceneConfig,
    ToyEncoderConfig,
    TrackStep,
    encode_frame,
    generate_scene,
    readout_cost,
    track_sequence,
)
from vosmem.io import track_records
from vosmem.memory import PRUNE_MODES, SIMILARITY_METRICS
from vosmem.metrics import dice


class TestSceneConfig:
    def test_disk_extent_uses_diameter(self):
        config = SceneConfig(grid=(9, 9), shape="disk", size=4)
        assert config.extent == (9, 9)
        with pytest.raises(ValueError, match="does not fit"):
            SceneConfig(grid=(8, 8), shape="disk", size=4)


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
        features = encode_frame(mask, config, seed=0)
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
        features = encode_frame(mask, config, seed=0)
        np.testing.assert_allclose(features.data[0], [[0.25, 0.0], [0.0, 0.0]])

    def test_deterministic_for_same_key(self):
        mask = self._mask(np.zeros((8, 8), int), 7)
        config = ToyEncoderConfig(feature_resolution=(4, 4), noise_sigma=0.5)
        a = encode_frame(mask, config, seed=3)
        b = encode_frame(mask, config, seed=3)
        assert a.frame_index == 7
        np.testing.assert_array_equal(a.data, b.data)

    def test_frame_index_changes_only_noise(self):
        config = ToyEncoderConfig(feature_resolution=(4, 4), noise_sigma=0.5)
        a, b = (encode_frame(self._mask(np.zeros((8, 8), int), i), config, seed=3)
                for i in (1, 2))
        np.testing.assert_array_equal(a.data[:3], b.data[:3])
        assert not np.array_equal(a.data[3], b.data[3])

    def test_seed_changes_noise(self):
        mask = self._mask(np.zeros((8, 8), int), 1)
        config = ToyEncoderConfig(feature_resolution=(4, 4), noise_sigma=0.5)
        a = encode_frame(mask, config, seed=0)
        b = encode_frame(mask, config, seed=1)
        assert not np.array_equal(a.data[3], b.data[3])

    def test_resolution_must_divide_grid(self):
        mask = self._mask(np.zeros((8, 8), int))
        config = ToyEncoderConfig(feature_resolution=(3, 4))
        with pytest.raises(ValueError, match="divide"):
            encode_frame(mask, config, seed=0)

    @pytest.mark.parametrize("value", [-1, 2**64 - 1, 2**64])
    @pytest.mark.parametrize("name", ["seed", "frame_index"])
    def test_key_words_must_fit_64_bits(self, name, value):
        config = ToyEncoderConfig(feature_resolution=(4, 4), noise_sigma=0.5)
        key = {"seed": 0, "frame_index": 0, name: value}

        def encode():
            mask = self._mask(np.zeros((8, 8), int), key["frame_index"])
            return encode_frame(mask, config, key["seed"])

        if value == 2**64 - 1:
            assert np.isfinite(encode().data).all()
        else:
            # a frame index below 0 is refused by the mask it would key
            bound = ">= 0" if (name, value) == ("frame_index", -1) else r"in 0\.\.2\*\*64-1"
            with pytest.raises(ValueError, match=rf"^{name} must be {bound}, got {value}$"):
                encode()

    @pytest.mark.parametrize("seeds", [(2**63, 2**63 + 1), (2**64 - 1, 0)])
    def test_key_words_past_63_bits_give_their_own_noise(self, seeds):
        mask = self._mask(np.zeros((8, 8), int), 3)
        config = ToyEncoderConfig(feature_resolution=(4, 4), noise_sigma=0.5)
        a, b = (encode_frame(mask, config, seed=s).data[3] for s in seeds)
        assert not np.array_equal(a, b)

    @pytest.mark.parametrize("sigma", [5e-324, 1e-310, 0.05, 1e300])
    def test_noise_channel_is_philox_normal_bit_for_bit(self, sigma):
        mask = self._mask(np.zeros((12, 20), int), 11)
        config = ToyEncoderConfig(feature_resolution=(6, 10), noise_sigma=sigma)
        noise = encode_frame(mask, config, seed=7).data[3]
        key = np.array([7, 11], dtype=np.uint64)
        expected = np.random.Generator(np.random.Philox(key=key)).normal(0.0, sigma, (6, 10))
        assert noise.tobytes() == expected.tobytes()

    def test_overflowing_noise_raises_value_error_without_warning(self):
        mask = self._mask(np.zeros((8, 8), int), 5)
        config = ToyEncoderConfig(feature_resolution=(8, 8), noise_sigma=1e308)
        key = np.array([0, 5], dtype=np.uint64)
        noise = np.random.Generator(np.random.Philox(key=key)).normal(0.0, 1e308, (8, 8))
        first_inf = 3 * 64 + int(np.flatnonzero(np.isinf(noise))[0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError,
                               match=rf"^non-finite feature value at flat index {first_inf}$"):
                encode_frame(mask, config, seed=0)

    @staticmethod
    def _fresh_noise(seed, frame_index, sigma, shape):
        key = np.array([seed, frame_index], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key)).normal(0.0, sigma, shape)

    def test_alternating_keys_each_give_a_fresh_generators_noise(self):
        config = ToyEncoderConfig(feature_resolution=(4, 8), noise_sigma=0.5)
        for seed, frame_index in [(3, 7), (2**64 - 1, 0), (3, 7)]:
            mask = self._mask(np.zeros((8, 8), int), frame_index)
            noise = encode_frame(mask, config, seed=seed).data[3]
            assert noise.tobytes() == self._fresh_noise(seed, frame_index, 0.5, (4, 8)).tobytes()

    def test_threads_encoding_at_once_match_serial_encodings(self, monkeypatch):
        masks = [self._mask(np.zeros((8, 8), int), frame) for frame in range(30)]
        config = ToyEncoderConfig(feature_resolution=(4, 4), noise_sigma=0.5)
        keys = [[(thread, mask) for mask in masks] for thread in range(4)]
        serial = [[encode_frame(mask, config, seed).data.tobytes() for seed, mask in mine]
                  for mine in keys]
        # every thread re-keys its generator, then all of them draw: a generator
        # shared between threads would give each the last thread's key
        rekeyed = threading.Barrier(len(keys), timeout=60)
        noise_generator = harness._noise_generator

        def rekey_then_wait(key):
            rng = noise_generator(key)
            rekeyed.wait()
            return rng

        monkeypatch.setattr(harness, "_noise_generator", rekey_then_wait)
        with ThreadPoolExecutor(max_workers=len(keys)) as pool:
            encoded = list(pool.map(
                lambda mine: [encode_frame(mask, config, seed).data.tobytes()
                              for seed, mask in mine],
                keys))
        assert encoded == serial

    def test_call_after_an_overflow_still_gives_a_fresh_generators_noise(self):
        with pytest.raises(ValueError, match="^non-finite feature value"):
            encode_frame(self._mask(np.zeros((8, 8), int), 5),
                         ToyEncoderConfig(feature_resolution=(8, 8), noise_sigma=1e308), seed=0)
        config = ToyEncoderConfig(feature_resolution=(8, 8), noise_sigma=0.5)
        for frame_index in (5, 6):
            mask = self._mask(np.zeros((8, 8), int), frame_index)
            noise = encode_frame(mask, config, seed=0).data[3]
            assert noise.tobytes() == self._fresh_noise(0, frame_index, 0.5, (8, 8)).tobytes()

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
        occ = encode_frame(self._mask(labels), config, seed=0).data[0]
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
        first_fired = next(s for s in trace if s.outcome.fired)
        assert first_fired.step == 7
        assert len(first_fired.outcome.bank_before) == 7
        assert len(first_fired.outcome.retained) == 5

    def test_unpruned_steps_record_the_fifo_bank_with_their_metric_and_mode(self):
        config = ToyEncoderConfig(feature_resolution=(8, 8), noise_sigma=0.1)
        _, trace = track_sequence(_static_scene(10), config, bank_capacity=4, metric="dot",
                                  mode="select", prune_enabled=False)
        for s in trace:
            o = s.outcome
            assert (o.metric, o.mode, o.pruned_frame_indices, o.scores) == ("dot", "select", (), {})
            assert o.bank_before == o.retained == tuple(range(max(0, s.step - 4), s.step))
            assert s.bank_after == tuple(range(max(0, s.step - 3), s.step + 1))

    def test_duplicate_invariance_pruning_on_vs_off(self):
        scene = _static_scene()
        config = ToyEncoderConfig(feature_resolution=(8, 8), noise_sigma=0.0)
        with_prune, _ = track_sequence(scene, config, prune_enabled=True)
        without, _ = track_sequence(scene, config, prune_enabled=False)
        for a, b in zip(with_prune, without):
            assert np.array_equal(a.labels, b.labels)

    def test_trace_is_reproducible(self):
        from vosmem.io import _jsonl_text, track_records

        scene = generate_scene(SceneConfig(velocity=(1, 0), n_frames=15, seed=5))
        config = ToyEncoderConfig(feature_resolution=(8, 8), noise_sigma=0.2)
        p1, t1 = track_sequence(scene, config, seed=5)
        p2, t2 = track_sequence(scene, config, seed=5)
        assert _jsonl_text(track_records(t1)) == _jsonl_text(track_records(t2))
        assert all(np.array_equal(a.labels, b.labels) for a, b in zip(p1, p2))

    def test_selected_entry_is_argmax_with_smallest_index_tiebreak(self):
        scene = _static_scene(6)
        config = ToyEncoderConfig(feature_resolution=(8, 8), noise_sigma=0.0)
        _, trace = track_sequence(scene, config)
        # all features identical, so the oldest retained entry always wins
        assert [s.selected_frame_index for s in trace] == [0] * 5

    @pytest.mark.parametrize("prune_enabled", [False, True])
    def test_overflowing_readout_scores_raise_value_error(self, prune_enabled):
        # noise near 1e307 is finite, but squared distances overflow
        scene = _static_scene(3)
        config = ToyEncoderConfig(feature_resolution=(8, 8), noise_sigma=1e307)
        with pytest.raises(ValueError,
                           match="^euclidean score -inf for frames 0 and 1 is not finite$"):
            track_sequence(scene, config, metric="euclidean", prune_enabled=prune_enabled)

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
        assert any(s.outcome.fired for s in trace)
        for s in trace:
            assert type(s.outcome.retained) is tuple
            assert all(type(i) is int for i in s.outcome.retained)

    @pytest.mark.parametrize("mode", ["persistent", "select"])
    def test_predictions_share_the_selected_entrys_labels(self, mode):
        scene = generate_scene(SceneConfig(velocity=(1, 0), n_frames=12))
        config = ToyEncoderConfig(feature_resolution=(8, 8), noise_sigma=0.1)
        predicted, trace = track_sequence(scene, config, mode=mode)
        assert predicted[0] is scene[0]
        for s in trace:
            selected = predicted[s.selected_frame_index]  # frame index = position here
            assert np.shares_memory(predicted[s.step].labels, selected.labels)
            assert not predicted[s.step].labels.flags.writeable

    @pytest.mark.parametrize("mode", ["persistent", "select"])
    def test_scoring_stays_in_the_traced_layers(self, monkeypatch, mode):
        # perfbench/tracer.py times the readout by patching harness.similarity
        # and prune scoring by patching memory.similarity; every score must
        # still pass through those names, memo hits included
        calls = {"readout": 0, "prune": 0}

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(harness, "similarity", counted("readout", harness.similarity))
        monkeypatch.setattr(memory, "similarity", counted("prune", memory.similarity))
        config = ToyEncoderConfig(feature_resolution=(8, 8), noise_sigma=0.1)
        _, trace = track_sequence(_static_scene(12), config, bank_capacity=7, mode=mode)
        scored = sum(len(group) for s in trace for group in s.outcome.scores.values())
        assert scored > 0
        assert calls["readout"] == sum(len(s.outcome.retained) for s in trace)
        assert calls["prune"] == scored

    def test_select_mode_bank_stays_full(self):
        scene = _static_scene()
        config = ToyEncoderConfig(feature_resolution=(8, 8), noise_sigma=0.1)
        _, trace = track_sequence(scene, config, mode="select")
        full_steps = [s for s in trace if len(s.outcome.bank_before) == 7]
        assert full_steps
        assert all(s.outcome.fired for s in full_steps)
        assert all(len(s.bank_after) == 7 for s in full_steps)


class TestReadoutCost:
    def test_the_trace_is_a_tuple_of_steps_and_any_sequence_of_them_reads_alike(self):
        scene = generate_scene(SceneConfig(velocity=(1, 0), n_frames=12))
        config = ToyEncoderConfig(feature_resolution=(8, 8), noise_sigma=0.1)
        _, steps = track_sequence(scene, config, bank_capacity=4, seed=3)
        assert type(steps) is tuple and len(steps) == 11
        assert all(type(s) is TrackStep for s in steps)
        assert readout_cost(list(steps)) == readout_cost(steps)
        assert track_records(list(steps)) == track_records(steps)

    def test_numpy_integer_costs_come_back_as_plain_ints(self):
        _, steps = track_sequence(_static_scene(5), ToyEncoderConfig(feature_resolution=(4, 8)))
        costs = readout_cost([dataclasses.replace(s, readout_cost=np.int64(s.readout_cost))
                              for s in steps])
        assert costs == [32, 64, 96, 128]
        assert all(type(c) is int for c in costs)

    def test_only_the_cost_is_read_so_only_the_cost_is_checked(self):
        _, steps = track_sequence(_static_scene(3), ToyEncoderConfig(feature_resolution=(4, 8)))
        malformed = dataclasses.replace(steps[0], step=None, bank_after=None, outcome=None)
        assert readout_cost([malformed]) == [32]

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
        fired = [i for i, s in enumerate(pruned) if s.outcome.fired]
        assert fired
        for i in fired:
            assert cost_pruned[i] * 7 == cost_plain[i] * 5

    def test_disabled_pruning_full_bank_cost(self):
        scene = _static_scene(12)
        config = ToyEncoderConfig(feature_resolution=(8, 8))
        _, trace = track_sequence(scene, config, prune_enabled=False)
        assert readout_cost(trace)[-1] == 7 * 64


@st.composite
def _tracking_runs(draw):
    """A small scene, an encoder whose resolution divides its grid, and the
    keyword arguments of one tracking run."""
    fh, fw = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    h, w = fh * draw(st.integers(1, 16 // fh)), fw * draw(st.integers(1, 16 // fw))
    shape = draw(st.sampled_from(OBJECT_SHAPES))
    if shape == "square":
        size = draw(st.integers(1, min(h, w)))
        extent = size
    else:
        size = draw(st.integers(0, (min(h, w) - 1) // 2))
        extent = 2 * size + 1
    gaps = draw(st.lists(st.tuples(st.integers(0, 12), st.integers(0, 3)), max_size=2))
    scene = generate_scene(SceneConfig(
        grid=(h, w), shape=shape, size=size,
        velocity=(draw(st.integers(-2, 2)), draw(st.integers(-2, 2))),
        n_frames=draw(st.integers(2, 14)),
        gaps=tuple((lo, lo + n) for lo, n in gaps),
        start=(draw(st.integers(0, w - extent)), draw(st.integers(0, h - extent)))))
    encoder = ToyEncoderConfig(feature_resolution=(fh, fw),
                               noise_sigma=draw(st.sampled_from([0.0, 0.05, 0.5])))
    run = {"bank_capacity": draw(st.integers(2, 10)),
           "metric": draw(st.sampled_from(SIMILARITY_METRICS)),
           "mode": draw(st.sampled_from(PRUNE_MODES)),
           "prune_enabled": draw(st.booleans()),
           "seed": draw(st.integers(0, 2**64 - 1))}
    return scene, encoder, run


class TestAgainstTrackOracle:
    @settings(max_examples=200, deadline=None)
    @given(_tracking_runs())
    def test_traces_and_predictions_match_frame_for_frame(self, drawn):
        scene, encoder, run = drawn
        predicted, trace = track_sequence(scene, encoder, **run)
        masks, steps = track_oracle(scene, encoder, run["bank_capacity"], run["metric"],
                                    run["mode"], run["prune_enabled"], run["seed"])
        assert len(trace) == len(steps) and len(predicted) == len(masks)
        assert predicted[0].labels.tolist() == masks[0]
        for s, step, mask in zip(trace, steps, masks[1:]):
            o = s.outcome
            assert (o.metric, o.mode) == (run["metric"], run["mode"])
            assert (s.step, s.frame_index, list(o.bank_before), list(s.bank_after),
                    list(o.retained), list(o.pruned_frame_indices), o.scores,
                    s.selected_frame_index, s.readout_cost) == step
            assert list(o.scores) == list(step[6])  # the short group first
            assert predicted[s.step].labels.tolist() == mask
