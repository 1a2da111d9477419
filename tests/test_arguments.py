"""Refused calls: every public entry point's documented errors, in one table.

Each row of ``REFUSALS`` is ``pytest.param(call, error, message, id=...)``.
One runner calls it with the working directory in an empty ``tmp_path``
and requires a ValueError whose message is exactly ``message`` and whose
type is exactly ``error``, and that nothing was written. A new refusal is
one more row; a row taken over from a test of its own is named after it.

Integer arguments take ints and NumPy integers and keep their value
exactly; anything else (a float, even 2.0, a string, None) and a value out
of range raise ValueError naming the argument. A name outside its choices
raises ``unknown {what} {value!r}, expected one of {choices}``. A value of
the wrong kind raises ``{name} must be a {type}, got {type}``, or, for
array data, ``{name} must hold real numbers, got {type} of dtype {dtype}``.
"""

import dataclasses
import json
import math
import os
import re
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ften import ften_bytes
from vosmem.core import MAX_OBJECT_ID, FeatureMap, FrameSequence, LabelMask, _Adopted
from vosmem.harness import (
    OBJECT_SHAPES,
    SceneConfig,
    ToyEncoderConfig,
    TrackStep,
    encode_frame,
    generate_scene,
    readout_cost,
    track_sequence,
)
from vosmem.io import (
    MaskFormatError,
    TensorFormatError,
    atomic_write_bytes,
    read_feature_dir,
    read_mask,
    read_mask_dir,
    read_tensor,
    track_records,
    write_outputs,
    write_tensor,
)
from vosmem.memory import (
    PRUNE_MODES,
    SIMILARITY_METRICS,
    MemoryBank,
    MemoryEntry,
    PruneOutcome,
    similarity,
)
from vosmem.metrics import (
    METRIC_NAMES,
    boundary_f,
    ciou,
    dice,
    dilate_disk,
    disk_footprint,
    evaluate,
    j_and_f,
    jaccard,
)
from vosmem.sampling import (
    PHASE_POLICIES,
    build_plan,
    materialize,
)

VALUES = (1.5, 2.0, "3", None, True, np.int64(3), -1, 0)

SCENE = generate_scene(SceneConfig(grid=(6, 6), size=2, n_frames=4))
PIXELS = SCENE[0].binarize(1)
NOISY = ToyEncoderConfig(feature_resolution=(3, 3), noise_sigma=0.1)
STEP = track_sequence(SCENE, NOISY)[1][0]  # a trace step, changed by dataclasses.replace


def _features(frame_index):
    return FeatureMap(frame_index, np.arange(4.0).reshape(1, 2, 2))


def _wide_features():
    """A FeatureMap whose first dimension is 2**32, held as a zero-stride view
    of one value: building it through FeatureMap would copy 32 GiB."""
    fmap = object.__new__(FeatureMap)
    object.__setattr__(fmap, "data", np.broadcast_to(np.zeros(1), (2**32, 1, 1)))
    return fmap


def _read_file(blob, name="000.ften"):
    """read_tensor, or read_mask for a ``.pgm`` name, on a file ``name``
    holding ``blob``, read by that relative name in a directory of its own,
    which is removed after."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            Path(name).write_bytes(blob)
            return (read_mask if name.endswith(".pgm") else read_tensor)(name)
        finally:
            os.chdir(cwd)


def _mask(frame_index, shape=(4, 4)):
    return LabelMask(frame_index, np.zeros(shape, dtype=np.uint8))


def _full_bank(capacity):
    bank = MemoryBank(capacity)
    for t in range(4):
        bank.append(MemoryEntry(t, _features(t)))
    bank.prune_step()
    return bank.capacity


def _scene(**fields):
    generate_scene(SceneConfig(**{"grid": (6, 6), "size": 1, "n_frames": 3, **fields}))


def _encode(feature_resolution):
    encode_frame(SCENE[0], ToyEncoderConfig(feature_resolution=feature_resolution), 0)


# Each case calls one entry point with v in one integer position. A case in
# HOLDS returns the integer the result holds for v, which must be v itself as
# a plain int; a case in CALLS returns nothing to compare. None is the
# documented default of max_frames.
HOLDS = {
    "FeatureMap.frame_index": lambda v: _features(v).frame_index,
    "LabelMask.frame_index": lambda v: LabelMask(v, np.zeros((1, 1), np.uint8)).frame_index,
    "MemoryBank.capacity": _full_bank,
    "MemoryEntry.frame_index": lambda v: MemoryEntry(v, _features(3)).frame_index,
    "encode_frame.frame_index":
        lambda v: encode_frame(LabelMask(v, SCENE[0].labels), NOISY, 0).frame_index,
    "build_plan.strides[0]": lambda v: build_plan(5, strides=(v,))[0].stride,
    "build_plan.strides[1]": lambda v: build_plan(5, strides=(1, v))[1].stride,
    "evaluate.radius": lambda v: evaluate(SCENE, SCENE, radius=v).radius,
}
CALLS = {
    "SceneConfig.grid[0]": lambda v: _scene(grid=(v, 6)),
    "SceneConfig.grid[1]": lambda v: _scene(grid=(6, v)),
    "SceneConfig.grid": lambda v: _scene(grid=v),
    "SceneConfig.size": lambda v: _scene(size=v),
    "SceneConfig.disk size": lambda v: _scene(shape="disk", size=v),
    "SceneConfig.n_frames": lambda v: _scene(n_frames=v),
    "SceneConfig.velocity[0]": lambda v: _scene(velocity=(v, 0)),
    "SceneConfig.velocity[1]": lambda v: _scene(velocity=(0, v)),
    "SceneConfig.velocity": lambda v: _scene(velocity=v),
    "SceneConfig.start[0]": lambda v: _scene(start=(v, 0)),
    "SceneConfig.start[1]": lambda v: _scene(start=(0, v)),
    "SceneConfig.start": lambda v: _scene(start=v),
    "SceneConfig.seed": lambda v: _scene(seed=v),
    "SceneConfig.gaps[0][0]": lambda v: _scene(gaps=((v, 1),)),
    "SceneConfig.gaps[0][1]": lambda v: _scene(gaps=((1, v),)),
    "SceneConfig.gaps[0]": lambda v: _scene(gaps=(v,)),
    "SceneConfig.gaps": lambda v: _scene(gaps=v),
    "ToyEncoderConfig.feature_resolution[0]": lambda v: _encode((v, 1)),
    "ToyEncoderConfig.feature_resolution[1]": lambda v: _encode((1, v)),
    "ToyEncoderConfig.feature_resolution": lambda v: _encode(v),
    "encode_frame.seed": lambda v: encode_frame(SCENE[0], NOISY, v),
    "track_sequence.bank_capacity": lambda v: track_sequence(SCENE, NOISY, bank_capacity=v),
    "track_sequence.seed": lambda v: track_sequence(SCENE, NOISY, seed=v),
    "build_plan.strides": lambda v: build_plan(5, strides=v),
    "build_plan.max_frames": lambda v: build_plan(5, max_frames=v),
    "build_plan.length": lambda v: build_plan(v),
    "materialize.indices[0]": lambda v: materialize(SCENE, [v]),
    "materialize.indices": lambda v: materialize(SCENE, v),
    "disk_footprint.radius": lambda v: disk_footprint(v),
    "dilate_disk.radius": lambda v: dilate_disk(PIXELS, v),
    "LabelMask.binarize.object_id": lambda v: SCENE[0].binarize(v),
    "boundary_f.radius": lambda v: boundary_f(PIXELS, PIXELS, v),
}


CASES = {**HOLDS, **CALLS}


@pytest.mark.parametrize("case", CASES)
@settings(max_examples=20, deadline=None)
@given(value=st.sampled_from(VALUES))
def test_integer_arguments_are_exact_or_value_error(case, value):
    try:
        result = CASES[case](value)
    except ValueError:
        return
    if value is None and case == "build_plan.max_frames":
        return
    # accepted: only an integer may pass, and the result keeps its value
    assert isinstance(value, (int, np.integer)), f"{case} accepted {value!r}"
    if case in HOLDS:
        assert type(result) is int and result == value


def test_numpy_integers_are_held_as_plain_ints():
    bank = MemoryBank(np.int64(7))
    assert type(bank.capacity) is int and bank.capacity == 7
    views = build_plan(9, strides=(np.int32(1), np.uint8(2)), max_frames=np.int64(3))
    assert [(type(v.stride), v.stride, v.indices) for v in views] == [
        (int, 1, (0, 1, 2)), (int, 2, (0, 2, 4))]


def test_scene_config_holds_plain_ints_and_a_tuple_of_int_pairs():
    config = SceneConfig(size=np.int64(3), n_frames=np.int32(5), gaps=[[1, np.uint8(2)]],
                         seed=np.uint64(7))
    plain = SceneConfig(size=3, n_frames=5, gaps=((1, 2),), seed=7)
    assert config == plain and hash(config) == hash(plain)
    assert config.gaps == ((1, 2),)
    assert [type(v) for v in (config.size, config.n_frames, config.seed, *config.gaps[0])] == [int] * 5
    assert json.loads(json.dumps(dataclasses.asdict(config)))["n_frames"] == 5


def test_bank_is_unchanged_by_a_rejected_append():
    bank = MemoryBank()
    with pytest.raises(ValueError):
        bank.append(None)
    bank.append(MemoryEntry(0, _features(0)))
    assert bank.frame_indices == (0,)


REFUSALS = [
    # vosmem.core
    pytest.param(lambda: FeatureMap(1.5, np.zeros((1, 1, 1))), ValueError,
                 "frame_index must be an integer, got 1.5", id="FeatureMap frame_index float"),
    pytest.param(lambda: FeatureMap(0, np.zeros((4, 4))), ValueError,
                 "feature data must be 3-D (channels, h, w), got 2-D",
                 id="TestFeatureMap.test_rejects_wrong_rank"),
    pytest.param(lambda: FeatureMap(-1, np.zeros((1, 1, 1))), ValueError,
                 "frame_index must be >= 0, got -1",
                 id="TestFeatureMap.test_rejects_negative_frame_index"),
    # feature data must be real numbers, on the copying and the adopting branch
    *(pytest.param(lambda data=data: FeatureMap(0, data), ValueError,
                   f"data must hold real numbers, got {kind}", id=f"FeatureMap {name}")
      for name, data, kind in (
          ("complex list", [[[1j]]], "list of dtype complex128"),
          ("dict", {}, "dict of dtype object"),
          ("object", object(), "object of dtype object"),
          ("complex array", np.array([[[1j]]]), "ndarray of dtype complex128"),
          ("None array", np.full((1, 1, 1), None), "ndarray of dtype object"),
          ("adopted complex array", _Adopted(np.zeros((1, 1, 1), complex)),
           "ndarray of dtype complex128"))),
    pytest.param(lambda: FeatureMap(0, _Adopted(np.full((1, 1, 2), np.inf))), ValueError,
                 "non-finite feature value at flat index 0",
                 id="TestIntake.test_adopted_feature_data_is_validated[non-finite]"),
    pytest.param(lambda: FeatureMap(0, _Adopted(np.zeros((2, 2)))), ValueError,
                 "feature data must be 3-D (channels, h, w), got 2-D",
                 id="TestIntake.test_adopted_feature_data_is_validated[3-D]"),
    pytest.param(lambda: LabelMask(0, np.zeros((2, 2), dtype=np.float64)), ValueError,
                 "labels must be integers, got dtype float64",
                 id="TestLabelMask.test_rejects_float_labels"),
    pytest.param(lambda: LabelMask(0, np.array([[MAX_OBJECT_ID + 1]])), ValueError,
                 "label values must be in 0..255",
                 id="TestLabelMask.test_rejects_out_of_range[1]"),
    pytest.param(lambda: LabelMask(0, np.array([[-1]])), ValueError,
                 "label values must be in 0..255",
                 id="TestLabelMask.test_rejects_out_of_range[2]"),
    pytest.param(lambda: LabelMask(0, np.zeros((2, 2, 2), dtype=np.int64)), ValueError,
                 "labels must be 2-D (height, width), got 3-D",
                 id="TestLabelMask.test_rejects_wrong_rank"),
    pytest.param(lambda: LabelMask(0, _Adopted(np.zeros((2, 2, 2), dtype=np.uint8))), ValueError,
                 "labels must be 2-D (height, width), got 3-D",
                 id="TestIntake.test_adopted_labels_are_validated[2-D]"),
    pytest.param(lambda: LabelMask(0, _Adopted(np.zeros((0, 3), dtype=np.uint8))), ValueError,
                 "mask dimensions must be >= 1, got (0, 3)",
                 id="TestIntake.test_adopted_labels_are_validated[zero dimension]"),
    pytest.param(lambda: LabelMask(0, _Adopted(np.zeros((2, 2)))), ValueError,
                 "labels must be integers, got dtype float64",
                 id="TestIntake.test_adopted_labels_are_validated[float]"),
    pytest.param(lambda: LabelMask(0, _Adopted(np.array([[MAX_OBJECT_ID + 1]]))), ValueError,
                 "label values must be in 0..255",
                 id="TestIntake.test_adopted_labels_are_validated[256]"),
    pytest.param(lambda: LabelMask(0, _Adopted(np.array([[-1]], dtype=np.int8))), ValueError,
                 "label values must be in 0..255",
                 id="TestIntake.test_adopted_labels_are_validated[int8 -1]"),
    pytest.param(lambda: FrameSequence(None), ValueError,
                 "frames must be a sequence of LabelMask, got None", id="FrameSequence frames"),
    pytest.param(lambda: FrameSequence((SCENE[0], None)), ValueError,
                 "frames[1] must be a LabelMask, got NoneType", id="FrameSequence frames[i]"),
    pytest.param(lambda: FrameSequence(()), ValueError,
                 "a frame sequence needs at least one frame",
                 id="TestFrameSequence.test_rejects_empty"),
    pytest.param(lambda: FrameSequence((_mask(1), _mask(1))), ValueError,
                 "frame_index must be strictly increasing, got 1 then 1",
                 id="TestFrameSequence.test_rejects_non_increasing_indices[1]"),
    pytest.param(lambda: FrameSequence((_mask(2), _mask(0))), ValueError,
                 "frame_index must be strictly increasing, got 2 then 0",
                 id="TestFrameSequence.test_rejects_non_increasing_indices[2]"),
    pytest.param(lambda: FrameSequence((_mask(0, (4, 4)), _mask(1, (4, 5)))), ValueError,
                 "all frames must share spatial dimensions, got (4, 4) and (4, 5) at frame 1",
                 id="TestFrameSequence.test_rejects_mixed_dimensions"),
    pytest.param(lambda: FrameSequence((FeatureMap(0, np.zeros((2, 4, 4))), _mask(1))),
                 ValueError, "frames[0] must be a LabelMask, got FeatureMap",
                 id="TestFrameSequence.test_rejects_frames_that_are_not_masks[FeatureMap]"),
    pytest.param(lambda: FrameSequence((None, _mask(1))), ValueError,
                 "frames[0] must be a LabelMask, got NoneType",
                 id="TestFrameSequence.test_rejects_frames_that_are_not_masks[None]"),
    # unchecked, each would be compared with the labels and give an all-False mask
    *(pytest.param(lambda v=v: SCENE[0].binarize(v), ValueError,
                   f"object_id must be an integer, got {v!r}", id=f"LabelMask.binarize {v!r}")
      for v in ("x", None, 1.5)),

    # vosmem.memory
    pytest.param(lambda: MemoryBank(7.0).prune_step(), ValueError,
                 "capacity must be an integer, got 7.0", id="MemoryBank capacity 7.0"),
    pytest.param(lambda: MemoryBank(2.5), ValueError,
                 "capacity must be an integer, got 2.5", id="MemoryBank capacity 2.5"),
    pytest.param(lambda: MemoryBank(capacity=1), ValueError, "capacity must be >= 2, got 1",
                 id="TestAppend.test_capacity_below_two_rejected"),
    pytest.param(lambda: MemoryBank().append(None), ValueError,
                 "entry must be a MemoryEntry, got NoneType", id="append None"),
    pytest.param(lambda: MemoryBank().append(_features(0)), ValueError,
                 "entry must be a MemoryEntry, got FeatureMap", id="append FeatureMap"),
    pytest.param(lambda: MemoryBank().prune_step(metric="cosinus"), ValueError,
                 f"unknown similarity metric 'cosinus', expected one of {SIMILARITY_METRICS}",
                 id="prune_step unknown metric"),
    pytest.param(lambda: MemoryBank().prune_step(mode="keep"), ValueError,
                 f"unknown prune mode 'keep', expected one of {PRUNE_MODES}",
                 id="prune_step unknown mode"),
    pytest.param(lambda: MemoryBank().prune_step(mode=None), ValueError,
                 f"unknown prune mode None, expected one of {PRUNE_MODES}",
                 id="prune_step mode None"),
    pytest.param(lambda: MemoryEntry(0, None), ValueError,
                 "features must be a FeatureMap, got NoneType", id="MemoryEntry features"),
    pytest.param(lambda: MemoryEntry(3, FeatureMap(4, np.ones((1, 1, 1)))), ValueError,
                 "features.frame_index 4 != entry frame_index 3",
                 id="TestMemoryEntry.test_frame_index_must_match_features"),
    pytest.param(lambda: similarity("cosinus", _features(0), _features(1)), ValueError,
                 f"unknown similarity metric 'cosinus', expected one of {SIMILARITY_METRICS}",
                 id="similarity unknown metric"),
    # a name must be a str: an array that compares equal to a choice is refused too
    pytest.param(lambda: similarity(np.array(["cosine", "dot"]), _features(0), _features(1)),
                 ValueError,
                 f"unknown similarity metric {np.array(['cosine', 'dot'])!r}, "
                 f"expected one of {SIMILARITY_METRICS}",
                 id="similarity array metric"),
    pytest.param(lambda: similarity("dot", None, _features(1)), ValueError,
                 "a must be a FeatureMap, got NoneType", id="similarity a"),
    pytest.param(lambda: similarity("dot", _features(0), SCENE[0]), ValueError,
                 "b must be a FeatureMap, got LabelMask", id="similarity b"),

    # vosmem.harness
    pytest.param(lambda: SceneConfig(n_frames=2.5), ValueError,
                 "n_frames must be an integer, got 2.5", id="SceneConfig n_frames float"),
    pytest.param(lambda: SceneConfig(n_frames=0), ValueError, "n_frames must be >= 1, got 0",
                 id="TestSceneConfig.test_rejects_empty_clip"),
    pytest.param(lambda: SceneConfig(velocity=(1,)), ValueError,
                 "velocity must be 2 integers, got (1,)", id="SceneConfig velocity (1,)"),
    pytest.param(lambda: SceneConfig(gaps=((1, 2.5),)), ValueError,
                 "gaps[0][1] must be an integer, got 2.5", id="SceneConfig gaps[0][1] float"),
    pytest.param(lambda: SceneConfig(gaps=((3, 1),)), ValueError,
                 "gap interval (3, 1) is not a valid frame range",
                 id="TestSceneConfig.test_rejects_bad_shape_and_gaps[2]"),
    pytest.param(lambda: SceneConfig(shape="circle"), ValueError,
                 f"unknown shape 'circle', expected one of {OBJECT_SHAPES}",
                 id="SceneConfig unknown shape"),
    pytest.param(lambda: SceneConfig(shape="triangle"), ValueError,
                 f"unknown shape 'triangle', expected one of {OBJECT_SHAPES}",
                 id="TestSceneConfig.test_rejects_bad_shape_and_gaps[1]"),
    pytest.param(lambda: SceneConfig(grid=(8, 8), shape="square", size=9), ValueError,
                 "object of extent 9x9 at start (0, 0) does not fit the 8x8 grid at frame 0",
                 id="TestSceneConfig.test_object_must_fit_at_frame_zero[1]"),
    pytest.param(lambda: SceneConfig(grid=(8, 8), shape="square", size=4, start=(6, 0)),
                 ValueError,
                 "object of extent 4x4 at start (6, 0) does not fit the 8x8 grid at frame 0",
                 id="TestSceneConfig.test_object_must_fit_at_frame_zero[2]"),
    pytest.param(lambda: generate_scene(None), ValueError,
                 "config must be a SceneConfig, got NoneType", id="generate_scene config"),
    pytest.param(lambda: ToyEncoderConfig(feature_resolution=(8.0, 8.0)), ValueError,
                 "feature_resolution[0] must be an integer, got 8.0",
                 id="ToyEncoderConfig feature_resolution float"),
    *(pytest.param(lambda sigma=sigma: ToyEncoderConfig(noise_sigma=sigma), ValueError,
                   f"noise_sigma must be finite and >= 0, got {sigma}",
                   id=f"TestEncodeFrame.test_noise_sigma_must_be_{test}[{name}]")
      for test, name, sigma in (
          *(("finite_and_non_negative", sigma, sigma) for sigma in (-1.0, math.nan, math.inf)),
          ("a_number", "str", "0.1"), ("a_number", "None", None), ("a_number", "bytes", b"1"),
          ("a_number", "complex", 1j), ("a_number", "list", [0.1]))),
    pytest.param(lambda: encode_frame(SCENE[0], NOISY, 1.5), ValueError,
                 "seed must be an integer, got 1.5", id="encode_frame seed float"),
    pytest.param(lambda: encode_frame(None, NOISY, 0), ValueError,
                 "mask must be a LabelMask, got NoneType", id="encode_frame mask"),
    pytest.param(lambda: encode_frame(SCENE[0], None, 0), ValueError,
                 "config must be a ToyEncoderConfig, got NoneType", id="encode_frame config"),
    pytest.param(lambda: track_sequence(list(SCENE), NOISY), ValueError,
                 "scene must be a FrameSequence, got list", id="track_sequence scene"),
    pytest.param(lambda: track_sequence(SCENE, None), ValueError,
                 "encoder_config must be a ToyEncoderConfig, got NoneType",
                 id="track_sequence encoder_config"),
    pytest.param(lambda: track_sequence(SCENE, NOISY, prune_enabled="no"), ValueError,
                 "prune_enabled must be a bool, got str", id="track_sequence prune_enabled"),
    # with pruning off the mode is never used, but it is written to every record
    pytest.param(lambda: track_sequence(SCENE, NOISY, mode="keep", prune_enabled=False),
                 ValueError, f"unknown prune mode 'keep', expected one of {PRUNE_MODES}",
                 id="track_sequence unknown mode"),
    pytest.param(lambda: track_sequence(SCENE, ToyEncoderConfig(), mode="bogus",
                                        prune_enabled=False),
                 ValueError, f"unknown prune mode 'bogus', expected one of {PRUNE_MODES}",
                 id="TestTrackSequence.test_unknown_mode_rejected_even_without_pruning"),
    pytest.param(lambda: readout_cost(None), ValueError,
                 "steps must be a sequence of TrackStep, got None", id="readout_cost steps"),
    pytest.param(lambda: readout_cost([None]), ValueError,
                 "steps[0] must be a TrackStep, got NoneType", id="readout_cost steps[i]"),
    pytest.param(lambda: readout_cost([dataclasses.replace(STEP, readout_cost="x")]), ValueError,
                 "steps[0].readout_cost must be an integer, got 'x'",
                 id="readout_cost steps[i].readout_cost"),

    # vosmem.metrics
    pytest.param(lambda: jaccard(np.zeros((4, 4), bool), np.zeros((4, 5), bool)), ValueError,
                 "pixel sets differ in shape: (4, 4) vs (4, 5)",
                 id="TestJaccardAndDice.test_shape_mismatch_rejected[1]"),
    pytest.param(lambda: dice(np.zeros((4, 4), bool), np.zeros((5, 4), bool)), ValueError,
                 "pixel sets differ in shape: (4, 4) vs (5, 4)",
                 id="TestJaccardAndDice.test_shape_mismatch_rejected[2]"),
    pytest.param(lambda: jaccard(np.zeros((1, 4, 4), bool), np.zeros((4, 4), bool)), ValueError,
                 "pixel set must be 2-D, got 3-D",
                 id="TestJaccardAndDice.test_pixel_set_of_other_rank_rejected"),
    # pixel sets must be real numbers, as bool, integer or float masks are
    pytest.param(lambda: jaccard(np.array([["a"]]), np.array([["a"]])), ValueError,
                 "pred must hold real numbers, got ndarray of dtype <U1", id="jaccard str pred"),
    pytest.param(lambda: jaccard([[1j]], [[1j]]), ValueError,
                 "pred must hold real numbers, got list of dtype complex128",
                 id="jaccard complex pred"),
    pytest.param(lambda: boundary_f(np.full((2, 2), None), np.full((2, 2), None)), ValueError,
                 "pred must hold real numbers, got ndarray of dtype object",
                 id="boundary_f None pred"),
    pytest.param(lambda: dilate_disk([["x"]], 1), ValueError,
                 "pixels must hold real numbers, got list of dtype <U1", id="dilate_disk str pixels"),
    # a float pixel set holds no NaN or infinity, which bool() would count as members
    pytest.param(lambda: jaccard([[np.nan]], [[np.nan]]), ValueError,
                 "non-finite pred value at flat index 0", id="jaccard nan pred"),
    pytest.param(lambda: jaccard(np.zeros((2, 2)), np.array([[0.0, 1.0], [-np.inf, 0.0]])),
                 ValueError, "non-finite gt value at flat index 2", id="jaccard infinite gt"),
    pytest.param(lambda: dilate_disk(np.array([[0.0, np.nan]], np.float32), 1), ValueError,
                 "non-finite pixels value at flat index 1", id="dilate_disk nan pixels"),
    pytest.param(lambda: disk_footprint(-1), ValueError, "radius must be >= 0, got -1",
                 id="TestDilateDisk.test_negative_radius_rejected"),
    # a 1x1 image makes every radius reach the diagonal
    pytest.param(lambda: dilate_disk(np.ones((1, 1), bool), -5), ValueError,
                 "radius must be >= 0, got -5",
                 id="TestDilateDisk.test_negative_radius_rejected_before_the_full_image_shortcut"),
    pytest.param(lambda: j_and_f(1.2, 0.5), ValueError, "J must be in [0, 1], got 1.2",
                 id="TestJAndF.test_out_of_range_rejected[1]"),
    pytest.param(lambda: j_and_f(0.5, -0.1), ValueError, "F must be in [0, 1], got -0.1",
                 id="TestJAndF.test_out_of_range_rejected[2]"),
    pytest.param(lambda: j_and_f("a", 0.5), ValueError, "J must be a real number, got 'a'",
                 id="j_and_f J str"),
    pytest.param(lambda: j_and_f(0.5, None), ValueError, "F must be a real number, got None",
                 id="j_and_f F None"),
    pytest.param(lambda: j_and_f(0.5, [0.5]), ValueError, "F must be a real number, got [0.5]",
                 id="j_and_f F list"),
    pytest.param(lambda: ciou([np.zeros((2, 2), bool)], None), ValueError,
                 "gt_seq must be a sequence of pixel sets, got None",
                 id="TestCiou.test_non_iterable_rejected_naming_it"),
    pytest.param(lambda: evaluate(None, SCENE), ValueError,
                 "pred must be a FrameSequence, got NoneType", id="evaluate pred"),
    pytest.param(lambda: evaluate(SCENE, list(SCENE)), ValueError,
                 "gt must be a FrameSequence, got list", id="evaluate gt"),
    pytest.param(lambda: evaluate(SCENE, SCENE, metrics=None), ValueError,
                 "metrics must be a sequence of metric names, got None",
                 id="evaluate metrics None"),
    pytest.param(lambda: evaluate(SCENE, SCENE, metrics=3), ValueError,
                 "metrics must be a sequence of metric names, got 3", id="evaluate metrics int"),
    pytest.param(lambda: evaluate(SCENE, SCENE, metrics=("J", "IoU")), ValueError,
                 f"unknown evaluation metric 'IoU', expected one of {METRIC_NAMES}",
                 id="TestEvaluate.test_unknown_metric_rejected"),
    pytest.param(lambda: evaluate(SCENE, SCENE, metrics="IoU"), ValueError,
                 f"unknown evaluation metric 'IoU', expected one of {METRIC_NAMES}",
                 id="evaluate unknown metric str"),
    pytest.param(lambda: evaluate(SCENE, SCENE, metrics=[np.array(["J", "F"])]), ValueError,
                 f"unknown evaluation metric {np.array(['J', 'F'])!r}, "
                 f"expected one of {METRIC_NAMES}",
                 id="evaluate array metric"),
    # any truthy value would include the per-frame rows
    pytest.param(lambda: evaluate(SCENE, SCENE).to_dict(include_per_frame="no"), ValueError,
                 "include_per_frame must be a bool, got str",
                 id="MetricReport.to_dict include_per_frame"),
    pytest.param(lambda: evaluate(SCENE, SCENE).to_dict(include_per_frame=1), ValueError,
                 "include_per_frame must be a bool, got int",
                 id="MetricReport.to_dict include_per_frame int"),
    pytest.param(lambda: evaluate(SCENE, SCENE).to_dict(include_per_frame=None), ValueError,
                 "include_per_frame must be a bool, got NoneType",
                 id="MetricReport.to_dict include_per_frame None"),

    # vosmem.sampling
    pytest.param(lambda: build_plan(5, strides=(2.0,)), ValueError,
                 "strides[0] must be an integer, got 2.0", id="build_plan strides[0] float"),
    pytest.param(lambda: build_plan(5, strides=()), ValueError, "strides must be non-empty",
                 id="TestSamplingConfig.test_rejects_empty_strides"),
    pytest.param(lambda: build_plan(5, strides=(1, 0)), ValueError,
                 "strides[1] must be >= 1, got 0",
                 id="TestSamplingConfig.test_rejects_zero_stride"),
    pytest.param(lambda: build_plan(5, strides=(2, 2)), ValueError,
                 "strides must be distinct, got (2, 2)",
                 id="TestSamplingConfig.test_rejects_duplicate_strides"),
    pytest.param(lambda: build_plan(5, phase_policy="some"), ValueError,
                 f"unknown phase policy 'some', expected one of {PHASE_POLICIES}",
                 id="build_plan unknown phase policy"),
    pytest.param(lambda: build_plan(5, phase_policy="even"), ValueError,
                 f"unknown phase policy 'even', expected one of {PHASE_POLICIES}",
                 id="TestSamplingConfig.test_rejects_unknown_phase_policy"),
    pytest.param(lambda: build_plan(5, max_frames=0), ValueError,
                 "max_frames must be >= 1, got 0",
                 id="TestSamplingConfig.test_rejects_bad_max_frames"),
    pytest.param(lambda: build_plan(10.5), ValueError,
                 "clip length must be an integer, got 10.5", id="build_plan length float"),
    pytest.param(lambda: build_plan(0), ValueError,
                 "clip length must be >= 1, got 0", id="TestBuildPlan.test_rejects_empty_clip"),
    pytest.param(lambda: build_plan(10**20, strides=(2,)), ValueError,
                 "a view of clip length 100000000000000000000 has too many frames to list",
                 id="TestBuildPlan.test_view_too_long_to_list_names_the_length"),
    pytest.param(lambda: build_plan(5, strides=3), ValueError,
                 "strides must be a sequence of integers, got 3", id="build_plan strides int"),
    # the settings are checked in order, strides first and the clip length last
    pytest.param(lambda: build_plan(0, strides=(), phase_policy="even", max_frames=0),
                 ValueError, "strides must be non-empty", id="build_plan strides checked first"),
    pytest.param(lambda: build_plan(0, phase_policy="even", max_frames=0), ValueError,
                 f"unknown phase policy 'even', expected one of {PHASE_POLICIES}",
                 id="build_plan phase policy checked second"),
    pytest.param(lambda: build_plan(0, max_frames=0), ValueError,
                 "max_frames must be >= 1, got 0", id="build_plan max_frames checked third"),
    pytest.param(lambda: materialize(SCENE, [1.0]), ValueError,
                 "indices[0] must be an integer, got 1.0", id="materialize indices[0] float"),
    pytest.param(lambda: materialize(FrameSequence(tuple(map(_mask, range(6)))), [0, 6]),
                 ValueError, "index 6 out of bounds for sequence of length 6",
                 id="TestMaterialize.test_out_of_bounds_rejected"),
    pytest.param(lambda: materialize(list(SCENE), [0]), ValueError,
                 "sequence must be a FrameSequence, got list", id="materialize sequence"),

    # vosmem.io
    # each dimension is a u32 of the header
    pytest.param(lambda: write_tensor(_wide_features(), "0.ften"), ValueError,
                 "feature dimensions must each be below 2**32, got shape (4294967296, 1, 1)",
                 id="write_tensor dimension past u32"),
    # every format message of a reader begins with the path it was given
    pytest.param(lambda: _read_file(b"FTEN"), TensorFormatError,
                 "000.ften: truncated tensor header: 4 bytes",
                 id="TestTensorFormat.test_truncated_header_rejected[1]"),
    pytest.param(lambda: _read_file(struct.pack("<4sHBB", b"FTEN", 1, 1, 3) + b"\x00"),
                 TensorFormatError, "000.ften: truncated tensor header: dims missing",
                 id="TestTensorFormat.test_truncated_header_rejected[2]"),
    # the rank is checked before any dims are read
    pytest.param(lambda: _read_file(ften_bytes(np.zeros((2, 2)), "float64")),
                 TensorFormatError, "000.ften: feature maps are 3-D, file holds a 2-D tensor",
                 id="read_tensor 2-D file"),
    # a zero dimension is refused before the payload is sized
    pytest.param(lambda: _read_file(ften_bytes(np.zeros((2, 0, 3)), "float32")
                                    + bytes(4)), TensorFormatError,
                 "000.ften: feature dimensions must all be >= 1, got (2, 0, 3)",
                 id="read_tensor zero dimension"),
    # a header with no dims is a 0-D tensor, which no feature map is
    pytest.param(lambda: _read_file(struct.pack("<4sHBB", b"FTEN", 1, 1, 0)),
                 TensorFormatError, "000.ften: feature maps are 3-D, file holds a 0-D tensor",
                 id="read_tensor 0-D file"),
    pytest.param(lambda: _read_file(ften_bytes(np.zeros((1, 1, 1, 1)), "float32")),
                 TensorFormatError, "000.ften: feature maps are 3-D, file holds a 4-D tensor",
                 id="read_tensor 4-D file"),
    pytest.param(lambda: _read_file(struct.pack("<4sHBB3I", b"FTEN", 1, 2, 3, 1, 1, 1)
                                    + bytes(8)), TensorFormatError,
                 "000.ften: unknown dtype code 2", id="read_tensor dtype code"),
    pytest.param(lambda: _read_file(b"JUNK" + bytes(8)), TensorFormatError,
                 "000.ften: bad magic b'JUNK', expected b'FTEN'", id="read_tensor magic"),
    pytest.param(lambda: _read_file(b"P5\n1 1\n255\n", "000.pgm"), MaskFormatError,
                 "000.pgm: payload holds 0 bytes but header claims 1x1 = 1",
                 id="read_mask payload size"),
    pytest.param(lambda: _read_file(b"P5\n1 1\n65535\n\x00\x00", "000.pgm"), MaskFormatError,
                 "000.pgm: PGM maxval must be 255, got 65535", id="read_mask maxval"),
    # a stem without digits is refused before the file is read, naming the stem
    pytest.param(lambda: _read_file(b"", "abc.pgm"), MaskFormatError,
                 "cannot decode a frame index from filename stem 'abc'", id="read_mask stem"),
    pytest.param(lambda: _read_file(ften_bytes(np.array([[[1.0, np.nan]]]), "float32")),
                 TensorFormatError, "000.ften: non-finite feature value at flat index 1",
                 id="read_tensor non-finite value"),
    pytest.param(lambda: write_tensor(None, "0.ften"), ValueError,
                 "fmap must be a FeatureMap, got NoneType", id="write_tensor"),
    pytest.param(lambda: write_tensor(_features(0), None), ValueError,
                 "path must be a str or PathLike, got NoneType", id="write_tensor path"),
    pytest.param(lambda: read_tensor(5), ValueError,
                 "path must be a str or PathLike, got int", id="read_tensor"),
    pytest.param(lambda: read_mask(None), ValueError,
                 "path must be a str or PathLike, got NoneType", id="read_mask"),
    pytest.param(lambda: read_mask(b"000.pgm"), ValueError,
                 "path must be a str or PathLike, got bytes", id="read_mask bytes"),
    pytest.param(lambda: read_mask_dir(None), ValueError,
                 "directory must be a str or PathLike, got NoneType", id="read_mask_dir"),
    pytest.param(lambda: read_mask_dir("."), MaskFormatError,
                 "no .pgm mask files in . (expected *.pgm)",
                 id="TestMaskDir.test_empty_dir_rejected"),
    pytest.param(lambda: read_feature_dir(None), ValueError,
                 "directory must be a str or PathLike, got NoneType", id="read_feature_dir"),
    pytest.param(lambda: read_feature_dir("."), TensorFormatError,
                 "no tensor files in . (expected *.ften, *.bin)",
                 id="TestFeatureDir.test_empty_dir_rejected"),
    pytest.param(lambda: write_outputs(None), ValueError,
                 "outputs must be a Mapping, got NoneType", id="write_outputs outputs"),
    pytest.param(lambda: write_outputs({"gt": None}), ValueError,
                 "output must be a FrameSequence or bytes, got NoneType", id="write_outputs"),
    pytest.param(lambda: write_outputs({1: b""}), ValueError,
                 "path must be a str or PathLike, got int", id="write_outputs path"),
    pytest.param(lambda: atomic_write_bytes(None, b""), ValueError,
                 "path must be a str or PathLike, got NoneType", id="atomic_write_bytes"),
    # the path is checked before it keys the mapping handed to write_outputs
    pytest.param(lambda: atomic_write_bytes([], b""), ValueError,
                 "path must be a str or PathLike, got list", id="atomic_write_bytes list"),
    pytest.param(lambda: track_records(None), ValueError,
                 "steps must be a sequence of TrackStep, got None", id="track_records steps"),
    pytest.param(lambda: track_records([None]), ValueError,
                 "steps[0] must be a TrackStep, got NoneType", id="track_records steps[i]"),
    pytest.param(lambda: track_records([TrackStep(1, 1, (0, 1), None, 0, 64)]), ValueError,
                 "steps[0].outcome must be a PruneOutcome, got NoneType",
                 id="track_records steps[i].outcome"),
    pytest.param(lambda: track_records([dataclasses.replace(
                     STEP, outcome=PruneOutcome(None, None, None, None))]), ValueError,
                 "steps[0].outcome.retained must be a tuple, got NoneType",
                 id="track_records steps[i].outcome.retained"),
    pytest.param(lambda: track_records([dataclasses.replace(
                     STEP, outcome=PruneOutcome((0,), (), "cosine", "persistent", None))]),
                 ValueError, "steps[0].outcome.scores must be a dict, got NoneType",
                 id="track_records steps[i].outcome.scores"),
    # a tuple, not an iterator that the check would use up before the record reads it
    pytest.param(lambda: track_records([dataclasses.replace(STEP, bank_after=iter((0, 1)))]),
                 ValueError, "steps[0].bank_after must be a tuple, got tuple_iterator",
                 id="track_records steps[i].bank_after"),
    # float() would read the string as a score
    pytest.param(lambda: track_records([dataclasses.replace(STEP, outcome=PruneOutcome(
                     (0,), (), "cosine", "persistent", {"short": {0: "0.5"}}))]), ValueError,
                 "steps[0].outcome.scores['short'][0] must be a Real, got str",
                 id="track_records steps[i].outcome.scores score"),
    pytest.param(lambda: track_records([dataclasses.replace(
                     STEP, outcome=PruneOutcome((0,), (), "cosine", None))]), ValueError,
                 f"unknown prune mode None, expected one of {PRUNE_MODES}",
                 id="track_records steps[i].outcome.mode"),
    # group names are the two that prune_step scores: a tuple would reach the
    # writer as a JSON key, and an unknown string would be written
    *(pytest.param(lambda group=group: track_records([dataclasses.replace(STEP, outcome=(
                       PruneOutcome((0,), (), "cosine", "persistent", {group: {}})))]),
                   ValueError,
                   f"unknown score group {group!r}, expected one of ('short', 'long')",
                   id=f"track_records steps[i].outcome.scores group {group!r}")
      for group in (("a",), "middle")),
]


@pytest.mark.parametrize("call, error, message", REFUSALS)
def test_refusal(tmp_path, monkeypatch, call, error, message):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$") as refused:
        call()
    assert type(refused.value) is error
    assert not any(tmp_path.iterdir())
