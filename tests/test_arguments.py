"""Integer and name arguments: one rule for every public entry point.

An integer argument accepts ints and NumPy integers and keeps their value
exactly; anything else (a float, even 2.0, a string, None) and a value out of
range raise ValueError. A name argument outside its choices raises
ValueError with the message ``unknown {what} {value!r}, expected one of
{choices}``. An argument of the wrong kind (None for a sequence, a feature
map for a memory entry, an unhashable name) raises ValueError naming it too;
one of the library's types in the wrong place raises ``{name} must be a
{type}, got {type}``.
"""

import dataclasses
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vosmem.core import FeatureMap, FrameSequence, LabelMask
from vosmem.harness import (
    OBJECT_SHAPES,
    SceneConfig,
    ToyEncoderConfig,
    encode_frame,
    generate_scene,
    readout_cost,
    track_sequence,
)
from vosmem.io import tensor_bytes
from vosmem.memory import (
    PRUNE_MODES,
    SIMILARITY_METRICS,
    MemoryBank,
    MemoryEntry,
    argmax_frame,
    similarity,
)
from vosmem.metrics import boundary_f, dilate_disk, disk_footprint, evaluate
from vosmem.sampling import (
    PHASE_POLICIES,
    SamplingConfig,
    build_plan,
    materialize,
    sample_indices,
)

VALUES = (1.5, 2.0, "3", None, True, np.int64(3), -1, 0)

SCENE = generate_scene(SceneConfig(grid=(6, 6), size=2, n_frames=4))
PIXELS = SCENE[0].binarize(1)
NOISY = ToyEncoderConfig(feature_resolution=(3, 3), noise_sigma=0.1)


def _features(frame_index):
    return FeatureMap(frame_index, np.arange(4.0).reshape(1, 2, 2))


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


def _plan(**fields):
    config = SamplingConfig(**fields)
    build_plan(5, config)
    return config


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
    "SamplingConfig.strides[0]": lambda v: _plan(strides=(v,)).strides[0],
    "SamplingConfig.strides[1]": lambda v: _plan(strides=(1, v)).strides[1],
    "SamplingConfig.max_frames": lambda v: _plan(max_frames=v).max_frames,
    "build_plan.length": lambda v: build_plan(v).clip_length,
    "sample_indices.phase": lambda v: sample_indices(5, 1, v)[0],
    "evaluate.radius": lambda v: evaluate(SCENE, SCENE, radius=v).radius,
    "argmax_frame.frame_index": lambda v: argmax_frame("dot", {v: 1.0}),
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
    "SamplingConfig.strides": lambda v: _plan(strides=v),
    "sample_indices.length": lambda v: sample_indices(v, 1),
    "sample_indices.stride": lambda v: sample_indices(5, v),
    "materialize.indices[0]": lambda v: materialize(SCENE, [v]),
    "materialize.indices": lambda v: materialize(SCENE, v),
    "disk_footprint.radius": lambda v: disk_footprint(v),
    "dilate_disk.radius": lambda v: dilate_disk(PIXELS, v),
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
    if value is None and case == "SamplingConfig.max_frames":
        return
    # accepted: only an integer may pass, and the result keeps its value
    assert isinstance(value, (int, np.integer)), f"{case} accepted {value!r}"
    if case in HOLDS:
        assert type(result) is int and result == value


# a rejected integer raises ValueError whose message names the argument
PROBES = [
    (lambda: MemoryBank(7.0).prune_step(), "capacity must be an integer, got 7.0"),
    (lambda: MemoryBank(2.5), "capacity must be an integer, got 2.5"),
    (lambda: SceneConfig(n_frames=2.5), "n_frames must be an integer, got 2.5"),
    (lambda: SceneConfig(velocity=(1,)), "velocity must be 2 integers, got (1,)"),
    (lambda: SceneConfig(gaps=((1, 2.5),)), "gaps[0][1] must be an integer, got 2.5"),
    (lambda: build_plan(10.5), "clip length must be an integer, got 10.5"),
    (lambda: sample_indices(10, 2.5), "stride must be an integer, got 2.5"),
    (lambda: materialize(SCENE, [1.0]), "indices[0] must be an integer, got 1.0"),
    (lambda: ToyEncoderConfig(feature_resolution=(8.0, 8.0)),
     "feature_resolution[0] must be an integer, got 8.0"),
    (lambda: encode_frame(SCENE[0], NOISY, 1.5), "seed must be an integer, got 1.5"),
    (lambda: FeatureMap(1.5, np.zeros((1, 1, 1))), "frame_index must be an integer, got 1.5"),
    (lambda: SamplingConfig(strides=(2.0,)), "strides[0] must be an integer, got 2.0"),
]


@pytest.mark.parametrize("call, message", PROBES, ids=[message for _, message in PROBES])
def test_rejected_integer_names_its_argument(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_numpy_integers_are_held_as_plain_ints():
    bank = MemoryBank(np.int64(7))
    assert type(bank.capacity) is int and bank.capacity == 7
    config = SamplingConfig(strides=(np.int32(1), np.uint8(2)), max_frames=np.int64(3))
    assert config.strides == (1, 2) and type(config.max_frames) is int


def test_scene_config_holds_plain_ints_and_a_tuple_of_int_pairs():
    config = SceneConfig(size=np.int64(3), n_frames=np.int32(5), gaps=[[1, np.uint8(2)]],
                         seed=np.uint64(7))
    plain = SceneConfig(size=3, n_frames=5, gaps=((1, 2),), seed=7)
    assert config == plain and hash(config) == hash(plain)
    assert config.gaps == ((1, 2),)
    assert [type(v) for v in (config.size, config.n_frames, config.seed, *config.gaps[0])] == [int] * 5
    assert json.loads(json.dumps(dataclasses.asdict(config)))["n_frames"] == 5


@pytest.mark.parametrize("call, message", [
    (lambda: similarity("cosinus", _features(0), _features(1)),
     f"unknown similarity metric 'cosinus', expected one of {SIMILARITY_METRICS}"),
    (lambda: MemoryBank().prune_step(metric="cosinus"),
     f"unknown similarity metric 'cosinus', expected one of {SIMILARITY_METRICS}"),
    (lambda: MemoryBank().prune_step(mode="keep"),
     f"unknown prune mode 'keep', expected one of {PRUNE_MODES}"),
    (lambda: track_sequence(SCENE, NOISY, mode="keep", prune_enabled=False),
     f"unknown prune mode 'keep', expected one of {PRUNE_MODES}"),
    (lambda: SceneConfig(shape="circle"),
     f"unknown shape 'circle', expected one of {OBJECT_SHAPES}"),
    (lambda: SamplingConfig(phase_policy="some"),
     f"unknown phase policy 'some', expected one of {PHASE_POLICIES}"),
], ids=["similarity", "prune_step metric", "prune_step mode", "track_sequence mode",
        "shape", "phase policy"])
def test_unknown_name_message(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: FrameSequence(None), "frames must be a sequence of LabelMask, got None",
                 id="FrameSequence frames"),
    pytest.param(lambda: evaluate(SCENE, SCENE, metrics=None),
                 "metrics must be a sequence of metric names, got None",
                 id="evaluate metrics None"),
    pytest.param(lambda: evaluate(SCENE, SCENE, metrics=3),
                 "metrics must be a sequence of metric names, got 3",
                 id="evaluate metrics int"),
    pytest.param(lambda: MemoryBank().append(None), "entry must be a MemoryEntry, got NoneType",
                 id="append None"),
    pytest.param(lambda: MemoryBank().append(_features(0)),
                 "entry must be a MemoryEntry, got FeatureMap",
                 id="append FeatureMap"),
    pytest.param(lambda: tensor_bytes(np.zeros(2), dtype=[1]),
                 "unknown dtype [1], expected one of ('float32', 'float64')",
                 id="tensor_bytes unhashable dtype"),
    pytest.param(lambda: tensor_bytes(np.zeros(2), dtype="float16"),
                 "unknown dtype 'float16', expected one of ('float32', 'float64')",
                 id="tensor_bytes dtype"),
    # a name must be a str: an array or a dtype that compares equal to a
    # choice is rejected by the same message
    pytest.param(lambda: tensor_bytes(np.zeros(2), dtype=np.dtype("float32")),
                 f"unknown dtype {np.dtype('float32')!r}, expected one of ('float32', 'float64')",
                 id="tensor_bytes numpy dtype"),
    pytest.param(lambda: tensor_bytes(np.zeros(2), dtype=np.array(["float32", "x"])),
                 f"unknown dtype {np.array(['float32', 'x'])!r}, "
                 "expected one of ('float32', 'float64')",
                 id="tensor_bytes array dtype"),
    pytest.param(lambda: similarity(np.array(["cosine", "dot"]), _features(0), _features(1)),
                 f"unknown similarity metric {np.array(['cosine', 'dot'])!r}, "
                 f"expected one of {SIMILARITY_METRICS}",
                 id="similarity array metric"),
    pytest.param(lambda: MemoryBank().prune_step(mode=None),
                 f"unknown prune mode None, expected one of {PRUNE_MODES}",
                 id="prune_step mode None"),
    # the kind rule: an argument that must be one of the library's types
    pytest.param(lambda: FrameSequence((SCENE[0], None)),
                 "frames[1] must be a LabelMask, got NoneType",
                 id="FrameSequence frames[i]"),
    pytest.param(lambda: MemoryEntry(0, None), "features must be a FeatureMap, got NoneType",
                 id="MemoryEntry features"),
    pytest.param(lambda: similarity("dot", None, _features(1)),
                 "a must be a FeatureMap, got NoneType",
                 id="similarity a"),
    pytest.param(lambda: similarity("dot", _features(0), SCENE[0]),
                 "b must be a FeatureMap, got LabelMask",
                 id="similarity b"),
    pytest.param(lambda: evaluate(None, SCENE), "pred must be a FrameSequence, got NoneType",
                 id="evaluate pred"),
    pytest.param(lambda: evaluate(SCENE, list(SCENE)), "gt must be a FrameSequence, got list",
                 id="evaluate gt"),
    pytest.param(lambda: track_sequence(list(SCENE), NOISY),
                 "scene must be a FrameSequence, got list",
                 id="track_sequence scene"),
    pytest.param(lambda: track_sequence(SCENE, None),
                 "encoder_config must be a ToyEncoderConfig, got NoneType",
                 id="track_sequence encoder_config"),
    pytest.param(lambda: track_sequence(SCENE, NOISY, prune_enabled="no"),
                 "prune_enabled must be a bool, got str",
                 id="track_sequence prune_enabled"),
    pytest.param(lambda: encode_frame(None, NOISY, 0), "mask must be a LabelMask, got NoneType",
                 id="encode_frame mask"),
    pytest.param(lambda: encode_frame(SCENE[0], None, 0),
                 "config must be a ToyEncoderConfig, got NoneType",
                 id="encode_frame config"),
    pytest.param(lambda: generate_scene(None), "config must be a SceneConfig, got NoneType",
                 id="generate_scene config"),
    pytest.param(lambda: build_plan(5, "zero"), "config must be a SamplingConfig, got str",
                 id="build_plan config"),
    pytest.param(lambda: materialize(list(SCENE), [0]),
                 "sequence must be a FrameSequence, got list",
                 id="materialize sequence"),
    pytest.param(lambda: readout_cost(None), "trace must be a TrackTrace, got NoneType",
                 id="readout_cost trace"),
    # scores: a dict, of integer frame indices to real numbers
    pytest.param(lambda: argmax_frame("cosine", 1.5), "cosine scores must be a dict, got float",
                 id="argmax_frame float"),
    pytest.param(lambda: argmax_frame("cosine", (1,)), "cosine scores must be a dict, got tuple",
                 id="argmax_frame tuple"),
    pytest.param(lambda: argmax_frame("dot", {0: "a"}),
                 "dot scores must map frame indices to real numbers, got {0: 'a'}",
                 id="argmax_frame str score"),
    pytest.param(lambda: argmax_frame("dot", {0: 1.0, "b": 2.0}),
                 "dot scores must map frame indices to real numbers, got {0: 1.0, 'b': 2.0}",
                 id="argmax_frame str frame"),
    pytest.param(lambda: argmax_frame("cosine", {"a": 1.0, "b": 2.0}),
                 "cosine frame index must be an integer, got 'a'",
                 id="argmax_frame str frames"),
    pytest.param(lambda: argmax_frame("cosine", {0.5: 1.0, 2.5: 2.0}),
                 "cosine frame index must be an integer, got 0.5",
                 id="argmax_frame float frames"),
])
def test_wrong_kind_of_argument_names_it(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_bank_is_unchanged_by_a_rejected_append():
    bank = MemoryBank()
    with pytest.raises(ValueError):
        bank.append(None)
    bank.append(MemoryEntry(0, _features(0)))
    assert bank.frame_indices == (0,)
