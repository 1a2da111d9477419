"""Deterministic synthetic tracker: scene generator, toy encoder, template segmenter.

The harness drives the full streaming loop (encode, prune, read out,
predict, append) without any neural network, so memory dynamics are
directly observable. The world is a single rigid object (square or disk)
translating over a blank grid, optionally vanishing during gap intervals;
the encoder is a fixed 4-channel featurizer; the segmenter copies the
stored mask of the best-matching memory entry.

Everything is reproducible: scene generation is pure kinematics, and the
encoder's noise channel is drawn from a counter-based generator keyed by
(seed, frame_index), so features do not depend on evaluation order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import FeatureMap, FrameSequence, LabelMask
from .memory import (
    DEFAULT_CAPACITY,
    DEFAULT_METRIC,
    DEFAULT_MODE,
    MemoryBank,
    MemoryEntry,
    PruneOutcome,
    _check_mode,
    argmax_frame,
    similarity,
)
from .metrics import disk_footprint

OBJECT_SHAPES = ("square", "disk")
OBJECT_ID = 1
ENCODER_CHANNELS = ("occupancy", "x_coord", "y_coord", "noise")
_KEY_MAX = 2**64 - 1  # largest Philox key word


@dataclass(frozen=True)
class SceneConfig:
    """Geometry and kinematics of a synthetic clip.

    ``start`` is the top-left corner (x0, y0) of the object's bounding box
    at frame 0; a square of size s spans s pixels per side, a disk of size
    r spans 2r+1 (r is the radius). ``velocity`` is (vx, vy) pixels per
    frame; motion continues through gaps, during which the object simply
    is not drawn. The object must fit the grid at frame 0; later frames
    clip it at the borders (possibly to nothing). ``seed`` plays no part in
    drawing the scene; it is carried for the encoder's noise, and
    :func:`encode_frame` checks its range.
    """

    grid: tuple[int, int] = (32, 32)  # (H, W)
    shape: str = "square"
    size: int = 4
    velocity: tuple[int, int] = (0, 0)  # (vx, vy)
    n_frames: int = 20
    gaps: tuple[tuple[int, int], ...] = ()
    seed: int = 0
    start: tuple[int, int] = (0, 0)  # (x0, y0)

    def __post_init__(self):
        h, w = self.grid
        if h < 1 or w < 1:
            raise ValueError(f"grid must be at least 1x1, got {self.grid}")
        if self.shape not in OBJECT_SHAPES:
            raise ValueError(f"unknown shape {self.shape!r}, expected one of {OBJECT_SHAPES}")
        min_size = 1 if self.shape == "square" else 0
        if self.size < min_size:
            raise ValueError(f"{self.shape} size must be >= {min_size}, got {self.size}")
        if self.n_frames < 1:
            raise ValueError(f"n_frames must be >= 1, got {self.n_frames}")
        for lo, hi in self.gaps:
            if lo < 0 or hi < lo:
                raise ValueError(f"gap interval ({lo}, {hi}) is not a valid frame range")
        eh, ew = self.extent
        x0, y0 = self.start
        if x0 < 0 or y0 < 0 or y0 + eh > h or x0 + ew > w:
            raise ValueError(
                f"object of extent {eh}x{ew} at start {self.start} does not fit "
                f"the {h}x{w} grid at frame 0")

    @property
    def extent(self) -> tuple[int, int]:
        """Bounding-box (height, width) of the object."""
        side = self.size if self.shape == "square" else 2 * self.size + 1
        return side, side

    def in_gap(self, t: int) -> bool:
        return any(lo <= t <= hi for lo, hi in self.gaps)


def _rasterize(config: SceneConfig, t: int) -> np.ndarray:
    h, w = config.grid
    labels = np.zeros((h, w), dtype=np.uint8)
    if config.in_gap(t):
        return labels
    x = config.start[0] + t * config.velocity[0]
    y = config.start[1] + t * config.velocity[1]
    eh, ew = config.extent
    y_lo, y_hi = max(y, 0), min(y + eh, h)
    x_lo, x_hi = max(x, 0), min(x + ew, w)
    if y_lo >= y_hi or x_lo >= x_hi:
        return labels
    if config.shape == "square":
        labels[y_lo:y_hi, x_lo:x_hi] = OBJECT_ID
    else:
        inside = disk_footprint(config.size)[y_lo - y:y_hi - y, x_lo - x:x_hi - x]
        labels[y_lo:y_hi, x_lo:x_hi][inside] = OBJECT_ID
    return labels


def generate_scene(config: SceneConfig) -> FrameSequence:
    """Render the configured object at frames 0..n_frames-1."""
    frames = [LabelMask(frame_index=t, labels=_rasterize(config, t))
              for t in range(config.n_frames)]
    return FrameSequence(frames)


@dataclass(frozen=True)
class ToyEncoderConfig:
    """Fixed 4-channel featurizer: block-mean occupancy, normalized x and y
    coordinate maps, and Gaussian noise; feature_resolution is (h, w) and
    must divide the mask grid exactly (block-mean downsampling)."""

    feature_resolution: tuple[int, int] = (8, 8)
    noise_sigma: float = 0.0

    def __post_init__(self):
        h, w = self.feature_resolution
        if h < 1 or w < 1:
            raise ValueError(f"feature_resolution must be at least 1x1, got {self.feature_resolution}")
        if not 0.0 <= self.noise_sigma < np.inf:
            raise ValueError(f"noise_sigma must be finite and >= 0, got {self.noise_sigma}")


def encode_frame(mask: LabelMask, config: ToyEncoderConfig, seed: int,
                 frame_index: int) -> FeatureMap:
    """Featurize one mask into the fixed 4-channel layout.

    Occupancy is each block's count of non-zero pixels, summed exactly in
    the narrowest unsigned type that holds a whole block and divided once
    by the block size, so it equals the float64 block mean bit for bit.

    The noise channel is drawn in place from a Philox generator keyed by
    (seed, frame_index) and equals ``Generator(Philox(key=k)).normal(0.0,
    noise_sigma, (h, w))`` bit for bit, with ``k`` the uint64 array
    ``[seed, frame_index]``. The same (mask, seed, frame_index) always yields
    identical features, regardless of how many frames were encoded before.
    Each key word is 64 bits, so ``seed`` and ``frame_index`` must lie in
    0..2**64-1; a value outside that range raises ``ValueError``.
    """
    for name, value in (("seed", seed), ("frame_index", frame_index)):
        if not 0 <= value <= _KEY_MAX:
            raise ValueError(f"{name} must be in 0..2**64-1, got {value}")
    big_h, big_w = mask.labels.shape
    h, w = config.feature_resolution
    if big_h % h != 0 or big_w % w != 0:
        raise ValueError(
            f"feature_resolution {config.feature_resolution} must divide the "
            f"mask grid {(big_h, big_w)} exactly")
    bh, bw = big_h // h, big_w // w
    # Rows of each band are summed first; the small (h, W) partial is then
    # transposed so that the columns of each block are summed by whole-row
    # adds too, not by reducing an inner axis of length bw.
    acc = np.min_scalar_type(bh * bw)
    rows = (mask.labels != 0).reshape(h, bh, big_w).sum(axis=1, dtype=acc)
    counts = np.ascontiguousarray(rows.T).reshape(w, bw, h).sum(axis=1, dtype=acc)
    data = np.empty((4, h, w))
    np.divide(counts.T, bh * bw, out=data[0])
    data[1] = (np.arange(w) + 0.5) / w
    data[2] = ((np.arange(h) + 0.5) / h)[:, None]
    if config.noise_sigma > 0.0:
        # a plain list with a word past 2**63 would pass through float64
        key = np.array([seed, frame_index], dtype=np.uint64)
        rng = np.random.Generator(np.random.Philox(key=key))
        noise = rng.standard_normal(out=data[3])
        # normal(0, s) is 0.0 + s * z over the same z; the + 0.0 turns the
        # -0.0 of an underflowing product into +0.0 as normal() does. An
        # overflow to inf is left for FeatureMap to reject.
        with np.errstate(over="ignore"):
            noise *= config.noise_sigma
        noise += 0.0
    else:
        data[3] = 0.0
    return FeatureMap(frame_index=frame_index, data=data)


@dataclass(frozen=True)
class TrackStep:
    """One streaming step: what the bank did and which entry was read out.

    The observed and predicted masks of the step are frame ``step`` of the
    scene and of the sequence that :func:`track_sequence` returns."""

    step: int
    frame_index: int
    bank_before: tuple[int, ...]
    bank_after: tuple[int, ...]
    outcome: PruneOutcome
    selected_frame_index: int
    readout_cost: int


@dataclass(frozen=True)
class TrackTrace:
    """Every step of a tracking run plus the metric and prune mode it used."""

    steps: tuple[TrackStep, ...]
    metric: str
    mode: str


def track_sequence(scene: FrameSequence, encoder_config: ToyEncoderConfig,
                   bank_capacity: int = DEFAULT_CAPACITY,
                   metric: str = DEFAULT_METRIC, mode: str = DEFAULT_MODE,
                   prune_enabled: bool = True,
                   seed: int = 0) -> tuple[FrameSequence, TrackTrace]:
    """Track a scene with the nearest-template segmenter.

    Frame 0's mask is the prompt: its entry goes into the bank before the
    first step. Each later step encodes the observed frame, runs one prune
    step (skipped entirely when pruning is disabled), picks the retained
    entry whose features are most similar to the current ones (ties go to
    the smallest frame index), copies that entry's stored mask as the
    prediction, and appends (current features, predicted mask) to the bank.

    The returned sequence starts with the prompt mask itself so that it
    aligns frame-for-frame with the observed scene.
    """
    if len(scene) < 2:
        raise ValueError(f"scene must have at least 2 frames, got {len(scene)}")
    _check_mode(mode)  # also when pruning is off: the mode is written to the trace
    h, w = encoder_config.feature_resolution
    tokens_per_entry = h * w

    bank = MemoryBank(capacity=bank_capacity)
    prompt = scene[0]
    prompt_features = encode_frame(prompt, encoder_config, seed, prompt.frame_index)
    bank.append(MemoryEntry(prompt.frame_index, prompt_features, mask=prompt))

    steps: list[TrackStep] = []
    predicted_frames: list[LabelMask] = [prompt]
    for t in range(1, len(scene)):
        observed = scene[t]
        features = encode_frame(observed, encoder_config, seed, observed.frame_index)
        bank_before = bank.frame_indices
        entries = {e.frame_index: e for e in bank.entries}
        if prune_enabled:
            outcome = bank.prune_step(metric=metric, mode=mode)
        else:
            outcome = PruneOutcome(retained=bank_before, pruned_frame_indices=())

        best_entry = entries[argmax_frame(metric, {
            i: similarity(metric, entries[i].features, features)
            for i in outcome.retained})]
        if best_entry.mask is None:
            raise ValueError(
                f"memory entry {best_entry.frame_index} has no stored mask to copy")

        predicted = LabelMask(frame_index=observed.frame_index,
                              labels=best_entry.mask.labels)
        bank.append(MemoryEntry(observed.frame_index, features, mask=predicted))
        steps.append(TrackStep(
            step=t,
            frame_index=observed.frame_index,
            bank_before=bank_before,
            bank_after=bank.frame_indices,
            outcome=outcome,
            selected_frame_index=best_entry.frame_index,
            readout_cost=len(outcome.retained) * tokens_per_entry,
        ))
        predicted_frames.append(predicted)

    return FrameSequence(predicted_frames), TrackTrace(tuple(steps), metric, mode)


def readout_cost(trace: TrackTrace) -> list[int]:
    """Per-step tokens consulted: retained entries times feature h*w."""
    return [s.readout_cost for s in trace.steps]
