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

OBJECT_SHAPES = ("square", "disk")
OBJECT_ID = 1
ENCODER_CHANNELS = ("occupancy", "x_coord", "y_coord", "noise")


@dataclass(frozen=True)
class SceneConfig:
    """Geometry and kinematics of a synthetic clip.

    ``start`` is the top-left corner (x0, y0) of the object's bounding box
    at frame 0; a square of size s spans s pixels per side, a disk of size
    r spans 2r+1 (r is the radius). ``velocity`` is (vx, vy) pixels per
    frame; motion continues through gaps, during which the object simply
    is not drawn. The object must fit the grid at frame 0; later frames
    clip it at the borders (possibly to nothing).
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
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
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
        r = config.size
        cy, cx = y + r, x + r
        ii, jj = np.mgrid[y_lo:y_hi, x_lo:x_hi]
        inside = (ii - cy) ** 2 + (jj - cx) ** 2 <= r * r
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
        if not self.noise_sigma >= 0.0:
            raise ValueError(f"noise_sigma must be >= 0, got {self.noise_sigma}")


def encode_frame(mask: LabelMask, config: ToyEncoderConfig, seed: int,
                 frame_index: int) -> FeatureMap:
    """Featurize one mask into the fixed 4-channel layout.

    The noise channel comes from a Philox generator keyed by
    (seed, frame_index): the same (mask, seed, frame_index) always yields
    identical features, regardless of how many frames were encoded before.
    """
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    big_h, big_w = mask.labels.shape
    h, w = config.feature_resolution
    if big_h % h != 0 or big_w % w != 0:
        raise ValueError(
            f"feature_resolution {config.feature_resolution} must divide the "
            f"mask grid {(big_h, big_w)} exactly")
    occupancy = (mask.labels != 0).astype(np.float64)
    blocks = occupancy.reshape(h, big_h // h, w, big_w // w)
    occ = blocks.mean(axis=(1, 3))
    x_map = np.broadcast_to((np.arange(w) + 0.5) / w, (h, w))
    y_map = np.broadcast_to(((np.arange(h) + 0.5) / h)[:, None], (h, w))
    if config.noise_sigma > 0.0:
        rng = np.random.Generator(np.random.Philox(key=[seed, frame_index]))
        noise = rng.normal(0.0, config.noise_sigma, size=(h, w))
    else:
        noise = np.zeros((h, w))
    data = np.stack([occ, x_map, y_map, noise])
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
        if prune_enabled:
            outcome = bank.prune_step(metric=metric, mode=mode)
        else:
            outcome = PruneOutcome(retained=bank.entries, pruned_frame_indices=())

        retained = {entry.frame_index: entry for entry in outcome.retained}
        best_entry = retained[argmax_frame(metric, {
            idx: similarity(metric, entry.features, features)
            for idx, entry in retained.items()})]
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
