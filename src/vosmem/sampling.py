"""Multi-rate temporal sampling: one clip becomes several stride views.

A view at stride s and phase t0 is the index sequence t0, t0+s, t0+2s, ...
up to the clip length. Stride 1 at phase 0 reproduces the clip; larger
strides simulate proportionally faster object motion. Plans carry index
sequences only, so downstream loaders can stream frames lazily.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import FrameSequence, _choice, _instance, _integer, _integers

PHASE_POLICIES = ("zero", "all")
DEFAULT_STRIDES = (1, 2)


@dataclass(frozen=True)
class SamplingConfig:
    """Stride set and phase policy for building a plan.

    phase_policy "zero" emits one view per stride starting at frame 0;
    "all" emits every phase 0..s-1 so the stride-s views partition the
    clip. max_frames, when set, truncates each view from the end.
    """

    strides: tuple[int, ...] = DEFAULT_STRIDES
    phase_policy: str = "zero"
    max_frames: int | None = None

    def __post_init__(self):
        strides = _integers("strides", self.strides, 1)
        if not strides:
            raise ValueError("strides must be non-empty")
        if len(set(strides)) != len(strides):
            raise ValueError(f"strides must be distinct, got {strides}")
        _choice("phase policy", self.phase_policy, PHASE_POLICIES)
        if self.max_frames is not None:
            object.__setattr__(self, "max_frames", _integer("max_frames", self.max_frames, 1))
        object.__setattr__(self, "strides", strides)


@dataclass(frozen=True)
class SamplingView:
    stride: int
    phase: int
    indices: tuple[int, ...]


@dataclass(frozen=True)
class SamplingPlan:
    clip_length: int
    views: tuple[SamplingView, ...]

    def to_dict(self) -> dict:
        return {
            "clip_length": self.clip_length,
            "views": [
                {"stride": v.stride, "phase": v.phase, "indices": list(v.indices)}
                for v in self.views
            ],
        }


def build_plan(length: int, config: SamplingConfig = SamplingConfig()) -> SamplingPlan:
    """One view per (stride, phase) pair, ordered by (stride, phase).

    Phases at or beyond the clip length are skipped (a stride larger than
    the clip yields only the phases that exist). A view with more frames
    than a tuple can index raises ``ValueError`` naming the length.
    """
    length = _integer("clip length", length, 1)
    _instance("config", config, SamplingConfig)
    views = []
    for s in sorted(config.strides):
        phases = range(min(s, length)) if config.phase_policy == "all" else (0,)
        for t0 in phases:
            # a range slices lazily, so max_frames applies before any listing
            try:
                indices = tuple(range(t0, length, s)[:config.max_frames])
            except OverflowError:  # more items than a tuple can index
                raise ValueError(
                    f"a view of clip length {length} has too many frames to list") from None
            views.append(SamplingView(stride=s, phase=t0, indices=indices))
    return SamplingPlan(clip_length=length, views=tuple(views))


def materialize(sequence: FrameSequence, indices) -> FrameSequence:
    """Extract the subsequence at the given positions, keeping original
    frame_index values on each frame; a position past the end is a ValueError."""
    _instance("sequence", sequence, FrameSequence)
    indices = _integers("indices", indices, 0)
    for i in indices:
        if i >= len(sequence):
            raise ValueError(f"index {i} out of bounds for sequence of length {len(sequence)}")
    return FrameSequence(tuple(sequence.frames[i] for i in indices))
