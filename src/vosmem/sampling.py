"""Multi-rate temporal sampling: one clip becomes several stride views.

A view at stride s and phase t0 is the index sequence t0, t0+s, t0+2s, ...
up to the clip length. Stride 1 at phase 0 reproduces the clip; larger
strides simulate proportionally faster object motion. :func:`build_plan`
takes the stride set, phase policy and frame cap and returns the views;
views carry index sequences only, so downstream loaders can stream frames
lazily.
"""

from __future__ import annotations

__all__ = ["DEFAULT_PHASE_POLICY", "DEFAULT_STRIDES", "PHASE_POLICIES", "SamplingView",
           "build_plan", "materialize"]

from dataclasses import dataclass

from .core import FrameSequence, _choice, _instance, _integer, _integers

PHASE_POLICIES = ("zero", "all")
DEFAULT_STRIDES = (1, 2)
DEFAULT_PHASE_POLICY = "zero"


@dataclass(frozen=True)
class SamplingView:
    stride: int
    phase: int
    indices: tuple[int, ...]


def build_plan(length: int, strides=DEFAULT_STRIDES, phase_policy: str = DEFAULT_PHASE_POLICY,
               max_frames: int | None = None) -> tuple[SamplingView, ...]:
    """One view per (stride, phase) pair, ordered by (stride, phase).

    ``strides`` must be distinct integers >= 1. phase_policy "zero" emits one
    view per stride starting at frame 0; "all" emits every phase 0..s-1 so
    the stride-s views partition the clip, skipping phases at or beyond the
    clip length. max_frames, when set, truncates each view from the end.
    The settings are checked in that order, then the clip length; a view with
    more frames than a tuple can index raises ``ValueError`` naming the length.
    """
    strides = _integers("strides", strides, 1)
    if not strides:
        raise ValueError("strides must be non-empty")
    if len(set(strides)) != len(strides):
        raise ValueError(f"strides must be distinct, got {strides}")
    _choice("phase policy", phase_policy, PHASE_POLICIES)
    if max_frames is not None:
        max_frames = _integer("max_frames", max_frames, 1)
    length = _integer("clip length", length, 1)
    views = []
    for s in sorted(strides):
        phases = range(min(s, length)) if phase_policy == "all" else (0,)
        for t0 in phases:
            # a range slices lazily, so max_frames applies before any listing
            try:
                indices = tuple(range(t0, length, s)[:max_frames])
            except OverflowError:  # more items than a tuple can index
                raise ValueError(
                    f"a view of clip length {length} has too many frames to list") from None
            views.append(SamplingView(stride=s, phase=t0, indices=indices))
    return tuple(views)


def materialize(sequence: FrameSequence, indices) -> FrameSequence:
    """Extract the subsequence at the given positions, keeping original
    frame_index values on each frame; a position past the end is a ValueError."""
    _instance("sequence", sequence, FrameSequence)
    indices = _integers("indices", indices, 0)
    for i in indices:
        if i >= len(sequence):
            raise ValueError(f"index {i} out of bounds for sequence of length {len(sequence)}")
    return FrameSequence(tuple(sequence.frames[i] for i in indices))
