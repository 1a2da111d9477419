"""Streaming memory management and evaluation for promptable video object segmentation.

The package provides four pieces that plug together but stand alone:

* :mod:`vosmem.sampling` — multi-rate temporal index plans for stride
  augmentation of annotated clips;
* :mod:`vosmem.memory` — a fixed-capacity FIFO memory bank with
  short/long-term splitting and per-group redundancy pruning under six
  similarity metrics;
* :mod:`vosmem.metrics` — region (J, Dice), boundary (F), combined (J&F)
  and sequence-level (CIoU) segmentation measures with per-object reports;
* :mod:`vosmem.harness` — a deterministic synthetic tracker that exercises
  the full encode/prune/readout/append loop without any neural network.

:mod:`vosmem.io` and :mod:`vosmem.cli` add on-disk formats and the
``vosmem`` command with ``sample``/``prune``/``eval``/``simulate``.
"""

from .core import (
    MAX_OBJECT_ID,
    FeatureMap,
    FrameSequence,
    LabelMask,
)
from .harness import (
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
from .memory import (
    DEFAULT_CAPACITY,
    DEFAULT_METRIC,
    DEFAULT_MODE,
    PRUNE_MODES,
    SIMILARITY_METRICS,
    MemoryBank,
    MemoryEntry,
    PruneOutcome,
    similarity,
)
from .metrics import (
    DEFAULT_BOUNDARY_RADIUS,
    METRIC_NAMES,
    AggregateStat,
    MetricReport,
    boundary_f,
    ciou,
    dice,
    dilate_disk,
    disk_footprint,
    evaluate,
    j_and_f,
    jaccard,
)
from .sampling import (
    DEFAULT_PHASE_POLICY,
    DEFAULT_STRIDES,
    PHASE_POLICIES,
    SamplingView,
    build_plan,
    materialize,
)

__version__ = "0.1.0"

__all__ = [
    "MAX_OBJECT_ID",
    "FeatureMap",
    "FrameSequence",
    "LabelMask",
    "OBJECT_ID",
    "OBJECT_SHAPES",
    "SceneConfig",
    "ToyEncoderConfig",
    "TrackStep",
    "encode_frame",
    "generate_scene",
    "readout_cost",
    "track_sequence",
    "DEFAULT_CAPACITY",
    "DEFAULT_METRIC",
    "DEFAULT_MODE",
    "PRUNE_MODES",
    "SIMILARITY_METRICS",
    "MemoryBank",
    "MemoryEntry",
    "PruneOutcome",
    "similarity",
    "DEFAULT_BOUNDARY_RADIUS",
    "METRIC_NAMES",
    "AggregateStat",
    "MetricReport",
    "boundary_f",
    "ciou",
    "dice",
    "dilate_disk",
    "disk_footprint",
    "evaluate",
    "j_and_f",
    "jaccard",
    "DEFAULT_PHASE_POLICY",
    "DEFAULT_STRIDES",
    "PHASE_POLICIES",
    "SamplingView",
    "build_plan",
    "materialize",
    "__version__",
]
