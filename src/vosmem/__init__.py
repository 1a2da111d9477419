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

from . import core, harness, memory, metrics, sampling
from .core import *
from .harness import *
from .memory import *
from .metrics import *
from .sampling import *

__version__ = "0.1.0"

# each module's __all__ states its public names; the package republishes them
__all__: list[str] = []
__all__ += core.__all__
__all__ += harness.__all__
__all__ += memory.__all__
__all__ += metrics.__all__
__all__ += sampling.__all__
__all__ += ["__version__"]
