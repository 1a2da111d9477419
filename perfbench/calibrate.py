"""A fixed reference kernel that measures how fast the machine is right now.

The benchmark's host is shared: the same work runs up to twice as fast at
one minute as at the next, and that drift lasts longer than a run, so it
shows as spread between runs that no longer run or robust statistic
removes. The kernel below does a fixed amount of the kinds of work the
workloads do (binary dilation by a disk, float32 matrix products and
argsorts, interpreter-bound dict updates) and uses nothing from vosmem, so
no change to the program changes its time. Timed next to an operation, it
turns the operation's time into reference time:

    reference time = operation time * (REFERENCE_S / kernel time) ** EXPONENT

an estimate of the time the operation would have taken on a machine state
in which the kernel takes exactly REFERENCE_S seconds. The workloads feel
the host's drift less than the kernel does: fitted over minutes of
interleaved samples, an operation's time goes with the kernel's to a power
of 0.5 (prune-replay) to 0.85 (sweep-small), and a cold import's to 0.8.
EXPONENT = 0.7 lies between them, so no workload keeps more than about a
fifth of the drift and none is over-corrected by more. REFERENCE_S is a
constant near the kernel's time on a 2-vCPU Intel Xeon VM, so reference
times read close to wall times there.

    python3 perfbench/calibrate.py     # print a few kernel times
"""

from __future__ import annotations

from time import perf_counter

import numpy as np
from scipy import ndimage

REFERENCE_S = 0.025
EXPONENT = 0.7

_rng = np.random.default_rng(0)
_MASK = _rng.random((48, 48)) > 0.9
_yy, _xx = np.mgrid[-10:11, -10:11]
_DISK = _yy**2 + _xx**2 <= 100
_FEATURES = _rng.standard_normal((64, 1024)).astype(np.float32)


def kernel_seconds() -> float:
    """Wall time of one pass of the fixed reference work."""
    start = perf_counter()
    for _ in range(6):
        ndimage.binary_dilation(_MASK, structure=_DISK)
    for _ in range(6):
        _FEATURES @ _FEATURES.T
        np.argsort(_FEATURES, axis=1)
    counts: dict[int, int] = {}
    for i in range(20000):
        counts[i % 97] = counts.get(i % 97, 0) + i
    return perf_counter() - start


def reference_seconds(wall: float, kernel: float) -> float:
    """Wall seconds of some work rescaled by the kernel time taken next to it."""
    return wall * (REFERENCE_S / kernel) ** EXPONENT


if __name__ == "__main__":
    kernel_seconds()  # first call pays one-off set-up
    print(" ".join(f"{kernel_seconds():.4f}" for _ in range(10)))
