"""Tensor-file bytes written by hand, for inputs ``write_tensor`` cannot make.

``vosmem.io.write_tensor`` writes a 3-D feature map as float64 only, while
``read_tensor`` also reads float32 files and must refuse malformed ones.
:func:`ften_bytes` writes the header layout the benchmark's
``perfbench/workloads.py`` writes for its float32 inputs (magic ``FTEN``,
version 1, dtype code, rank, u32 dims, row-major little-endian payload), for
an array of any rank in either dtype, so a float64 file it writes for a
3-D map is byte-identical to ``write_tensor``'s.
"""

import struct

import numpy as np

_LAYOUTS = {"float32": (0, "<f4"), "float64": (1, "<f8")}  # dtype code, payload dtype


def ften_bytes(array, dtype: str) -> bytes:
    """``array`` as a tensor file in ``dtype``, ``"float32"`` or ``"float64"``."""
    code, payload = _LAYOUTS[dtype]
    arr = np.ascontiguousarray(array, dtype=payload)
    return (struct.pack("<4sHBB", b"FTEN", 1, code, arr.ndim)
            + struct.pack(f"<{arr.ndim}I", *arr.shape) + arr.tobytes())
