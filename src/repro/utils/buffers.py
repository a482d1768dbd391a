"""Growable numpy buffers for append-only model state."""

from __future__ import annotations

import numpy as np

__all__ = ["reserve"]


def reserve(buffer: np.ndarray, used: int, need: int) -> np.ndarray:
    """``buffer`` if it has room for ``need`` rows, else a larger copy.

    Only the first ``used`` rows are copied.  Capacity grows by half
    again (at least to ``need``), so a run of appends costs amortised
    O(1) per row while the spare capacity stays under a third of the
    buffer.
    """
    if need <= len(buffer):
        return buffer
    capacity = max(need, len(buffer) + len(buffer) // 2)
    grown = np.empty((capacity,) + buffer.shape[1:], dtype=buffer.dtype)
    grown[:used] = buffer[:used]
    return grown
