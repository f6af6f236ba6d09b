"""Deterministic counter-based random streams.

Every stochastic task derives its own Philox generator from the global
seed plus a stream path (e.g. protocol id, time index, circuit index).
Philox is counter-based, so streams with different keys are independent
and bitwise reproducible regardless of execution order or worker count.
"""

from __future__ import annotations

import numpy as np

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1


def _fold(parts) -> int:
    # FNV-1a over the stream path; stable across processes, unlike hash().
    h = _FNV_OFFSET
    for p in parts:
        h ^= int(p) & _MASK64
        h = (h * _FNV_PRIME) & _MASK64
    return h


def task_rng(seed: int, *stream: int) -> np.random.Generator:
    """Generator keyed by (global seed, folded stream path)."""
    key = np.array([int(seed) & _MASK64, _fold(stream)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


SNAP_GRID = 2**30


def sample_counts(p, shots, rngs) -> np.ndarray:
    """Multinomial histograms of shots draws from each distribution (row) of a trace p.

    Every sampled estimate draws through here.  p is (T, ..., K): the
    rows of point t, over the last axis, are drawn in one multinomial
    call on the Generator rngs[t], which consumes it exactly as drawing
    them one by one would; shots broadcasts over p.shape[:-1], and None
    (no budget) is refused.  NumPy's samplers branch on p (at 1/2, for
    one), so each row is first rounded onto multiples of 1 / SNAP_GRID,
    in integers summing to SNAP_GRID; the remainder goes to the row's
    largest level, which it cannot make negative.  A rounding-level
    change of p then moves a count only if it crosses a grid line.
    """
    if shots is None:
        raise ValueError("a sampled estimate needs a shot budget, got None")
    units = np.rint(np.asarray(p, dtype=float) * SNAP_GRID)  # integers, exact as floats
    largest = np.argmax(units, axis=-1)[..., None] == np.arange(units.shape[-1])
    units += largest * (SNAP_GRID - units.sum(axis=-1, keepdims=True))
    shots = np.broadcast_to(shots, units.shape[:-1])
    draws = zip(shots, units / SNAP_GRID, rngs, strict=True)
    return np.array([rng.multinomial(n, row) for n, row, rng in draws])
