"""The default numpy/scipy backend — the bit-identical reference.

Every method is verbatim the numpy expression the engines used before the
backend shim existed, so selecting ``backend="numpy"`` (or selecting
nothing at all) reproduces the pre-shim trajectories bit for bit — the
seeded-determinism suite is the oracle for this claim.  ``asarray`` is a
no-copy passthrough and :meth:`NumpyBackend.csr` returns the scipy matrix
itself, so the shim adds no per-round overhead on the default path.
"""

from __future__ import annotations

import numpy as np

from repro.backend.base import ArrayBackend
from repro.chains.fastpaths import expand_neighbour_slots as _expand_slots

__all__ = ["NumpyBackend"]


class NumpyBackend(ArrayBackend):
    """Reference backend over numpy ndarrays and scipy CSR matrices."""

    name = "numpy"
    bitwise_reference = True

    # ------------------------------------------------------------------
    # construction and transfer
    # ------------------------------------------------------------------
    def asarray(self, x, dtype=None):
        return np.asarray(x, dtype=dtype)

    def to_numpy(self, x):
        return np.asarray(x)

    def astype(self, a, dtype):
        return np.asarray(a).astype(dtype)

    def zeros(self, shape, dtype=float):
        return np.zeros(shape, dtype=dtype)

    def ones(self, shape, dtype=float):
        return np.ones(shape, dtype=dtype)

    def arange(self, n):
        return np.arange(n)

    # ------------------------------------------------------------------
    # RNG bridge
    # ------------------------------------------------------------------
    def uniform_spins(self, rng, q, size, dtype):
        # int8 bounded-integer generation is measurably slower in numpy, so
        # sub-16-bit dtypes draw via int16 — part of the stream contract.
        dtype = np.dtype(dtype)
        if dtype.itemsize < 2:
            return rng.integers(0, q, size=size, dtype=np.int16).astype(dtype)
        return rng.integers(0, q, size=size, dtype=dtype)

    def random(self, rng, size):
        return rng.random(size)

    def random_f32(self, rng, size):
        return rng.random(size, dtype=np.float32)

    def integers(self, rng, high, size):
        return rng.integers(high, size=size)

    # ------------------------------------------------------------------
    # gathers, scatters and index plumbing
    # ------------------------------------------------------------------
    def take_rows(self, a, idx):
        return a[idx]

    def nonzero_pairs(self, mask):
        return np.nonzero(mask)

    def repeat(self, a, repeats):
        return np.repeat(a, repeats)

    def expand_neighbour_slots(self, vertices, degrees, indptr):
        return _expand_slots(vertices, degrees, indptr)

    # ------------------------------------------------------------------
    # sparse CSR
    # ------------------------------------------------------------------
    def csr(self, matrix):
        return matrix

    def spmm_int(self, handle, dense):
        return handle @ np.asarray(dense).astype(np.int64)

    def spmm_count(self, handle, mask):
        return handle @ mask.view(np.uint8)

    # ------------------------------------------------------------------
    # elementwise and reductions
    # ------------------------------------------------------------------
    def where(self, cond, a, b):
        return np.where(cond, a, b)

    def minimum(self, a, b):
        return np.minimum(a, b)

    def sum(self, a, axis=None):
        return np.sum(a, axis=axis)

    def cumsum(self, a, axis, dtype=None):
        if axis == 0 and a.ndim == 2 and 0 < 16 * a.shape[0] <= a.shape[1]:
            # np.cumsum over a short leading axis runs one tiny accumulate
            # per column; adding whole rows is up to ~40x faster on a wide
            # (q, pairs) table, with the same sums in the same order.
            out = np.empty(a.shape, dtype=np.cumsum(a[:1], axis=0, dtype=dtype).dtype)
            out[0] = a[0]
            for row in range(1, a.shape[0]):
                np.add(out[row - 1], a[row], out=out[row])
            return out
        return np.cumsum(a, axis=axis, dtype=dtype)

    def any(self, a) -> bool:
        return bool(np.any(a))

    def all(self, a) -> bool:
        return bool(np.all(a))

    def argmax(self, a) -> int:
        return int(np.argmax(a))

    def argmax_axis(self, a, axis):
        return np.argmax(a, axis=axis)

    def segment_prod(self, values, sizes):
        total = int(sizes.sum())
        out = np.ones((sizes.size,) + values.shape[1:], dtype=float)
        if total == 0 or sizes.size == 0:
            return out
        starts = np.cumsum(sizes) - sizes
        nonempty = sizes > 0
        out[nonempty] = np.multiply.reduceat(values, starts[nonempty], axis=0)
        return out
