"""Optional torch (CPU/CUDA) implementation of the array-ops interface.

``torch`` is imported lazily at *construction* time: importing this module
costs nothing, and a torch-less machine fails with a clear
:class:`~repro.errors.BackendUnavailableError` when (and only when) a
torch backend is actually requested — before any sampling work starts.

Randomness still comes from the engine's numpy ``Generator`` through the
RNG bridge (draw on the host, transfer to the device), so the proposal
stream is identical to the numpy backend's and a torch run is exactly as
reproducible, seed for seed.  Floating-point reduction order differs from
numpy, so results are *distributionally* — not bitwise — equivalent;
:meth:`repro.spec.JobSpec.cache_key` accounts for that.

Sparse matmuls are implemented as explicit gather + ``index_add_``
scatters over the CSR coordinates in pure integer arithmetic, which keeps
the CSP flat-table indices exact (no float rounding) and avoids relying on
torch's sparse-tensor kernels.
"""

from __future__ import annotations

import numpy as np

from repro.backend.base import ArrayBackend
from repro.errors import BackendUnavailableError

__all__ = ["TorchBackend"]


class _TorchCSR:
    """COO-coordinate view of a scipy CSR matrix, resident on the device."""

    __slots__ = ("rows", "cols", "data", "nrows")

    def __init__(self, torch, matrix, device) -> None:
        coo = matrix.tocoo()
        self.nrows = int(matrix.shape[0])
        self.rows = torch.from_numpy(np.ascontiguousarray(coo.row, dtype=np.int64)).to(device)
        self.cols = torch.from_numpy(np.ascontiguousarray(coo.col, dtype=np.int64)).to(device)
        self.data = torch.from_numpy(np.ascontiguousarray(coo.data, dtype=np.int64)).to(device)


class TorchBackend(ArrayBackend):
    """Array backend over torch tensors on one device.

    Parameters
    ----------
    device:
        ``"cpu"``, ``"cuda"`` or ``None`` (CUDA when visible, else CPU).
    name:
        Registry name this instance was constructed under.
    """

    bitwise_reference = False

    def __init__(self, device: str | None = None, name: str = "torch") -> None:
        try:
            import torch
        except ImportError:
            raise BackendUnavailableError(
                f"backend {name!r} needs torch, which is not installed; "
                "pip install repro-local-sampling[gpu] (or torch CPU wheels) "
                "to enable it"
            ) from None
        if device is None:
            device = "cuda" if torch.cuda.is_available() else "cpu"
        if device.startswith("cuda") and not torch.cuda.is_available():
            raise BackendUnavailableError(
                f"backend {name!r} needs a CUDA device, but torch reports "
                "cuda.is_available() == False"
            )
        self.name = name
        self.torch = torch
        self.device = torch.device(device)
        self._dtype_map = {
            np.dtype(np.bool_): torch.bool,
            np.dtype(np.int8): torch.int8,
            np.dtype(np.int16): torch.int16,
            np.dtype(np.int32): torch.int32,
            np.dtype(np.int64): torch.int64,
            np.dtype(np.uint8): torch.uint8,
            np.dtype(np.float32): torch.float32,
            np.dtype(np.float64): torch.float64,
        }

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _torch_dtype(self, dtype):
        if dtype is None:
            return None
        if isinstance(dtype, self.torch.dtype):
            return dtype
        return self._dtype_map[np.dtype(dtype)]

    def _transfer(self, array: np.ndarray):
        return self.torch.from_numpy(np.ascontiguousarray(array)).to(self.device)

    # ------------------------------------------------------------------
    # construction and transfer
    # ------------------------------------------------------------------
    def asarray(self, x, dtype=None):
        wanted = self._torch_dtype(dtype)
        if isinstance(x, self.torch.Tensor):
            return x.to(self.device) if wanted is None else x.to(self.device, wanted)
        array = np.asarray(x) if dtype is None else np.asarray(x, dtype=np.dtype(dtype))
        return self._transfer(array)

    def to_numpy(self, x):
        if isinstance(x, self.torch.Tensor):
            return x.detach().cpu().numpy()
        return np.asarray(x)

    def copy(self, a):
        return a.clone()

    def astype(self, a, dtype):
        return a.to(self._torch_dtype(dtype))

    def zeros(self, shape, dtype=float):
        return self.torch.zeros(shape, dtype=self._torch_dtype(dtype), device=self.device)

    def ones(self, shape, dtype=float):
        return self.torch.ones(shape, dtype=self._torch_dtype(dtype), device=self.device)

    def arange(self, n):
        return self.torch.arange(n, dtype=self.torch.int64, device=self.device)

    # ------------------------------------------------------------------
    # RNG bridge: draw with the shared numpy Generator, ship to the device
    # ------------------------------------------------------------------
    def uniform_spins(self, rng, q, size, dtype):
        dtype = np.dtype(dtype)
        if dtype.itemsize < 2:
            draws = rng.integers(0, q, size=size, dtype=np.int16).astype(dtype)
        else:
            draws = rng.integers(0, q, size=size, dtype=dtype)
        return self._transfer(np.atleast_1d(draws))

    def random(self, rng, size):
        return self._transfer(np.atleast_1d(rng.random(size)))

    def random_f32(self, rng, size):
        return self._transfer(np.atleast_1d(rng.random(size, dtype=np.float32)))

    def integers(self, rng, high, size):
        return self._transfer(np.atleast_1d(rng.integers(high, size=size)))

    # ------------------------------------------------------------------
    # gathers, scatters and index plumbing
    # ------------------------------------------------------------------
    def take_rows(self, a, idx):
        return a[idx]

    def nonzero_pairs(self, mask):
        pairs = self.torch.nonzero(mask, as_tuple=True)
        return pairs[0], pairs[1]

    def nonzero1d(self, mask):
        return self.torch.nonzero(mask, as_tuple=True)[0]

    def repeat(self, a, repeats):
        return self.torch.repeat_interleave(a, repeats)

    def concatenate(self, parts):
        return self.torch.cat(tuple(parts))

    def bincount(self, x, minlength):
        return self.torch.bincount(x, minlength=minlength)

    def expand_neighbour_slots(self, vertices, degrees, indptr):
        torch = self.torch
        deg = degrees[vertices]
        pair_of_slot = torch.repeat_interleave(
            torch.arange(int(vertices.shape[0]), device=self.device), deg
        )
        csum = torch.cumsum(deg, 0)
        within = torch.arange(
            int(pair_of_slot.shape[0]), device=self.device
        ) - torch.repeat_interleave(csum - deg, deg)
        slots = torch.repeat_interleave(indptr[vertices], deg) + within
        return pair_of_slot, slots

    # ------------------------------------------------------------------
    # sparse CSR — explicit gather + index_add_ scatter, exact int math
    # ------------------------------------------------------------------
    def csr(self, matrix):
        return _TorchCSR(self.torch, matrix, self.device)

    def spmm_int(self, handle, dense):
        out = self.torch.zeros(
            (handle.nrows, int(dense.shape[1])),
            dtype=self.torch.int64,
            device=self.device,
        )
        if int(handle.rows.shape[0]):
            gathered = dense[handle.cols].to(self.torch.int64) * handle.data[:, None]
            out.index_add_(0, handle.rows, gathered)
        return out

    def spmm_count(self, handle, mask):
        return self.spmm_int(handle, mask)

    # ------------------------------------------------------------------
    # elementwise and reductions
    # ------------------------------------------------------------------
    def where(self, cond, a, b):
        return self.torch.where(cond, a, b)

    def clip(self, a, lo, hi):
        return self.torch.clamp(a, lo, hi)

    def minimum(self, a, b):
        return self.torch.minimum(a, b)

    def sum(self, a, axis=None):
        if a.dtype is self.torch.bool:
            a = a.to(self.torch.int64)
        return self.torch.sum(a) if axis is None else self.torch.sum(a, dim=axis)

    def cumsum(self, a, axis):
        return self.torch.cumsum(a, dim=axis)

    def any(self, a) -> bool:
        return bool(a.any())

    def all(self, a) -> bool:
        return bool(a.all())

    def argmax(self, a) -> int:
        return int(self.torch.argmax(a.to(self.torch.int64) if a.dtype is self.torch.bool else a))

    def argmax_axis(self, a, axis):
        if a.dtype is self.torch.bool:
            a = a.to(self.torch.int64)
        return self.torch.argmax(a, dim=axis)

    def segment_prod(self, values, sizes):
        torch = self.torch
        segments = int(sizes.size)
        width = tuple(values.shape[1:])
        out = torch.ones((segments,) + width, dtype=torch.float64, device=self.device)
        total = int(sizes.sum())
        if total == 0 or segments == 0:
            return out
        sizes_dev = self._transfer(np.ascontiguousarray(sizes, dtype=np.int64))
        segment_ids = torch.repeat_interleave(
            torch.arange(segments, device=self.device), sizes_dev
        )
        out.index_reduce_(0, segment_ids, values.to(torch.float64), "prod", include_self=True)
        return out
