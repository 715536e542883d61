"""Device-resident arrays, regions and host↔device transfers.

A :class:`DeviceArray` wraps a NumPy backing store that plays the role of
device global memory.  The intent of the CUDA address-space split is
enforced at the API level: host code may only move data with the explicit
transfer methods (each charged PCIe time by the cost model), while kernels —
and only kernels — touch ``.data`` directly.

A :class:`DeviceRegion` is how host data is placed: one allocation holding
several named buffers back to back, filled by one HtoD copy per contiguous
run of its buffers.  :meth:`Device.to_device` is its one-buffer case.

Every dense matrix records, where it is placed, the order its elements
sit in global memory: :data:`ROW_MAJOR` (the default) or
:data:`COLUMN_MAJOR`; every array records its byte offset in its
allocation.  A region aligns each buffer to its item size, and with
``aligned`` each matrix to a memory segment; a buffer behind an
odd-length one otherwise starts within a segment.  Kernels charge the
memory transactions that layout and offset make their thread mapping
touch (:mod:`repro.gpu.transactions`); the NumPy backing store keeps the
host's row-major order whatever the layout, so a kernel body computes
the same bits under either.

The class deliberately implements **no arithmetic operators**: as on a real
GPU, you cannot add two device pointers from the host; you launch a kernel
(see :mod:`repro.gpu.blas`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Collection, Mapping

import numpy as np

from repro.errors import DeviceArrayError

if TYPE_CHECKING:  # pragma: no cover
    from repro.gpu.device import Device

#: Element orders of a dense device matrix.
ROW_MAJOR = "row-major"
COLUMN_MAJOR = "column-major"


class DeviceArray:
    """An array living in the simulated device's global memory.

    Create through :meth:`Device.alloc`, :meth:`Device.zeros`,
    :meth:`Device.to_device` or :meth:`Device.region`; never construct
    directly in user code.  ``region`` is the :class:`DeviceRegion` the
    array is a view of, if any; ``layout`` is the element order of a
    matrix in device memory; ``offset`` is the array's byte offset in its
    allocation, whose start (``cudaMalloc``'s) lies on a segment boundary.
    """

    __slots__ = ("device", "_data", "_freed", "region", "layout", "offset")

    def __init__(self, device: "Device", data: np.ndarray,
                 region: "DeviceRegion | None" = None,
                 layout: str = ROW_MAJOR, offset: int = 0):
        self.device = device
        self._data = data
        self._freed = False
        self.region = region
        self.layout = layout
        self.offset = offset

    # -- structural properties --------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self._data.shape

    @property
    def dtype(self) -> np.dtype:
        return self._data.dtype

    @property
    def size(self) -> int:
        return self._data.size

    @property
    def ndim(self) -> int:
        return self._data.ndim

    @property
    def nbytes(self) -> int:
        return self._data.nbytes

    @property
    def itemsize(self) -> int:
        return self._data.dtype.itemsize

    @property
    def steps(self) -> tuple[int, int]:
        """Bytes between neighbouring elements of a matrix in device
        memory, down a column and along a row: ``(n·w, w)`` row-major,
        ``(w, m·w)`` column-major."""
        m, n = self.shape
        w = self.itemsize
        return (n * w, w) if self.layout == ROW_MAJOR else (w, m * w)

    # -- device-side access (kernels only) ---------------------------------

    @property
    def data(self) -> np.ndarray:
        """The device-resident backing store.

        Only kernel bodies (functions passed to :meth:`Device.launch`) and
        the transfer methods may touch this; host code reading it directly
        is the simulation-world equivalent of dereferencing a device pointer
        on the host.
        """
        self._check_live()
        return self._data

    def _check_live(self) -> None:
        if self._freed:
            raise DeviceArrayError("use of freed device array")

    # -- lifetime -----------------------------------------------------------

    def free(self) -> None:
        """Release the allocation (``cudaFree``); idempotent is an error.
        A view of a region releases the whole region."""
        self._check_live()
        if self.region is not None:
            self.region.free()
            return
        self.device._release(self.nbytes)
        self._retire()

    def _retire(self) -> None:
        self._freed = True
        self._data = np.empty(0, dtype=self._data.dtype)

    @property
    def is_freed(self) -> bool:
        return self._freed

    # -- transfers -----------------------------------------------------------

    def copy_from_host(self, host: np.ndarray) -> float:
        """HtoD ``cudaMemcpy``; returns modeled transfer seconds."""
        self._check_live()
        host = np.asarray(host, dtype=self.dtype)
        if host.shape != self.shape:
            raise DeviceArrayError(
                f"HtoD shape mismatch: host {host.shape} vs device {self.shape}"
            )
        self._data[...] = host
        return self.device._record_transfer("htod", self.nbytes)

    def copy_to_host(self, out: np.ndarray | None = None) -> np.ndarray:
        """DtoH ``cudaMemcpy``; returns a host copy of the array."""
        self._check_live()
        if out is not None:
            if out.shape != self.shape or out.dtype != self.dtype:
                raise DeviceArrayError("DtoH output buffer mismatch")
            out[...] = self._data
            result = out
        else:
            result = self._data.copy()
        self.device._record_transfer("dtoh", self.nbytes)
        return result

    def head_to_host(self, count: int) -> np.ndarray:
        """DtoH ``cudaMemcpy`` of the first ``count`` entries along the
        leading axis (the first rows of a matrix); returns a host copy."""
        self._check_live()
        head = self._data[:count].copy()
        self.device._record_transfer("dtoh", head.nbytes)
        return head

    def set_scalar(self, index: int | tuple[int, ...], value: float) -> None:
        """Write one element from the host (latency-dominated 4/8-byte HtoD).

        The GPU simplex backends avoid it in their pivot loops: the update
        launch forms each pivot's stores on the device, from the decision
        the ratio test left there (:class:`repro.gpu.reduce.Slot`).
        """
        self._check_live()
        self._data[index] = value
        self.device._record_transfer("htod", self.itemsize)

    def scalar_to_host(self, index: int | tuple[int, ...] = 0) -> float:
        """Read one element back to the host (latency-dominated 4/8-byte DtoH).

        The per-iteration scalar reads (chosen pivot column/row, objective
        value) are a real cost of GPU simplex implementations; they are
        charged PCIe latency here just as on hardware.
        """
        self._check_live()
        value = self._data[index]
        self.device._record_transfer("dtoh", self.itemsize)
        return value.item() if hasattr(value, "item") else value

    # -- misc -----------------------------------------------------------------

    def __len__(self) -> int:
        return self.shape[0] if self.ndim else 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "freed" if self._freed else "live"
        return f"<DeviceArray {self.shape} {self.dtype} {state}>"


class DeviceRegion:
    """One device allocation holding several named buffers back to back.

    Each buffer is a typed :class:`DeviceArray` view whose offset is a
    multiple of its item size, in the order ``layout`` names them; the
    matrices named in ``column_major`` are placed column-major.  With
    ``aligned`` every matrix starts on a memory segment
    (``transaction_bytes``), where a ``cudaMalloc``'d matrix starts, so
    the runs along its lines do not straddle segments.  One
    :meth:`fill` writes any contiguous run of buffers with one HtoD copy
    (:meth:`DeviceArray.copy_from_host` of the bytes the run spans: its
    buffers and the alignment padding between them), so a solve's start-up
    data crosses PCIe in one transfer instead of one per buffer.  Buffers a fill
    does not cover stay uninitialised (``cudaMalloc`` semantics).  Freeing
    the region, or any of its views, releases the one allocation.

    Create through :meth:`Device.region` or :meth:`Device.place`.
    """

    __slots__ = ("device", "_raw", "_views", "_offsets", "_names")

    def __init__(self, device: "Device",
                 layout: Mapping[str, tuple[tuple[int, ...], np.dtype]],
                 column_major: Collection[str] = (), aligned: bool = False):
        unknown = set(column_major) - set(layout)
        if unknown:
            raise DeviceArrayError(
                f"no buffers {sorted(unknown)} to place column-major"
            )
        if any(len(layout[name][0]) != 2 for name in column_major):
            raise DeviceArrayError("only a matrix can be column-major")
        segment = device.params.transaction_bytes
        placed, end = [], 0
        for name, (shape, dtype) in layout.items():
            dtype = np.dtype(dtype)
            if dtype == np.float16 or not np.issubdtype(dtype, np.number):
                raise TypeError(f"unsupported device dtype {dtype}")
            matrix = aligned and len(shape) == 2
            end += -end % (segment if matrix else dtype.itemsize)
            size = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
            placed.append((name, shape, dtype, end, size))
            end += size
        self.device = device
        self._raw = device.alloc(max(1, end), np.uint8)
        raw = self._raw.data
        self._views = {
            name: DeviceArray(
                device, raw[at: at + size].view(dtype).reshape(shape), self,
                COLUMN_MAJOR if name in column_major else ROW_MAJOR, at,
            )
            for name, shape, dtype, at, size in placed
        }
        self._offsets = {name: at for name, _s, _d, at, _z in placed}
        self._names = list(layout)

    def __getitem__(self, name: str) -> DeviceArray:
        return self._views[name]

    def __contains__(self, name: str) -> bool:
        return name in self._views

    @property
    def nbytes(self) -> int:
        """Bytes of the one allocation (buffers plus alignment padding)."""
        return self._raw.nbytes

    def fill(self, hosts: Mapping[str, np.ndarray]) -> float:
        """One HtoD copy of ``hosts`` into the buffers of the same names,
        which must be one contiguous run of this region; returns modeled
        transfer seconds."""
        self._raw._check_live()
        at = sorted(self._names.index(name) for name in hosts)
        if not at or at != list(range(at[0], at[0] + len(at))):
            raise DeviceArrayError(
                f"grouped copy into {sorted(hosts)} is not one contiguous "
                "run of its region"
            )
        first, last = self._names[at[0]], self._names[at[-1]]
        lo = self._offsets[first]
        hi = self._offsets[last] + self._views[last].nbytes
        staging = np.zeros(hi - lo, dtype=np.uint8)
        for name, host in hosts.items():
            view = self._views[name]
            host = np.asarray(host, dtype=view.dtype)
            if host.shape != view.shape:
                raise DeviceArrayError(
                    f"HtoD shape mismatch: host {host.shape} vs device "
                    f"{view.shape} for {name!r}"
                )
            start = self._offsets[name] - lo
            staging[start: start + view.nbytes].view(view.dtype)[:] = host.ravel()
        span = DeviceArray(self.device, self._raw.data[lo:hi], self, offset=lo)
        return span.copy_from_host(staging)

    def free(self) -> None:
        """Release the one allocation (``cudaFree``); every view dies."""
        self._raw.free()
        for view in self._views.values():
            view._retire()

    @property
    def is_freed(self) -> bool:
        return self._raw.is_freed
