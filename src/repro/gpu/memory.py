"""Device-resident arrays and host↔device transfers.

A :class:`DeviceArray` wraps a NumPy backing store that plays the role of
device global memory.  The intent of the CUDA address-space split is
enforced at the API level: host code may only move data with the explicit
transfer methods (each charged PCIe time by the cost model), while kernels —
and only kernels — touch ``.data`` directly.

The class deliberately implements **no arithmetic operators**: as on a real
GPU, you cannot add two device pointers from the host; you launch a kernel
(see :mod:`repro.gpu.blas`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.errors import DeviceArrayError

if TYPE_CHECKING:  # pragma: no cover
    from repro.gpu.device import Device


class DeviceArray:
    """An array living in the simulated device's global memory.

    Create through :meth:`Device.alloc`, :meth:`Device.zeros` or
    :meth:`Device.to_device`; never construct directly in user code.
    """

    __slots__ = ("device", "_data", "_freed")

    def __init__(self, device: "Device", data: np.ndarray):
        self.device = device
        self._data = data
        self._freed = False

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
        """Release the allocation (``cudaFree``); idempotent is an error."""
        self._check_live()
        self.device._release(self.nbytes)
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

    def set_scalar(self, index: int | tuple[int, ...], value: float) -> None:
        """Write one element from the host (latency-dominated 4/8-byte HtoD).

        The GPU simplex backends avoid it in their pivot loops: their
        per-pivot metadata stores travel as kernel parameters instead
        (:class:`repro.core.gpu_kernels.ScalarStores`).
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
