"""Every device buffer is written before it is read.

The device methods allocate their work buffers uninitialised (no
zero-fill) and upload only real data, so a solve must never read a byte
it did not write.  This suite poisons every new allocation — all bits
set, which is NaN in fp32 and fp64 — and replays each device method on
the golden suite, with fusion off and on, in fp64 and fp32.  In fp64 the
status, objective and pivot sequence must equal the golden fixture; fp32
has no fixture cells, so a poisoned fp32 solve must equal the same solve
on zero-filled memory.
"""

from __future__ import annotations

import json
import os
import sys

import numpy as np
import pytest

from repro.gpu.device import Device
from repro.solve import available_methods, solve

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "tools"))

from gen_golden import FIXTURE, suite  # noqa: E402

DEVICE_METHODS = [m for m in available_methods() if m.startswith("gpu-")]

with open(FIXTURE) as fh:
    _GOLDEN = json.load(fh)["problems"]


def _alloc_filled(monkeypatch, byte: int) -> None:
    """Fill every new device allocation with ``byte``."""
    original = Device.alloc

    def alloc(self, shape, dtype=np.float32):
        arr = original(self, shape, dtype)
        arr.data.view(np.uint8).fill(byte)
        return arr

    monkeypatch.setattr(Device, "alloc", alloc)


def _outcomes(method: str, fusion: bool, dtype: str) -> list[tuple]:
    runs = []
    for lp in suite():
        result = solve(lp, method=method, dtype=np.dtype(dtype), fusion=fusion,
                       trace=True)
        pivots = [
            [rec.phase, rec.iteration, rec.event, rec.entering, rec.leaving_row]
            for rec in result.trace
        ]
        objective = float(result.objective).hex()
        runs.append((lp.name, result.status.value, objective, pivots))
    return runs


def test_poison_reads_as_nan(monkeypatch):
    _alloc_filled(monkeypatch, 0xFF)
    dev = Device()
    for dtype in (np.float32, np.float64):
        assert np.isnan(dev.alloc(3, dtype).data).all()
    region = dev.region({"v": ((4,), np.float64)})
    assert np.isnan(region["v"].data).all()


@pytest.mark.parametrize("fusion", [False, True])
@pytest.mark.parametrize("method", DEVICE_METHODS)
def test_fp64_poisoned_solves_match_golden(monkeypatch, method, fusion):
    _alloc_filled(monkeypatch, 0xFF)
    for name, status, objective, pivots in _outcomes(method, fusion, "float64"):
        cell = _GOLDEN[name][method]
        assert status == cell["status"], name
        assert objective == cell["objective"], name
        assert pivots == cell["pivots"], name


@pytest.mark.parametrize("fusion", [False, True])
@pytest.mark.parametrize("method", DEVICE_METHODS)
def test_fp32_poisoned_solves_match_zeroed(monkeypatch, method, fusion):
    _alloc_filled(monkeypatch, 0x00)
    zeroed = _outcomes(method, fusion, "float32")
    _alloc_filled(monkeypatch, 0xFF)
    poisoned = _outcomes(method, fusion, "float32")
    for (name, *want), (_, *got) in zip(zeroed, poisoned):
        assert got == want, name


@pytest.mark.parametrize("method,kw", [
    ("gpu-revised", {}),
    ("gpu-revised-bounded", {}),
    ("gpu-revised-sparse", {}),
    ("gpu-tableau", {}),
    ("gpu-revised", {"precision": "mixed"}),
])
def test_drive_out_and_refinement_read_no_poison(monkeypatch, method, kw):
    """The artificial drive-out (gpu-revised-sparse writes e_p on the
    device) and mixed-precision refinement, which the golden suite does
    not reach, read only what they wrote."""
    from test_drive_out import redundant_row_lp, zero_artificial_lp

    def outcomes():
        runs = []
        for lp in (redundant_row_lp(), zero_artificial_lp()):
            result = solve(lp, method=method, **kw)
            runs.append((result.status, float(result.objective).hex(),
                         result.x.tolist()))
        return runs

    _alloc_filled(monkeypatch, 0x00)
    zeroed = outcomes()
    _alloc_filled(monkeypatch, 0xFF)
    assert outcomes() == zeroed
