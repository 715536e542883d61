"""The narrow interface a simplex method implements to run on the engine.

The engine owns the *lifecycle* — the phase-1/phase-2 driver, status
mapping, the phase-1 feasibility verdict, result assembly and observer
wiring (:func:`repro.engine.lifecycle.run_solve`).  A backend owns the
*method*: how state is prepared, how a phase's iteration loop prices,
ratio-tests and pivots, and how the optimal solution is read back.  The
nine simplex methods, the dual one included, share one loop over
placements (:mod:`repro.simplex.revised`); the first-order pair keeps its
own.

Lifecycle call order (see :func:`~repro.engine.lifecycle.run_solve`)::

    begin(problem, warm_hint)        # build state, settle the start
    run_phase(1)                     # iff self.needs_phase1
    phase1_objective()               #   on phase-1 optimality
    drive_out_artificials()          #   when feasible
    run_phase(2)
    timing(wall) / standard_extras / extract / finalize_timing
    cleanup()                        # always (finally)

The machine a method runs on is written here once, too.
:class:`HostBackend` is the modeled sequential CPU: the cost recorder, its
clock and ``timing``.  :class:`DeviceBackend` is the simulated GPU: the
``(options, device, gpu_params)`` constructor, the device preamble at the
start of ``begin`` (device, precision policy, launch plan, dtype-derived
tolerances), ``timing``, the device extras, ``finalize_timing`` and the
release of the device state.  A backend class names its machine by its
base class and keeps only its method.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.engine.registry import METHODS
from repro.errors import SolverError
from repro.gpu.device import Device
from repro.gpu.plan import LaunchPlan, PrecisionPolicy
from repro.perfmodel.cpu_model import CpuCostModel, CpuCostRecorder
from repro.perfmodel.presets import (
    CORE2_CPU_PARAMS,
    GTX280_PARAMS,
    CpuModelParams,
    GpuModelParams,
)
from repro.result import SolveResult, TimingStats
from repro.status import SolveStatus

if TYPE_CHECKING:  # avoids the repro.simplex package-import cycle
    from repro.simplex.common import PreparedLP
    from repro.simplex.options import SolverOptions


class SolverBackend:
    """Base class for engine backends (one per solve method).

    Subclasses must set the class attribute ``name`` and implement
    :meth:`begin`, :meth:`run_phase`, :meth:`timing` and :meth:`extract`;
    phase-1 capable backends also implement :meth:`phase1_objective` and
    :meth:`drive_out_artificials`.  ``begin`` must populate ``self.prep``,
    ``self.stats``, ``self.needs_phase1`` and ``self.phase1_feas_tol``.
    """

    name: str = "?"

    #: The ``SolverOptions.pricing`` rules the method accepts; ``None`` for
    #: methods that price no columns (first-order) and leave it unread.
    #: ``devex`` and ``steepest-edge`` need the updated tableau columns,
    #: which only the CPU ``tableau`` method carries.
    pricing_rules: "tuple[str, ...] | None" = ("dantzig", "bland", "hybrid")

    #: The ``SolverOptions.ratio_test`` values the method accepts; ``None``
    #: for methods without a ratio test.  The Harris two-pass test runs in
    #: the one-way ratio tests of the CPU ``tableau``, ``revised`` and
    #: ``revised-sparse`` methods only.
    ratio_tests: "tuple[str, ...] | None" = ("standard",)

    #: Whether ``solve(..., initial_basis_hint=...)`` is honored.  The
    #: engine rejects a hint passed to a backend that does not opt in, so a
    #: direct caller cannot have one silently ignored.
    accepts_warm_start: bool = False

    # Populated by the lifecycle before begin() runs.
    hooks = None

    # Populated by begin().
    prep: "PreparedLP"
    stats = None
    needs_phase1: bool = False
    phase1_feas_tol: float = 0.0

    # -- public entry ----------------------------------------------------

    def solve(self, problem, initial_basis_hint: "np.ndarray | None" = None):
        """Run the full engine lifecycle for this method."""
        from repro.engine.lifecycle import run_solve

        return run_solve(self, problem, warm_hint=initial_basis_hint)

    # -- lifecycle interface ---------------------------------------------

    def begin(self, problem, warm_hint) -> None:
        """Prepare all solver state up to the first phase iteration and
        settle the start, ``needs_phase1`` included."""
        raise NotImplementedError

    def run_phase(self, phase: int) -> "tuple[SolveStatus, int]":
        """Run one phase's iteration loop; returns (status, iterations)."""
        raise NotImplementedError

    def phase1_objective(self) -> float:
        """The phase-1 objective at phase-1 optimality (Σ artificials)."""
        raise NotImplementedError

    def drive_out_artificials(self) -> None:
        """Pivot zero-valued basic artificials out before phase 2."""
        raise NotImplementedError

    def timing(self, wall_seconds: float) -> TimingStats:
        """Assemble the modeled-time accounting for the finished solve."""
        raise NotImplementedError

    def standard_extras(self, result: SolveResult) -> None:
        """Attach method-specific ``result.extra`` entries (optional)."""

    def extract(self, result: SolveResult) -> None:
        """Populate x / objective / residuals / basis on OPTIMAL."""
        raise NotImplementedError

    def finalize_timing(self, result: SolveResult) -> None:
        """Last-moment timing resync (GPU solution download; optional)."""

    def cleanup(self) -> None:
        """Release per-solve resources; runs on every exit path."""


def _checked_options(
    backend: SolverBackend, options: "SolverOptions | None"
) -> "SolverOptions":
    """The options a backend runs with (defaults when ``None``), with its
    pricing rule and ratio test checked against
    :attr:`SolverBackend.pricing_rules` and :attr:`SolverBackend.ratio_tests`."""
    from repro.simplex.options import SolverOptions

    options = options or SolverOptions()
    rules = backend.pricing_rules
    if rules is not None and options.pricing not in rules:
        raise SolverError(
            f"{backend.name} does not accept pricing {options.pricing!r}: "
            "devex and steepest-edge need tableau columns, and only the "
            "'tableau' method accepts them"
        )
    tests = backend.ratio_tests
    if tests is not None and options.ratio_test not in tests:
        raise SolverError(
            f"{backend.name} does not accept ratio_test {options.ratio_test!r}: "
            "only the 'tableau', 'revised' and 'revised-sparse' methods "
            "run the Harris ratio test"
        )
    return options


class HostBackend(SolverBackend):
    """A method on the modeled sequential CPU: its machine time is what it
    charges to ``self.recorder``."""

    def __init__(
        self,
        options: "SolverOptions | None" = None,
        cpu_params: CpuModelParams = CORE2_CPU_PARAMS,
    ):
        self.options = _checked_options(self, options)
        self.recorder = CpuCostRecorder(
            CpuCostModel(cpu_params), dtype=self.options.dtype
        )

    def _start_machine(self) -> np.dtype:
        """Zero the clock for a new solve; returns the charged dtype."""
        self.recorder.reset()
        return np.dtype(self.options.dtype)

    def _arm(self, **meta) -> None:
        """Arm the observer hooks on the recorder's clock."""
        self.hooks.arm(
            clock=lambda: self.recorder.total_seconds,
            sections=lambda: self.recorder.by_op,
            meta={**meta, "dtype": np.dtype(self.options.dtype).name},
        )

    def timing(self, wall_seconds: float) -> TimingStats:
        return TimingStats(
            modeled_seconds=self.recorder.total_seconds,
            wall_seconds=wall_seconds,
            kernel_breakdown=dict(self.recorder.by_op),
        )


class DeviceBackend(SolverBackend):
    """A method on the simulated device.

    ``device`` is an external :class:`~repro.gpu.device.Device` to run on
    (shared by a batch); without one each solve creates its own from
    ``gpu_params``.  ``begin`` calls :meth:`_start_machine` first and keeps
    its device state in ``self._st`` (anything with ``free()``), which
    :meth:`cleanup` releases on every exit path.
    """

    def __init__(
        self,
        options: "SolverOptions | None" = None,
        device: Device | None = None,
        gpu_params: GpuModelParams = GTX280_PARAMS,
    ):
        self.options = _checked_options(self, options)
        self._external_device = device
        self._gpu_params = gpu_params
        self._st = None
        #: The device of the last solve (statistics inspection).
        self.device: Device | None = device

    def _start_machine(self) -> np.dtype:
        """The device preamble; returns the compute dtype.

        Takes the external device or creates one, zeroes its statistics,
        resolves the precision policy (rejecting ``precision="mixed"``
        for methods whose registry row does not support it), opens the
        launch plan and derives the dtype-dependent tolerances.
        """
        from repro.simplex.common import PHASE1_TOL

        opts = self.options
        dev = self._external_device or Device(self._gpu_params)
        self.device = self.dev = dev
        dev.reset_stats()
        self._policy = policy = PrecisionPolicy.from_options(opts)
        if policy.refine and not METHODS[self.name].supports_mixed_precision:
            raise SolverError(f"{self.name} does not support mixed precision")
        dtype = policy.compute_dtype
        self.plan = LaunchPlan(dev, fusion=opts.fusion, hooks=self.hooks)
        eps = float(np.finfo(dtype).eps)
        self._tol_rc = max(opts.tol_reduced_cost, 50 * eps)
        self._tol_piv = max(opts.tol_pivot, 50 * eps)
        self.phase1_feas_tol = max(PHASE1_TOL, 50 * eps)
        return dtype

    def _arm(self, **meta) -> None:
        """Arm the observer hooks on the device clock."""
        dev = self.dev
        self.hooks.arm(
            clock=lambda: dev.clock,
            sections=lambda: dev.stats.sections,
            meta={
                **meta,
                "dtype": self._policy.compute_dtype.name,
                "device": dev.params.name,
            },
        )

    def timing(self, wall_seconds: float) -> TimingStats:
        dev = self.dev
        breakdown = dict(dev.stats.sections)
        breakdown["transfer"] = dev.stats.transfer_seconds
        return TimingStats(
            modeled_seconds=dev.clock,
            wall_seconds=wall_seconds,
            transfer_seconds=dev.stats.transfer_seconds,
            kernel_breakdown=breakdown,
        )

    def standard_extras(self, result: SolveResult) -> None:
        """The device extras every device method reports; a backend adds
        its own after calling this."""
        dev = self.dev
        stats = dev.stats
        result.extra["device"] = dev.params.name
        result.extra["kernel_launches"] = stats.kernel_launches
        result.extra["kernel_bytes"] = sum(
            rec.bytes for rec in stats.by_kernel.values()
        )
        result.extra["by_kernel"] = stats.kernel_breakdown()
        result.extra["peak_device_bytes"] = stats.peak_bytes_in_use
        if self.options.fusion:
            result.extra["fused_launches"] = self.plan.fused_launches
            result.extra["fused_ops"] = self.plan.fused_ops
            result.extra["fusion_saved_seconds"] = self.plan.saved_seconds

    def finalize_timing(self, result: SolveResult) -> None:
        # the solution download in extract() advanced the clock; the
        # reported machine time must include it
        dev = self.dev
        result.timing.modeled_seconds = dev.clock
        result.timing.transfer_seconds = dev.stats.transfer_seconds
        result.timing.kernel_breakdown["transfer"] = dev.stats.transfer_seconds

    def cleanup(self) -> None:
        if self._st is not None:
            self._st.free()
            self._st = None


def attach_standard_solution(
    result: SolveResult, prep: "PreparedLP", basis: np.ndarray, beta: np.ndarray
) -> None:
    """The shared OPTIMAL extraction: solution, residuals, basis handles
    and the optimality certificate (used by every non-bounded backend)."""
    from repro.simplex.common import extract_solution

    x, objective, x_std = extract_solution(prep, basis, beta)
    result.x = x
    result.objective = objective
    result.residuals = SolveResult.compute_residuals(prep.std.a, prep.std.b, x_std)
    result.extra["basis"] = basis.copy()
    result.extra["x_std"] = x_std
    from repro.lp.postsolve import attach_certificate

    attach_certificate(result, prep)
