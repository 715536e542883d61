"""Restarted, preconditioned PDHG (PDLP-style), written once for both machines.

The first *non-simplex* method behind the engine: no phase 1, no basis,
no pivots — a primal-dual iterate pair driven by one SpMV and one SpMVᵀ
per iteration over the Ruiz/Pock–Chambolle-rescaled standard form

    min ĉᵀx̂   s.t.  Â x̂ = b̂,  x̂ ≥ 0

with the chambolle-pock extrapolated update::

    x̂⁺ = [x̂ − τ(ĉ − Âᵀŷ)]₊
    ŷ⁺ = ŷ + σ(b̂ − Â(2x̂⁺ − x̂))

Step sizes satisfy ``τσ‖Â‖² < 1`` (power-iteration estimate) split by the
adaptive primal weight ω (τ = η/ω, σ = ηω).  Restarts, termination and
status mapping are the shared logic of :mod:`repro.firstorder.pdhg`.

:class:`PdlpBackend` is that loop.  Where the vectors live is the only
thing the two registered methods differ in, and a placement from
:mod:`repro.firstorder.placement` owns it: ``pdlp`` (:class:`PdlpSolver`)
iterates on NumPy arrays charged to the CPU cost model, ``gpu-pdlp``
(:class:`GpuPdlpSolver`) on device-resident vectors moved by kernels.
CPU numerics are float64 (like every CPU backend; ``options.dtype`` sets
the arithmetic the cost model charges); the device computes in the
precision policy's dtype.  All instrumentation flows through the engine
observer hooks — this module imports neither ``repro.trace`` nor
``repro.metrics`` (``make lint``).
"""

from __future__ import annotations

import math

import numpy as np

from repro.engine import DeviceBackend, HostBackend, SolverBackend
from repro.firstorder.pdhg import (
    KktScore,
    PdhgControls,
    RestartController,
    attach_firstorder_solution,
    infeasibility_from_rays,
    relative_kkt,
    update_primal_weight,
)
from repro.firstorder.placement import DevicePlacement, HostPlacement
from repro.firstorder.rescale import RescaledLP, ruiz_rescale
from repro.lp.problem import LPProblem
from repro.lp.standard_form import StandardFormLP
from repro.result import IterationStats, SolveResult
from repro.simplex.common import as_sparse_prep, prepare
from repro.status import SolveStatus


class PdlpBackend(SolverBackend):
    """The PDHG method.  A subclass names its machine by its lifecycle
    base (:class:`~repro.engine.backend.HostBackend` or
    :class:`~repro.engine.backend.DeviceBackend`) and its placement by
    :meth:`_place`."""

    accepts_warm_start = False
    pricing_rules = None

    def _place(self, rescaled: RescaledLP, dtype: np.dtype):
        raise NotImplementedError

    # -- engine backend interface --------------------------------------

    def begin(self, problem: "LPProblem | StandardFormLP", warm_hint) -> None:
        opts = self.options
        self.prep = prep = as_sparse_prep(prepare(problem))
        dtype = self._start_machine()
        m, n = prep.m, prep.n_total
        self._controls = PdhgControls.from_options(opts, m, n)
        self._rescaled = ruiz_rescale(prep.a, prep.b, prep.c)
        self._st = place = self._place(self._rescaled, dtype)
        self.stats = IterationStats()
        self.needs_phase1 = False
        self._b_norm = float(np.linalg.norm(prep.b))
        self._c_norm = float(np.linalg.norm(prep.c))
        self._final_kkt: "KktScore | None" = None
        self._restarts = 0
        self._omega = 1.0
        self._arm(
            m=m, n=n, pricing="pdhg", nnz=prep.nnz, tol_kkt=self._controls.tol
        )
        with place.section("setup"):
            self._norm_a = place.norm_estimate()

    def run_phase(self, phase: int) -> tuple[SolveStatus, int]:
        place, ctl, prep = self._st, self._controls, self.prep
        eta = ctl.step_safety / self._norm_a
        omega = 1.0
        k_since = 0
        checks = 0
        restart_ctl = RestartController(ctl)
        with place.section("check"):
            best = self._score("cur")
        self._accept("cur", best)
        status = SolveStatus.ITERATION_LIMIT
        k = 0

        for k in range(1, ctl.max_iterations + 1):
            place.step(eta / omega, eta * omega)
            k_since += 1

            if k % ctl.check_every != 0 and k != ctl.max_iterations:
                continue
            checks += 1
            with place.section("check"):
                place.average(k_since)
                cand_avg = self._score("avg")
                cand_cur = self._score("cur")
            if math.isnan(cand_avg.score) or math.isnan(cand_cur.score):
                # a NaN score loses every comparison below: report it
                status = SolveStatus.NUMERICAL
                cand = cand_avg if math.isnan(cand_avg.score) else cand_cur
                break
            if cand_avg.score <= cand_cur.score:
                cand, which = cand_avg, "avg"
            else:
                cand, which = cand_cur, "cur"
            if cand.score < best.score:
                best = cand
                self._accept(which, cand)

            if cand.converged(ctl.tol):
                status = SolveStatus.OPTIMAL
                self._accept(which, cand)
                break

            if checks % ctl.ray_every == 0:
                # the Farkas test is host work on the prep-space rays
                with place.section("transfer"):
                    dx, dy = place.displacement(which)
                verdict = infeasibility_from_rays(prep.a, prep.b, prep.c, dx, dy)
                if verdict is not None:
                    status = verdict
                    break

            if restart_ctl.should_restart(cand.score, k_since):
                with place.section("restart"):
                    dx, dy = place.displacement(which)
                    omega = update_primal_weight(
                        omega,
                        float(np.linalg.norm(dx)),
                        float(np.linalg.norm(dy)),
                        ctl.weight_smoothing,
                    )
                    place.restart(which)
                k_since = 0
                restart_ctl.on_restart(cand.score)
                self._record_restart(k, cand)

        self._restarts = restart_ctl.restarts
        self._omega = omega
        if status is SolveStatus.ITERATION_LIMIT:
            # keep the best candidate visible in the trace even without a
            # terminal verdict (matches the simplex solvers, which emit no
            # record when the cap cuts a phase short)
            self._record_restart(k, best)
        else:
            self._record_restart(k, cand)
            self.hooks.record(
                phase=2, iteration=k, event=str(status),
                objective=cand.primal_objective, theta=cand.score,
                pricing_rule="pdhg",
            )
        return status, k

    def _score(self, which: str) -> KktScore:
        """Unscaled relative KKT score of a candidate."""
        rp, rd, pobj, dobj = self._st.residuals(which)
        return relative_kkt(rp, rd, pobj, dobj, self._b_norm, self._c_norm)

    def _accept(self, which: str, kkt: KktScore) -> None:
        self._st.accept(which)
        self._final_kkt = kkt

    def _record_restart(self, k: int, kkt: KktScore) -> None:
        """One per-restart trace record (the first-order analogue of a
        pivot; ``theta`` carries the candidate's relative KKT score)."""
        self.hooks.record(
            phase=2,
            iteration=k,
            event="restart",
            objective=kkt.primal_objective,
            theta=kkt.score,
            pricing_rule="pdhg",
        )

    # -- finish participation ------------------------------------------

    def standard_extras(self, result: SolveResult) -> None:
        super().standard_extras(result)
        result.extra["restarts"] = self._restarts
        result.extra["spmv_count"] = self._st.spmv_count
        result.extra["primal_weight"] = self._omega
        result.extra["norm_estimate"] = self._norm_a
        kkt = self._final_kkt
        if kkt is not None:
            result.extra["kkt_primal"] = kkt.primal
            result.extra["kkt_dual"] = kkt.dual
            result.extra["kkt_gap"] = kkt.gap
            result.extra["kkt_score"] = kkt.score

    def extract(self, result: SolveResult) -> None:
        x_hat, y_hat = self._st.solution()
        attach_firstorder_solution(result, self.prep, self._rescaled, x_hat, y_hat)


class PdlpSolver(PdlpBackend, HostBackend):
    """CPU PDLP: PDHG over NumPy/CSC data, priced by the CPU cost model."""

    name = "pdlp-cpu"

    def _place(self, rescaled: RescaledLP, dtype: np.dtype) -> HostPlacement:
        return HostPlacement(rescaled, self.recorder, dtype)


class GpuPdlpSolver(PdlpBackend, DeviceBackend):
    """GPU PDLP: PDHG over device CSC/CSR data, priced by the device model."""

    name = "gpu-pdlp"

    def _place(self, rescaled: RescaledLP, dtype: np.dtype) -> DevicePlacement:
        return DevicePlacement(rescaled, self.dev, self.plan, dtype)
