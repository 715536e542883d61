"""Method-level logic shared by the CPU and GPU PDHG backends.

The two backends differ only in *where the vectors live* (NumPy arrays
charged to the CPU cost model vs device arrays moved by kernels).  What
they must never differ in is the *decision logic*: when to restart, how
the primal weight evolves, when a candidate terminates, and how a
scaled-space candidate is mapped back onto the :class:`~repro.result.SolveResult`
surface.  That logic lives here, once.

Termination follows PDLP's relative KKT criterion on the prepared
(standard-form) data::

    rp  = ‖Ax − b‖₂ / (1 + ‖b‖₂)                  (primal residual)
    rd  = ‖[Aᵀy − c]₊‖₂ / (1 + ‖c‖₂)              (dual residual)
    gap = |cᵀx − bᵀy| / (1 + |cᵀx| + |bᵀy|)       (duality gap)

and the restart rule is normalized-gap decay: every ``check_every``
iterations the averaged and the current iterate are both scored; the
better candidate triggers a restart when its score has decayed below
``beta_sufficient`` times the score at the previous restart, and a long
epoch forces an "artificial" restart so the average cannot go stale.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from repro.result import SolveResult
from repro.simplex.options import SolverOptions
from repro.status import SolveStatus


@dataclasses.dataclass
class PdhgControls:
    """Resolved iteration controls for one PDHG solve."""

    tol: float
    max_iterations: int
    check_every: int = 64
    beta_sufficient: float = 0.2
    artificial_restart: int = 4096
    #: step-size safety factor: τσ‖Â‖² = step_safety² < 1
    step_safety: float = 0.9
    #: primal-weight smoothing exponent (PDLP's θ)
    weight_smoothing: float = 0.5
    #: run the Farkas-ray infeasibility test every this many checks
    ray_every: int = 4

    @classmethod
    def from_options(cls, options: SolverOptions, m: int, n: int) -> "PdhgControls":
        eps = float(np.finfo(np.dtype(options.dtype)).eps)
        tol = max(options.tol_kkt, 1e3 * eps)
        if options.max_iterations > 0:
            cap = options.max_iterations
        else:
            # first-order iterations are far cheaper than pivots; the
            # default budget is correspondingly larger than the simplex cap
            cap = max(20_000, 100 * (m + n))
        return cls(tol=tol, max_iterations=cap)


@dataclasses.dataclass
class KktScore:
    """Relative KKT residuals of one candidate and its objectives."""

    primal: float
    dual: float
    gap: float
    primal_objective: float
    dual_objective: float

    @property
    def score(self) -> float:
        """The largest relative residual; NaN when any of them is NaN
        (``max`` alone would drop a NaN that is not its first argument)."""
        parts = (self.primal, self.dual, self.gap)
        return math.nan if any(map(math.isnan, parts)) else max(parts)

    def converged(self, tol: float) -> bool:
        return self.score <= tol


def relative_kkt(
    rp_norm: float,
    rd_norm: float,
    pobj: float,
    dobj: float,
    b_norm: float,
    c_norm: float,
) -> KktScore:
    """Assemble the relative KKT score from raw residual norms/objectives."""
    return KktScore(
        primal=rp_norm / (1.0 + b_norm),
        dual=rd_norm / (1.0 + c_norm),
        gap=abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj)),
        primal_objective=pobj,
        dual_objective=dobj,
    )


class RestartController:
    """Normalized-gap restart bookkeeping shared by both backends."""

    def __init__(self, controls: PdhgControls):
        self.controls = controls
        self.last_score = math.inf
        self.restarts = 0

    def should_restart(self, candidate_score: float, iters_since: int) -> bool:
        if iters_since < 1:
            return False
        if candidate_score <= self.controls.beta_sufficient * self.last_score:
            return True
        return iters_since >= self.controls.artificial_restart

    def on_restart(self, candidate_score: float) -> None:
        self.last_score = candidate_score
        self.restarts += 1


def update_primal_weight(
    omega: float, dx_norm: float, dy_norm: float, smoothing: float = 0.5
) -> float:
    """PDLP's primal-weight update at a restart: pull ω toward the observed
    ‖Δy‖/‖Δx‖ ratio in log space; degenerate movements leave ω alone."""
    if not (dx_norm > 0.0 and dy_norm > 0.0):
        return omega
    if not (math.isfinite(dx_norm) and math.isfinite(dy_norm)):
        return omega
    log_w = smoothing * math.log(dy_norm / dx_norm) + (1.0 - smoothing) * math.log(
        omega
    )
    # clamp: a wildly lopsided epoch must not destroy the step sizes
    return float(min(max(math.exp(log_w), 1e-6), 1e6))


def infeasibility_from_rays(
    a,
    b: np.ndarray,
    c: np.ndarray,
    dx: np.ndarray,
    dy: np.ndarray,
    *,
    ray_tol: float = 1e-9,
) -> "SolveStatus | None":
    """Farkas-certificate test on the iterate displacement rays.

    For ``min cᵀx, Ax = b, x ≥ 0``: a dual ray ``Aᵀdy ≤ 0, bᵀdy > 0``
    certifies primal infeasibility; a primal ray ``dx ≥ 0, A dx = 0,
    cᵀdx < 0`` certifies unboundedness.  Tolerances are strict — a noise
    direction on a solvable instance does not satisfy them; a genuinely
    divergent PDHG run produces rays that do.
    """
    dy_norm = float(np.linalg.norm(dy))
    if dy_norm > 0.0 and np.isfinite(dy_norm):
        ray = dy / dy_norm
        viol = float(np.linalg.norm(np.maximum(a.rmatvec(ray), 0.0)))
        gain = float(b @ ray)
        if viol <= ray_tol and gain > ray_tol * (1.0 + float(np.linalg.norm(b))):
            return SolveStatus.INFEASIBLE
    dx_norm = float(np.linalg.norm(dx))
    if dx_norm > 0.0 and np.isfinite(dx_norm):
        ray = dx / dx_norm
        if float(ray.min()) >= -ray_tol:
            ray = np.maximum(ray, 0.0)
            drift = float(np.linalg.norm(a.matvec(ray)))
            descent = float(c @ ray)
            if drift <= ray_tol and descent < -ray_tol * (
                1.0 + float(np.linalg.norm(c))
            ):
                return SolveStatus.UNBOUNDED
    return None


def attach_firstorder_solution(
    result: SolveResult,
    prep,
    rescaled,
    x_hat: np.ndarray,
    y_hat: np.ndarray,
) -> None:
    """Populate the OPTIMAL result surface from a scaled-space candidate.

    The first-order methods have no basis, so this is the basis-free
    sibling of :func:`repro.engine.backend.attach_standard_solution`:
    unscale through the PDHG preconditioner (and the optional
    geometric-mean scaling of ``prepare``), recover the original-space
    point and duals, and recompute the objective from unscaled data.
    """
    x_prep = np.asarray(x_hat, dtype=np.float64) * rescaled.col_scale
    y_prep = np.asarray(y_hat, dtype=np.float64) * rescaled.row_scale
    if prep.scaling is not None:
        x_std = prep.scaling.unscale_x(x_prep)
        y_std = prep.scaling.unscale_duals(y_prep)
    else:
        x_std, y_std = x_prep, y_prep
    x_std = np.maximum(x_std, 0.0)
    z_std = float(prep.std.c @ x_std)
    result.objective = prep.std.original_objective(z_std)
    result.x = prep.std.recover_x(x_std)
    result.residuals = SolveResult.compute_residuals(prep.std.a, prep.std.b, x_std)
    result.extra["x_std"] = x_std
    result.extra["y_std"] = y_std
    result.extra["duals"] = prep.std.recover_duals(y_std)
