"""Solver options shared by every simplex implementation in the library."""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.errors import SolverError

#: Pricing rules accepted by ``SolverOptions.pricing``.
PRICING_RULES = ("dantzig", "bland", "hybrid", "devex", "steepest-edge")

#: Ratio tests accepted by ``SolverOptions.ratio_test``.
RATIO_TESTS = ("standard", "harris")

#: Basis-update strategies of the revised solvers.
BASIS_UPDATES = ("explicit", "pfi", "lu", "sparse-lu")

#: Precision policies accepted by ``SolverOptions.precision``.
PRECISION_MODES = ("fp32", "fp64", "mixed")


@dataclasses.dataclass(frozen=True)
class SolverOptions:
    """Configuration knobs common to all solvers.

    Attributes
    ----------
    pricing:
        Entering-variable rule.  ``hybrid`` (the default: Dantzig with an
        automatic Bland fallback after ``stall_window`` iterations without
        objective progress, so it cannot cycle), ``dantzig`` (most negative
        reduced cost; cycles on degenerate LPs such as
        :func:`~repro.lp.generators.beale_cycling_lp`), ``bland`` (lowest
        index, anti-cycling), ``devex`` and ``steepest-edge`` (the CPU
        ``tableau`` method only — they need the updated column norms the
        tableau carries).
    ratio_test:
        ``standard`` (min ratio, lowest-index tie-break) or ``harris``
        (two-pass with feasibility tolerance; picks the largest pivot among
        near-minimal ratios for stability).
    basis_update:
        Revised solvers only: ``explicit`` keeps B⁻¹ explicitly and applies
        rank-1 eta updates (the paper's scheme); ``pfi`` keeps a product-form
        eta file over a refactorised base; ``lu`` refactorises into dense LU
        triangular factors; ``sparse-lu`` factorises the basis sparsely from
        its CSC columns with sparse eta updates (the default of the
        ``revised-sparse`` methods, which additionally refactorise early
        when fill-in grows).  The simplex multipliers π follow the
        representation: an explicit B⁻¹ updates π from its pre-pivot row
        and multiplies it fresh at a phase start, after a rebuild and
        before accepting a terminal verdict; the factored representations
        solve π at every pricing.
    max_iterations:
        Per-phase iteration cap; 0 means the dimension-derived default
        ``50 * (m + n)``.
    tol_reduced_cost / tol_pivot / tol_zero:
        Optimality, pivot-admissibility and round-to-zero tolerances.
    tol_kkt:
        First-order (``pdlp`` / ``gpu-pdlp``) termination tolerance: the
        solve stops when the relative primal residual, relative dual
        residual and relative duality gap all fall below it.  Simplex
        methods ignore it.  Floored by the arithmetic precision (a float32
        run cannot certify 1e-9 residuals).
    stall_window:
        Iterations (>= 1) without objective improvement before ``hybrid``
        pricing switches to Bland; five improving pivots switch it back
        (:class:`~repro.simplex.pricing.StallSwitch`, one rule for every
        simplex method).
    refactor_period:
        Revised solvers: rebuild the basis representation from the basis
        columns once this many basis updates have accumulated since the
        last rebuild (bound flips do not count; the count carries across
        the phase boundary); 0 disables.  Every revised method, boxed ones
        included, recomputes β from the rebuilt representation.
    scale:
        Apply geometric-mean scaling to the standard-form data.
    dtype:
        Arithmetic precision: float64 (CPU default) or float32 (the GPU's
        fast path; the F4 experiment flips this).
    fusion:
        Device methods lower each iteration's work through the
        :mod:`repro.gpu.plan` launch planner, fusing adjacent map/reduction
        kernels into single launches (on by default).  Modeled time drops
        (fewer launch overheads, shared operands fetched once); results are
        bit-identical to ``fusion=False``, the op-by-op ablation baseline,
        because a fused launch runs the same kernel bodies in the same
        order.  Host methods ignore it, just as simplex methods ignore
        ``tol_kkt``.
    precision:
        GPU precision policy overriding ``dtype``: ``"fp32"``/``"fp64"``
        force the device dtype, ``"mixed"`` runs the device compute in fp32
        and recovers fp64-grade solutions with iterative-refinement residual
        correction at extraction (supported by the dense GPU revised and
        tableau methods).  ``None`` (default) keeps ``dtype`` as-is.
    """

    pricing: str = "hybrid"
    ratio_test: str = "standard"
    basis_update: str = "explicit"
    max_iterations: int = 0
    tol_reduced_cost: float = 1e-9
    tol_pivot: float = 1e-9
    tol_zero: float = 1e-11
    tol_kkt: float = 1e-9
    stall_window: int = 40
    refactor_period: int = 100
    scale: bool = False
    dtype: type = np.float64
    fusion: bool = True
    precision: "str | None" = None
    #: Record a full per-iteration :class:`~repro.trace.SolveTrace` into
    #: ``result.trace`` (entering/leaving indices, pivot magnitude, step
    #: length, ratio-test ties, pricing rule, eta count, objective and
    #: per-section modeled seconds).  Off by default — traces are
    #: O(iterations) host memory — and tracing never perturbs results: with
    #: it on, statuses, objectives and modeled times are bit-identical.
    trace: bool = False

    def __post_init__(self) -> None:
        if self.pricing not in PRICING_RULES:
            raise SolverError(
                f"unknown pricing rule {self.pricing!r}; choose from {PRICING_RULES}"
            )
        if self.ratio_test not in RATIO_TESTS:
            raise SolverError(
                f"unknown ratio test {self.ratio_test!r}; choose from {RATIO_TESTS}"
            )
        if self.basis_update not in BASIS_UPDATES:
            raise SolverError(
                f"unknown basis update {self.basis_update!r}; choose from {BASIS_UPDATES}"
            )
        if self.max_iterations < 0:
            raise SolverError("max_iterations must be >= 0")
        if self.stall_window < 1:
            raise SolverError("stall_window must be >= 1")
        for name in ("tol_reduced_cost", "tol_pivot", "tol_zero", "tol_kkt"):
            if getattr(self, name) < 0:
                raise SolverError(f"{name} must be non-negative")
        if np.dtype(self.dtype) not in (np.dtype(np.float32), np.dtype(np.float64)):
            raise SolverError("dtype must be float32 or float64")
        if self.precision is not None and self.precision not in PRECISION_MODES:
            raise SolverError(
                f"unknown precision {self.precision!r}; choose from "
                f"{PRECISION_MODES} (or None to keep dtype)"
            )

    def replace(self, **overrides) -> "SolverOptions":
        """A copy with the given fields replaced (validates again)."""
        return dataclasses.replace(self, **overrides)

    def iteration_cap(self, m: int, n: int) -> int:
        """The effective per-phase iteration limit for an m×n problem."""
        if self.max_iterations > 0:
            return self.max_iterations
        return 50 * (m + n)
