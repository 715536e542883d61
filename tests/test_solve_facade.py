"""Tests for the top-level solve() façade and package exports."""

import numpy as np
import pytest

import repro
from conftest import TEXTBOOK_OPTIMUM
from repro import LPProblem, SolveStatus, available_methods, solve
from repro.errors import UnknownMethodError
from repro.simplex.options import SolverOptions


class TestDispatch:
    @pytest.mark.parametrize(
        "method",
        ["tableau", "revised", "revised-sparse",
         "gpu-revised", "gpu-revised-sparse", "gpu-tableau"],
    )
    def test_all_methods_reachable(self, method, textbook_lp):
        r = solve(textbook_lp, method=method)
        assert r.status is SolveStatus.OPTIMAL
        assert r.objective == pytest.approx(TEXTBOOK_OPTIMUM)

    def test_available_methods(self):
        assert set(available_methods()) == {
            "tableau", "revised", "revised-sparse", "dual",
            "gpu-revised", "gpu-revised-sparse",
            "gpu-tableau", "pdlp", "gpu-pdlp",
        }

    @pytest.mark.parametrize("method", ["revised-bounded", "gpu-revised-bounded"])
    def test_bounded_method_names_are_gone(self, method, textbook_lp):
        # the bounds follow the data: no method name chooses them
        with pytest.raises(UnknownMethodError):
            solve(textbook_lp, method=method)

    def test_docstring_lists_every_method(self):
        # Regression: the module docstring advertised 5 of the 7 registered
        # methods ("dual" and "gpu-revised-bounded" were missing).  Tie the
        # docstring to the registry so it cannot drift again.
        import importlib

        solve_mod = importlib.import_module("repro.solve")
        doc = solve_mod.__doc__
        assert doc is not None
        for name in solve_mod._METHODS:
            assert f'"{name}"' in doc, (
                f"method {name!r} is registered in _METHODS but not described "
                "in the repro.solve module docstring"
            )

    def test_unknown_method(self, textbook_lp):
        with pytest.raises(UnknownMethodError):
            solve(textbook_lp, method="quantum")

    def test_non_problem_rejected(self):
        with pytest.raises(TypeError):
            solve("not an lp")  # type: ignore[arg-type]

    def test_option_overrides(self, textbook_lp):
        r = solve(textbook_lp, method="revised", pricing="bland", max_iterations=500)
        assert r.objective == pytest.approx(TEXTBOOK_OPTIMUM)

    def test_options_object_plus_overrides(self, textbook_lp):
        opts = SolverOptions(pricing="bland")
        r = solve(textbook_lp, method="revised", options=opts, pricing="dantzig")
        assert r.objective == pytest.approx(TEXTBOOK_OPTIMUM)

    def test_invalid_override_rejected(self, textbook_lp):
        from repro.errors import SolverError

        with pytest.raises(SolverError):
            solve(textbook_lp, method="revised", pricing="nope")


class TestMethodRegistry:
    """The declarative method table (repro.engine.registry) drives dispatch."""

    def test_facade_dispatches_from_registry(self):
        import importlib

        from repro.engine.registry import METHODS

        solve_mod = importlib.import_module("repro.solve")
        assert solve_mod._METHODS is METHODS

    def test_registry_flags_match_backend_capabilities(self):
        # A spec's supports_warm_start flag must agree with what the
        # constructed backend actually accepts — the registry is a claim,
        # the backend class attribute is the implementation.
        from repro.engine import SolverBackend
        from repro.engine.registry import METHODS

        for name, spec in METHODS.items():
            backend = spec.factory(SolverOptions(), None)
            assert isinstance(backend, SolverBackend), name
            assert backend.accepts_warm_start == spec.supports_warm_start, name

    def test_registry_capability_sets(self):
        from repro.engine.registry import device_methods, warm_start_methods

        assert device_methods() == {
            "gpu-revised", "gpu-revised-sparse", "gpu-tableau", "gpu-pdlp",
        }
        assert warm_start_methods() == {
            "revised", "revised-sparse", "dual",
            "gpu-revised", "gpu-revised-sparse",
        }

    def test_batch_sets_derive_from_registry(self):
        from repro.batch import GPU_METHODS, WARM_START_METHODS
        from repro.engine.registry import device_methods, warm_start_methods

        assert GPU_METHODS == device_methods()
        assert WARM_START_METHODS == warm_start_methods()

    @pytest.mark.parametrize("method", ["tableau", "gpu-tableau", "pdlp", "gpu-pdlp"])
    def test_uniform_warm_start_rejection(self, method, textbook_lp):
        from repro.errors import SolverError

        with pytest.raises(SolverError, match="does not support warm start"):
            solve(textbook_lp, method=method, initial_basis=np.arange(3))

    @pytest.mark.parametrize(
        "method", ["tableau", "revised", "revised-sparse", "dual", "pdlp"]
    )
    def test_uniform_device_rejection(self, method, textbook_lp):
        from repro.errors import SolverError
        from repro.gpu.device import Device
        from repro.perfmodel.presets import GTX280_PARAMS

        with pytest.raises(SolverError, match="runs on the host"):
            solve(textbook_lp, method=method, device=Device(GTX280_PARAMS))

    def test_direct_backend_call_rejects_unsupported_hint(self, textbook_lp):
        # Bypassing the façade must not bypass the capability check: the
        # engine lifecycle enforces accepts_warm_start itself.
        from repro.errors import SolverError
        from repro.simplex.tableau import TableauSimplexSolver

        with pytest.raises(SolverError, match="initial basis hint"):
            TableauSimplexSolver(SolverOptions()).solve(
                textbook_lp, initial_basis_hint=np.arange(3)
            )


class TestPackageSurface:
    def test_version(self):
        assert repro.__version__

    def test_exports(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_quickstart_docstring_example(self):
        lp = LPProblem.minimize(
            c=[-3.0, -5.0],
            a_ub=[[1.0, 0.0], [0.0, 2.0], [3.0, 2.0]],
            b_ub=[4.0, 12.0, 18.0],
        )
        result = solve(lp, method="gpu-revised")
        assert result.status is SolveStatus.OPTIMAL
        assert result.objective == pytest.approx(-36.0)

    def test_status_helpers(self):
        assert SolveStatus.OPTIMAL.is_terminal_success
        assert SolveStatus.INFEASIBLE.is_terminal_success
        assert not SolveStatus.ITERATION_LIMIT.is_terminal_success
        assert str(SolveStatus.UNBOUNDED) == "unbounded"


class TestResultHelpers:
    def test_residual_computation(self):
        from repro.result import SolveResult

        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        b = np.array([5.0, 11.0])
        x = np.array([1.0, 2.0])
        res = SolveResult.compute_residuals(a, b, x)
        assert res["primal_infeasibility"] == pytest.approx(0.0)

    def test_residual_with_bounds(self):
        from repro.result import SolveResult

        res = SolveResult.compute_residuals(
            np.zeros((0, 2)), np.zeros(0), np.array([-1.0, 5.0]),
            lower=np.array([0.0, 0.0]), upper=np.array([np.inf, 4.0]),
        )
        assert res["bound_infeasibility"] == pytest.approx(1.0)

    def test_breakdown_fractions(self):
        from repro.result import TimingStats

        t = TimingStats(kernel_breakdown={"a": 3.0, "b": 1.0})
        f = t.breakdown_fractions()
        assert f["a"] == pytest.approx(0.75)
        assert f["b"] == pytest.approx(0.25)

    def test_breakdown_fractions_empty(self):
        from repro.result import TimingStats

        assert TimingStats(kernel_breakdown={"a": 0.0}).breakdown_fractions() == {"a": 0.0}

    def test_merge_kernel_breakdowns(self):
        from repro.result import merge_kernel_breakdowns

        merged = merge_kernel_breakdowns({"a": 1.0}, {"a": 2.0, "b": 3.0})
        assert merged == {"a": 3.0, "b": 3.0}
