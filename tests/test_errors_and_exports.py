"""Error-hierarchy contracts and public-surface exports."""

import pytest

import repro.errors as E


class TestHierarchy:
    @pytest.mark.parametrize("exc", [
        E.DeviceError, E.DeviceMemoryError, E.InvalidLaunchError,
        E.DeviceArrayError, E.LPError, E.LPDimensionError, E.LPFormatError,
        E.LPBoundsError, E.SparseFormatError, E.SolverError,
        E.SingularBasisError, E.UnknownMethodError,
    ])
    def test_all_derive_from_repro_error(self, exc):
        assert issubclass(exc, E.ReproError)
        assert issubclass(exc, Exception)

    def test_device_branch(self):
        assert issubclass(E.DeviceMemoryError, E.DeviceError)
        assert issubclass(E.InvalidLaunchError, E.DeviceError)
        assert issubclass(E.DeviceArrayError, E.DeviceError)

    def test_lp_branch(self):
        for exc in (E.LPDimensionError, E.LPFormatError, E.LPBoundsError):
            assert issubclass(exc, E.LPError)

    def test_solver_branch(self):
        assert issubclass(E.SingularBasisError, E.SolverError)
        assert issubclass(E.UnknownMethodError, E.SolverError)

    def test_one_catch_clause_covers_the_library(self):
        """The documented catch-all workflow."""
        from repro import LPProblem

        try:
            LPProblem.minimize(c=[1.0])  # no constraints
        except E.ReproError:
            pass
        else:  # pragma: no cover
            pytest.fail("expected a ReproError")


class TestModuleSurfaces:
    def test_gpu_package_exports(self):
        import repro.gpu as gpu

        for name in gpu.__all__:
            assert hasattr(gpu, name), name

    def test_lp_package_exports(self):
        import repro.lp as lp

        for name in lp.__all__:
            assert hasattr(lp, name), name

    def test_sparse_package_exports(self):
        import repro.sparse as sparse

        for name in sparse.__all__:
            assert hasattr(sparse, name), name

    def test_perfmodel_package_exports(self):
        import repro.perfmodel as pm

        for name in pm.__all__:
            assert hasattr(pm, name), name

    def test_bench_package_exports(self):
        import repro.bench as bench

        for name in bench.__all__:
            assert hasattr(bench, name), name

    def test_core_package_exports(self):
        import repro.core as core

        for name in core.__all__:
            assert hasattr(core, name), name

    def test_simplex_package_exports(self):
        import repro.simplex as simplex

        for name in simplex.__all__:
            assert hasattr(simplex, name), name

    def test_every_public_module_has_docstring(self):
        import importlib
        import pkgutil

        import repro

        missing = []
        for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
            module = importlib.import_module(info.name)
            if not (module.__doc__ or "").strip():
                missing.append(info.name)
        assert not missing, f"modules without docstrings: {missing}"


class TestTableauPricingRejection:
    """``devex`` and ``steepest-edge`` need updated tableau columns; every
    simplex method but ``tableau`` rejects them with one message."""

    METHODS = [
        "revised", "revised-sparse", "dual",
        "gpu-revised", "gpu-revised-sparse", "gpu-tableau",
    ]
    MESSAGE = "only the 'tableau' method accepts them"

    @pytest.mark.parametrize("rule", ["devex", "steepest-edge"])
    @pytest.mark.parametrize("method", METHODS)
    def test_constructor(self, method, rule):
        from repro.engine import METHODS
        from repro.simplex.options import SolverOptions

        cls = type(METHODS[method].factory(SolverOptions(), None))
        with pytest.raises(E.SolverError, match=self.MESSAGE):
            cls(SolverOptions(pricing=rule))

    @pytest.mark.parametrize("rule", ["devex", "steepest-edge"])
    @pytest.mark.parametrize("method", METHODS)
    def test_solve(self, method, rule, textbook_lp):
        from repro import solve

        with pytest.raises(E.SolverError, match=self.MESSAGE):
            solve(textbook_lp, method=method, pricing=rule)

    def test_tableau_accepts_them(self, textbook_lp):
        from repro import solve

        for rule in ("devex", "steepest-edge"):
            assert solve(textbook_lp, method="tableau", pricing=rule).status.value == "optimal"
