"""Tests for the LP instance analysis module."""

import numpy as np
import pytest

from repro.lp.analysis import ProblemStats, analyze
from repro.lp.generators import (
    degenerate_lp,
    random_dense_lp,
    random_sparse_lp,
)
from repro.lp.problem import Bounds, LPProblem


class TestAnalyze:
    def test_dense_stats(self):
        stats = analyze(random_dense_lp(10, 20, seed=0))
        assert stats.rows == 10
        assert stats.cols == 20
        assert stats.nnz == 200
        assert stats.density == pytest.approx(1.0)
        assert not stats.is_sparse
        assert stats.maximize

    def test_sparse_stats(self):
        lp = random_sparse_lp(20, 40, density=0.1, seed=1)
        stats = analyze(lp)
        assert stats.is_sparse
        assert stats.nnz == lp.a.nnz
        assert 0 < stats.density < 0.3

    def test_sense_counts(self):
        lp = LPProblem(
            c=[1.0, 1.0],
            a=[[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]],
            senses=["<=", ">=", "="],
            b=[1.0, 0.5, 2.0],
            bounds=Bounds.nonnegative(2),
        )
        stats = analyze(lp)
        assert stats.senses == {"<=": 1, ">=": 1, "=": 1}

    def test_bound_classes(self):
        lp = LPProblem(
            c=np.ones(5),
            a=np.ones((1, 5)),
            senses=["<="],
            b=[10.0],
            bounds=Bounds(
                np.array([0.0, -np.inf, 1.0, 2.0, -np.inf]),
                np.array([np.inf, np.inf, 4.0, 2.0, 7.0]),
            ),
        )
        classes = analyze(lp).bound_classes
        assert classes["nonneg"] == 1
        assert classes["free"] == 1
        assert classes["boxed"] == 1
        assert classes["fixed"] == 1
        assert classes["upper-only"] == 1

    def test_coefficient_spread(self):
        lp = LPProblem(
            c=[1.0], a=[[1e-3], [1e4]], senses=["<=", "<="], b=[1.0, 1.0],
            bounds=Bounds.nonnegative(1),
        )
        assert analyze(lp).coefficient_spread == pytest.approx(1e7)

    def test_degeneracy_smell(self):
        stats = analyze(degenerate_lp(12, 15, seed=0))
        assert stats.rhs_ratio_ties >= 1
        clean = analyze(random_dense_lp(12, 15, seed=0))
        assert clean.rhs_ratio_ties <= stats.rhs_ratio_ties

    def test_render(self):
        text = analyze(random_dense_lp(5, 6, seed=2)).render()
        assert "5 rows x 6 cols" in text
        assert "coefficient spread" in text
        assert "senses" in text

    def test_render_flags_bad_scaling(self):
        lp = LPProblem(
            c=[1.0], a=[[1e-6], [1e6]], senses=["<=", "<="], b=[1.0, 1.0],
            bounds=Bounds.nonnegative(1),
        )
        stats = analyze(lp)
        assert stats.scaled
        assert "scaled automatically" in stats.render()
        assert "scaled automatically" not in analyze(random_dense_lp(5, 6, seed=2)).render()

    def test_stats_is_dataclass(self):
        stats = analyze(random_dense_lp(3, 3, seed=1))
        assert isinstance(stats, ProblemStats)
        assert stats.name.startswith("dense-3x3")
