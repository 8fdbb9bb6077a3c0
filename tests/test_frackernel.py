"""L1 differentiator and product-integration weights."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from subdiff.errors import DomainError, GridMismatchError, ResourceError
from subdiff.frackernel import (
    TimeGrid,
    build_weights,
    caputo_l1,
    convolve,
)
from subdiff.mlf import kernel, relaxation

from conftest import l1_direct, mlf_reference


class TestTimeGrid:
    def test_nodes(self):
        g = TimeGrid(t_final=2.0, n_steps=4)
        assert g.h == 0.5
        assert len(g) == 5
        np.testing.assert_allclose(g.nodes, [0.0, 0.5, 1.0, 1.5, 2.0])

    @pytest.mark.parametrize("T,N", [(0.0, 4), (-1.0, 4), (1.0, 0), (math.inf, 4)])
    def test_invalid(self, T, N):
        with pytest.raises(DomainError):
            TimeGrid(t_final=T, n_steps=N)

    def test_hashable(self):
        assert TimeGrid(1.0, 8) == TimeGrid(1.0, 8)
        assert hash(TimeGrid(1.0, 8)) == hash(TimeGrid(1.0, 8))


class TestCaputoL1:
    def test_first_node_absent(self):
        g = TimeGrid(1.0, 8)
        out = caputo_l1(g, np.linspace(0, 1, 9) ** 2, 0.5)
        assert math.isnan(out[0])
        assert np.all(np.isfinite(out[1:]))

    def test_constant_gives_zero(self):
        g = TimeGrid(3.0, 16)
        out = caputo_l1(g, np.full(17, 5.0), 0.7)
        assert np.all(out[1:] == 0.0)

    def test_linear_pinned_value(self):
        # D^rho t at t=1 is t^{1-rho}/Gamma(2-rho) = 1/Gamma(1.5)
        g = TimeGrid(1.0, 1024)
        out = caputo_l1(g, g.nodes, 0.5)
        assert abs(out[-1] - 1.0 / math.gamma(1.5)) < 2e-3

    def test_exact_on_linear(self):
        # the scheme interpolates piecewise-linearly, so linear data is exact
        g = TimeGrid(2.0, 37)
        out = caputo_l1(g, 3.0 * g.nodes + 1.0, 0.3)
        want = 3.0 * g.nodes[1:] ** 0.7 / math.gamma(1.7)
        np.testing.assert_allclose(out[1:], want, rtol=1e-10)

    def test_quadratic_pinned_value(self):
        g = TimeGrid(1.0, 1024)
        out = caputo_l1(g, g.nodes ** 2, 0.5)
        assert abs(out[-1] - 2.0 / math.gamma(2.5)) < 5e-3

    def test_convergence_rate_on_quadratic(self):
        # error should shrink like h^{2-rho}; demand a measured rate >= 1.3
        errs = []
        for n in (256, 512, 1024):
            g = TimeGrid(1.0, n)
            out = caputo_l1(g, g.nodes ** 2, 0.5)
            want = 2.0 * g.nodes[1:] ** 1.5 / math.gamma(2.5)
            errs.append(np.max(np.abs(out[1:] - want)))
        rates = [math.log2(a / b) for a, b in zip(errs, errs[1:])]
        assert min(rates) >= 1.3

    @pytest.mark.parametrize("n", [1, 2, 7, 64, 513])
    def test_columns_match_direct_sum(self, n):
        g = TimeGrid(1.3, n)
        rng = np.random.default_rng(n)
        u = np.cumsum(rng.normal(size=(n + 1, 5)), axis=0)
        got = caputo_l1(g, u, 0.4)
        assert got.shape == u.shape and np.all(np.isnan(got[0]))
        for j in range(u.shape[1]):
            want = l1_direct(g, u[:, j], 0.4)
            np.testing.assert_allclose(got[1:, j], want[1:], rtol=0.0,
                                       atol=1e-12 * np.max(np.abs(want[1:])))

    def test_rejects_bad_order(self):
        g = TimeGrid(1.0, 4)
        for rho in (0.0, 1.0, 1.2, -0.5):
            with pytest.raises(DomainError):
                caputo_l1(g, g.nodes, rho)

    def test_rejects_mismatched_series(self):
        with pytest.raises(GridMismatchError):
            caputo_l1(TimeGrid(1.0, 4), np.zeros(6), 0.5)
        with pytest.raises(GridMismatchError):
            caputo_l1(TimeGrid(1.0, 4), np.zeros((5, 2, 2)), 0.5)


class TestBuildWeights:
    def test_single_step(self):
        g = TimeGrid(0.8, 1)
        w = build_weights(g, 0.6, 3.0)
        want = (1.0 - relaxation(0.6, 3.0, 0.8)) / 3.0
        assert w.row(1)[0] == pytest.approx(want, rel=1e-14)

    def test_exponential_closed_form(self):
        # rho=1: kernel is e^{-t}, so w[2][0] integrates it over [0.5, 1]
        g = TimeGrid(1.0, 2)
        w = build_weights(g, 1.0, 1.0)
        assert w.row(2)[0] == pytest.approx(
            math.exp(-0.5) - math.exp(-1.0), rel=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(rho=st.floats(0.1, 1.0), lam=st.floats(0.05, 50.0),
           n=st.integers(1, 40))
    def test_telescoping_row_sums(self, rho, lam, n):
        g = TimeGrid(1.5, n)
        w = build_weights(g, rho, lam)
        for i in (1, n):
            got = lam * w.row(i).sum()
            want = 1.0 - relaxation(rho, lam, g.nodes[i])
            assert abs(got - want) < 1e-12

    @pytest.mark.parametrize("rho", [0.3, 0.5, 0.9, 1.0])
    def test_matches_scalar_built_weights(self, rho):
        # lam spans the series, fallback and asymptotic bands of x = lam t^rho
        g = TimeGrid(1.0, 300)
        for lam in (2.0, 10.0, 5000.0):
            w = build_weights(g, rho, lam)
            relax = np.array([relaxation(rho, lam, t) for t in g.nodes])
            np.testing.assert_allclose(w.relax, relax, rtol=0.0, atol=1e-14)
            np.testing.assert_allclose(w.column[1:], -np.diff(relax) / lam,
                                       rtol=0.0, atol=1e-14)
            assert w.column[0] == 0.0 and w.relax[0] == 1.0

    def test_nonnegative(self):
        w = build_weights(TimeGrid(2.0, 64), 0.4, 7.0)
        assert np.all(w.column >= 0.0)

    def test_dense_matches_rows(self):
        w = build_weights(TimeGrid(1.0, 6), 0.5, 2.0)
        d = w.dense()
        for n in range(1, 7):
            np.testing.assert_array_equal(d[n, :n], w.row(n))
        assert np.all(d[np.triu_indices(7)] == 0.0)

    def test_step_cap(self):
        with pytest.raises(ResourceError):
            build_weights(TimeGrid(1.0, 20000), 0.5, 1.0)
        # configurable: raising the cap lets it through
        build_weights(TimeGrid(1.0, 64), 0.5, 1.0, max_steps=64)
        with pytest.raises(ResourceError):
            build_weights(TimeGrid(1.0, 65), 0.5, 1.0, max_steps=64)

    def test_rejects_bad_stiffness(self):
        with pytest.raises(DomainError):
            build_weights(TimeGrid(1.0, 4), 0.5, 0.0)

    def test_cached(self):
        a = build_weights(TimeGrid(1.0, 32), 0.5, 2.0)
        b = build_weights(TimeGrid(1.0, 32), 0.5, 2.0)
        assert a is b


class TestConvolve:
    def test_zero_series(self):
        w = build_weights(TimeGrid(1.0, 16), 0.5, 1.0)
        out = convolve(w, np.zeros(17))
        assert np.all(out == 0.0)

    def test_constant_series_identity(self):
        # exact by construction: weights integrate the kernel itself
        for rho, lam in [(0.3, 0.5), (0.8, 10.0)]:
            g = TimeGrid(2.0, 48)
            w = build_weights(g, rho, lam)
            out = convolve(w, np.ones(49))
            want = (1.0 - np.array([relaxation(rho, lam, t) for t in g.nodes])) / lam
            assert out[0] == 0.0
            np.testing.assert_allclose(out[1:], want[1:], atol=1e-12)

    def test_linear_series_vs_series_identity(self):
        # int_0^t (t-s)^{rho-1} E_{rho,rho}(-(t-s)^rho) s ds = t^{rho+1} E_{rho,rho+2}(-t^rho)
        rho = 0.5
        g = TimeGrid(1.0, 2048)
        w = build_weights(g, rho, 1.0)
        out = convolve(w, g.nodes)
        for i in (512, 1024, 2048):
            t = g.nodes[i]
            want = t ** (rho + 1.0) * mlf_reference(rho, rho + 2.0, t ** rho)
            assert abs(out[i] - want) < 1e-4

    def test_linear_series_vs_quadrature(self):
        rho, t = 0.5, 1.0
        g = TimeGrid(1.0, 2048)
        w = build_weights(g, rho, 1.0)
        out = convolve(w, g.nodes)
        want, _ = quad(lambda e: kernel(rho, 1.0, e) * (t - e), 1e-12, t,
                       points=[1e-6, 1e-3, 0.1], limit=400)
        assert abs(out[-1] - want) < 1e-4

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.floats(0.0, 10.0), min_size=9, max_size=9))
    def test_preserves_nonnegativity(self, vals):
        w = build_weights(TimeGrid(1.0, 8), 0.6, 2.0)
        out = convolve(w, np.array(vals))
        assert np.all(out >= 0.0)

    def test_rejects_mismatched_series(self):
        w = build_weights(TimeGrid(1.0, 8), 0.5, 1.0)
        with pytest.raises(GridMismatchError):
            convolve(w, np.zeros(8))
