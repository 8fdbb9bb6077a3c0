"""L1 differentiator and product-integration weights."""

from __future__ import annotations

import ast
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import subdiff
from subdiff import frackernel
from subdiff.errors import DomainError, GridMismatchError, ResourceError
from subdiff.frackernel import (
    MAX_WEIGHT_STEPS,
    TimeGrid,
    build_weights,
    caputo_l1,
    convolve,
)
from subdiff.mlf import mittag_leffler, relaxation

from conftest import l1_direct, mlf_reference


class TestTimeGrid:
    def test_nodes(self):
        g = TimeGrid(t_final=2.0, n_steps=4)
        assert g.h == 0.5
        np.testing.assert_allclose(g.nodes, [0.0, 0.5, 1.0, 1.5, 2.0])

    @pytest.mark.parametrize("T,N", [(0.0, 4), (-1.0, 4), (1.0, 0), (math.inf, 4),
                                     (1.0, 4.0), (1.0, 4.5), (1.0, True)])
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
        assert w.column[1] == pytest.approx(want, rel=1e-14)

    def test_rejects_bad_order(self):
        # rho = 1 is refused, as ProblemSpec and caputo_l1 refuse it
        for rho in (0.0, 1.0, 1.2, -0.5, math.nan):
            with pytest.raises(DomainError):
                build_weights(TimeGrid(1.0, 4), rho, 1.0)

    @settings(max_examples=25, deadline=None)
    @given(rho=st.floats(0.1, 1.0, exclude_max=True),
           lam=st.floats(0.05, 50.0),
           n=st.integers(1, 40))
    def test_telescoping_row_sums(self, rho, lam, n):
        g = TimeGrid(1.5, n)
        w = build_weights(g, rho, lam)
        for i in (1, n):
            got = lam * w.column[1:i + 1].sum()
            want = 1.0 - relaxation(rho, lam, g.nodes[i])
            assert abs(got - want) < 1e-12

    @pytest.mark.parametrize("rho", [0.3, 0.5, 0.9])
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

    def test_step_cap(self, monkeypatch):
        w = build_weights(TimeGrid(1.0, MAX_WEIGHT_STEPS), 0.5, 1.0)
        assert w.column.shape == (MAX_WEIGHT_STEPS + 1,)

        # one step more is refused before any Mittag-Leffler work
        def no_mlf(*args):
            raise AssertionError("weights evaluated past the step cap")
        monkeypatch.setattr(frackernel, "relaxation_curve", no_mlf)
        with pytest.raises(ResourceError, match=str(MAX_WEIGHT_STEPS)):
            build_weights(TimeGrid(1.0, MAX_WEIGHT_STEPS + 1), 0.5, 1.0)

    def test_rejects_bad_stiffness(self):
        with pytest.raises(DomainError):
            build_weights(TimeGrid(1.0, 4), 0.5, 0.0)

    def test_cached(self):
        a = build_weights(TimeGrid(1.0, 32), 0.5, 2.0)
        b = build_weights(TimeGrid(1.0, 32), 0.5, 2.0)
        assert a is b
        # the rule every consumer reads cannot be changed through it
        assert a.head.shape == (33,) and a.fold.shape == (32,)
        for arr in (a.head, a.fold):
            with pytest.raises(ValueError):
                arr[0] = 0.0

    def test_cold_builds_leave_scipy_integrate_unloaded(self):
        # the branch-cut band of these grids (rho 0.9 with the stiffnesses of
        # K = 4 modes, rho 0.5 with K = 32) is served by the fixed-node rule,
        # as is ``mittag_leffler`` at x across the series, asymptotic and
        # branch-cut bands; no quadrature module is ever imported, nor
        # numpy.polynomial for the rule's Gauss-Legendre nodes
        code = ("import math, sys\n"
                "from subdiff.frackernel import TimeGrid, build_weights\n"
                "from subdiff.mlf import mittag_leffler\n"
                "g = TimeGrid(1.0, 2048)\n"
                "for rho, modes in ((0.9, 4), (0.5, 32)):\n"
                "    for k in range(1, modes + 1):\n"
                "        build_weights(g, rho, (k * math.pi) ** 2)\n"
                "    x = [0.3, 2.0, 4.5, 8.0, 30.0, 500.0]\n"
                "    for beta in (1.0, rho, 1.3):\n"
                "        mittag_leffler(rho, beta, [-v for v in x])\n"
                "print('scipy.integrate' in sys.modules,\n"
                "      'numpy.polynomial' in sys.modules)\n")
        env = dict(os.environ,
                   PYTHONPATH=str(Path(subdiff.__file__).resolve().parents[1]))
        run = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, timeout=300,
                             check=True)
        assert run.stdout.strip() == "False False"


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
        def kernel(s):
            return s ** (rho - 1.0) * float(mittag_leffler(rho, rho, -s ** rho))

        want, _ = quad(lambda e: kernel(e) * (t - e), 1e-12, t,
                       points=[1e-6, 1e-3, 0.1], limit=400)
        assert abs(out[-1] - want) < 1e-4

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.floats(0.0, 10.0), min_size=9, max_size=9))
    def test_preserves_nonnegativity(self, vals):
        w = build_weights(TimeGrid(1.0, 8), 0.6, 2.0)
        out = convolve(w, np.array(vals))
        assert np.all(out >= 0.0)

    def test_pinned_nonnegative_input(self):
        # a pure-FFT sum returned -3.3e-16 here, where the exact value is 0
        w = build_weights(TimeGrid(1.0, 8), 0.6, 2.0)
        out = convolve(w, np.array([0, 0, 0, 0, 8.65, 9.02, 4.61, 8.20, 3.50]))
        assert np.all(out >= 0.0)
        assert np.all(out[:4] == 0.0)

    @staticmethod
    def _direct(w, g):
        n = w.grid.n_steps
        return np.convolve(w.column[1:], 0.5 * (g[:-1] + g[1:]))[:n]

    def test_matches_direct_sum_at_4096(self):
        w = build_weights(TimeGrid(1.0, 4096), 0.5, 20.0)
        g = np.random.default_rng(4096).normal(size=4097)
        out = convolve(w, g)
        tol = 1e-13 * np.sum(w.column) * np.max(np.abs(g))
        assert out[0] == 0.0
        np.testing.assert_allclose(out[1:], self._direct(w, g), rtol=0.0,
                                   atol=tol)

    def test_leading_zeros_exact_on_direct_block(self):
        n = 4 * frackernel._DIRECT_BLOCK
        w = build_weights(TimeGrid(1.0, n), 0.7, 5.0)
        g = np.zeros(n + 1)
        g[2 * frackernel._DIRECT_BLOCK:] = np.random.default_rng(7).uniform(
            0.0, 10.0, size=n + 1 - 2 * frackernel._DIRECT_BLOCK)
        out = convolve(w, g)
        assert np.all(out[:frackernel._DIRECT_BLOCK + 1] == 0.0)
        tol = 1e-13 * np.sum(w.column) * np.max(np.abs(g))
        np.testing.assert_allclose(out[1:], self._direct(w, g), rtol=0.0,
                                   atol=tol)

    def test_rejects_mismatched_series(self):
        w = build_weights(TimeGrid(1.0, 8), 0.5, 1.0)
        with pytest.raises(GridMismatchError):
            convolve(w, np.zeros(8))


class TestBatchedWeights:
    """Weights built for a tuple of stiffnesses, and convolutions through
    them, equal the one-stiffness ones row by row, bit for bit."""

    # x = lam t^rho spans the series, branch-cut and asymptotic bands
    LAMS = (2.0, 9.869604401089358, 39.47841760435743, 5000.0)

    @pytest.mark.parametrize("rho", [0.5, 0.9])
    def test_tuple_build_equals_per_stiffness_builds(self, rho):
        g = TimeGrid(1.0, 300)
        batch = build_weights(g, rho, self.LAMS)
        assert batch.relax.shape == (len(self.LAMS), 301)
        for i, lam in enumerate(self.LAMS):
            one = build_weights(g, rho, lam)
            assert np.array_equal(batch.column[i], one.column)
            assert np.array_equal(batch.relax[i], one.relax)
            assert np.array_equal(batch.head[i], one.head)
            assert np.array_equal(batch.fold[i], one.fold)

    @pytest.mark.parametrize("n", [8, 300, 4096])
    def test_batched_convolve_equals_per_row_calls(self, n):
        # n = 8 stays inside the direct block, 4096 goes well past it
        g = TimeGrid(1.0, n)
        batch = build_weights(g, 0.6, self.LAMS)
        series = np.random.default_rng(n).normal(size=(len(self.LAMS), n + 1))
        out = convolve(batch, series)
        for i, lam in enumerate(self.LAMS):
            assert np.array_equal(out[i],
                                  convolve(build_weights(g, 0.6, lam),
                                           series[i]))

    def test_batched_convolve_needs_a_row_per_stiffness(self):
        batch = build_weights(TimeGrid(1.0, 8), 0.5, self.LAMS)
        with pytest.raises(GridMismatchError):
            convolve(batch, np.zeros(9))
        with pytest.raises(DomainError):
            build_weights(TimeGrid(1.0, 8), 0.5, (1.0, 0.0))


def test_only_frackernel_reads_the_kernel_masses():
    # the product-integration rule is decided where the weights are built:
    # every other module reads ``head`` and ``fold``, never the masses
    # ``column`` they are made of, so a change of rule reaches them all
    src = Path(subdiff.__file__).parent
    readers = sorted(
        f"{path.name}:{node.lineno}"
        for path in src.glob("*.py") if path.name != "frackernel.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and node.attr == "column")
    assert readers == []
