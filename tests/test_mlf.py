"""Mittag-Leffler evaluator: frozen references, identities, and bounds."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from subdiff import mlf
from subdiff.errors import DomainError
from subdiff.mlf import (
    Z_SWITCH,
    MlfParams,
    eval_mlf,
    kernel,
    kernel_mass,
    relaxation,
    relaxation_curve,
)

from conftest import mlf_reference, rel_or_abs_err, series_guard_digits


def reference(rho, beta, x):
    """Extended-precision E_{rho,beta}(-x): exp at rho = beta = 1, the
    big-float series where its cancellation costs few digits, else the
    branch-cut integral (rho < 1), reached by the recurrence in beta where
    beta lies above its domain (beta <= 1)."""
    if rho == 1.0 and beta == 1.0:
        return math.exp(-x)
    if series_guard_digits(rho, x) <= 60.0:
        return mlf_reference(rho, beta, x)
    if beta > 1.0:  # outside the integral's domain: lower beta by
        b = beta - rho     # E_{rho,b+rho}(-x) = (1/Gamma(b) - E_{rho,b}(-x))/x
        return (1.0 / math.gamma(b) - reference(rho, b, x)) / x
    return mlf._mp_branch_cut(rho, beta, x)

# Reference values from the brute-force big-float series (conftest.mlf_reference),
# 17 significant digits.  The first row doubles as the closed form e*erfc(1).
FROZEN = [
    (0.5, 1.0, -1.0, 0.427583576155807),
    (0.5, 0.5, -1.0, 0.13660600739194928),
    (0.35, 1.0, -8.0, 0.085007414846603468),
    (0.7, 0.7, -50.0, 9.6636244462418065e-5),
    (0.9, 1.3, -200.0, 0.002261220807588638),
    (0.25, 1.0, -3.0, 0.2190044275604068),
    (0.5, 2.0, -7.0, 0.14241743314281104),
    (0.8, 0.3, -2.0, -0.13427292923295426),
    (0.6, -0.4, -12.0, -0.0032138300154005425),
    (0.97, 1.0, -500.0, 6.1237709269116887e-5),
]


class TestParams:
    def test_valid(self):
        p = MlfParams(rho=0.5, beta=1.0)
        assert p.rho == 0.5

    @pytest.mark.parametrize("rho", [0.0, -0.3, 1.5, 2.0, 2.5, float("nan")])
    def test_bad_rho(self, rho):
        with pytest.raises(DomainError):
            MlfParams(rho=rho, beta=1.0)

    def test_order_one_only_with_beta_one(self):
        # the solvers ask for rho = 1 only as the exponential
        assert MlfParams(rho=1.0, beta=1.0).beta == 1.0
        for beta in (0.5, 2.0):
            with pytest.raises(DomainError):
                MlfParams(rho=1.0, beta=beta)

    def test_bad_beta(self):
        with pytest.raises(DomainError):
            MlfParams(rho=0.5, beta=float("inf"))


class TestEvalMlf:
    @pytest.mark.parametrize("rho,beta,z,want", FROZEN)
    def test_frozen_values(self, rho, beta, z, want):
        got = eval_mlf(MlfParams(rho, beta), z)
        assert rel_or_abs_err(got, want) < 1e-12

    def test_exp_closed_form(self):
        # rho = beta = 1 must be exp(z) across the whole asserted window
        for z in np.linspace(-30.0, 0.0, 121):
            got = eval_mlf(MlfParams(1.0, 1.0), float(z))
            assert got == pytest.approx(math.exp(z), rel=1e-12)

    def test_erfc_identity(self):
        # E_{1/2,1}(-x) = e^{x^2} erfc(x); independent route through math.erfc
        for x in (0.25, 1.0, 2.0, 3.5):
            want = math.exp(x * x) * math.erfc(x)
            got = eval_mlf(MlfParams(0.5, 1.0), -x)
            assert got == pytest.approx(want, rel=1e-12)

    def test_value_at_zero(self):
        assert eval_mlf(MlfParams(0.7, 1.0), 0.0) == 1.0
        assert eval_mlf(MlfParams(0.3, 2.5), 0.0) == pytest.approx(
            1.0 / math.gamma(2.5), rel=1e-14)

    def test_rejects_positive_argument(self):
        with pytest.raises(DomainError):
            eval_mlf(MlfParams(0.5, 1.0), 0.1)

    def test_limit_at_minus_infinity(self):
        assert eval_mlf(MlfParams(0.5, 1.0), float("-inf")) == 0.0

    @settings(max_examples=60, deadline=None)
    @given(
        rho=st.floats(0.05, 1.0, exclude_max=True),
        beta=st.floats(-0.5, 3.0),
        logx=st.floats(-3.0, 3.0),
    )
    def test_matches_reference(self, rho, beta, logx):
        x = 10.0 ** logx
        assume(series_guard_digits(rho, x) < 120.0)
        want = mlf_reference(rho, beta, x)
        got = eval_mlf(MlfParams(rho, beta), -x)
        if x <= 5.0:
            assert rel_or_abs_err(got, want) < 1e-12
        else:
            assert abs(got - want) < 1e-10

    @settings(max_examples=40, deadline=None)
    @given(
        rho=st.floats(0.05, 1.0, exclude_max=True),
        dbeta=st.floats(0.0, 3.0),
        lam=st.floats(0.01, 30.0),
        t=st.floats(0.0, 6.0),
    )
    def test_bounded_by_reciprocal_gamma(self, rho, dbeta, lam, t):
        # 0 <= E_{rho,beta}(-lam t^rho) <= 1/Gamma(beta) for beta >= rho
        beta = rho + dbeta
        v = eval_mlf(MlfParams(rho, beta), -lam * t ** rho)
        assert -1e-13 <= v <= 1.0 / math.gamma(beta) + 1e-13

    @pytest.mark.parametrize("rho,beta", [(0.4, 1.0), (0.8, 0.8)])
    def test_algebraic_decay_bound(self, rho, beta):
        # (1+x)|E(-x)| must stay bounded, and the fitted bound must not grow
        # when the grid is pushed another decade out
        def fitted_c(xs):
            return max(
                (1.0 + x) * abs(eval_mlf(MlfParams(rho, beta), -x)) for x in xs)

        c_inner = fitted_c(np.logspace(-3, 3, 80))
        c_outer = fitted_c(np.logspace(3, 4, 20))
        assert math.isfinite(c_inner)
        assert c_outer <= c_inner * 1.01


class TestRelaxation:
    def test_at_zero_is_exactly_one(self):
        assert relaxation(0.5, 4.0, 0.0) == 1.0

    def test_exponential_case(self):
        assert relaxation(1.0, 2.0, 1.0) == pytest.approx(math.exp(-2.0), rel=1e-12)

    def test_monotone_nonincreasing(self):
        for rho, lam in [(0.3, 0.5), (0.7, 1.0), (0.95, 10.0)]:
            vals = [relaxation(rho, lam, t) for t in np.linspace(0.0, 5.0, 200)]
            assert all(a >= b - 1e-14 for a, b in zip(vals, vals[1:]))
            assert all(0.0 <= v <= 1.0 for v in vals)

    def test_lemma_bound_window(self):
        v = relaxation(0.7, 1.0, 3.0)
        assert 0.0 < v < 1.0
        assert v < relaxation(0.7, 1.0, 2.0)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            relaxation(0.5, 1.0, -0.1)
        with pytest.raises(DomainError):
            relaxation(0.5, 0.0, 1.0)


class TestRelaxationCurve:
    # lam 0.5 keeps x = lam t^rho in the series band, 10 sweeps x through the
    # fallback band [1.5, 10], 1000 reaches far into the asymptotic band
    T = np.linspace(0.0, 1.0, 257)

    # node indices a factor 4 apart in t, so each band is reached
    SUB = [0, 1, 4, 16, 64, 256]

    @pytest.mark.parametrize("rho", [0.1, 0.3, 0.5, 0.7, 0.9, 0.95, 0.97,
                                     0.98, 0.99, 1.0])
    @pytest.mark.parametrize("lam", [0.5, 10.0, 1000.0])
    def test_matches_scalar(self, rho, lam):
        # the array and its scalar wrapper, at a subsample of the nodes
        # because the reference is slow
        t = self.T[self.SUB]
        want = [reference(rho, 1.0, lam * s ** rho) for s in t]
        for got in (relaxation_curve(rho, lam, self.T)[self.SUB],
                    [relaxation(rho, lam, s) for s in t]):
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)

    def test_at_zero_is_exactly_one(self):
        for rho in (0.3, 0.5, 1.0):
            assert relaxation_curve(rho, 4.0, self.T)[0] == 1.0

    def test_shape_preserved(self):
        t = self.T[1:].reshape(16, 16)
        got = relaxation_curve(0.5, 10.0, t)
        assert got.shape == (16, 16)
        np.testing.assert_array_equal(got.ravel(),
                                      relaxation_curve(0.5, 10.0, self.T[1:]))

    @pytest.mark.parametrize("rho", [0.5, 0.9])
    def test_rates_in_one_call_equal_separate_calls(self, rho):
        lams = np.array([0.5, 10.0, 1000.0])
        got = relaxation_curve(rho, lams, self.T)
        assert got.shape == (3,) + self.T.shape
        for i, lam in enumerate(lams):
            assert np.array_equal(got[i], relaxation_curve(rho, lam, self.T))

    def test_domain_errors(self):
        for lam in (0.0, -1.0, np.array([1.0, 0.0]), np.array([1.0, np.inf])):
            with pytest.raises(DomainError):
                relaxation_curve(0.5, lam, self.T)
        with pytest.raises(DomainError):
            relaxation_curve(0.5, 1.0, np.array([0.0, -0.1, 1.0]))
        with pytest.raises(DomainError):
            relaxation_curve(1.5, 1.0, self.T)

    @pytest.mark.parametrize("rho", [0.3, 0.5, 0.9])
    def test_series_band_matches_scalar_sum(self, rho):
        # past the acceptance limit the partial sums are cancellation noise,
        # so values are compared where the sum accepts its estimate
        x = np.linspace(0.01, Z_SWITCH, 40)
        for beta in (1.0, rho):
            val, rel = mlf._series_curve(rho, beta, x)
            ok = rel <= mlf._REL_TARGET
            assert ok.any()
            want = [reference(rho, beta, v) for v in x[ok]]
            np.testing.assert_allclose(val[ok], want, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("rho", [0.3, 0.5, 0.9])
    def test_asymptotic_band_matches_scalar_sum(self, rho):
        # values are compared where the expansion accepts its estimate at the
        # relative target
        x = np.geomspace(Z_SWITCH * 1.001, 1e4, 6)
        for beta in (1.0, rho):
            val, err = mlf._asymptotic_curve(rho, beta, x)
            ok = err <= mlf._REL_TARGET * np.abs(val)
            assert ok.any()
            want = [reference(rho, beta, v) for v in x[ok]]
            np.testing.assert_allclose(val[ok], want, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("rho", [0.97, 0.99])
    def test_asymptotic_estimate_holds_near_rho_one(self, rho):
        # near rho = 1 the terms dip where beta - n rho grazes a pole of
        # Gamma and stop alternating, so an estimate from the last term alone
        # falls short where the band begins to accept
        x = np.geomspace(25.0, 45.0, 13)
        for beta in (1.0, rho, 0.3, 1.3):
            val, err = mlf._asymptotic_curve(rho, beta, x)
            ok = err <= mlf._REL_TARGET * np.abs(val)
            want = [reference(rho, beta, v) for v in x[ok]]
            np.testing.assert_allclose(val[ok], want, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("rho", [0.3, 0.5, 0.9])
    def test_only_failed_estimates_reach_the_fallback(self, rho, monkeypatch):
        # the extended-precision tail gets exactly the entries that the
        # series, the asymptotics and the cut rule all reject, plus those
        # outside the cut rule's domain.  With the rule switched off it gets
        # every entry the bands leave; a lowered x range then puts part of
        # that band outside the rule's domain
        calls = []
        monkeypatch.setattr(mlf, "_fallback",
                            lambda rho_, beta, x: calls.append(x) or math.nan)
        cut_rho_min = mlf._CUT_RHO_MIN
        monkeypatch.setattr(mlf, "_CUT_RHO_MIN", 1.0)
        relaxation_curve(rho, 10.0, self.T)
        left, calls[:] = np.array(calls), []
        monkeypatch.setattr(mlf, "_CUT_RHO_MIN", cut_rho_min)
        monkeypatch.setattr(mlf, "_CUT_X_MAX", 3.0)
        relaxation_curve(rho, 10.0, self.T)

        inside = (left >= mlf._CUT_X_MIN) & (left <= 3.0)
        assert inside.any() and not inside.all()
        val, err = mlf._branch_cut_curve(rho, 1.0, left[inside])
        passed = np.zeros(left.size, dtype=bool)
        passed[inside] = err <= mlf._CUT_REL_TOL * np.maximum(np.abs(val),
                                                              mlf._CUT_FLOOR)
        np.testing.assert_allclose(calls, left[~passed], rtol=1e-15)

    def test_rejected_cut_values_take_the_scalar_fallback(self, monkeypatch):
        # the tail is stubbed with -x, a value no band returns here
        rho, lam = 0.9, 10.0
        seen, calls = [], []
        cut_curve = mlf._branch_cut_curve

        def half_rejected(rho_, beta, x):
            seen.extend(x)
            val, err = cut_curve(rho_, beta, x)
            err[::2] = math.inf
            return val, err

        def stub(rho_, beta, x):
            calls.append(x)
            return -x

        monkeypatch.setattr(mlf, "_branch_cut_curve", half_rejected)
        monkeypatch.setattr(mlf, "_fallback", stub)
        got = relaxation_curve(rho, lam, self.T)
        rejected = np.array(seen[::2])
        assert rejected.size
        np.testing.assert_array_equal(calls, rejected)
        where = np.isin(lam * self.T ** rho, rejected)
        np.testing.assert_array_equal(got[where], -rejected)

    @pytest.mark.parametrize("rho", [0.1, 0.3, 0.5, 0.7, 0.9, 0.97, 0.98, 0.99])
    def test_branch_cut_curve_meets_the_scalar_gate(self, rho):
        # beta = rho is the kernel's; 1.3 is first lowered to <= 1, and the
        # value raised back must still lie within the gate of the truth
        for beta in (1.0, rho, 0.3, 1.3):
            x = np.geomspace(1.0, 40.0, 8)
            if beta != 1.0:
                x = x[::3]  # the reference is slow
            m, b0 = mlf._lowered_beta(rho, beta)
            val, err = mlf._branch_cut_curve(rho, b0, x)
            tol = mlf._CUT_REL_TOL * np.maximum(np.abs(val), mlf._CUT_FLOOR)
            assert np.all(err <= tol)
            val = mlf._raise_beta(rho, b0, m, x, val)
            tol = mlf._CUT_REL_TOL * np.maximum(np.abs(val), mlf._CUT_FLOOR)
            want = np.array([reference(rho, beta, v) for v in x])
            assert np.all(np.abs(val - want) <= tol)

    def test_branch_cut_curve_independent_of_block_size(self, monkeypatch):
        x = np.linspace(2.0, 20.0, 7)
        want = mlf._branch_cut_curve(0.9, 1.0, x)
        for rows in (1, 3):
            monkeypatch.setattr(
                mlf, "_CUT_BLOCK",
                rows * mlf._cut_rule(0.9, 1.0, 2 * mlf._CUT_N)[0].size)
            for a, b in zip(mlf._branch_cut_curve(0.9, 1.0, x), want):
                np.testing.assert_array_equal(a, b)


class TestExtendedPrecision:
    # the orders at the ends of the domain, where the cut rule does not
    # serve (rho < _CUT_RHO_MIN) or its integrand peaks sharply (rho -> 1)
    @pytest.mark.parametrize("rho,xs", [
        *((rho, (0.6, 0.95, 1.0)) for rho in (0.001, 0.005, 0.01, 0.02, 0.05)),
        *((rho, (0.5, 5.0, 40.0)) for rho in (0.97, 1.0 - 1e-6, 1.0 - 1e-9)),
    ])
    def test_branch_cut_matches_the_series(self, rho, xs):
        for beta in (1.0, rho):
            for x in xs:
                want = mlf_reference(rho, beta, x)
                got = mlf._mp_branch_cut(rho, beta, x)
                assert abs(got - want) <= 1e-13 * abs(want)

    def test_small_order_relaxation(self):
        # x^(1/rho) overflows a double here
        v = relaxation(0.001, 3.0, 1.0)
        assert math.isfinite(v) and 0.0 < v < 1.0

    def test_no_entry_of_the_domain_reaches_it(self, monkeypatch):
        # from the cut rule's floor _CUT_RHO_MIN to rho = 1 - 1e-6 every
        # entry is served in double precision, from x = 0 to far into the
        # asymptotic band
        calls = []
        monkeypatch.setattr(mlf, "_fallback",
                            lambda rho, beta, x: calls.append((rho, beta, x))
                            or math.nan)
        x = np.concatenate(([0.0], np.geomspace(1e-6, 1e6, 2001)))
        for rho in (0.01, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9,
                    0.95, 0.97, 0.99, 0.999, 0.99999, 1.0 - 1e-6):
            for beta in (rho, 1.0, 2.0):
                mlf._curve(rho, beta, x)
        assert calls == []


class TestKernel:
    def test_exponential_case(self):
        assert kernel(1.0, 3.0, 1.0) == pytest.approx(3.0 * math.exp(-3.0), rel=1e-12)

    def test_short_time_singularity(self):
        # kernel ~ lam t^{rho-1} (1/Gamma(rho) - lam t^rho/Gamma(2 rho)) as t -> 0+
        for t in (1e-6, 1e-8):
            lead = t ** (-0.5) * (1.0 / math.gamma(0.5) - t ** 0.5)
            assert kernel(0.5, 1.0, t) == pytest.approx(lead, rel=1e-5)

    def test_positive(self):
        for rho in (0.3, 0.6, 0.9):
            for t in np.logspace(-4, 1, 40):
                assert kernel(rho, 2.0, float(t)) > 0.0

    def test_is_negative_derivative_of_relaxation(self):
        h = 1e-5
        for rho, lam, t in [(0.6, 2.0, 0.5), (0.4, 1.0, 1.5), (0.9, 5.0, 0.25)]:
            fd = -(relaxation(rho, lam, t + h) - relaxation(rho, lam, t - h)) / (2 * h)
            assert abs(kernel(rho, lam, t) - fd) < 1e-6

    def test_rejects_t_zero(self):
        with pytest.raises(DomainError):
            kernel(0.5, 1.0, 0.0)

    @pytest.mark.parametrize("rho", [-0.5, 0.0, 1.5, float("nan")])
    def test_rejects_bad_orders(self, rho):
        with pytest.raises(DomainError):
            kernel(rho, 1.0, 1.0)


class TestKernelMass:
    def test_empty_interval(self):
        assert kernel_mass(0.6, 2.0, 0.7, 0.7) == 0.0

    def test_total_mass(self):
        assert kernel_mass(0.5, 1.0, 0.0, float("inf")) == pytest.approx(1.0, abs=1e-12)

    def test_complement_identity(self):
        for rho, lam, t in [(0.5, 1.0, 0.3), (0.8, 5.0, 2.0), (0.99, 0.1, 10.0)]:
            s = kernel_mass(rho, lam, 0.0, t) + relaxation(rho, lam, t)
            assert abs(s - 1.0) < 1e-12

    def test_additive_over_adjacent_intervals(self):
        whole = kernel_mass(0.7, 2.0, 0.1, 3.0)
        parts = kernel_mass(0.7, 2.0, 0.1, 1.0) + kernel_mass(0.7, 2.0, 1.0, 3.0)
        assert whole == pytest.approx(parts, abs=1e-15)

    def test_against_quadrature(self):
        # independent route: series head (term-by-term integration on [0,eps])
        # plus adaptive quadrature of the kernel on [eps, b]
        rho, lam, b = 0.8, 5.0, 2.0
        eps = 1e-3
        y = lam * eps ** rho
        head = sum(
            (-1.0) ** k * y ** (k + 1) / math.gamma((k + 1) * rho + 1.0)
            for k in range(40))
        tail, est = quad(lambda s: kernel(rho, lam, s), eps, b, limit=200)
        assert kernel_mass(rho, lam, 0.0, b) == pytest.approx(head + tail, abs=1e-8)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            kernel_mass(0.5, 1.0, 2.0, 1.0)
        with pytest.raises(DomainError):
            kernel_mass(0.5, 1.0, -1.0, 1.0)
