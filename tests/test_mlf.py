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
from subdiff.frackernel import TimeGrid
from subdiff.mlf import Z_SWITCH, mittag_leffler, relaxation, relaxation_curve
from subdiff.spectral import eigenvalues

from conftest import mlf_reference, rel_or_abs_err, series_guard_digits


def reference(rho, beta, x):
    """Extended-precision E_{rho,beta}(-x): the big-float series where its
    cancellation costs few digits, else the branch-cut integral, reached by
    the recurrence in beta where beta lies above its domain (beta <= 1)."""
    if series_guard_digits(rho, x) <= 60.0:
        return mlf_reference(rho, beta, x)
    if beta > 1.0:  # outside the integral's domain: lower beta by
        b = beta - rho     # E_{rho,b+rho}(-x) = (1/Gamma(b) - E_{rho,b}(-x))/x
        return (1.0 / math.gamma(b) - reference(rho, b, x)) / x
    return mlf._mp_branch_cut(rho, beta, x)


def mlf_value(rho, beta, z):
    """E_{rho,beta}(z) at one argument, through the array evaluator."""
    return float(mittag_leffler(rho, beta, z))


def kernel(rho, lam, t):
    """The relaxation kernel lam t^(rho-1) E_{rho,rho}(-lam t^rho), t > 0."""
    return lam * t ** (rho - 1.0) * mlf_value(rho, rho, -lam * t ** rho)


def kernel_mass(rho, lam, a, b):
    """The kernel's integral over [a, b], a relaxation difference."""
    return relaxation(rho, lam, a) - relaxation(rho, lam, b)


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
    """The order check of ``mittag_leffler``: 0 < rho < 1, finite beta."""

    def test_valid(self):
        assert mlf_value(0.5, 1.0, -1.0) > 0.0

    @pytest.mark.parametrize("rho", [0.0, -0.3, 1.0, 1.5, 2.0, 2.5,
                                     float("nan")])
    def test_bad_rho(self, rho):
        # rho = 1 is refused with every beta, as ProblemSpec refuses it
        for beta in (1.0, 0.5):
            with pytest.raises(DomainError):
                mittag_leffler(rho, beta, -1.0)

    def test_bad_beta(self):
        with pytest.raises(DomainError):
            mittag_leffler(0.5, float("inf"), -1.0)


class TestEvalMlf:
    @pytest.mark.parametrize("rho,beta,z,want", FROZEN)
    def test_frozen_values(self, rho, beta, z, want):
        got = mlf_value(rho, beta, z)
        assert rel_or_abs_err(got, want) < 1e-12

    def test_erfc_identity(self):
        # E_{1/2,1}(-x) = e^{x^2} erfc(x); independent route through math.erfc
        for x in (0.25, 1.0, 2.0, 3.5):
            want = math.exp(x * x) * math.erfc(x)
            got = mlf_value(0.5, 1.0, -x)
            assert got == pytest.approx(want, rel=1e-12)

    def test_value_at_zero(self):
        assert mlf_value(0.7, 1.0, 0.0) == 1.0
        assert mlf_value(0.3, 2.5, 0.0) == pytest.approx(
            1.0 / math.gamma(2.5), rel=1e-14)

    def test_tiny_beta(self):
        # Gamma(beta) overflows a double below 1/DBL_MAX; 1/Gamma(beta) = beta
        # there, and E_{rho,beta}(-x) tends to E_{rho,0}(-x) as beta -> 0
        assert mlf.rgamma(1e-310) == 1e-310
        got = mittag_leffler(0.5, 1e-310, [0.0, -1.0])
        assert got[0] == 1e-310
        assert got[1] == pytest.approx(mlf_value(0.5, 0.0, -1.0), rel=1e-12)
        # the series band's early exit takes 1/Gamma(beta) for beta >= rho
        val, rel = mlf._series_curve(1e-310, 1e-310, np.array([0.5, 2.0]))
        assert val.shape == rel.shape == (2,)

    def test_rejects_positive_argument(self):
        for z in (0.1, [-1.0, 0.1], float("nan"), float("inf")):
            with pytest.raises(DomainError):
                mittag_leffler(0.5, 1.0, z)

    def test_limit_at_minus_infinity(self):
        assert mlf_value(0.5, 1.0, float("-inf")) == 0.0

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
        got = mlf_value(rho, beta, -x)
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
        v = mlf_value(rho, beta, -lam * t ** rho)
        assert -1e-13 <= v <= 1.0 / math.gamma(beta) + 1e-13

    @pytest.mark.parametrize("rho", [0.3, 0.5, 0.9])
    def test_batch_equals_one_entry_calls(self, rho, monkeypatch):
        # every entry of a batch has the bits of a call on it alone, from
        # x = 0 through the series, branch-cut and asymptotic bands to -inf
        cut_entries = []
        cut_curve = mlf._branch_cut_curve

        def counted(rho_, beta, x):
            cut_entries.append(x.size)
            return cut_curve(rho_, beta, x)

        monkeypatch.setattr(mlf, "_branch_cut_curve", counted)
        z = -np.concatenate(([0.0], np.geomspace(1e-3, 1e4, 43), [np.inf]))
        for beta in (rho, 1.0, rho + 2.0):
            batch = mittag_leffler(rho, beta, z)
            assert batch.shape == z.shape
            alone = [float(mittag_leffler(rho, beta, v)) for v in z]
            np.testing.assert_array_equal(batch, alone)
        assert max(cut_entries) > 1

    @pytest.mark.parametrize("rho,beta", [(0.4, 1.0), (0.8, 0.8)])
    def test_algebraic_decay_bound(self, rho, beta):
        # (1+x)|E(-x)| must stay bounded, and the fitted bound must not grow
        # when the grid is pushed another decade out
        def fitted_c(xs):
            return max(
                (1.0 + x) * abs(mlf_value(rho, beta, -x)) for x in xs)

        c_inner = fitted_c(np.logspace(-3, 3, 80))
        c_outer = fitted_c(np.logspace(3, 4, 20))
        assert math.isfinite(c_inner)
        assert c_outer <= c_inner * 1.01


class TestRelaxation:
    def test_at_zero_is_exactly_one(self):
        assert relaxation(0.5, 4.0, 0.0) == 1.0

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
    # fallback band [1.5, 10], 1000 reaches far into the asymptotic band; in
    # [0.25, 65536] the values come from the order's table
    T = np.linspace(0.0, 1.0, 257)

    # node indices a factor 4 apart in t, so each band is reached
    SUB = [0, 1, 4, 16, 64, 256]

    @pytest.mark.parametrize("rho", [0.1, 0.3, 0.5, 0.7, 0.9, 0.95, 0.97,
                                     0.98, 0.99])
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
        for rho in (0.3, 0.5, 0.99):
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
        for rho in (1.0, 1.5):
            with pytest.raises(DomainError):
                relaxation_curve(rho, 1.0, self.T)

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
        mittag_leffler(rho, 1.0, -10.0 * self.T ** rho)
        left, calls[:] = np.array(calls), []
        monkeypatch.setattr(mlf, "_CUT_RHO_MIN", cut_rho_min)
        monkeypatch.setattr(mlf, "_CUT_X_MAX", 3.0)
        mittag_leffler(rho, 1.0, -10.0 * self.T ** rho)

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
        got = mittag_leffler(rho, 1.0, -lam * self.T ** rho)
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

    @pytest.mark.parametrize("n", [mlf._CUT_N, 2 * mlf._CUT_N])
    def test_gauss_legendre_table_is_leggauss(self, n):
        # the cut rule's table stands in for numpy.polynomial's own rules
        from numpy.polynomial.legendre import leggauss

        for got, want in zip(mlf._gauss_legendre(n), leggauss(n)):
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)


class TestRelaxationTable:
    """The per-order table that serves ``relaxation_curve`` on its x range."""

    X_MIN, X_MAX = mlf._TABLE_X_MIN, mlf._TABLE_X_MAX
    # orders with a table, from the cut rule's floor to near 1
    SERVED = [0.01, 0.1, 0.5, 0.9, 0.99, 0.999]

    @staticmethod
    def at(rho, x):
        """E_{rho,1}(-x) through ``relaxation_curve``: rates x at t = 1."""
        return relaxation_curve(rho, np.asarray(x, dtype=float), 1.0)

    @pytest.mark.parametrize("rho", SERVED)
    def test_matches_reference(self, rho):
        assert mlf._relaxation_table(rho) is not None
        x = np.geomspace(self.X_MIN, self.X_MAX, 9)
        # at small rho x^(1/rho) overflows in the reference's series guard,
        # which then picks the branch-cut integral, as it should
        with np.errstate(over="ignore"):
            want = [reference(rho, 1.0, v) for v in x]
        np.testing.assert_allclose(self.at(rho, x), want, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("rho", SERVED)
    def test_within_its_tolerance_of_the_bands(self, rho):
        # the build checks one point per panel; here every panel is sampled
        # about fifty times
        x = np.geomspace(self.X_MIN, self.X_MAX, 4001)
        bands, pending = mlf._bands(rho, 1.0, x)
        assert not pending.any()
        dev = np.abs(self.at(rho, x) / bands - 1.0)
        assert dev.max() <= mlf._TABLE_REL_TOL

    @pytest.mark.parametrize("rho", [0.9999, 1.0 - 1e-6])
    def test_refused_orders_take_the_bands(self, rho):
        assert mlf._relaxation_table(rho) is None
        x = np.geomspace(self.X_MIN, self.X_MAX, 201)
        np.testing.assert_array_equal(self.at(rho, x),
                                      mittag_leffler(rho, 1.0, -x))

    @pytest.mark.parametrize("rho", [0.5, 0.9])
    def test_one_entry_calls_equal_batch_entries(self, rho):
        # rates on both sides of both edges and inside, at t = 0, 1 and inf,
        # so x = 0, the rate and inf; with the table cold and warm
        lams = np.array([1e-3, np.nextafter(self.X_MIN, 0.0), self.X_MIN,
                         np.nextafter(self.X_MIN, 1.0), 3.7, 1234.5,
                         np.nextafter(self.X_MAX, 0.0), self.X_MAX,
                         np.nextafter(self.X_MAX, np.inf), 1e6])
        t = np.array([0.0, 1.0, np.inf])
        mlf._relaxation_table.cache_clear()
        batch = relaxation_curve(rho, lams, t)
        np.testing.assert_array_equal(relaxation_curve(rho, lams, t), batch)
        for i, lam in enumerate(lams):
            np.testing.assert_array_equal(relaxation_curve(rho, lam, t),
                                          batch[i])
            for j, s in enumerate(t):
                assert relaxation(rho, lam, s) == batch[i, j]
                mlf._relaxation_table.cache_clear()
                assert relaxation(rho, lam, s) == batch[i, j]
        # outside the range the values are those of mittag_leffler
        outside = (lams < self.X_MIN) | (lams > self.X_MAX)
        np.testing.assert_array_equal(batch[outside, 1],
                                      mittag_leffler(rho, 1.0, -lams[outside]))
        np.testing.assert_array_equal(batch[:, 0], 1.0)
        np.testing.assert_array_equal(batch[:, 2], 0.0)

    def test_the_build_never_reaches_the_fallback(self, monkeypatch):
        # at this order the bands leave entries to extended precision, so
        # the table is refused, and its build adds no fallback call
        rho = 1.0 - 1e-7
        calls = []
        monkeypatch.setattr(mlf, "_fallback",
                            lambda rho_, beta, x: calls.append(x) or 0.5)
        lam = (np.arange(1, 5) * math.pi) ** 2
        t = np.linspace(0.0, 1.0, 65)
        mlf._relaxation_table.cache_clear()
        relaxation_curve(rho, lam, t)
        via_table, calls[:] = len(calls), []
        mittag_leffler(rho, 1.0, -np.multiply.outer(lam, t ** rho))
        assert len(calls) > 0
        assert via_table == len(calls)
        assert mlf._relaxation_table(rho) is None

    def test_cut_rule_serves_only_table_nodes(self, monkeypatch):
        # the verify-rho09 benchmark's curve (rho = 0.9, the shipped forward
        # config's sigma = 1 at K = 4 modes, N = 2048 steps): its entries lie
        # in the table's range or in the series band below it, so only the
        # table's nodes and check points reach the cut rule, where without
        # the table 3512 of its 8196 entries did
        entries = []
        cut_curve = mlf._branch_cut_curve

        def counted(rho_, beta, x):
            entries.append(x.size)
            return cut_curve(rho_, beta, x)

        monkeypatch.setattr(mlf, "_branch_cut_curve", counted)
        lam_eff = [lam ** 2 for lam in eigenvalues(4, 1.0).tolist()]
        mlf._relaxation_table.cache_clear()
        relaxation_curve(0.9, np.array(lam_eff), TimeGrid(1.0, 2048).nodes)
        assert 0 < sum(entries) <= mlf._TABLE_PANELS * (mlf._TABLE_DEGREE + 1)


class TestSeriesExit:
    """The series band drops an entry once it can no longer pass its gate:
    that changes which entries run, never a value."""

    X = np.geomspace(1e-4, Z_SWITCH, 401)

    @staticmethod
    def passed(val, rel):
        return np.isfinite(val) & (rel <= mlf._REL_TARGET)

    @pytest.mark.parametrize("rho", [0.02, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99])
    def test_same_entries_pass_with_the_same_bits(self, rho, monkeypatch):
        for beta in (rho, 1.0, rho + 2.0, rho / 2.0, 2.5):
            val, rel = mlf._series_curve(rho, beta, self.X)
            with monkeypatch.context() as m:
                m.setattr(mlf, "_SERIES_EXIT", math.inf)
                full_val, full_rel = mlf._series_curve(rho, beta, self.X)
            ok = self.passed(val, rel)
            assert np.array_equal(ok, self.passed(full_val, full_rel))
            np.testing.assert_array_equal(val[ok], full_val[ok])
            np.testing.assert_array_equal(rel[ok], full_rel[ok])
            # an entry the exit drops keeps (nan, inf); every other entry
            # ends as the full sum ends it
            dropped = np.isnan(val) & ~np.isnan(full_val)
            assert np.all(rel[dropped] == math.inf)
            np.testing.assert_array_equal(val[~dropped], full_val[~dropped])
            if beta < rho:
                assert not dropped.any()
            elif rho == 0.5:
                assert dropped.any()


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
    """The kernel through the test-local ``kernel`` above."""

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

    @pytest.mark.parametrize("rho", [-0.5, 0.0, 1.5, float("nan")])
    def test_rejects_bad_orders(self, rho):
        # beta = rho goes through the same order check
        with pytest.raises(DomainError):
            kernel(rho, 1.0, 1.0)


class TestKernelMass:
    """The kernel's interval mass as a relaxation difference."""

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
