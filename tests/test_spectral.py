"""Sine-basis transforms, boundary traces, and tail diagnostics."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subdiff.errors import AliasingError, DomainError
from subdiff.spectral import (
    SpaceGrid,
    assemble_field,
    basis,
    eigenvalues,
    flux_at_left,
    sine_coefficients,
    tail_diagnostics,
    third_trace_at_left,
)

class TestSpaceGrid:
    def test_nodes(self):
        g = SpaceGrid(2.0, 4)
        np.testing.assert_allclose(g.nodes, [0.0, 0.5, 1.0, 1.5, 2.0])
        assert g.h == 0.5

    @pytest.mark.parametrize("l,M", [(0.0, 4), (1.0, 3), (1.0, 0), (-2.0, 8)])
    def test_invalid(self, l, M):
        with pytest.raises(DomainError):
            SpaceGrid(l, M)


class TestEigenvalue:
    def test_pinned(self):
        assert eigenvalues(1, math.pi)[0] == pytest.approx(1.0, rel=1e-15)
        assert eigenvalues(3, 1.0)[2] == pytest.approx(3.0 * math.pi,
                                                       rel=1e-15)
        assert eigenvalues(2, 2.0)[1] == pytest.approx(math.pi, rel=1e-15)

    def test_strictly_increasing(self):
        lam = eigenvalues(12, 0.7)
        assert np.all(np.diff(lam) > 0)
        assert lam[0] == pytest.approx(math.pi / 0.7)


class TestSineCoefficients:
    def test_pure_mode(self):
        g = SpaceGrid(1.0, 256)
        c = sine_coefficients(g, np.sin(math.pi * g.nodes), 4)
        # sin(pi x) = (1/sqrt2) e_1, so c_1 = 1/sqrt2 and the rest vanish
        assert c[0] == pytest.approx(math.sqrt(2.0) / 2.0, abs=1e-10)
        assert np.all(np.abs(c[1:]) < 1e-10)

    def test_zero_function(self):
        g = SpaceGrid(1.0, 64)
        assert np.all(sine_coefficients(g, np.zeros(65), 8) == 0.0)

    def test_parabola_analytic(self):
        # phi(x) = x(1-x) on l=1: c_k = sqrt2 * 2(1-(-1)^k)/(k pi)^3
        g = SpaceGrid(1.0, 256)
        x = g.nodes
        c = sine_coefficients(g, x * (1.0 - x), 6)
        for k in range(1, 7):
            want = math.sqrt(2.0) * 2.0 * (1.0 - (-1.0) ** k) / (k * math.pi) ** 3
            assert c[k - 1] == pytest.approx(want, abs=1e-9)

    def test_field_transform_matches_per_row(self):
        g = SpaceGrid(1.0, 32)
        rng = np.random.default_rng(7)
        field = rng.normal(size=(5, 33))
        all_at_once = sine_coefficients(g, field, 8)
        for n in range(5):
            np.testing.assert_allclose(
                all_at_once[n], sine_coefficients(g, field[n], 8), atol=1e-14)

    def test_basis_rows_are_the_sampled_sines(self):
        g = SpaceGrid(1.5, 64)
        e = basis(g, 32)
        assert e.shape == (32, 65) and not e.flags.writeable
        for k in (1, 7, 32):
            want = math.sqrt(2.0 / 1.5) * np.sin(k * math.pi * g.nodes / 1.5)
            want[0] = want[-1] = 0.0
            np.testing.assert_array_equal(e[k - 1], want)

    def test_aliasing_cap(self):
        g = SpaceGrid(1.0, 16)
        sine_coefficients(g, np.zeros(17), 8)
        with pytest.raises(AliasingError):
            sine_coefficients(g, np.zeros(17), 9)
        with pytest.raises(DomainError):
            sine_coefficients(g, np.zeros(17), 0)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.floats(-2.0, 2.0), min_size=6, max_size=6))
    def test_parseval_inequality(self, amps):
        g = SpaceGrid(1.0, 128)
        x = g.nodes
        f = sum(a * np.sin(math.pi * (i + 1) * x) for i, a in enumerate(amps))
        f = np.asarray(f) + 0.0
        c = sine_coefficients(g, f, 32)
        assert np.sum(c ** 2) <= g.h * (f @ f) + 1e-8

    @pytest.mark.parametrize("m", [8, 128])
    def test_every_retained_mode_round_trips(self, m):
        # e_{M/2} is nonzero only on the odd nodes, so a quadrature that
        # weighs them apart from the even ones (Simpson's 4h/3) skews it
        g = SpaceGrid(1.0, m)
        c = sine_coefficients(g, basis(g, m // 2), m // 2)
        np.testing.assert_allclose(c, np.eye(m // 2), rtol=0.0, atol=1e-14)


class TestAssemble:
    def test_single_mode(self):
        g = SpaceGrid(1.0, 64)
        u = assemble_field(np.ones((1, 5)), g)
        want = math.sqrt(2.0) * np.sin(math.pi * g.nodes)
        for n in range(5):
            np.testing.assert_allclose(u[n, 1:-1], want[1:-1], rtol=1e-13)

    def test_zero_modes(self):
        assert np.all(assemble_field(np.zeros((3, 5)), SpaceGrid(1.0, 16))
                      == 0.0)

    def test_boundary_exact_zero(self):
        rng = np.random.default_rng(3)
        u = assemble_field(rng.normal(size=(7, 5)), SpaceGrid(1.0, 32))
        assert np.all(u[:, 0] == 0.0)
        assert np.all(u[:, -1] == 0.0)

    def test_round_trip(self):
        rng = np.random.default_rng(11)
        coeffs = rng.normal(size=(16, 5)) / (1.0 + np.arange(16.0))[:, None]
        g = SpaceGrid(1.5, 64)  # K = M/4
        u = assemble_field(coeffs, g)
        back = sine_coefficients(g, u, 16).T
        np.testing.assert_allclose(back, coeffs, atol=1e-9)


class TestTraces:
    def test_flux_single_mode(self):
        psi = flux_at_left(np.ones((1, 5)), 1.0)
        np.testing.assert_allclose(psi, math.pi * math.sqrt(2.0), rtol=1e-14)

    def test_flux_zero(self):
        assert np.all(flux_at_left(np.zeros((4, 5)), 1.0) == 0.0)

    def test_flux_matches_one_sided_difference(self):
        gt = np.array([1.0, 1.1, 0.9, 1.3, 0.7])
        g = SpaceGrid(1.0, 256)
        u = assemble_field(gt[None, :], g)
        fd = (-3.0 * u[:, 0] + 4.0 * u[:, 1] - u[:, 2]) / (2.0 * g.h)
        np.testing.assert_allclose(flux_at_left(gt[None, :], 1.0), fd,
                                   atol=1e-3)

    def test_third_trace_single_mode(self):
        got = third_trace_at_left(np.ones((1, 5)), 1.0)
        np.testing.assert_allclose(got, -math.pi ** 3 * math.sqrt(2.0),
                                   rtol=1e-14)

    def test_third_trace_matches_forward_difference(self):
        coeffs = np.full((1, 5), 0.8)
        g = SpaceGrid(1.0, 512)
        u = assemble_field(coeffs, g)
        fd = (u[:, 3] - 3.0 * u[:, 2] + 3.0 * u[:, 1] - u[:, 0]) / g.h ** 3
        got = third_trace_at_left(coeffs, 1.0)
        assert np.all(np.abs(got - fd) < 0.02 * np.abs(got))


class TestTailDiagnostics:
    def test_zero_data(self):
        rep = tail_diagnostics(eigenvalues(8, 1.0), np.zeros(8), np.zeros((8, 5)))
        assert rep.phi_sum == 0.0 and rep.f_sum == 0.0
        assert rep.phi_decaying and rep.f_decaying

    def test_single_mode(self):
        lam = eigenvalues(1, 1.0)
        rep = tail_diagnostics(lam, np.array([1.0]), weight_power=2)
        assert rep.phi_sum == pytest.approx(math.pi ** 2, rel=1e-14)

    def test_parabola_per_mode_increments_shrink_but_sum_diverges(self):
        # x(1-x) has c_k ~ k^-3, so per-mode lambda^2-weighted increments
        # shrink like 1/k -- yet the full sum diverges logarithmically
        # (lambda_k^2 |c_k| = 4 sqrt2/(k pi) on odd k), so the dyadic-block
        # proxy must flag non-decay.  A naive reading of the increments alone
        # would wrongly suggest convergence.
        K = 32
        lam = eigenvalues(K, 1.0)
        k = np.arange(1, K + 1)
        phi = math.sqrt(2.0) * 2.0 * (1.0 - (-1.0) ** k) / (k * math.pi) ** 3
        inc = lam ** 2 * np.abs(phi)
        odd = inc[::2]
        assert np.all(np.diff(odd) < 0)
        rep = tail_diagnostics(lam, phi, weight_power=2)
        assert not rep.phi_decaying

    def test_cubically_damped_coefficients_decay(self):
        # c_k ~ k^-4 makes the p=2 weighted tail genuinely summable
        K = 32
        lam = eigenvalues(K, 1.0)
        phi = 1.0 / np.arange(1, K + 1) ** 4
        rep = tail_diagnostics(lam, phi, weight_power=2)
        assert rep.phi_decaying
        assert rep.phi_tail < 0.1 * rep.phi_sum

    @pytest.mark.parametrize("p", [2, 3])
    def test_single_sine_mode_reads_decaying(self, p):
        # projecting one sine mode leaves round-off in the upper coefficients,
        # which the weights lambda_k^p amplify to tails of 1e-11 to 2e-7;
        # that noise is not a growing tail
        K, sgrid = 32, SpaceGrid(1.0, 128)
        lam = eigenvalues(K, 1.0)
        e1 = math.sqrt(2.0) * np.sin(math.pi * sgrid.nodes)
        phi = sine_coefficients(sgrid, e1, K)
        amp = 10.0 + 200.0 * np.linspace(0.0, 1.0, 9) ** 2
        f = sine_coefficients(sgrid, amp[:, None] * e1, K).T
        assert np.max(np.abs(phi[1:])) > 0.0  # the round-off is really there
        rep = tail_diagnostics(lam, phi, f, weight_power=p)
        assert rep.phi_tail > 0.0 and rep.f_tail > 0.0
        assert rep.phi_decaying and rep.f_decaying
        # the same data with a flat upper half is a growing tail
        grown = phi + np.where(np.arange(K) >= K // 2, 1e-6, 0.0)
        rep = tail_diagnostics(lam, grown, f + 1e-6, weight_power=p)
        assert not rep.phi_decaying and not rep.f_decaying

    def test_flat_coefficients_flagged(self):
        K = 16
        rep = tail_diagnostics(eigenvalues(K, 1.0), np.ones(K), weight_power=3)
        assert not rep.phi_decaying

    def test_trajectory_max_over_time(self):
        lam = eigenvalues(2, 1.0)
        f = np.array([[0.0, 2.0, 1.0], [1.0, 0.0, 0.5]])
        rep = tail_diagnostics(lam, np.zeros(2), f, weight_power=2)
        # max_t of lam1^2|f1| + lam2^2|f2| hits t=0: 0 + 4pi^2*1
        want = max(2.0 * math.pi ** 2, 4.0 * math.pi ** 2,
                   1.0 * math.pi ** 2 + 0.5 * 4.0 * math.pi ** 2)
        assert rep.f_sum == pytest.approx(want, rel=1e-13)

    def test_bad_weight_power(self):
        with pytest.raises(DomainError):
            tail_diagnostics(eigenvalues(4, 1.0), np.zeros(4), weight_power=4)
