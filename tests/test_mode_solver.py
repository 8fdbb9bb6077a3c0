"""Batched mode solver: closed forms, contraction, sign, envelopes; a
single mode is a one-row batch."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest

from subdiff.errors import (
    AdmissibilityError,
    ConvergenceError,
    DomainError,
    GridMismatchError,
)
from subdiff.frackernel import TimeGrid, build_weights
from subdiff.mode_solver import (
    ModeProblem,
    apriori_bounds,
    contraction_bound,
    decompose_mode,
    picard_step,
    solve_mode,
)
from subdiff import mode_solver, profiles
from subdiff.mlf import relaxation, relaxation_curve

from conftest import sample_mode_problem


def make_problem(grid, *, rho=0.5, lam_k=math.pi, sigma=None, q=None,
                 f=None, phi=1.0, k=1):
    sigma = sigma if sigma is not None else profiles.constant(grid, 1.0)
    q = q if q is not None else profiles.constant(grid, 0.0)
    f = f if f is not None else profiles.constant(grid, 0.0)
    return ModeProblem(k=k, lam_k=lam_k, rho=rho, sigma=sigma, q=q,
                       f_k=f.values, phi_k=phi, grid=grid)


GRID = TimeGrid(1.0, 64)


class TestModeProblem:
    def test_rejects_nonpositive_sigma(self):
        sig = profiles.Profile(GRID, np.linspace(-0.1, 1.0, 65))
        with pytest.raises(AdmissibilityError):
            make_problem(GRID, sigma=sig)

    def test_rejects_bad_order(self):
        for rho in (0.0, 1.0001, -0.2):
            with pytest.raises(DomainError):
                make_problem(GRID, rho=rho)

    def test_order_one_refused(self):
        # as ProblemSpec, caputo_l1 and build_weights refuse it
        with pytest.raises(DomainError, match=r"\(0, 1\)"):
            make_problem(GRID, rho=1.0)

    def test_rejects_foreign_grid(self):
        with pytest.raises(GridMismatchError):
            make_problem(GRID, sigma=profiles.constant(TimeGrid(1.0, 32), 1.0))


class TestContractionBound:
    def test_constant_sigma_zero_q(self):
        assert contraction_bound(make_problem(GRID, sigma=profiles.constant(GRID, 2.0))) == 0.0

    def test_affine_sigma(self):
        p = make_problem(GRID, sigma=profiles.affine(GRID, 1.0, 1.0))
        assert contraction_bound(p) == pytest.approx(0.5, rel=1e-14)

    def test_negative_q(self):
        p = make_problem(GRID, q=profiles.constant(GRID, -0.5))
        assert contraction_bound(p) == pytest.approx(0.5 / math.pi ** 2, rel=1e-12)

    def test_warns_when_not_contractive(self):
        p = make_problem(GRID, q=profiles.constant(GRID, -15.0))
        with pytest.warns(UserWarning, match="contraction bound"):
            c = contraction_bound(p)
        assert c >= 1.0


class TestPicardStep:
    def test_zero_input_homogeneous(self):
        p = make_problem(GRID, sigma=profiles.constant(GRID, 2.0), phi=0.7)
        w = build_weights(GRID, p.rho, p.lam_eff)
        out = picard_step(p, np.zeros(65))
        np.testing.assert_allclose(out, 0.7 * w.relax, rtol=1e-14)

    def test_fixed_point_in_one_step_when_bracket_vanishes(self):
        p = make_problem(GRID, sigma=profiles.constant(GRID, 2.0), phi=0.3)
        w = build_weights(GRID, p.rho, p.lam_eff)
        rng = np.random.default_rng(0)
        out = picard_step(p, rng.normal(size=65))
        np.testing.assert_allclose(out, 0.3 * w.relax, rtol=1e-14)

    def test_constant_source_fixed_point(self):
        F, phi, Ms = 2.5, 0.4, 1.5
        p = make_problem(GRID, sigma=profiles.constant(GRID, Ms),
                         f=profiles.constant(GRID, F), phi=phi)
        lam_eff = math.pi ** 2 * Ms
        relax = np.array([relaxation(p.rho, lam_eff, t) for t in GRID.nodes])
        star = phi * relax + (F / lam_eff) * (1.0 - relax)
        np.testing.assert_allclose(picard_step(p, star)[0], star, atol=1e-13)


class TestSolveMode:
    def test_homogeneous_constant_coefficients(self):
        p = make_problem(GRID, sigma=profiles.constant(GRID, 2.0), phi=0.9)
        sol = solve_mode(p)
        assert sol.iterations == 1
        assert sol.u_k[0, 0] == 0.9
        w = build_weights(GRID, p.rho, p.lam_eff)
        np.testing.assert_allclose(sol.u_k, 0.9 * w.relax, rtol=1e-14)

    def test_constant_source_closed_form(self):
        g = TimeGrid(1.0, 1024)
        F, phi, Ms = 1.2, 0.5, 2.0
        p = make_problem(g, sigma=profiles.constant(g, Ms),
                         f=profiles.constant(g, F), phi=phi)
        sol = solve_mode(p, tol=1e-12)
        lam_eff = math.pi ** 2 * Ms
        relax = np.array([relaxation(0.5, lam_eff, t) for t in g.nodes])
        want = phi * relax + (F / lam_eff) * (1.0 - relax)
        assert np.max(np.abs(sol.u_k - want)) < 1e-8

    def test_half_order_closed_form_with_bracket(self):
        # sigma = 1 and q = 0.4 leave the bracket -q nonzero, so Picard has
        # work to do; u = E_{1/2}(-(pi^2 + q) t^{1/2})
        g = TimeGrid(1.0, 1024)
        c = 0.4
        p = make_problem(g, rho=0.5, q=profiles.constant(g, c), phi=1.0)
        sol = solve_mode(p, tol=1e-12)
        assert sol.iterations[0] > 1
        want = relaxation_curve(0.5, math.pi ** 2 + c, g.nodes)
        assert np.max(np.abs(sol.u_k - want)) < 5e-3

    def test_initial_value_exact(self):
        p = make_problem(GRID, sigma=profiles.sinusoidal_offset(GRID, 2.0, 0.5),
                         f=profiles.affine(GRID, 1.0, -0.5), phi=-0.37)
        sol = solve_mode(p)
        assert sol.u_k[0, 0] == -0.37

    def test_sign_preserved(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            p = sample_mode_problem(rng, sign=+1)
            assert np.min(solve_mode(p).u_k) >= -1e-12
            p = sample_mode_problem(rng, sign=-1)
            assert np.max(solve_mode(p).u_k) <= 1e-12

    def test_zero_data_zero_solution(self):
        p = make_problem(GRID, phi=0.0,
                         q=profiles.sinusoidal_offset(GRID, 0.1, 0.05))
        sol = solve_mode(p)
        assert np.all(sol.u_k == 0.0)

    def test_linearity(self):
        g = TimeGrid(1.2, 96)
        sig = profiles.sinusoidal_offset(g, 2.0, 0.6)
        f = profiles.affine(g, 0.5, 1.0)
        base = make_problem(g, sigma=sig, f=f, phi=0.8)
        scaled = make_problem(
            g, sigma=sig, f=f.with_values(3.7 * f.values), phi=3.7 * 0.8)
        a = solve_mode(base, tol=1e-13)
        b = solve_mode(scaled, tol=1e-13)
        np.testing.assert_allclose(b.u_k, 3.7 * a.u_k, rtol=1e-10, atol=1e-12)

    def test_contraction_ratios_within_bound(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            p = sample_mode_problem(rng)
            sol = solve_mode(p)
            assert sol.contraction_estimate <= sol.C_k_bound + 0.05

    def test_nonconvergence_reports_diagnostics(self, monkeypatch):
        p = make_problem(GRID, sigma=profiles.affine(GRID, 1.0, 1.0),
                         f=profiles.constant(GRID, 1.0))
        monkeypatch.setattr(mode_solver, "PICARD_MAX_ITER", 3)
        with pytest.raises(ConvergenceError) as exc:
            solve_mode(p, tol=1e-14)
        assert exc.value.iterations == 3
        assert exc.value.last_update > 0.0

    def test_warm_start_same_fixed_point(self):
        p = make_problem(GRID, sigma=profiles.sinusoidal_offset(GRID, 1.5, 0.4),
                         f=profiles.constant(GRID, 1.0), phi=0.2)
        cold = solve_mode(p, tol=1e-12)
        warm = solve_mode(p, tol=1e-12, initial=cold.u_k + 1e-3)
        np.testing.assert_allclose(warm.u_k, cold.u_k, atol=1e-11)


class TestDecompose:
    def test_zero_source_gives_zero_v(self):
        p = make_problem(GRID, phi=1.3)
        v, w = decompose_mode(p)
        assert np.all(v == 0.0)
        np.testing.assert_allclose(w, solve_mode(p).u_k, atol=1e-12)

    def test_zero_datum_gives_zero_w(self):
        p = make_problem(GRID, phi=0.0, f=profiles.constant(GRID, 2.0))
        v, w = decompose_mode(p)
        assert np.all(w == 0.0)

    def test_superposition(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            p = sample_mode_problem(rng)
            tol = 1e-11
            v, w = decompose_mode(p, tol=tol)
            u = solve_mode(p, tol=tol).u_k
            assert np.max(np.abs(v + w - u)) < 2 * tol * 10


class TestAprioriBounds:
    def test_zero_source(self):
        v_b, w_b = apriori_bounds(make_problem(GRID, phi=2.0))
        assert np.all(v_b == 0.0)
        assert w_b[0, 0] == 2.0

    def test_zero_datum(self):
        v_b, w_b = apriori_bounds(
            make_problem(GRID, phi=0.0, f=profiles.constant(GRID, 1.0)))
        assert np.all(w_b == 0.0)
        assert v_b[0, -1] > 0.0

    def test_envelopes_hold_on_random_problems(self):
        rng = np.random.default_rng(11)
        for _ in range(15):
            p = sample_mode_problem(rng, declare_gaps=True)
            v, w = decompose_mode(p, tol=1e-12)
            v_b, w_b = apriori_bounds(p)
            assert np.all(np.abs(v) <= v_b + 1e-10)
            assert np.all(np.abs(w) <= w_b + 1e-10)

    def test_degenerate_damping_rejected(self):
        q = profiles.Profile(GRID, np.full(65, -2.0), lower=-15.0)
        p = make_problem(GRID, q=q)
        with pytest.raises(DomainError):
            apriori_bounds(p)


def make_batch(grid, ks, *, data_from=1, q=None):
    """Modes ``ks`` of one problem with varying sigma.  Mode k's data scale
    like 10^-k, so against an absolute tolerance the modes converge at
    different iterations; modes below ``data_from`` carry no data and
    converge in one step."""
    t = grid.nodes
    sigma = profiles.sinusoidal_offset(grid, 1.5, 0.4)
    q = q if q is not None else profiles.affine(grid, 0.3, -0.5)
    ks = np.asarray(ks)
    scale = np.where(ks >= data_from, 10.0 ** -ks, 0.0)
    f = scale[:, None] * np.cos(np.outer(ks, t))
    phi = scale
    return ModeProblem(k=ks, lam_k=math.pi * ks, rho=0.6, sigma=sigma, q=q,
                       f_k=f, phi_k=phi, grid=grid)


class TestBatchedSolve:
    """A batch of modes gives each mode, bit for bit, what a solve of that
    mode alone gives."""

    KS = np.arange(1, 7)

    def test_rows_equal_one_row_solves(self):
        g = TimeGrid(1.0, 200)
        batch = make_batch(g, self.KS)
        sol = solve_mode(batch, tol=1e-12)
        # the rows converge at different iterations, so rows freeze early
        assert len(set(sol.iterations.tolist())) > 1
        for i in range(len(self.KS)):
            one = solve_mode(batch.take([i]), tol=1e-12)
            assert np.array_equal(sol.u_k[i], one.u_k[0])
            assert sol.iterations[i] == one.iterations[0]
            assert sol.contraction_estimate[i] == one.contraction_estimate[0]
            assert sol.C_k_bound[i] == one.C_k_bound[0]

    def test_take_matches_a_fresh_one_mode_problem(self):
        g = TimeGrid(1.0, 64)
        batch = make_batch(g, self.KS)
        fresh = make_batch(g, self.KS[3:4])
        assert fresh.lam_eff == batch.take([3]).lam_eff
        assert np.array_equal(solve_mode(fresh).u_k,
                              solve_mode(batch.take([3])).u_k)

    def test_warm_start_rows(self):
        g = TimeGrid(1.0, 64)
        batch = make_batch(g, self.KS)
        cold = solve_mode(batch, tol=1e-12)
        warm = solve_mode(batch, tol=1e-12, initial=cold.u_k + 1e-3)
        np.testing.assert_allclose(warm.u_k, cold.u_k, atol=1e-11)
        with pytest.raises(GridMismatchError):
            solve_mode(batch, initial=cold.u_k[:2])

    def test_nonconvergence_names_first_unconverged_mode(self, monkeypatch):
        g = TimeGrid(1.0, 64)
        # modes 1 and 2 carry no data and stop after one step
        batch = make_batch(g, self.KS, data_from=3)
        monkeypatch.setattr(mode_solver, "PICARD_MAX_ITER", 3)
        with pytest.raises(ConvergenceError, match="^mode 3: ") as exc:
            solve_mode(batch, tol=1e-15)
        with pytest.raises(ConvergenceError) as alone:
            solve_mode(batch.take([2]), tol=1e-15)
        assert str(exc.value) == str(alone.value)
        assert exc.value.iterations == 3
        assert exc.value.last_update == alone.value.last_update > 0.0
        assert (exc.value.contraction_estimate
                == alone.value.contraction_estimate)

    def test_contraction_warnings_per_mode(self):
        g = TimeGrid(1.0, 64)
        # C_k, about 80 / (k pi)^2 / 1.84, falls below 1 from k = 3 on
        batch = make_batch(g, self.KS, q=profiles.constant(g, -80.0))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            bounds = contraction_bound(batch)
        texts = [str(w.message) for w in caught]
        want = []
        for i in range(len(self.KS)):
            with warnings.catch_warnings(record=True) as one:
                warnings.simplefilter("always")
                assert contraction_bound(batch.take([i]))[0] == bounds[i]
            want += [str(w.message) for w in one]
        assert texts == want
        assert texts == [
            f"mode {k}: contraction bound {bounds[k - 1]:.4f} >= 1; "
            f"Picard iteration may not converge" for k in (1, 2)]

    def test_rejects_mismatched_rows(self):
        g = TimeGrid(1.0, 16)
        with pytest.raises(DomainError):
            ModeProblem(k=[1, 2], lam_k=[math.pi], rho=0.5,
                        sigma=profiles.constant(g, 1.0),
                        q=profiles.constant(g, 0.0), f_k=np.zeros((2, 17)),
                        phi_k=[0.0, 0.0], grid=g)
        with pytest.raises(GridMismatchError):
            ModeProblem(k=[1, 2], lam_k=[math.pi, 2 * math.pi], rho=0.5,
                        sigma=profiles.constant(g, 1.0),
                        q=profiles.constant(g, 0.0), f_k=np.zeros(17),
                        phi_k=[0.0, 0.0], grid=g)
