"""Forward-solve orchestration: admissibility report, assembly, diagnostics."""

import math
import warnings
from dataclasses import replace

import mpmath as mp
import numpy as np
import pytest

from subdiff.errors import (
    AdmissibilityError,
    AliasingError,
    DomainError,
    GridMismatchError,
)
from subdiff.forward import (
    FieldSolution,
    ProblemSpec,
    default_mode_count,
    residual_check,
    solve_forward,
    validate_assumption1,
)
from subdiff.frackernel import TimeGrid, caputo_l1
from subdiff.oracle import solve_fd
from subdiff.profiles import Profile, constant
from subdiff.spectral import SpaceGrid, eigenvalues, sine_coefficients

from conftest import l1_direct, make_manufactured


def tiny_spec(n=8, m=8, q=0.1, sigma=2.0, K=None):
    tg, sg = TimeGrid(1.0, n), SpaceGrid(1.0, m)
    return ProblemSpec(
        sgrid=sg, tgrid=tg, rho=0.5,
        sigma=constant(tg, sigma),
        q=None if q is None else constant(tg, q),
        f=np.zeros((n + 1, m + 1)), phi=np.zeros(m + 1), K=K)


def make_quadratic(n, m, rho=0.5):
    """Manufactured u* = (1+t^2) sqrt(2) sin(pi x): source smooth in time."""
    tg, sg = TimeGrid(1.0, n), SpaceGrid(1.0, m)
    t, x = tg.nodes[:, None], sg.nodes[None, :]
    shape = math.sqrt(2.0) * np.sin(math.pi * x)
    shape[0, 0] = shape[0, -1] = 0.0
    u_star = (1.0 + t ** 2) * shape
    drho = 2.0 * t ** (2.0 - rho) / math.gamma(3.0 - rho)
    f = (drho + (math.pi ** 2 + 0.1) * (1.0 + t ** 2)) * shape
    spec = ProblemSpec(sgrid=sg, tgrid=tg, rho=rho, sigma=constant(tg, 1.0),
                       q=constant(tg, 0.1), f=f, phi=u_star[0].copy())
    return spec, u_star


class TestProblemSpec:
    def test_default_truncation(self):
        assert tiny_spec(m=8).K == 2
        assert tiny_spec(m=64).K == 16
        assert tiny_spec(m=512).K == 64

    def test_carries_the_sine_coefficients_of_the_data(self):
        spec, _ = make_quadratic(16, 32)
        assert np.array_equal(spec.phi_k,
                              sine_coefficients(spec.sgrid, spec.phi, spec.K))
        assert np.array_equal(spec.f_k,
                              sine_coefficients(spec.sgrid, spec.f, spec.K).T)
        assert spec.phi_k.shape == (8,) and spec.f_k.shape == (8, 17)

    def test_rejects_bad_field_shape(self):
        tg, sg = TimeGrid(1.0, 4), SpaceGrid(1.0, 4)
        with pytest.raises(GridMismatchError):
            ProblemSpec(sgrid=sg, tgrid=tg, rho=0.5, sigma=constant(tg, 1.0),
                        q=constant(tg, 0.0), f=np.zeros((4, 5)),
                        phi=np.zeros(5))

    def test_rejects_bad_datum_shape(self):
        tg, sg = TimeGrid(1.0, 4), SpaceGrid(1.0, 4)
        with pytest.raises(GridMismatchError):
            ProblemSpec(sgrid=sg, tgrid=tg, rho=0.5, sigma=constant(tg, 1.0),
                        q=constant(tg, 0.0), f=np.zeros((5, 5)),
                        phi=np.zeros(4))

    def test_rejects_aliased_truncation(self):
        with pytest.raises(AliasingError):
            tiny_spec(m=8, K=5)

    @pytest.mark.parametrize("rho", [0.0, 1.0, 1.3, -0.5])
    def test_rejects_bad_order(self, rho):
        tg, sg = TimeGrid(1.0, 4), SpaceGrid(1.0, 4)
        with pytest.raises(DomainError):
            ProblemSpec(sgrid=sg, tgrid=tg, rho=rho, sigma=constant(tg, 1.0),
                        q=constant(tg, 0.0), f=np.zeros((5, 5)),
                        phi=np.zeros(5))

    def test_rejects_foreign_coefficient_grid(self):
        tg, sg = TimeGrid(1.0, 4), SpaceGrid(1.0, 4)
        other = TimeGrid(2.0, 4)
        with pytest.raises(GridMismatchError):
            ProblemSpec(sgrid=sg, tgrid=tg, rho=0.5,
                        sigma=constant(other, 1.0), q=constant(tg, 0.0),
                        f=np.zeros((5, 5)), phi=np.zeros(5))


class TestAssumptionReport:
    def test_pinned_extrema_and_window(self):
        n = 64
        tg, sg = TimeGrid(1.0, n), SpaceGrid(1.0, 32)
        spec = ProblemSpec(
            sgrid=sg, tgrid=tg, rho=0.5,
            sigma=Profile(tg, 2.0 + np.sin(tg.nodes)),
            q=constant(tg, 1.0),
            f=np.zeros((n + 1, 33)), phi=np.zeros(33))
        r = validate_assumption1(spec)
        assert r.m_sigma == pytest.approx(2.0)
        assert r.M_sigma == pytest.approx(2.0 + math.sin(1.0))
        lo, hi = r.q_window
        assert lo == pytest.approx(-2.0 * math.pi ** 2)
        assert hi == pytest.approx(math.sin(1.0) * math.pi ** 2)
        assert r.all_passed

    def test_window_from_declared_bounds(self):
        # sigma = 2 sampled, declared in [0.5, 4]: the report, the mode
        # solver and the inverse clamp all read the declared bounds
        n = 16
        tg, sg = TimeGrid(1.0, n), SpaceGrid(1.0, 8)
        spec = ProblemSpec(sgrid=sg, tgrid=tg, rho=0.5,
                           sigma=Profile(tg, np.full(n + 1, 2.0),
                                         lower=0.5, upper=4.0),
                           q=constant(tg, 0.3),
                           f=np.zeros((n + 1, 9)), phi=np.zeros(9))
        r = validate_assumption1(spec)
        assert r.q_window == spec.q_window == (-0.5 * math.pi ** 2,
                                               3.5 * math.pi ** 2)
        assert (r.m_sigma, r.M_sigma) == (0.5, 4.0)
        assert r.cond2_q_in_window and r.all_passed

    def test_zero_q_needs_varying_sigma(self):
        # constant sigma degenerates the window to (-m pi^2, 0), which the
        # strict upper inequality closes even for q = 0
        n = 16
        tg, sg = TimeGrid(1.0, n), SpaceGrid(1.0, 8)
        flat = ProblemSpec(sgrid=sg, tgrid=tg, rho=0.5,
                           sigma=constant(tg, 1.0), q=constant(tg, 0.0),
                           f=np.zeros((n + 1, 9)), phi=np.zeros(9))
        assert not validate_assumption1(flat).cond2_q_in_window
        wavy = ProblemSpec(sgrid=sg, tgrid=tg, rho=0.5,
                           sigma=Profile(tg, 2.0 + np.sin(tg.nodes)),
                           q=constant(tg, 0.0),
                           f=np.zeros((n + 1, 9)), phi=np.zeros(9))
        assert validate_assumption1(wavy).cond2_q_in_window

    def test_endpoint_defect_detected(self):
        n, m = 8, 8
        tg, sg = TimeGrid(1.0, n), SpaceGrid(1.0, m)
        spec = ProblemSpec(sgrid=sg, tgrid=tg, rho=0.5,
                           sigma=constant(tg, 1.0), q=constant(tg, 0.1),
                           f=np.zeros((n + 1, m + 1)), phi=sg.nodes.copy())
        r = validate_assumption1(spec)
        assert not r.cond3_endpoints
        assert r.endpoint_defect == pytest.approx(1.0)

        f = np.zeros((n + 1, m + 1))
        f[3, -1] = 2e-3
        spec = ProblemSpec(sgrid=sg, tgrid=tg, rho=0.5,
                           sigma=constant(tg, 1.0), q=constant(tg, 0.1),
                           f=f, phi=np.zeros(m + 1))
        assert validate_assumption1(spec).endpoint_defect == pytest.approx(2e-3)

    def test_absent_q_reports_window_only(self):
        spec = tiny_spec(q=None)
        r = validate_assumption1(spec)
        assert r.n_q is None and r.N_q is None
        assert r.cond2_q_in_window  # window itself is nonempty


class TestSolveForward:
    def test_single_mode_closed_form(self):
        # phi = sqrt(2) sin(pi x), f = 0, sigma = 2, q = 0:
        # u = sqrt(2) E_{rho,1}(-2 pi^2 t^rho) sin(pi x), and at rho = 1/2
        # E_{1/2,1}(-x) = exp(x^2) erfc(x)
        n, m, rho = 64, 32, 0.5
        tg, sg = TimeGrid(1.0, n), SpaceGrid(1.0, m)
        phi = math.sqrt(2.0) * np.sin(math.pi * sg.nodes)
        phi[0] = phi[-1] = 0.0
        spec = ProblemSpec(sgrid=sg, tgrid=tg, rho=rho,
                           sigma=constant(tg, 2.0), q=constant(tg, 0.0),
                           f=np.zeros((n + 1, m + 1)), phi=phi)
        with pytest.warns(UserWarning):
            sol = solve_forward(spec)
        with mp.workdps(40):
            relax = np.array([float(mp.exp(x ** 2) * mp.erfc(x)) for x in (
                mp.mpf(2.0 * math.pi ** 2 * t ** rho) for t in tg.nodes)])
        want = relax[:, None] * phi[None, :]
        assert np.max(np.abs(sol.u - want)) < 1e-8

    def test_zero_data_zero_solution(self):
        with pytest.warns(UserWarning):  # constant sigma closes the q window
            sol = solve_forward(tiny_spec(n=16, m=8))
        assert np.all(sol.u == 0.0)
        assert sol.diagnostics["q1_value"] == 0.0

    def test_manufactured_error_small(self):
        spec, u_star = make_manufactured(256, 64)
        with pytest.warns(UserWarning):
            sol = solve_forward(spec)
        assert np.max(np.abs(sol.u - u_star)) < 3e-3

    def test_largest_default_mode_count(self):
        # K = 64 is default_mode_count's cap and M = 128 the fewest cells
        # that keep it under the aliasing cap; the bound is the verify
        # command's default cross gap, which the forward benchmark also
        # applies to the manufactured error
        max_gap = 5e-3
        spec, u_star = make_quadratic(128, 128)
        spec = replace(spec, K=default_mode_count(1 << 20))
        assert spec.K == 64
        with pytest.warns(UserWarning):  # constant sigma closes the q window
            sol = solve_forward(spec)
        assert len(sol.diagnostics["picard_iterations"]) == 64
        assert np.max(np.abs(sol.u - u_star)) <= max_gap
        assert np.max(np.abs(sol.u - solve_fd(spec).u)) <= max_gap

    def test_manufactured_refinement_monotone(self):
        errs = []
        for n, m in ((128, 32), (256, 64), (512, 128)):
            spec, u_star = make_manufactured(n, m)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                sol = solve_forward(spec)
            errs.append(np.max(np.abs(sol.u - u_star)))
        assert errs[0] > errs[1] > errs[2]

    def test_boundary_rows_exact_and_datum_recovered(self):
        spec, u_star = make_manufactured(64, 32)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            sol = solve_forward(spec)
        assert np.all(sol.u[:, 0] == 0.0)
        assert np.all(sol.u[:, -1] == 0.0)
        assert sol.diagnostics["init_defect"] < 1e-9
        assert np.max(np.abs(sol.u[0] - spec.phi)) < 1e-9

    def test_refuses_nonpositive_sigma(self):
        # the spec owns Assumption 1, so no solver ever sees such data
        n, m = 8, 8
        tg, sg = TimeGrid(1.0, n), SpaceGrid(1.0, m)
        with pytest.raises(AdmissibilityError):
            ProblemSpec(sgrid=sg, tgrid=tg, rho=0.5,
                        sigma=Profile(tg, 1.0 - tg.nodes),  # hits 0 at T
                        q=constant(tg, 0.1),
                        f=np.zeros((n + 1, m + 1)), phi=np.zeros(m + 1))

    def test_refuses_sigma_declared_positive_over_a_negative_node(self):
        # a declared bound 1e-12 above the samples passes the round-off
        # slack, but not across zero: the profile is refused, so the spec
        # never sees a sigma that is negative at a node
        n, m = 8, 8
        tg, sg = TimeGrid(1.0, n), SpaceGrid(1.0, m)
        values = np.ones(n + 1)
        values[4] = -5e-13
        with pytest.raises(DomainError, match="declared lower bound"):
            ProblemSpec(sgrid=sg, tgrid=tg, rho=0.5,
                        sigma=Profile(tg, values, lower=5e-13),
                        q=constant(tg, 0.1),
                        f=np.zeros((n + 1, m + 1)), phi=np.zeros(m + 1))
        with pytest.raises(AdmissibilityError):
            ProblemSpec(sgrid=sg, tgrid=tg, rho=0.5,
                        sigma=Profile(tg, values), q=constant(tg, 0.1),
                        f=np.zeros((n + 1, m + 1)), phi=np.zeros(m + 1))

    def test_requires_reaction_coefficient(self):
        with pytest.raises(DomainError):
            solve_forward(tiny_spec(q=None))

    def test_refuses_a_second_reaction_coefficient(self):
        # a spec that carries q is never solved at another one in silence
        spec = tiny_spec(q=0.1)
        other = constant(spec.tgrid, 0.2)
        for call in (solve_forward, validate_assumption1):
            with pytest.raises(DomainError, match="carries its own"):
                call(spec, q=other)

    def test_window_exit_warns_but_solves(self):
        spec, _ = make_manufactured(32, 16)  # sigma const, q=0.1 outside
        with pytest.warns(UserWarning, match="window"):
            sol = solve_forward(spec)
        assert isinstance(sol, FieldSolution)

    def test_positive_data_keeps_modes_positive(self):
        n, m, K = 64, 32, 4
        tg, sg = TimeGrid(0.5, n), SpaceGrid(1.0, m)
        lam = eigenvalues(K, 1.0)
        basis = math.sqrt(2.0) * np.sin(np.outer(sg.nodes, lam))
        phi = basis @ np.array([0.4, 0.3, 0.2, 0.1])
        phi[0] = phi[-1] = 0.0
        f = (np.array([0.5, 0.3, 0.2, 0.1])[None, :]
             * (1.0 + 0.5 * np.sin(tg.nodes))[:, None]) @ basis.T
        f[:, 0] = f[:, -1] = 0.0
        spec = ProblemSpec(sgrid=sg, tgrid=tg, rho=0.5,
                           sigma=Profile(tg, 1.5 + 0.3 * np.sin(tg.nodes)),
                           q=constant(tg, 0.2), f=f, phi=phi, K=K)
        sol = solve_forward(spec)
        assert sol.u_k.min() >= -1e-12

    def test_weighted_sum_within_bound(self):
        spec, _ = make_manufactured(128, 32)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            sol = solve_forward(spec)
        d = sol.diagnostics
        assert d["q1_value"] <= d["q1_bound"] + 1e-10

    def test_nonconvergence_names_the_mode(self):
        from subdiff.errors import ConvergenceError
        spec, _ = make_manufactured(64, 32)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(ConvergenceError, match="mode"):
                solve_forward(spec, tol=1e-15, max_iter=1)


class TestRefinementAcrossOrder:
    @pytest.mark.parametrize("rho", [0.1, 0.3, 0.5, 0.7, 0.9])
    def test_temporal_order(self, rho):
        # the quadratic-in-t field at fixed space grid: the observed order
        # grows with rho, about 1 + rho on N = 64..512 (1.01 at rho = 0.1,
        # 1.89 at rho = 0.9); the floor sits 0.2 below it
        errs = []
        for n in (64, 128, 256, 512):
            spec, u_star = make_quadratic(n, 32, rho=rho)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # constant sigma: q window
                errs.append(np.max(np.abs(solve_forward(spec).u - u_star)))
        orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert orders.min() >= 1.0 + rho - 0.2


class TestBlowupShape:
    def test_second_derivative_decay_exponent(self):
        # phi_k = 1/lam_k makes sup|u_xx| trace the t^{-rho} envelope; with
        # sigma const and q = 0 the mode values are Mittag-Leffler-exact, so
        # the fit sees the continuous decay, not scheme error
        K, m, n, rho = 32, 64, 512, 0.5
        lam = eigenvalues(K, 1.0)
        t1 = (50.0 / lam[-1] ** 2) ** (1.0 / rho)
        tg, sg = TimeGrid(n * t1, n), SpaceGrid(1.0, m)
        phi = (math.sqrt(2.0) * np.sin(np.outer(sg.nodes, lam))) @ (1.0 / lam)
        phi[0] = phi[-1] = 0.0
        spec = ProblemSpec(sgrid=sg, tgrid=tg, rho=rho,
                           sigma=constant(tg, 1.0), q=constant(tg, 0.0),
                           f=np.zeros((n + 1, m + 1)), phi=phi, K=K)
        with pytest.warns(UserWarning):
            sol = solve_forward(spec)
        assert sol.diagnostics["q2_fitted_exponent"] <= -rho + 0.15
        assert np.isfinite(sol.diagnostics["q2_weighted_max"])


class TestResidual:
    def test_zero_data_zero_residual(self):
        spec = tiny_spec(n=16, m=8)
        with pytest.warns(UserWarning):
            sol = solve_forward(spec)
        assert residual_check(sol, spec) == 0.0

    def test_smooth_manufactured_residual_small(self):
        spec, _ = make_quadratic(512, 128)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            sol = solve_forward(spec)
        assert residual_check(sol, spec) < 1e-2

    def test_matches_per_column_l1(self):
        # the shipped forward config: the batched L1 derivative against the
        # per-column direct sum
        spec, _ = make_quadratic(512, 128)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            sol = solve_forward(spec)
        nx = spec.sgrid.n_cells
        dcap = np.column_stack([l1_direct(spec.tgrid, sol.u[:, i], spec.rho)
                                for i in range(1, nx)])
        batched = caputo_l1(spec.tgrid, sol.u[:, 1:nx], spec.rho)
        np.testing.assert_allclose(batched[1:], dcap[1:], rtol=0.0,
                                   atol=1e-12 * np.max(np.abs(dcap[1:])))
        res = (dcap - spec.sigma.values[:, None] * sol.u_xx_diag[:, 1:nx]
               + spec.q.values[:, None] * sol.u[:, 1:nx] - spec.f[:, 1:nx])
        want = float(np.max(np.abs(res[1:])))
        assert residual_check(sol, spec) == pytest.approx(want, rel=1e-12)

    def test_residual_decreases_under_refinement(self):
        vals = []
        for n, m in ((128, 32), (256, 64), (512, 128)):
            spec, _ = make_quadratic(n, m)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                sol = solve_forward(spec)
            vals.append(residual_check(sol, spec))
        assert vals[0] > vals[1] > vals[2]

    def test_linear_manufactured_residual_decreases(self):
        # the linear case's source carries a t^{1-rho} factor whose first
        # cells the quadrature only resolves to O(h); the residual inherits
        # an O(sqrt(h)) initial layer, so only decay is asserted here
        vals = []
        for n, m in ((128, 32), (256, 64), (512, 128)):
            spec, _ = make_manufactured(n, m)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                sol = solve_forward(spec)
            vals.append(residual_check(sol, spec))
        assert vals[0] > vals[1] > vals[2]
        assert vals[2] < 5e-2

    def test_fd_residual_within_three_of_spectral(self):
        spec, _ = make_quadratic(256, 64)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            sol = solve_forward(spec)
        r_spec = residual_check(sol, spec)
        r_fd = residual_check(solve_fd(spec), spec)
        assert r_fd <= 3.0 * r_spec

    def test_rejects_mismatched_grids(self):
        spec = tiny_spec(n=16, m=8)
        with pytest.warns(UserWarning):
            sol = solve_forward(spec)
        other = tiny_spec(n=8, m=8)
        with pytest.raises(GridMismatchError):
            residual_check(sol, other)
