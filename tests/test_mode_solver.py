"""Batched mode solver: closed forms, contraction, sign, envelopes, the
causal march and its singular steps; a single mode is a one-row batch."""

from __future__ import annotations

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from subdiff.errors import (
    AdmissibilityError,
    DomainError,
    GridMismatchError,
    SingularSystemError,
)
from subdiff.forward import ProblemSpec, solve_forward
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
from subdiff.spectral import SpaceGrid

from conftest import picard_ratio, sample_mode_problem, zero_divisor_bracket


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

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf],
                             ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("field", ["lam_k", "phi_k", "f_k"])
    def test_rejects_data_that_are_not_finite(self, field, bad):
        # a NaN initial value would march to NaN rows, and a NaN eigenvalue
        # would surface as a stiffness the weight build refuses
        p = make_problem(GRID)
        value = getattr(p, field).copy()
        value.flat[-1] = bad
        with pytest.raises(DomainError, match="must be .*finite"):
            replace(p, **{field: value})

    @pytest.mark.parametrize("lam_k", [0.0, -1.0])
    def test_rejects_nonpositive_eigenvalue(self, lam_k):
        with pytest.raises(DomainError, match="eigenvalues must be positive"):
            make_problem(GRID, lam_k=lam_k)

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
        # the solve does not read the bound, so it does not warn
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            solve_mode(p)


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
        u = solve_mode(p)
        assert u[0, 0] == 0.9
        w = build_weights(GRID, p.rho, p.lam_eff)
        np.testing.assert_allclose(u, 0.9 * w.relax, rtol=1e-14)

    def test_constant_source_closed_form(self):
        g = TimeGrid(1.0, 1024)
        F, phi, Ms = 1.2, 0.5, 2.0
        p = make_problem(g, sigma=profiles.constant(g, Ms),
                         f=profiles.constant(g, F), phi=phi)
        u = solve_mode(p)
        lam_eff = math.pi ** 2 * Ms
        relax = np.array([relaxation(0.5, lam_eff, t) for t in g.nodes])
        want = phi * relax + (F / lam_eff) * (1.0 - relax)
        assert np.max(np.abs(u - want)) < 1e-8

    def test_half_order_closed_form_with_bracket(self):
        # sigma = 1 and q = 0.4 leave the bracket -q nonzero, so the
        # leaves' systems couple their nodes; u = E_{1/2}(-(pi^2 + q) t^{1/2})
        g = TimeGrid(1.0, 1024)
        c = 0.4
        p = make_problem(g, rho=0.5, q=profiles.constant(g, c), phi=1.0)
        u = solve_mode(p)
        want = relaxation_curve(0.5, math.pi ** 2 + c, g.nodes)
        assert np.max(np.abs(u - want)) < 5e-3

    def test_initial_value_exact(self):
        p = make_problem(GRID, sigma=profiles.sinusoidal_offset(GRID, 2.0, 0.5),
                         f=profiles.affine(GRID, 1.0, -0.5), phi=-0.37)
        assert solve_mode(p)[0, 0] == -0.37

    def test_sign_preserved(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            p = sample_mode_problem(rng, sign=+1)
            assert np.min(solve_mode(p)) >= -1e-12
            p = sample_mode_problem(rng, sign=-1)
            assert np.max(solve_mode(p)) <= 1e-12

    def test_zero_data_zero_solution(self):
        p = make_problem(GRID, phi=0.0,
                         q=profiles.sinusoidal_offset(GRID, 0.1, 0.05))
        assert np.all(solve_mode(p) == 0.0)

    def test_linearity(self):
        g = TimeGrid(1.2, 96)
        sig = profiles.sinusoidal_offset(g, 2.0, 0.6)
        f = profiles.affine(g, 0.5, 1.0)
        base = make_problem(g, sigma=sig, f=f, phi=0.8)
        scaled = make_problem(
            g, sigma=sig, f=profiles.Profile(g, 3.7 * f.values), phi=3.7 * 0.8)
        a = solve_mode(base)
        b = solve_mode(scaled)
        np.testing.assert_allclose(b, 3.7 * a, rtol=1e-10, atol=1e-12)

    def test_contraction_ratios_within_bound(self):
        # the paper's map, iterated from a perturbed march solution: its
        # correction ratios stay within C_k (plus the discrete slack)
        rng = np.random.default_rng(7)
        for _ in range(20):
            p = sample_mode_problem(rng)
            ratio = picard_ratio(p, solve_mode(p), rng)
            assert ratio <= contraction_bound(p)[0] + 0.05

    def test_rows_are_a_fixed_point_of_the_map(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            p = sample_mode_problem(rng)
            u = solve_mode(p)
            assert (np.max(np.abs(picard_step(p, u) - u))
                    <= 1e-13 * np.max(np.abs(u)))

    def test_benign_large_q_is_solved(self):
        # q far above the window only damps the solution: the bound C_k is
        # far above 1, and the march solves it all the same, silently.
        # ``solve_forward`` owns the bounds: it warns once for each mode at
        # or above 1, the mode without data as well, and gives the same rows
        sgrid = SpaceGrid(1.0, 8)
        for c, warned in ((20.0, (1,)), (200.0, (1, 2))):
            p = make_problem(GRID, q=profiles.constant(GRID, c), phi=1.0)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                u = solve_mode(p)
            assert u[0, 0] == 1.0
            assert np.all(np.abs(u) <= 1.0)
            assert np.max(np.abs(picard_step(p, u) - u)) <= 1e-13
            spec = ProblemSpec.from_modes(sgrid, GRID, p.rho, p.sigma,
                                          [1.0, 0.0], np.zeros((2, 65)))
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                sol = solve_forward(spec, p.q)
            bounds = sol.diagnostics["contraction_bounds"]
            assert bounds[0] > 1.0
            assert [str(w.message) for w in caught
                    if "contraction bound" in str(w.message)] == [
                f"mode {k}: contraction bound {bounds[k - 1]:.4f} >= 1; the "
                f"contraction argument for the solution's existence does "
                f"not cover it" for k in warned]
            assert np.array_equal(sol.u_k[0], u[0])
            assert np.all(sol.u_k[1] == 0.0)

    def test_zero_divisor_is_a_singular_step(self):
        # sigma constant makes the bracket -q; q_5 = -1/c with c = fold_0,
        # to the ulp that makes 1 - c b_5 exactly 0
        c = make_problem(GRID).weights.fold[0, 0]
        q = np.zeros(65)
        q[5] = -zero_divisor_bracket(c)
        p = make_problem(GRID, q=profiles.Profile(GRID, q), k=3)
        with pytest.raises(SingularSystemError,
                           match="^mode 3: singular step at node 5") as exc:
            solve_mode(p)
        assert exc.value.step == 5

class TestMarch:
    """``march`` on its own: a leaf that records the base it is handed and
    writes preset integrand values sees, at every node, exactly the terms
    of the earlier nodes' integrand."""

    @pytest.mark.parametrize("leaf_nodes", [1, 8, 64])
    @pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 1000])
    @pytest.mark.parametrize("lams", [(3.0,), (2.0, 40.0, 900.0)],
                             ids=["1row", "3rows"])
    def test_leaves_see_the_direct_sum(self, lams, n, leaf_nodes):
        w = build_weights(TimeGrid(1.0, n), 0.6, lams)
        rng = np.random.default_rng(n + leaf_nodes)
        preset = rng.normal(size=(len(lams), n + 1))
        base0 = rng.normal(size=preset.shape)
        base, g = base0.copy(), np.full(preset.shape, np.nan)
        g[:, 0] = preset[:, 0]
        seen = []

        def leaf(start, stop):
            seen.append((start, stop, base[:, start:stop].copy()))
            g[:, start:stop] = preset[:, start:stop]

        mode_solver.march(w, base, g, leaf, leaf_nodes)
        assert [s for s, _, _ in seen] == [1] + [e for _, e, _ in seen[:-1]]
        assert seen[-1][1] == n + 1
        for start, stop, got in seen:
            for node in range(start, stop):
                terms = np.concatenate(
                    [w.head[:, node:node + 1] * preset[:, :1],
                     w.fold[:, node - start + 1:node][:, ::-1]
                     * preset[:, 1:start]], axis=1)
                want = base0[:, node] + terms.sum(axis=1)
                scale = np.abs(base0[:, node]) + np.abs(terms).sum(axis=1)
                assert np.all(np.abs(got[:, node - start] - want)
                              <= 1e-13 * scale)


class TestDecompose:
    def test_zero_source_gives_zero_v(self):
        p = make_problem(GRID, phi=1.3)
        v, w = decompose_mode(p)
        assert np.all(v == 0.0)
        np.testing.assert_allclose(w, solve_mode(p), atol=1e-12)

    def test_zero_datum_gives_zero_w(self):
        p = make_problem(GRID, phi=0.0, f=profiles.constant(GRID, 2.0))
        v, w = decompose_mode(p)
        assert np.all(w == 0.0)

    def test_superposition(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            p = sample_mode_problem(rng)
            v, w = decompose_mode(p)
            u = solve_mode(p)
            assert np.max(np.abs(v + w - u)) <= 1e-13 * np.max(np.abs(u))


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
            p, comparison = sample_mode_problem(rng, with_comparison=True)
            v, w = decompose_mode(p)
            v_b, w_b = apriori_bounds(comparison)
            assert np.all(np.abs(v) <= v_b + 1e-10)
            assert np.all(np.abs(w) <= w_b + 1e-10)

    def test_degenerate_damping_rejected(self):
        # one node at -15 sets n_q, and lam_1^2 m_sigma + n_q < 0
        q_vals = np.full(65, -2.0)
        q_vals[40] = -15.0
        q = profiles.Profile(GRID, q_vals)
        p = make_problem(GRID, q=q)
        with pytest.raises(DomainError):
            apriori_bounds(p)


def make_batch(grid, ks, *, data_from=1, q=None):
    """Modes ``ks`` of one problem with varying sigma.  Mode k's data scale
    like 10^-k, so the rows span several orders of magnitude; modes below
    ``data_from`` carry no data, so they are not solved: their rows are 0."""
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
        # 200 steps make four leaves of 50 nodes and three history splits
        g = TimeGrid(1.0, 200)
        batch = make_batch(g, self.KS)
        u = solve_mode(batch)
        for i in range(len(self.KS)):
            assert np.array_equal(u[i], solve_mode(batch.restrict([i]))[0])

    def test_restrict_matches_a_fresh_one_mode_problem(self):
        g = TimeGrid(1.0, 64)
        batch = make_batch(g, self.KS)
        fresh = make_batch(g, self.KS[3:4])
        assert fresh.lam_eff == batch.restrict([3]).lam_eff
        assert np.array_equal(solve_mode(fresh),
                              solve_mode(batch.restrict([3])))

    def test_singular_step_names_first_singular_mode(self):
        # q_7 = -1/c_3, c_k = fold_k[0], makes mode 3's divisor at node 7
        # exactly 0 and every later mode's there nonzero; modes 1 and 2
        # carry no data and are not solved
        g = TimeGrid(1.0, 64)
        batch = make_batch(g, self.KS, data_from=3)
        c = batch.restrict([2]).weights.fold[0, 0]
        a = batch.bracket[2, 7] + batch.q.values[7]  # lam^2 (M - sigma_7)
        q = batch.q.values.copy()
        for q7 in (a - 1.0 / c, *np.nextafter(a - 1.0 / c, [-np.inf, np.inf])):
            q[7] = q7
            trial = replace(batch, q=profiles.Profile(g, q))
            if 1.0 - c * trial.bracket[2, 7] == 0.0:
                break
        assert 1.0 - c * trial.bracket[2, 7] == 0.0
        with pytest.raises(SingularSystemError,
                           match="^mode 3: singular step at node 7") as exc:
            solve_mode(trial)
        with pytest.raises(SingularSystemError) as alone:
            solve_mode(trial.restrict([2]))
        assert str(exc.value) == str(alone.value)
        assert exc.value.step == alone.value.step == 7

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
                assert contraction_bound(batch.restrict([i]))[0] == bounds[i]
            want += [str(w.message) for w in one]
        assert texts == want
        assert texts == [
            f"mode {k}: contraction bound {bounds[k - 1]:.4f} >= 1; the "
            f"contraction argument for the solution's existence does not "
            f"cover it" for k in (1, 2)]

    def test_rows_without_data_are_not_solved(self, monkeypatch):
        g = TimeGrid(1.0, 200)
        batch = make_batch(g, self.KS, data_from=3)
        alone = make_batch(g, self.KS[2:])
        built = []
        build = mode_solver.build_weights
        monkeypatch.setattr(mode_solver, "build_weights",
                            lambda *a: built.append(a[2]) or build(*a))
        u = solve_mode(batch)
        # the live rows march on weights built for their own stiffnesses,
        # never on rows cut from a build for the whole batch
        assert built == [alone.lam_eff]
        assert np.array_equal(u[2:], solve_mode(alone))
        assert np.all(u[:2] == 0.0)

    def test_batch_without_data_builds_no_weights(self, monkeypatch):
        g = TimeGrid(1.0, 64)
        batch = make_batch(g, self.KS, data_from=7)
        built = []
        monkeypatch.setattr(mode_solver, "build_weights",
                            lambda *a: built.append(a))
        u = solve_mode(batch)
        assert built == []
        assert np.all(u == 0.0) and u.shape == batch.f_k.shape

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
