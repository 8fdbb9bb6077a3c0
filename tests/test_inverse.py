"""Coefficient recovery from boundary flux: map pieces, gates, round trips."""

import math
import warnings
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from subdiff import forward, mode_solver
from subdiff.errors import AdmissibilityError, DomainError, GridMismatchError
from subdiff.forward import ProblemSpec
from subdiff.frackernel import TimeGrid
from subdiff.inverse import (
    InverseSpec,
    _uniform,
    apply_L,
    estimate_CT,
    recover_q,
    synthesize_data,
    validate_theorem43,
)
from subdiff.profiles import Profile, constant
from subdiff.spectral import SpaceGrid, eigenvalues, flux_at_left


def splitmix64_reference(seed, n):
    """Draws 1..n of SplitMix64 from ``seed`` in Python integers masked to
    64 bits, each mapped to (z >> 11) 2^-52 - 1."""
    mask = 2 ** 64 - 1
    out = []
    for i in range(1, n + 1):
        z = (seed + i * 0x9E3779B97F4A7C15) & mask
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        z ^= z >> 31
        out.append((z >> 11) * 2.0 ** -52 - 1.0)
    return out


def sine_shape(sgrid, k=1):
    sh = math.sqrt(2.0) * np.sin(k * math.pi * sgrid.nodes / sgrid.length)
    sh[0] = sh[-1] = 0.0
    return sh


def const_mode_spec(n, q_of_t, m=32, K=8, T=0.5, c1=0.05):
    """Forward problem whose first mode sits at c1 for all time.

    Choosing f_1 = (lam_1^2 sigma + q) c1 balances the equation exactly, so
    the flux trace is constant and every node of the discrete solve is exact:
    recovery errors measured against it are pure iteration error.
    Returns (spec, q).
    """
    tg, sg = TimeGrid(T, n), SpaceGrid(1.0, m)
    sigma = Profile(tg, 2.0 + np.sin(tg.nodes))
    qv = q_of_t(tg.nodes)
    lam1 = math.pi
    sh = sine_shape(sg)
    f = ((lam1 ** 2 * sigma.values + qv) * c1)[:, None] * sh[None, :]
    return (ProblemSpec(sgrid=sg, tgrid=tg, rho=0.5, sigma=sigma, f=f,
                        phi=c1 * sh, K=K), Profile(tg, qv))


def smooth_mode_spec(n, T=0.5, c0=0.05, rho=0.5):
    """Single mode following c0 (1 + (t/T)^2): smooth flux, no start-up
    layer.  Returns (spec, q)."""
    tg, sg = TimeGrid(T, n), SpaceGrid(1.0, 16)
    t = tg.nodes
    sigma = Profile(tg, 2.0 + np.sin(t))
    qv = np.full(n + 1, 0.3)
    lam1 = math.pi
    sh = sine_shape(sg)
    u1 = c0 * (1.0 + (t / T) ** 2)
    drho = 2.0 * c0 * t ** (2.0 - rho) / (T ** 2 * math.gamma(3.0 - rho))
    f = (drho + (lam1 ** 2 * sigma.values + qv) * u1)[:, None] * sh[None, :]
    return (ProblemSpec(sgrid=sg, tgrid=tg, rho=rho, sigma=sigma, f=f,
                        phi=c0 * sh, K=4), Profile(tg, qv))


def bare_spec(n=64, m=16, K=4, phi1=None, T=1.0):
    """ProblemSpec with single-mode datum phi1 (default: flux 1 at x=0)."""
    tg, sg = TimeGrid(T, n), SpaceGrid(1.0, m)
    if phi1 is None:
        phi1 = 1.0 / (math.pi * math.sqrt(2.0))
    return ProblemSpec(sgrid=sg, tgrid=tg, rho=0.5, sigma=constant(tg, 1.0),
                       f=np.zeros((n + 1, m + 1)), phi=phi1 * sine_shape(sg),
                       K=K)


class TestInverseSpec:
    def test_rejects_spec_with_coefficient(self):
        # q is the unknown: the problem spec has no place to carry one
        spec, q = const_mode_spec(16, lambda t: np.full_like(t, 0.3))
        with pytest.raises(TypeError, match="'q'"):
            replace(spec, q=q)

    def test_rejects_foreign_flux_grid(self):
        spec = bare_spec()
        with pytest.raises(GridMismatchError):
            InverseSpec(spec=spec, psi=constant(TimeGrid(2.0, 64), 1.0))

    def test_rejects_foreign_truth_grid(self):
        # same node count, other horizon: it would be scored node by node
        spec = bare_spec()
        with pytest.raises(GridMismatchError, match="true coefficient"):
            InverseSpec(spec=spec, psi=constant(spec.tgrid, 1.0),
                        q_true=constant(TimeGrid(2.0, 64), 0.3))

    def test_rejects_nonpositive_floor(self):
        # the floor is the flux minimum; a flux that crosses zero at the
        # end of the horizon has a negative one
        spec = bare_spec()
        psi = Profile(spec.tgrid, 1.0 - 2.0 * spec.tgrid.nodes)
        with pytest.raises(AdmissibilityError, match="positive flux"):
            InverseSpec(spec=spec, psi=psi)

    def test_degenerate_flux_rejected_even_with_tiny_floor(self):
        spec = bare_spec(phi1=0.0)
        with pytest.raises(AdmissibilityError):
            InverseSpec(spec=spec, psi=constant(spec.tgrid, 0.0))

    def test_warns_on_incompatible_start(self):
        spec = bare_spec(phi1=0.0)
        with pytest.warns(UserWarning, match="t=0"):
            InverseSpec(spec=spec, psi=constant(spec.tgrid, 1.0))

    def test_specs_are_frozen(self):
        # derived data cannot go stale: a changed field is a new spec, and
        # a new spec is checked afresh
        spec = bare_spec()
        inv = InverseSpec(spec=spec, psi=constant(spec.tgrid, 1.0))
        for owner, name, value in ((inv.spec, "sigma",
                                    constant(spec.tgrid, 2.0)),
                                   (inv, "psi", constant(spec.tgrid, 2.0))):
            with pytest.raises(FrozenInstanceError):
                setattr(owner, name, value)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # flux 0.8 disagrees with phi
            assert replace(inv, psi=constant(spec.tgrid, 0.8)).psi0 == 0.8
        with pytest.raises(AdmissibilityError):
            replace(inv, psi=constant(spec.tgrid, -1.0))


class TestComputeQ0:
    def test_constant_flux_zero_sourcefree_estimate(self):
        spec = bare_spec()
        inv = InverseSpec(spec=spec, psi=constant(spec.tgrid, 1.0))
        assert np.max(np.abs(inv.q0.values)) == 0.0

    def test_linear_flux_closed_form(self):
        # D^0.5(1+t) = t^0.5/Gamma(1.5) and the L1 rule is exact on linears
        spec = bare_spec(n=512)
        t = spec.tgrid.nodes
        inv = InverseSpec(spec=spec, psi=Profile(spec.tgrid, 1.0 + t))
        q0 = inv.q0.values
        want = -np.sqrt(t[1:]) / (math.gamma(1.5) * (1.0 + t[1:]))
        assert np.max(np.abs(q0[1:] - want)) < 1e-12

    def test_first_node_is_quadratic_extrapolation(self):
        spec = bare_spec(n=512)
        inv = InverseSpec(spec=spec,
                          psi=Profile(spec.tgrid, 1.0 + spec.tgrid.nodes))
        q0 = inv.q0.values
        assert q0[0] == pytest.approx(3.0 * (q0[1] - q0[2]) + q0[3])


class TestApplyL:
    def test_fixed_point_property(self):
        spec, q = const_mode_spec(128, lambda t: np.full_like(t, 0.3))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            inv = synthesize_data(spec, q)
            moved = apply_L(inv.q_true, inv).values
        assert np.max(np.abs(moved - inv.q_true.values)) < 1e-5

    def test_single_sweep_contracts_toward_truth(self):
        spec, q = const_mode_spec(128, lambda t: np.full_like(t, 0.3))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            inv = synthesize_data(spec, q)
            start = constant(spec.tgrid, 0.0)
            d0 = np.max(np.abs(start.values - inv.q_true.values))
            d1 = np.max(np.abs(apply_L(start, inv).values
                               - inv.q_true.values))
        assert d1 < d0

    def test_foreign_grid_guess_rejected(self):
        spec, q = const_mode_spec(128, lambda t: np.full_like(t, 0.3))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            inv = synthesize_data(spec, q)
        with pytest.raises(GridMismatchError):
            apply_L(constant(TimeGrid(0.5, 64), 0.3), inv)


class TestEstimateCT:
    def test_zero_data_zero_estimate(self):
        tg, sg = TimeGrid(1.0, 8), SpaceGrid(1.0, 8)
        spec = ProblemSpec(sgrid=sg, tgrid=tg, rho=0.5,
                           sigma=constant(tg, 1.0),
                           f=np.zeros((9, 9)), phi=np.zeros(9), K=2)
        with pytest.warns(UserWarning):  # flux inconsistent with zero datum
            inv = InverseSpec(spec=spec, psi=constant(tg, 2.0))
        assert estimate_CT(inv) == 0.0

    def test_doubling_floor_halves_estimate(self):
        # the floor is min psi, and the trace bound reads only phi and f
        spec = bare_spec()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            a = estimate_CT(InverseSpec(spec=spec,
                                        psi=constant(spec.tgrid, 0.25)))
            b = estimate_CT(InverseSpec(spec=spec,
                                        psi=constant(spec.tgrid, 0.5)))
        assert a == pytest.approx(2.0 * b)
        assert a > 0.0

    def test_matches_direct_formula(self):
        spec, q = const_mode_spec(64, lambda t: np.full_like(t, 0.3))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            inv = synthesize_data(spec, q)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # at or above 1 as well
            got = estimate_CT(inv)
        assert got >= 1.0
        lam = eigenvalues(inv.spec.K, 1.0)
        s_phi = float(np.sum(lam ** 3 * np.abs(inv.spec.phi_k)))
        s_f = float(np.max((lam ** 3) @ np.abs(inv.spec.f_k)))
        head = inv.spec.t_final ** 0.5 / math.gamma(1.5)
        want = (inv.spec.sigma.vmax * head / (math.sqrt(6.0) * inv.psi0)
                * (head * s_f + s_phi))
        assert got == pytest.approx(want, rel=1e-12)


class TestConditionReport:
    def test_compatible_start_zero_defect(self):
        spec = bare_spec()  # datum tuned so phi_x(0) = 1 = psi(0)
        inv = InverseSpec(spec=spec, psi=constant(spec.tgrid, 1.0))
        rep = validate_theorem43(inv)
        assert rep.cond2_compatible
        assert rep.compat_defect < 1e-12
        assert rep.psi_min == inv.psi0 == 1.0

    def test_constant_sigma_fails_data_window(self):
        # M_sigma = m_sigma makes the strict upper bound negative
        spec, q = const_mode_spec(64, lambda t: np.full_like(t, 0.3))
        flat = ProblemSpec(sgrid=spec.sgrid, tgrid=spec.tgrid, rho=0.5,
                           sigma=constant(spec.tgrid, 2.0),
                           f=spec.f, phi=spec.phi, K=spec.K)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            inv = synthesize_data(flat, q)
        rep = validate_theorem43(inv)
        assert rep.cond3_rhs < 0.0
        assert not rep.cond3_window
        assert not rep.all_passed

    def test_mixed_sign_modes_pass_data_window(self):
        # a small negative second mode cancels most of the first mode's
        # diffusion term in f_x(0,t), pulling T^rho q0 inside the window
        n, m = 256, 32
        tg, sg = TimeGrid(1.0, n), SpaceGrid(1.0, m)
        sigma = Profile(tg, 2.0 + 1.5 * np.sin(2.0 * math.pi * tg.nodes))
        qv = np.full(n + 1, 0.1)
        lam = eigenvalues(2, 1.0)
        c1, c2 = 0.05, -0.115 * 0.05
        f = (((lam[0] ** 2 * sigma.values + qv) * c1)[:, None]
             * sine_shape(sg)[None, :]
             + ((lam[1] ** 2 * sigma.values + qv) * c2)[:, None]
             * sine_shape(sg, 2)[None, :])
        phi = c1 * sine_shape(sg) + c2 * sine_shape(sg, 2)
        spec = ProblemSpec(sgrid=sg, tgrid=tg, rho=0.5, sigma=sigma, f=f,
                           phi=phi, K=8)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            inv = synthesize_data(spec, Profile(tg, qv))
        rep = validate_theorem43(inv)
        assert rep.psi_min == inv.psi0 > 0.0 and rep.cond2_compatible
        assert rep.cond3_window
        assert 0.0 <= rep.cond3_low and rep.cond3_high < rep.cond3_rhs


class TestRecoverQ:
    def test_round_trip_constant_coefficient(self):
        spec, q = const_mode_spec(128, lambda t: np.full_like(t, 0.3))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            inv = synthesize_data(spec, q)
            res = recover_q(inv)
        assert res.recovery_error < 1e-3
        assert res.measured_ratio < 1.0
        assert res.clamp_count == 0
        assert res.flux_defect < 1e-6

    def test_sweeps_make_no_sine_transform(self, monkeypatch):
        # the sine coefficients of the data are the spec's, derived once;
        # a sweep swaps q without rebuilding the spec
        spec, q = const_mode_spec(64, lambda t: np.full_like(t, 0.3))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            inv = synthesize_data(spec, q)
        calls = []
        transform = forward.sine_coefficients
        monkeypatch.setattr(forward, "sine_coefficients",
                            lambda *a: calls.append(a) or transform(*a))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            res = recover_q(inv)
        assert calls == []
        replace(inv.spec)  # the counter sees a spec build
        assert len(calls) == 2

    def test_round_trip_time_varying_coefficient(self):
        spec, q = const_mode_spec(128, lambda t: 0.2 + 0.1 * t)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            inv = synthesize_data(spec, q)
            res = recover_q(inv)
        assert res.recovery_error < 5e-3

    def test_null_coefficient_recovered(self):
        spec, q = const_mode_spec(128, lambda t: np.zeros_like(t))
        # sigma rising from 2 to 4 + 2/pi^2 puts the q window's midpoint at
        # 1, well away from the truth; the source is rebalanced so that the
        # first mode still sits at c1 = 0.05
        tg = spec.tgrid
        sigma = 2.0 + (2.0 + 2.0 / math.pi ** 2) * tg.nodes / tg.t_final
        wide = replace(spec, sigma=Profile(tg, sigma),
                       f=(math.pi ** 2 * sigma * 0.05)[:, None]
                       * sine_shape(spec.sgrid)[None, :])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            inv = synthesize_data(wide, q)
            assert 0.5 * sum(wide.q_window) == pytest.approx(1.0)
            res = recover_q(inv)
        assert res.recovery_error < 1e-4

    def test_mixed_sweeps_reach_fixed_point(self):
        # the march solves each node's equation to round-off, and the check
        # sweep solves the same discrete system exactly, so it finds a fixed
        # point of clamp o L to round-off
        spec, q = const_mode_spec(128, lambda t: np.full_like(t, 0.3))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            inv = synthesize_data(spec, q)
            res = recover_q(inv)
            moved = apply_L(res.q, inv).values
        assert np.max(np.abs(moved - res.q.values)) <= 1e-12
        assert res.iterates == [float(np.max(np.abs(moved - res.q.values)))]
        assert 0.0 < res.measured_ratio < 1.0

    def test_truth_above_the_window_recovers_its_upper_end(self):
        # q_true = 6 lies above the window's upper end (about 4.73): every
        # node's root does, so every node is clamped to that end
        spec, q = const_mode_spec(128, lambda t: np.full_like(t, 6.0))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            inv = synthesize_data(spec, q)
            res = recover_q(inv)
        hi = inv.spec.q_window[1]
        assert hi < 6.0
        assert np.all(res.q.values == hi)
        assert res.clamp_count == spec.tgrid.n_steps + 1
        assert res.measured_ratio == 0.0  # no node inside the window

    def test_truth_across_the_window_meets_every_kind_of_step(self):
        # q_true swings to 1.5 times the window's width either side of its
        # middle, so 14 of the 17 nodes clamp.  Besides Halley's steps the
        # march meets nodes where 1 - G_n' <= 0 (plain steps) and nodes
        # where Halley's step falls far short of Newton's (|s k| >= 1/2,
        # Newton's step); taking Halley's step there too stops the march
        # short of the root at node 9, with a residual of 8.3
        n = 16
        tg, sg = TimeGrid(0.5, n), SpaceGrid(1.0, 16)
        spec = ProblemSpec.from_modes(sg, tg, 0.8,
                                      Profile(tg, 2.0 + np.sin(tg.nodes)),
                                      np.array([0.05]), np.zeros((1, n + 1)))
        lo, hi = spec.q_window
        q = Profile(tg, 0.5 * (lo + hi) + 1.5 * (hi - lo)
                    * np.sin(4.0 * math.pi * tg.nodes / tg.t_final))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            res = recover_q(synthesize_data(spec, q))
        assert res.iterates[0] <= 1e-12
        assert res.clamp_count == 14

    def test_live_modes_apart_reach_the_clamped_fixed_point(self,
                                                            monkeypatch):
        # data on modes 1, 2 and 4 of K = 8, each at its own equilibrium;
        # modes 3 and 5-8 carry none.  The result is a fixed point of
        # clamp o L up to round-off (7.4e-14), where the check's Picard
        # floor used to leave 2.9e-6
        n, K = 256, 8
        tg, sg = TimeGrid(0.5, n), SpaceGrid(1.0, 32)
        sigma = Profile(tg, 2.0 + np.sin(tg.nodes))
        q_true = Profile(tg, 0.3 + 0.4 * tg.nodes)
        lam = eigenvalues(K, 1.0)
        live = [0, 1, 3]
        amp = np.zeros(K)
        amp[live] = [0.05, 0.01, -0.002]
        f_k = (lam[:, None] ** 2 * sigma.values + q_true.values) * amp[:, None]
        spec = ProblemSpec.from_modes(sg, tg, 0.5, sigma, amp, f_k)
        built = []
        build = mode_solver.build_weights
        monkeypatch.setattr(mode_solver, "build_weights",
                            lambda g, rho, lam_eff: built.append(lam_eff)
                            or build(g, rho, lam_eff))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            inv = synthesize_data(spec, q_true)
            res = recover_q(inv)
            moved = apply_L(res.q, inv).clamped(*spec.q_window).values
        assert np.max(np.abs(moved - res.q.values)) <= 1e-12
        assert res.iterates[0] <= 1e-12
        assert 0.0 < res.measured_ratio < 1.0 and res.clamp_count == 0
        # synthesis, march and check share the weights of the live modes
        assert len(built) >= 3
        assert set(built) == {tuple((lam[live] ** 2 * sigma.vmax).tolist())}

    def test_iterate_traces_within_data_bound(self):
        spec, q = const_mode_spec(128, lambda t: np.full_like(t, 0.3))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            inv = synthesize_data(spec, q)
            res = recover_q(inv)
        assert max(res.trace_sums) <= res.trace_bound + 1e-10

    def test_idempotent_at_truth(self):
        # at q_true = 0 the discrete map moves the truth by 5.9e-7 (at t_0),
        # and the march lands as close
        spec, q = const_mode_spec(128, np.zeros_like)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            inv = synthesize_data(spec, q)
            res = recover_q(inv)
            moved = apply_L(q, inv).values
        assert res.recovery_error <= 1e-6
        assert res.recovery_error <= 1.01 * np.max(np.abs(moved))

    def test_fixed_point_defect_shrinks_under_refinement(self):
        defects = []
        for n in (64, 128, 256):
            spec, q = smooth_mode_spec(n)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                inv = synthesize_data(spec, q)
                moved = apply_L(inv.q_true, inv).values
            defects.append(np.max(np.abs(moved - inv.q_true.values)))
        assert defects[1] < 0.7 * defects[0]
        assert defects[2] < 0.7 * defects[1]


class TestSynthesizeData:
    def test_requires_true_coefficient(self):
        with pytest.raises(DomainError):
            synthesize_data(bare_spec(), None)

    def test_data_ride_on_the_given_spec(self, monkeypatch):
        # synthesis builds no spec of its own, so it makes no sine
        # transform, and its flux is the forward solve's at q_true bitwise
        spec, q = const_mode_spec(64, lambda t: 0.2 + 0.1 * t)
        want = flux_at_left(forward.solve_forward(spec, q).u_k, spec.length)
        calls = []
        transform = forward.sine_coefficients
        monkeypatch.setattr(forward, "sine_coefficients",
                            lambda *a: calls.append(a) or transform(*a))
        inv = synthesize_data(spec, q)
        assert inv.spec is spec and inv.q_true is q
        assert calls == []
        assert np.array_equal(inv.psi.values, want)

    def test_warns_on_truth_outside_window(self):
        spec, q = const_mode_spec(64, lambda t: np.full_like(t, 0.3))
        hi = spec.q_window[1]
        with pytest.warns(UserWarning, match="admissibility window"):
            synthesize_data(spec, constant(spec.tgrid, hi + 0.5))

    # a NaN level once gave data bit-identical to noise 0
    @pytest.mark.parametrize("level", [-0.1, math.nan, math.inf],
                             ids=["negative", "nan", "inf"])
    def test_rejects_negative_noise(self, level):
        spec, q = const_mode_spec(64, lambda t: np.full_like(t, 0.3))
        with pytest.raises(DomainError, match="noise level"):
            synthesize_data(spec, q, noise_level=level)

    def test_rejects_negative_seed(self):
        spec, q = const_mode_spec(64, lambda t: np.full_like(t, 0.3))
        with pytest.raises(DomainError, match="seed"):
            synthesize_data(spec, q, noise_level=1e-6, seed=-1)

    def test_rejects_seed_beyond_64_bits(self):
        # a float or bool seed once ran as its integer part (7.9 as 7,
        # True as 1)
        spec, q = const_mode_spec(64, lambda t: np.full_like(t, 0.3))
        for seed in (2 ** 64, 7.9, 7.0, True, False):
            with pytest.raises(DomainError, match="seed"):
                synthesize_data(spec, q, noise_level=1e-6, seed=seed)
        inv = synthesize_data(spec, q, noise_level=1e-6, seed=2 ** 64 - 1)
        assert inv.psi0 > 0.0

    def test_node_n_draws_the_nth_value_of_the_stream(self):
        spec, q = const_mode_spec(64, lambda t: np.full_like(t, 0.3))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            clean = synthesize_data(spec, q).psi.values
            noisy = synthesize_data(spec, q, 0.01, seed=7).psi.values
        draws = np.array(splitmix64_reference(7, clean.size))
        assert np.array_equal(noisy, clean * (1.0 + 0.01 * draws))

    def test_same_seed_bitwise_identical(self):
        spec, q = const_mode_spec(64, lambda t: np.full_like(t, 0.3))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            a = synthesize_data(spec, q, 0.01, seed=42).psi.values
            b = synthesize_data(spec, q, 0.01, seed=42).psi.values
            c = synthesize_data(spec, q, 0.01, seed=43).psi.values
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_floor_is_flux_minimum_and_truth_recorded(self):
        spec, q = const_mode_spec(64, lambda t: np.full_like(t, 0.3))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            inv = synthesize_data(spec, q)
        assert inv.psi0 == pytest.approx(float(inv.psi.values.min()))
        assert inv.q_true is q

    def test_violent_noise_rejected(self):
        spec, q = const_mode_spec(64, lambda t: np.full_like(t, 0.3))
        with pytest.raises(AdmissibilityError, match="positive flux"):
            synthesize_data(spec, q, noise_level=2.0, seed=0)


class TestNoiseStream:
    @pytest.mark.parametrize("n", [1, 4097])
    @pytest.mark.parametrize("seed", [0, 7, 1301, 2 ** 64 - 1])
    def test_matches_python_reference(self, seed, n):
        draws = _uniform(seed, n)
        assert draws.dtype == np.float64 and draws.shape == (n,)
        assert draws.tolist() == splitmix64_reference(seed, n)
        assert np.all((draws >= -1.0) & (draws < 1.0))

    def test_first_output_from_state_zero(self):
        # SplitMix64's first output from seed 0 is 0xE220A8397B1DCDAF
        assert _uniform(0, 1)[0] == (0xE220A8397B1DCDAF >> 11) * 2.0 ** -52 - 1
