"""End-to-end acceptance survey: one test per shipped guarantee.

Each test prints a single ``criterion N: PASS/FAIL`` line with the measured
numbers, so a bare ``pytest -v -s tests/test_acceptance.py`` doubles as the
sign-off sheet.  Criteria with a runtime budget assert it from a monotonic
clock.  Randomized sweeps use frozen seeds; the properties hold for any seed,
the freeze only keeps reruns comparable.
"""

from __future__ import annotations

import json
import math
import time
import warnings
from dataclasses import replace

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad

from subdiff import (
    InverseSpec,
    ProblemSpec,
    estimate_CT,
    recover_q,
    solve_fd,
    solve_forward,
    synthesize_data,
)
from subdiff.cli import main
from subdiff.frackernel import TimeGrid
from subdiff.mlf import mittag_leffler, relaxation, relaxation_curve
from subdiff.mode_solver import apriori_bounds, decompose_mode, solve_mode
from subdiff.profiles import affine, constant, sinusoidal_offset
from subdiff.spectral import SpaceGrid

from conftest import make_manufactured, sample_field_problem, sample_mode_problem
from test_forward import make_quadratic


def sup(a, b):
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


def equilibrium_mode_spec(n_steps, q_vals, *, m=256, K=32, T=0.5, c1=0.05):
    """Single-mode problem whose exact trajectory is u_1 = c1 at every node.

    The source is balanced so the datum is already the steady response:
    f_1 = (lam_1^2 sigma + q) c1.  Then the flux is the constant
    lam_1 sqrt(2/l) c1 and recovery errors are pure iteration error.
    """
    tg, sg = TimeGrid(T, n_steps), SpaceGrid(1.0, m)
    lam2 = math.pi ** 2
    sigma = 2.0 + np.sin(tg.nodes)
    shape = math.sqrt(2.0) * np.sin(math.pi * sg.nodes)
    shape[0] = shape[-1] = 0.0
    f = ((lam2 * sigma + q_vals) * c1)[:, None] * shape[None, :]
    return ProblemSpec(
        sgrid=sg, tgrid=tg, rho=0.5,
        sigma=sinusoidal_offset(tg, 2.0, 1.0),
        f=f, phi=c1 * shape, K=K)


class TestAcceptance:
    def test_criterion_1_mlf_identity_suite(self):
        t0 = time.monotonic()
        # E_{1/2,1}(-x) = exp(x^2) erfc(x) against 40 digits, all 301
        # points in one call: the relaxation at lam = 1, t = x^2
        x = np.linspace(0.0, 30.0, 301)
        with mp.workdps(40):
            want = np.array([float(mp.exp(mp.mpf(v) ** 2) * mp.erfc(mp.mpf(v)))
                             for v in x])
        erfc_err = float(np.max(
            np.abs(relaxation_curve(0.5, 1.0, x ** 2) - want) / want))
        assert erfc_err <= 1e-12

        # 0 <= E_{rho,beta}(-lam t^rho) <= 1/Gamma(beta) for beta >= rho
        rng = np.random.default_rng(1001)
        violations = 0
        for _ in range(1000):
            rho = rng.uniform(0.05, 0.95)
            beta = rho + rng.uniform(0.0, 1.0)
            lam = 10.0 ** rng.uniform(-2.0, 2.0)
            t = rng.uniform(0.0, 3.0)
            v = float(mittag_leffler(rho, beta, -lam * t ** rho))
            if not -1e-13 <= v <= 1.0 / math.gamma(beta) + 1e-13:
                violations += 1
        assert violations == 0

        def kernel(rho, lam, t):
            return (lam * t ** (rho - 1.0)
                    * float(mittag_leffler(rho, rho, -lam * t ** rho)))

        # interval mass of the kernel, a relaxation difference, against
        # adaptive quadrature
        mass_err = 0.0
        for rho, lam, a, b in [(0.5, 1.0, 0.2, 1.5), (0.7, 4.0, 0.1, 2.0),
                               (0.3, 0.5, 0.5, 3.0)]:
            got = relaxation(rho, lam, a) - relaxation(rho, lam, b)
            want, _ = quad(lambda s: kernel(rho, lam, s), a, b,
                           epsabs=1e-14, epsrel=1e-13, limit=200)
            mass_err = max(mass_err, abs(got - want))
        assert mass_err <= 1e-12

        # kernel is -d/dt of the relaxation, against central differences
        deriv_err = 0.0
        for rho, lam, t in [(0.3, 0.5, 0.7), (0.5, 2.0, 1.0),
                            (0.8, 10.0, 0.4), (0.6, 1.0, 2.5)]:
            h = 1e-5 * t
            fd = (relaxation(rho, lam, t + h)
                  - relaxation(rho, lam, t - h)) / (2.0 * h)
            deriv_err = max(deriv_err, abs(kernel(rho, lam, t) + fd) / abs(fd))
        assert deriv_err <= 1e-6

        elapsed = time.monotonic() - t0
        assert elapsed < 10.0
        print(f"criterion 1: PASS — erfc {erfc_err:.2e}, bounds 0/1000 "
              f"violations, mass {mass_err:.2e}, derivative {deriv_err:.2e}, "
              f"{elapsed:.1f}s")

    def test_criterion_2_mode_closed_forms_and_contraction(self):
        t0 = time.monotonic()
        g = TimeGrid(1.0, 1024)
        lam_eff = math.pi ** 2 * 2.0

        from subdiff.mode_solver import ModeProblem
        hom = ModeProblem(k=1, lam_k=math.pi, rho=0.5,
                          sigma=constant(g, 2.0), q=constant(g, 0.0),
                          f_k=np.zeros(1025), phi_k=0.9, grid=g)
        relax = np.array([relaxation(0.5, lam_eff, t) for t in g.nodes])
        hom_err = sup(solve_mode(hom, tol=1e-12).u_k, 0.9 * relax)

        src = replace(hom, f_k=np.full(1025, 1.2), phi_k=0.5)
        want = 0.5 * relax + (1.2 / lam_eff) * (1.0 - relax)
        src_err = sup(solve_mode(src, tol=1e-12).u_k, want)
        assert hom_err <= 1e-8 and src_err <= 1e-8

        rng = np.random.default_rng(1002)
        worst_gap = -np.inf
        for _ in range(100):
            sol = solve_mode(sample_mode_problem(rng))
            worst_gap = max(worst_gap, float(
                sol.contraction_estimate[0] - sol.C_k_bound[0]))
        assert worst_gap <= 0.05

        elapsed = time.monotonic() - t0
        assert elapsed < 60.0
        print(f"criterion 2: PASS — closed forms {max(hom_err, src_err):.2e}"
              f" <= 1e-8, worst ratio-bound gap {worst_gap:+.3f} <= 0.05, "
              f"{elapsed:.1f}s")

    def test_criterion_3_sign_preservation(self):
        rng = np.random.default_rng(1003)
        worst = 0.0
        for _ in range(100):
            u = solve_mode(sample_mode_problem(rng, sign=+1)).u_k
            worst = max(worst, -float(np.min(u)))
            u = solve_mode(sample_mode_problem(rng, sign=-1)).u_k
            worst = max(worst, float(np.max(u)))
        assert worst <= 1e-12
        print(f"criterion 3: PASS — worst sign violation {worst:.2e} <= 1e-12 "
              f"on 200 problems")

    def test_criterion_4_apriori_envelopes(self):
        rng = np.random.default_rng(1004)
        worst = -np.inf
        for _ in range(100):
            p = sample_mode_problem(rng, declare_gaps=True)
            v, w = decompose_mode(p, tol=1e-12)
            v_bound, w_bound = apriori_bounds(p)
            worst = max(worst, float(np.max(np.abs(v) - v_bound)),
                        float(np.max(np.abs(w) - w_bound)))
        assert worst <= 1e-10
        print(f"criterion 4: PASS — worst envelope excess {worst:+.2e} "
              f"<= 1e-10 on 100 problems")

    def test_criterion_5_manufactured_convergence(self):
        t0 = time.monotonic()
        spec_errs, fd_errs = [], []
        for n, m in [(256, 64), (512, 128), (1024, 256)]:
            spec, q, u_star = make_manufactured(n, m)
            spec_errs.append(sup(solve_forward(spec, q).u, u_star))
            fd_errs.append(sup(solve_fd(spec, q).u, u_star))
        assert spec_errs[-1] <= 1e-2 and fd_errs[-1] <= 1e-2
        assert spec_errs[0] > spec_errs[1] > spec_errs[2]
        assert fd_errs[0] > fd_errs[1] > fd_errs[2]

        # temporal order on the time-smooth variant, where the step size is
        # the only moving part (space is resolved well past the time error)
        orders = {}
        for name, solver, levels, m in (
                ("spectral", solve_forward, (128, 256, 512), 256),
                ("fd", solve_fd, (16, 32, 64), 512)):
            errs = []
            for n in levels:
                spec, q, u_star = make_quadratic(n, m)
                errs.append(sup(solver(spec, q).u, u_star))
            orders[name] = min(math.log2(errs[i] / errs[i + 1])
                               for i in range(2))
        assert min(orders.values()) >= 1.3

        elapsed = time.monotonic() - t0
        assert elapsed < 120.0
        print(f"criterion 5: PASS — sup errors spectral {spec_errs[-1]:.2e}, "
              f"fd {fd_errs[-1]:.2e} <= 1e-2 (monotone), temporal orders "
              f"spectral {orders['spectral']:.2f}, fd {orders['fd']:.2f} "
              f">= 1.3, {elapsed:.0f}s")

    def test_criterion_6_cross_solver_agreement(self):
        spec, q = sample_field_problem(np.random.default_rng(21), 2048, 512)
        gap = sup(solve_forward(spec, q).u, solve_fd(spec, q).u)
        assert gap <= 5e-3
        print(f"criterion 6: PASS — cross-solver gap {gap:.2e} <= 5e-3 "
              f"at N=2048, M=512")

    def test_criterion_7_inverse_round_trip(self):
        t0 = time.monotonic()
        n = 1024
        tg = TimeGrid(0.5, n)

        invs = {}
        for label, q_true in (("const", constant(tg, 0.3)),
                              ("affine", affine(tg, 0.2, 0.1))):
            base = equilibrium_mode_spec(n, q_true.values)
            invs[label] = synthesize_data(base, q_true)

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            ct = estimate_CT(invs["const"])

        runs = {label: recover_q(inv) for label, inv in invs.items()}
        err_c, ratio_c = runs["const"].recovery_error, runs["const"].measured_ratio
        err_a, ratio_a = runs["affine"].recovery_error, runs["affine"].measured_ratio
        elapsed = time.monotonic() - t0
        gates = (err_c <= 1e-3 and err_a <= 5e-3
                 and ratio_c <= ct + 0.1 and ratio_a <= ct + 0.1)
        verdict = "PASS" if (ct < 1.0 and gates and elapsed < 300.0) else "FAIL"
        print(f"criterion 7: {verdict} — estimate_CT={ct:.4g} (<1 required), "
              f"const err {err_c:.2e} <= 1e-3, affine err {err_a:.2e} "
              f"<= 5e-3, ratios {ratio_c:.3f}/{ratio_a:.3f} <= CT+0.1, "
              f"{elapsed:.0f}s")

        # the contraction certificate comes first; the remaining gates are
        # asserted afterwards so a red here still reports them above
        assert ct < 1.0, (
            f"estimate_CT={ct:.6g} is not < 1: the a priori contraction "
            f"certificate cannot be issued for this scenario, although the "
            f"recovery itself meets every tolerance (const {err_c:.3e} <= "
            f"1e-3, affine {err_a:.3e} <= 5e-3, measured ratios "
            f"{ratio_c:.4f}/{ratio_a:.4f})")
        assert ratio_c <= ct + 0.1 and ratio_a <= ct + 0.1
        assert err_c <= 1e-3 and err_a <= 5e-3
        assert elapsed < 300.0

    def test_criterion_8_zero_data_zero_solution(self):
        tg, sg = TimeGrid(1.0, 64), SpaceGrid(1.0, 16)
        spec = ProblemSpec(
            sgrid=sg, tgrid=tg, rho=0.5,
            sigma=sinusoidal_offset(tg, 2.0, 1.0),
            f=np.zeros((65, 17)), phi=np.zeros(17))
        q = constant(tg, 0.1)
        u_spec = solve_forward(spec, q).u
        u_fd = solve_fd(spec, q).u
        assert np.all(u_spec == 0.0) and np.all(u_fd == 0.0)
        print("criterion 8: PASS — zero data gives exactly zero fields on "
              "both solver routes")

    def test_criterion_9_byte_identical_reruns(self, tmp_path):
        from pathlib import Path
        import subdiff
        repo = Path(subdiff.__file__).resolve().parents[2]

        checked = []
        for command, cfg, artifacts in (
                ("inverse", "configs/inverse_synthetic.json",
                 ("recovered_q.csv", "report.json")),
                ("forward", "configs/forward_manufactured.json",
                 ("solution.csv", "diagnostics.json"))):
            outs = []
            for tag in ("a", "b"):
                out = tmp_path / f"{command}_{tag}"
                code = main([command, "--config", str(repo / cfg),
                             "--out", str(out)])
                assert code == 0
                outs.append(out)
            for name in artifacts:
                assert ((outs[0] / name).read_bytes()
                        == (outs[1] / name).read_bytes())
                checked.append(name)
        print(f"criterion 9: PASS — byte-identical reruns for "
              f"{', '.join(checked)}")
