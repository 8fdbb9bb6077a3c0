"""Shared test helpers.

The centerpiece is ``mlf_reference``: a deliberately independent oracle for
E_{rho,beta}(-x) that shares no code with the package.  It sums the defining
power series term by term in big-float arithmetic with enough guard digits
to survive the cancellation hump (the partial sums grow to ~x^{1/rho} digits
before collapsing).
"""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np
from hypothesis import settings

# every run draws the same examples, so tier-1's outcome and wall time can be
# compared between two versions of the code
settings.register_profile("seeded", derandomize=True)
settings.load_profile("seeded")


def series_guard_digits(rho: float, x: float) -> float:
    """Decimal digits destroyed by cancellation when summing the series at -x."""
    if x <= 1.0:
        return 0.0
    return (x ** (1.0 / rho)) * 0.4343


def mlf_reference(rho: float, beta: float, x: float, extra_dps: int = 50) -> float:
    """Brute-force E_{rho,beta}(-x) for x >= 0.

    Precision trap worth remembering: the Gamma argument k*rho + beta must be
    formed in big-float arithmetic.  Rounding it to double first injects a
    psi(a)*eps relative error into terms of size 10^hundreds, which the final
    cancellation then exposes at full strength.
    """
    if x == 0.0:
        return float(mp.rgamma(beta))
    lost = series_guard_digits(rho, x)
    if lost > 400:
        raise ValueError(f"reference too expensive: needs ~{lost:.0f} guard digits")
    with mp.workdps(int(lost * 1.05) + extra_dps):
        mrho, mbeta, mx = mp.mpf(rho), mp.mpf(beta), mp.mpf(x)
        total = mp.mpf(0)
        tol = mp.mpf(10) ** (-mp.mp.dps + 5)
        small = 0
        cap = max(4000, int(40 * x ** (1.0 / rho) / rho))
        for k in range(cap):
            term = (-mx) ** k * mp.rgamma(k * mrho + mbeta)
            total += term
            if abs(term) < tol * (abs(total) + 1):
                small += 1
                if small >= 3:
                    break
            else:
                small = 0
        else:
            raise RuntimeError(f"reference series did not converge at {(rho, beta, x)}")
        return float(total)


def rel_or_abs_err(got: float, want: float) -> float:
    """min(relative, absolute) error -- matches the two-regime accuracy contract."""
    a = abs(got - want)
    if want == 0.0:
        return a
    return min(a, a / abs(want))


def sample_mode_problem(rng, *, n_steps: int = 64, sign: int | None = None,
                        with_comparison: bool = False):
    """Random admissible per-mode problem.

    The admissibility window for q comes from the sigma bounds:
    -m_sigma pi^2/l^2 < q < (M_sigma - m_sigma) pi^2/l^2.  Sampling stays
    well inside it, and keeps the contraction constant below ~0.65 by
    budgeting the sigma-variation and q contributions jointly.

    ``sign=+1/-1`` makes phi_k and f_k sign-definite.  ``with_comparison``
    returns ``(problem, comparison)``: the comparison has the same data with
    sigma and q shifted down, sigma's smallest sample to 0.8 m_sigma and
    q's by a tenth of q's range (kept above -0.95 lam_1^2 0.8 m_sigma, so
    the envelope damping stays positive).  Envelopes only grow as those
    minima fall, so the comparison's envelopes bound the problem's solution
    with structural margin; the problem's own can be brushed to within
    discretization error.  With the comparison, q is budgeted against sigma
    widened to [0.8 m_sigma, 1.2 M_sigma] and the horizon against
    1.2 lam_k^2 (a + b).

    The horizon is chosen so that lam_eff * t_1^rho stays well below 1:
    comparisons against nodewise analytic facts are only meaningful when the
    grid resolves the initial decay layer, otherwise the first few nodes
    carry O(1) relative discretization error and every tolerance is noise.
    """
    from dataclasses import replace

    from subdiff.frackernel import TimeGrid
    from subdiff.mode_solver import ModeProblem
    from subdiff.profiles import Profile

    length = float(rng.uniform(0.5, 2.0))
    k = int(rng.integers(1, 7))
    lam_k = math.pi * k / length
    rho = float(rng.uniform(0.2, 0.95))

    a = float(rng.uniform(0.5, 3.0))
    b = float(rng.uniform(0.05, 0.4)) * a
    w_s = float(rng.uniform(0.5, 3.0))

    z1 = float(rng.uniform(0.05, 0.5))
    mu_cap = lam_k ** 2 * (a + b) * (1.2 if with_comparison else 1.0)
    t_final = n_steps * (z1 / mu_cap) ** (1.0 / rho)
    grid = TimeGrid(t_final, n_steps)
    t = grid.nodes
    sigma_vals = a + b * np.sin(w_s * t)
    m_act, big_act = float(sigma_vals.min()), float(sigma_vals.max())
    if with_comparison:
        m_wide, big_wide = 0.8 * m_act, 1.2 * big_act
    else:
        m_wide, big_wide = m_act, big_act

    lam1sq = (math.pi / length) ** 2
    # joint budget: sigma variation uses 2b/(a+b) of the contraction budget,
    # q gets most of what is left (relative to the smallest eigenvalue)
    slack = 0.65 - 2.0 * b / (a + b)
    qcap = 0.85 * min(slack * lam1sq * big_wide,
                      lam1sq * min(m_wide, big_act - m_act))
    c0 = float(rng.uniform(-0.5, 0.5)) * qcap
    c1 = float(rng.uniform(0.0, 0.9)) * (qcap - abs(c0))
    w_q = float(rng.uniform(0.5, 3.0))
    q_vals = c0 + c1 * np.sin(w_q * t)

    f0 = float(rng.normal(0.0, 1.0))
    f1 = float(rng.normal(0.0, 1.0))
    phase = float(rng.uniform(0.0, 2.0 * math.pi))
    f_vals = f0 + f1 * np.sin(w_s * t + phase)
    phi_k = float(rng.normal(0.0, 1.0))
    if sign is not None:
        f_vals = sign * np.abs(f_vals)
        phi_k = sign * abs(phi_k)

    p = ModeProblem(k=k, lam_k=lam_k, rho=rho, sigma=Profile(grid, sigma_vals),
                    q=Profile(grid, q_vals), f_k=f_vals, phi_k=phi_k,
                    grid=grid)
    if not with_comparison:
        return p
    span = max(1e-3, float(q_vals.max() - q_vals.min()))
    q_lo = max(float(q_vals.min()) - 0.1 * span, -0.95 * lam1sq * m_wide)
    comparison = replace(
        p, sigma=Profile(grid, sigma_vals - (m_act - m_wide)),
        q=Profile(grid, q_vals - (float(q_vals.min()) - q_lo)))
    return p, comparison


def picard_ratio(p, u, rng, steps: int = 6, size: float = 1e-3) -> float:
    """Largest correction ratio max|u_{j+1} - u_j| / max|u_j - u_{j-1}| of
    the paper's map (``picard_step``), iterated ``steps`` times from the
    solution ``u`` of ``p`` plus a random perturbation of ``size`` times
    max|u|.  The map is affine, so the ratios measure its linear part, which
    the contraction bound C_k dominates.  A ratio is taken only while the
    last correction exceeds 64 eps max(1, max|u_j|), as below that it
    measures round-off."""
    from subdiff.mode_solver import picard_step

    floor = 64.0 * np.finfo(float).eps
    v = u + size * float(np.max(np.abs(u))) * rng.normal(size=u.shape)
    prev, worst = 0.0, 0.0
    for _ in range(steps):
        nxt = picard_step(p, v)
        update = float(np.max(np.abs(nxt - v)))
        if prev > floor * max(1.0, float(np.max(np.abs(nxt)))):
            worst = max(worst, update / prev)
        prev, v = update, nxt
    return worst


def zero_divisor_bracket(c: float) -> float:
    """A bracket value b next to 1/c with 1 - c b exactly 0, so that a step
    of the forward march whose implicit weight fold_0 is c is singular."""
    b = 1.0 / c
    for x in b + np.spacing(b) * np.array([0, -1, 1, -2, 2, -3, 3]):
        if 1.0 - c * float(x) == 0.0:
            return float(x)
    raise AssertionError(f"no double next to 1/{c} zeroes 1 - c b")


def l1_direct(grid, u, rho: float) -> np.ndarray:
    """L1 Caputo derivative of one series with the history sum taken directly."""
    n = grid.n_steps
    m = np.arange(1, n + 1, dtype=float)
    b = m ** (1.0 - rho) - (m - 1.0) ** (1.0 - rho)
    out = np.full(n + 1, np.nan)
    out[1:] = (grid.h ** (-rho) / math.gamma(2.0 - rho)
               * np.convolve(b, np.diff(u))[:n])
    return out


def make_manufactured(n_steps: int, n_cells: int, rho: float = 0.5):
    """Forward problem with known solution u* = (1+t) sqrt(2) sin(pi x).

    sigma = 1, q = 0.1 on the unit square; the source is what the equation
    demands of u*, using D^rho(1+t) = t^(1-rho)/Gamma(2-rho).

    Returns (spec, q, u_star).
    """
    from subdiff.forward import ProblemSpec
    from subdiff.frackernel import TimeGrid
    from subdiff.profiles import constant
    from subdiff.spectral import SpaceGrid

    tgrid = TimeGrid(1.0, n_steps)
    sgrid = SpaceGrid(1.0, n_cells)
    t = tgrid.nodes[:, None]
    x = sgrid.nodes[None, :]
    shape = math.sqrt(2.0) * np.sin(math.pi * x)
    shape[0, 0] = shape[0, -1] = 0.0
    u_star = (1.0 + t) * shape
    drho = t ** (1.0 - rho) / math.gamma(2.0 - rho)
    f = (drho + (math.pi ** 2 + 0.1) * (1.0 + t)) * shape
    spec = ProblemSpec(
        sgrid=sgrid, tgrid=tgrid, rho=rho,
        sigma=constant(tgrid, 1.0),
        f=f, phi=u_star[0].copy())
    return spec, constant(tgrid, 0.1), u_star


def sample_field_problem(rng, n_steps: int, n_cells: int, K: int = 12,
                         t_final: float = 0.1, phi_scale: float = 0.02):
    """Random smooth admissible forward problem on the unit interval.

    Built so the two solver routes actually resolve the same field: the
    source ramps from zero (u ~ t^(1+rho), which the L1 rule handles at full
    order) and the initial datum is small, because a decay layer from an
    O(1) phi costs the L1 route an O(lam^2 sigma t_1^rho) first-node defect
    that product integration does not share.  Coefficients decay
    geometrically, sigma is a positive sinusoid, q sits mid-window.
    Returns (spec, q).
    """
    from subdiff.forward import ProblemSpec
    from subdiff.frackernel import TimeGrid
    from subdiff.profiles import Profile
    from subdiff.spectral import SpaceGrid, eigenvalues

    tgrid = TimeGrid(t_final, n_steps)
    sgrid = SpaceGrid(1.0, n_cells)
    t = tgrid.nodes

    a = float(rng.uniform(0.8, 1.5))
    b = float(rng.uniform(0.1, 0.25)) * a
    w = float(rng.uniform(0.5, 2.0))
    sigma = Profile(tgrid, a + b * np.sin(w * t))
    hi = (sigma.values.max() - sigma.values.min()) * math.pi ** 2
    q = Profile(tgrid, np.full(n_steps + 1, 0.4 * hi))

    lam = eigenvalues(K, 1.0)
    basis = math.sqrt(2.0) * np.sin(np.outer(sgrid.nodes, lam))  # (M+1, K)
    decay = 0.25 ** np.arange(K)
    amps = rng.normal(0.0, 1.0, K) * decay
    amps *= 0.8 / np.sum(np.abs(amps))
    freqs = rng.uniform(0.5, 2.0, K) * (2.0 * math.pi / t_final) * 0.25
    f = (amps[None, :] * np.sin(np.outer(t, freqs))) @ basis.T
    f[:, 0] = f[:, -1] = 0.0
    phi = basis @ (rng.normal(0.0, 1.0, K) * decay * phi_scale)
    phi[0] = phi[-1] = 0.0
    return (ProblemSpec(sgrid=sgrid, tgrid=tgrid, rho=0.5, sigma=sigma, f=f,
                        phi=phi, K=K), q)
