"""Recovery of the time-dependent reaction coefficient from boundary flux data.

The observation is the left-boundary derivative trace psi(t) = u_x(0, t).
Differentiating the solution series at x = 0 turns the PDE into a pointwise
identity linking q, psi, and the third-derivative trace; solving it for q
gives a self-map whose fixed point is the coefficient.  The fixed point is
reached by Anderson-mixed sweeps from a neutral initial guess, each sweep
re-solving the forward problem at the current iterate, with the measured
Lipschitz quotient of the map reported against the data-dependent
contraction estimate C(T).  The sweep budget is a constant of the module
(``RECOVERY_TOL``, ``RECOVERY_MAX_SWEEPS``), not a setting: the map's
contraction, which the data fix, decides convergence.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import AdmissibilityError, ConvergenceError, DomainError
from .forward import ProblemSpec, solve_forward, solve_mode_set
from .frackernel import caputo_l1
from .mode_solver import PICARD_TOL
from .profiles import Profile, constant
from .spectral import (
    eigenvalues,
    flux_at_left,
    tail_diagnostics,
    third_trace_at_left,
)

#: recovery budget: the sweeps stop once sup |L[q] - q| falls below
#: ``RECOVERY_TOL``, and a recovery still moving after
#: ``RECOVERY_MAX_SWEEPS`` sweeps is an error
RECOVERY_TOL = 1e-6
RECOVERY_MAX_SWEEPS = 300
_COMPAT_RTOL = 1e-6
#: past residual and image differences that each recovery sweep mixes
_ANDERSON_DEPTH = 8
#: forcing term: a sweep's forward solve stops at this multiple of the
#: previous sweep's residual (never below ``PICARD_TOL``, the forward solve's
#: own tolerance, at which a sweep evaluates L as a forward solve does)
_FORCING = 1e-4
#: Anderson histories whose Gram matrix has an eigenvalue ratio at or below
#: this take the plain step: the Gram system squares the history's condition
#: number, so this bounds the relative error of gamma near sqrt(eps)
_GRAM_RCOND = math.sqrt(np.finfo(float).eps)


@dataclass(frozen=True, eq=False)
class InverseSpec:
    """A problem spec plus flux data, from which q is recovered.

    The flux must be positive at every node, since every division in the
    recovery map runs through psi; data that are not are rejected at
    construction.  ``q_true`` is optional and only used for scoring
    synthetic runs.  The spec is immutable: a changed field means a new spec
    (``dataclasses.replace``), checked and derived afresh.

    Construction derives the data-only quantities once, from the sine
    coefficients ``phi_k`` and ``f_k`` that the problem spec carries:
    ``psi0``, the flux floor min psi that C(T) divides by; ``q0``,
    the data part (f_x(0,t) - D^rho psi)/psi of the recovery map, whose first
    node, where the L1 derivative has no value, is the quadratic
    extrapolation from t_1..t_3 (the iteration only reads q on solver nodes,
    and the extrapolation matches the scheme's accuracy); ``compat_defect``,
    the mismatch |u_x(0, 0) - psi(0)| of datum and flux, and ``compatible``,
    whether it lies within the relative compatibility tolerance; and
    ``trace_bound``, T^rho/Gamma(rho+1) * S_f + S_phi with S_f and S_phi the
    cubically weighted coefficient sums of source and datum.
    """

    spec: ProblemSpec
    psi: Profile
    q_true: Optional[Profile] = None

    def __post_init__(self) -> None:
        self.spec.on_grid(self.psi, "flux data")
        if self.q_true is not None:
            self.spec.on_grid(self.q_true, "true coefficient")
        psi0 = float(self.psi.values.min())
        if not psi0 > 0.0:
            raise AdmissibilityError(
                f"flux data reach {psi0}; the recovery needs a positive "
                f"flux at every node")

        spec, tg, pv = self.spec, self.spec.tgrid, self.psi.values

        psi_at_0 = float(pv[0])
        compat_defect = abs(float(flux_at_left(spec.phi_k, spec.length))
                            - psi_at_0)
        compatible = compat_defect <= _COMPAT_RTOL * (1.0 + abs(psi_at_0))
        if not compatible:
            warnings.warn(
                f"initial datum and flux disagree at t=0 by "
                f"{compat_defect:.3g}; recovery proceeds on "
                f"inconsistent data", stacklevel=2)

        dpsi = caputo_l1(tg, pv, spec.rho)
        q0 = np.empty(tg.n_steps + 1)
        q0[1:] = (flux_at_left(spec.f_k, spec.length)[1:] - dpsi[1:]) / pv[1:]
        q0[0] = 3.0 * (q0[1] - q0[2]) + q0[3] if tg.n_steps >= 3 else q0[1]

        tail = tail_diagnostics(eigenvalues(spec.K, spec.length), spec.phi_k,
                                spec.f_k, weight_power=3)
        trace_bound = (spec.t_final ** spec.rho
                       / math.gamma(spec.rho + 1.0) * tail.f_sum
                       + tail.phi_sum)

        for name, value in (("psi0", psi0), ("compat_defect", compat_defect),
                            ("compatible", compatible),
                            ("q0", Profile(tg, q0)),
                            ("trace_bound", trace_bound)):
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class ConditionReport:
    """Pass/fail of the recoverability conditions, with margins.  The flux
    floor (condition 1) holds on every ``InverseSpec`` that exists, so only
    its margin ``psi_min`` is reported."""

    psi_min: float
    psi_deriv_max: float
    compat_defect: float
    cond2_compatible: bool
    cond3_low: float
    cond3_high: float
    cond3_rhs: float
    cond3_window: bool
    CT: float
    cond4_contraction: bool

    @property
    def all_passed(self) -> bool:
        return (self.cond2_compatible and self.cond3_window
                and self.cond4_contraction)


@dataclass(eq=False)
class InverseResult:
    """The recovered ``q`` plus the content of the inverse command's
    ``report.json``: the CLI writes every other field whole, so only what
    that artifact reports belongs here."""

    q: Profile
    iterates: list  # sup-norm fixed-point residual per sweep
    measured_ratio: float
    CT_bound: float
    condition_report: ConditionReport
    clamp_count: int
    flux_defect: float
    trace_sums: list  # max_t sum_k lam^3 |u_k| at each sweep
    trace_bound: float
    recovery_error: Optional[float] = None


def _sweep(inv: InverseSpec, q: Profile, initial: Optional[np.ndarray],
           tol: float = PICARD_TOL) -> tuple[Profile, np.ndarray]:
    """One application of the map: forward-solve at q to ``tol``, read off
    the update."""
    coeffs = solve_mode_set(inv.spec, q, tol=tol, initial=initial).u_k
    trace3 = third_trace_at_left(coeffs, inv.spec.length)
    new = (inv.q0.values
           + inv.spec.sigma.values / inv.psi.values * trace3)
    return Profile(inv.spec.tgrid, new), coeffs


def apply_L(q_current: Profile, inv: InverseSpec) -> Profile:
    """Recovery map L: q0 plus the third-trace correction (sigma/psi) u_xxx(0,t).

    A single call is one sweep.
    """
    return _sweep(inv, q_current, None)[0]


def estimate_CT(inv: InverseSpec) -> float:
    """Data-dependent contraction estimate for the recovery map.

    (l M_sigma T^rho) / (sqrt(6) psi0 Gamma(rho+1)) *
    (T^rho/Gamma(rho+1) * S_f + S_phi), with psi0 = min psi the flux floor
    and S_f and S_phi the cubically weighted coefficient sums of the source
    and the initial datum.  A value below 1 certifies geometric
    convergence; at or above 1 the guarantee is void (warned, not raised --
    the measured ratio still rules the run).
    """
    spec = inv.spec
    head = spec.t_final ** spec.rho / math.gamma(spec.rho + 1.0)
    ct = (spec.length * spec.sigma.vmax * head / (math.sqrt(6.0) * inv.psi0)
          * inv.trace_bound)
    if ct >= 1.0:
        warnings.warn(
            f"contraction estimate C(T)={ct:.3g} >= 1: convergence is not "
            f"guaranteed by the data bound", stacklevel=2)
    return float(ct)


def validate_theorem43(inv: InverseSpec) -> ConditionReport:
    """Report-style check of the four conditions behind unique recovery.

    (1) flux floor, which the spec enforces, so only its margin psi_min and
    the largest difference quotient (C^1 surrogate) are reported;
    (2) compatibility of datum and flux at t=0;
    (3) the scaled data window 0 <= T^rho q0 < T^rho hi - Gamma(rho+1) at
    all positive nodes, hi = pi^2 (M_sigma - m_sigma)/l^2 being the upper end
    of the spec's q window; (4) contraction estimate below 1.  Nothing
    raises: each condition carries its margin and the caller decides.
    """
    spec = inv.spec
    deriv = float(np.max(np.abs(np.diff(inv.psi.values)))) / spec.tgrid.h

    head_T = spec.t_final ** spec.rho
    g = head_T * inv.q0.values[1:]
    rhs = head_T * spec.q_window[1] - math.gamma(spec.rho + 1.0)
    lo, hi = float(g.min()), float(g.max())
    cond3 = lo >= 0.0 and hi < rhs

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        ct = estimate_CT(inv)

    return ConditionReport(
        psi_min=inv.psi0, psi_deriv_max=deriv,
        compat_defect=inv.compat_defect, cond2_compatible=inv.compatible,
        cond3_low=lo, cond3_high=hi, cond3_rhs=rhs, cond3_window=cond3,
        CT=ct, cond4_contraction=ct < 1.0)


def _anderson_step(g: np.ndarray, stacked: np.ndarray,
                   dG: np.ndarray) -> np.ndarray:
    """The mixed iterate g - sum_j gamma_j dG_j, or the plain step g.

    ``stacked`` holds the residual f in row 0 and the residual differences
    dF_j in the rows below; the rows dG_j of ``dG`` are the matching image
    differences.  gamma minimises |f - sum_j gamma_j dF_j|_2 through its
    Gram system, whose matrix dF_i . dF_j and right-hand side dF_i . f are
    read off one product of ``stacked`` with itself.  A Gram matrix whose
    eigenvalue ratio is at most ``_GRAM_RCOND`` (a history too close to
    rank-deficient for gamma to be accurate) or a non-finite mixed iterate
    gives the plain step.
    """
    prod = stacked @ stacked.T
    w, v = np.linalg.eigh(prod[1:, 1:])
    if not w[0] > _GRAM_RCOND * w[-1]:
        return g
    gamma = v @ (v.T @ prod[1:, 0] / w)
    mixed = g - gamma @ dG
    return mixed if np.all(np.isfinite(mixed)) else g


def recover_q(inv: InverseSpec) -> InverseResult:
    """Find the fixed point of q -> L[q] by Anderson-mixed sweeps.

    The sweeps start from the constant max(0, midpoint of the q window) and
    run to the module's budget, read at call time: tol = ``RECOVERY_TOL``,
    at most ``RECOVERY_MAX_SWEEPS`` sweeps.

    Sweep k evaluates the clamped image g_k = L[q_k] and the residual
    f_k = g_k - q_k.  Its forward solve stops at the inner tolerance
    max(``PICARD_TOL``, ``_FORCING`` * r_{k-1}), r_{k-1} being the previous
    sweep's sup residual (the first sweep runs at ``PICARD_TOL``): early
    sweeps, whose residual is large, need no more accuracy from L than a
    fraction of it (Dembo, Eisenstat and Steihaug, SIAM J. Numer. Anal. 19
    (1982) 400).  The recovery stops at the first sweep with sup |f_k| < tol
    whose inner solve ran at ``PICARD_TOL``, and returns its g_k, so the
    result is an image of L evaluated as accurately as ``apply_L`` evaluates
    it; a loose sweep that reaches sup |f_k| < tol is followed by one sweep
    at ``PICARD_TOL``.  Otherwise the next iterate is
    g_k - dG gamma, where gamma solves the least-squares problem
    min |f_k - dF gamma|_2 over the differences of the last
    ``_ANDERSON_DEPTH`` residuals (dF) and images (dG) (Walker and Ni, SIAM
    J. Numer. Anal. 49 (2011) 1715).  A nearly rank-deficient history or a
    non-finite mixed iterate falls back to the plain step g_k, so the limit
    is the same fixed point that the paper's contraction argument makes
    unique.  Images and mixed iterates are clamped nodewise into the
    admissible window (clamp events are counted, not hidden); each sweep
    warm-starts its forward solve from the previous mode trajectories.
    ``measured_ratio`` is the largest Lipschitz quotient
    sup |g_k - g_{k-1}| / sup |q_k - q_{k-1}| over steps longer than tol.
    The flux floor holds by construction of ``inv``; every other condition
    is reported, not enforced, because the measured contraction is the
    decisive evidence.
    """
    tol, max_iter = RECOVERY_TOL, RECOVERY_MAX_SWEEPS
    report = validate_theorem43(inv)
    lo, hi = inv.spec.q_window
    lam3 = eigenvalues(inv.spec.K, inv.spec.length) ** 3

    q = constant(inv.spec.tgrid, max(0.0, 0.5 * (lo + hi)))
    residuals: list = []
    trace_sums: list = []
    measured_ratio = 0.0
    # row 0 the current residual, rows 1.. the residual differences, in
    # ring order; dG row j pairs with stacked row j + 1
    stacked = np.empty((_ANDERSON_DEPTH + 1, q.values.size))
    dG = np.empty((_ANDERSON_DEPTH, q.values.size))
    depth = 0
    clamp_count = 0
    warm: Optional[np.ndarray] = None
    inner_tol = PICARD_TOL
    converged = False
    for it in range(1, max_iter + 1):
        try:
            image, coeffs = _sweep(inv, q, warm, inner_tol)
        except ConvergenceError as e:
            raise ConvergenceError(
                f"forward solve failed inside sweep {it}: {e}",
                iterations=e.iterations, last_update=e.last_update,
                contraction_estimate=e.contraction_estimate) from e
        trace_sums.append(float(np.max(lam3 @ np.abs(coeffs))))
        image, touched = image.clamped(lo, hi)
        clamp_count += touched
        g = image.values
        f = g - q.values
        residuals.append(float(np.max(np.abs(f))))
        if it > 1:
            step = float(np.max(np.abs(q.values - q_prev)))
            if step > tol:
                measured_ratio = max(
                    measured_ratio, float(np.max(np.abs(g - g_prev))) / step)
            row = (it - 2) % _ANDERSON_DEPTH
            np.subtract(f, f_prev, out=stacked[row + 1])
            np.subtract(g, g_prev, out=dG[row])
            depth = min(depth + 1, _ANDERSON_DEPTH)
        if residuals[-1] < tol and inner_tol == PICARD_TOL:
            q = image
            converged = True
            break

        nxt = g
        if depth:
            stacked[0] = f
            nxt = _anderson_step(g, stacked[:depth + 1], dG[:depth])
        q_prev, f_prev, g_prev = q.values, f, g
        q, touched = image.with_values(nxt).clamped(lo, hi)
        clamp_count += touched
        warm = coeffs
        # a residual below tol that did not end the loop came from a loose
        # solve, so the next sweep confirms it at PICARD_TOL
        inner_tol = (PICARD_TOL if residuals[-1] < tol
                     else max(PICARD_TOL, _FORCING * residuals[-1]))

    if not converged:
        raise ConvergenceError(
            f"recovery stalled after {max_iter} sweeps: last residual "
            f"{residuals[-1]:.3g}, measured ratio {measured_ratio:.3g}, "
            f"contraction estimate {report.CT:.3g}",
            iterations=max_iter, last_update=residuals[-1],
            contraction_estimate=measured_ratio)

    # a cold solve, as solve_forward makes it, without the field assembly
    flux = flux_at_left(solve_mode_set(inv.spec, q).u_k, inv.spec.length)
    flux_defect = float(np.max(np.abs(flux - inv.psi.values)))
    err = (None if inv.q_true is None
           else float(np.max(np.abs(q.values - inv.q_true.values))))

    return InverseResult(
        q=q, iterates=residuals, measured_ratio=measured_ratio,
        CT_bound=report.CT, condition_report=report, clamp_count=clamp_count,
        flux_defect=flux_defect, trace_sums=trace_sums,
        trace_bound=inv.trace_bound, recovery_error=err)


def synthesize_data(spec: ProblemSpec, q_true: Profile,
                    noise_level: float = 0.0, seed: int = 0) -> InverseSpec:
    """Forward-solve ``spec`` at the known coefficient ``q_true`` and package
    its flux trace as data on that same spec.

    Noise is multiplicative uniform (level * U(-1,1) per node) so small
    levels keep the trace positive (``InverseSpec`` refuses one that is
    not); the generator is seeded, making the synthesized data bitwise
    reproducible.
    """
    if noise_level < 0.0:
        raise DomainError(f"noise level must be nonnegative, got {noise_level}")
    if seed < 0:
        raise DomainError(f"noise seed must be nonnegative, got {seed}")
    psi = flux_at_left(solve_forward(spec, q_true).u_k, spec.length)
    if noise_level > 0.0:
        rng = np.random.default_rng(seed)
        psi *= 1.0 + noise_level * rng.uniform(-1.0, 1.0, psi.shape)
    return InverseSpec(spec=spec, psi=Profile(spec.tgrid, psi), q_true=q_true)
