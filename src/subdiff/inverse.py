"""Recovery of the time-dependent reaction coefficient from boundary flux data.

The observation is the left-boundary derivative trace psi(t) = u_x(0, t).
Differentiating the solution series at x = 0 turns the PDE into a pointwise
identity linking q, psi, and the third-derivative trace; solving it for q
gives a self-map L whose fixed point is the coefficient.  L is causal: its
value at t_n reads q only at t_0..t_n, and q_n only through the last step
of the product integration, so the fixed point is found node by node, one
scalar equation each, in a single march (``recover_q``).  The measured
per-step contraction of the map is reported against the data-dependent
contraction estimate C(T).
"""

from __future__ import annotations

import math
import operator
import sys
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import AdmissibilityError, DomainError
# ``solve_forward`` stays bound here because bench/tracer.py wraps it under
# this name; synthesis solves the modes alone
from .forward import (ProblemSpec, check_window, mode_problem,  # noqa: F401
                      solve_forward, solve_mode_set)
from .frackernel import caputo_l1
from .mode_solver import march
from .profiles import Profile, constant
from .spectral import (
    eigenvalues,
    flux_at_left,
    tail_diagnostics,
    third_trace_at_left,
)

_COMPAT_RTOL = 1e-6
#: nodes a leaf of the march solves one by one; longer stretches split in
#: two, and the first half's history reaches the second by one FFT product
#: (``mode_solver.march``)
_LEAF = 32


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
    extrapolation from t_1..t_3 (the recovery only reads q on solver nodes,
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
    # the check's sup |clamp(L[q]) - q|, one entry: the synthesis, the march
    # and the check solve the same discrete system exactly, so it reads at
    # round-off
    iterates: list
    measured_ratio: float
    condition_report: ConditionReport
    clamp_count: int
    flux_defect: float
    flux_defect_rel: float  # flux_defect / max psi
    trace_sums: list  # the check's max_t sum_k lam^3 |u_k|, one entry
    trace_bound: float
    recovery_error: Optional[float] = None


def _sweep(inv: InverseSpec, q: Profile) -> tuple[Profile, np.ndarray]:
    """One application of the map: forward-solve at q, read off the image
    and the mode coefficients it came from."""
    coeffs = solve_mode_set(inv.spec, q)
    trace3 = third_trace_at_left(coeffs, inv.spec.length)
    new = (inv.q0.values
           + inv.spec.sigma.values / inv.psi.values * trace3)
    return Profile(inv.spec.tgrid, new), coeffs


def apply_L(q_current: Profile, inv: InverseSpec) -> Profile:
    """Recovery map L: q0 plus the third-trace correction (sigma/psi) u_xxx(0,t),
    from a forward solve at ``q_current``."""
    return _sweep(inv, q_current)[0]


def estimate_CT(inv: InverseSpec) -> float:
    """Data-dependent contraction estimate for the recovery map.

    (l M_sigma T^rho) / (sqrt(6) psi0 Gamma(rho+1)) *
    (T^rho/Gamma(rho+1) * S_f + S_phi), with psi0 = min psi the flux floor
    and S_f and S_phi the cubically weighted coefficient sums of the source
    and the initial datum.  Below 1 is the paper's contraction condition;
    condition 4 of ``validate_theorem43`` reports that verdict, so nothing
    here warns.
    """
    spec = inv.spec
    head = spec.t_final ** spec.rho / math.gamma(spec.rho + 1.0)
    return float(spec.length * spec.sigma.vmax * head
                 / (math.sqrt(6.0) * inv.psi0) * inv.trace_bound)


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

    ct = estimate_CT(inv)
    return ConditionReport(
        psi_min=inv.psi0, psi_deriv_max=deriv,
        compat_defect=inv.compat_defect, cond2_compatible=inv.compatible,
        cond3_low=lo, cond3_high=hi, cond3_rhs=rhs, cond3_window=cond3,
        CT=ct, cond4_contraction=ct < 1.0)


def _march(inv: InverseSpec) -> tuple[np.ndarray, float]:
    """q with q_n = clamp(L[q]_n) at every node, marched node by node, and
    the largest |G_n'(q_n)| over the nodes inside the q window.

    With c_k = fold_k[0], D_k = 1 - c_k lam_k^2 (M_sigma - sigma_n) and H_k
    the terms of u_{k,n} that do not read t_n, u_{k,n} = (H_k + c_k
    f_{k,n}) / (D_k + c_k q_n), so the condition at t_n is x = G_n(x) =
    q0_n + sum_k A_k / (D_k + c_k x), A_k = (sigma_n/psi_n) gamma_k (H_k +
    c_k f_{k,n}), gamma_k = -sqrt(2/l) lam_k^3; as c_k < 1/(2 lam_k^2
    M_sigma), each denominator exceeds 1/2 on the window.  Halley's method
    solves F(x) = x - G_n(x) = 0 from q_{n-1}, one evaluation of G_n and its
    first three derivatives per step: with s = F/F' Newton's step and
    k = -F''/(2F'), the step is s/(1 + s k), and the next one is predicted
    as |k^2 - F'''/(6F')| |step|^3.  Where |s k| >= 1/2 the quadratic model
    is not to be trusted and Newton's step s is taken, with |k| s^2 as its
    prediction; where F' = 1 - G_n' is not positive, a plain step
    x -> G_n(x).  Steps stay clamped to the window and stop once a step, or
    the next one as predicted, is at most 4 eps times the window's width,
    or once a step fails to shrink.  On data that move q little from node to
    node one step suffices.  |G_n'(q_n)| is read at q_n itself, after the
    march, from the rows u_{k,n} in one array pass.  At t_0, u = phi.

    H comes from the divide-and-conquer split of ``mode_solver.march``,
    one FFT product per split over the modes with data, on the weights
    ``solve_mode`` builds for them; its leaves of ``_LEAF`` nodes or fewer
    step node by node on plain floats, each node adding the leaf's earlier
    g_{k,j} under fold_k[n-j] to the history ``march`` hands it, which
    gains c_k f_{k,n} once per leaf.
    """
    spec = inv.spec
    # plain floats: the leaves step on them
    lo, hi = map(float, spec.q_window)
    tol = 4.0 * sys.float_info.epsilon * (hi - lo)
    # at q = 0 the bracket lam_k^2 (M_sigma - sigma) - q is a itself
    p = mode_problem(spec, constant(spec.tgrid, 0.0))
    p = p.restrict(p.live)
    w, a, f = p.weights, p.bracket, p.f_k
    c = w.fold[:, 0].tolist()
    # fold_k[1:_LEAF], against a leaf's g newest first
    fold = w.fold[:, 1:_LEAF].tolist()
    gamma = -math.sqrt(2.0 / spec.length) * p.lam_k ** 3
    q0 = inv.q0.values.tolist()

    base = p.phi_k[:, None] * w.relax  # gains the history
    g = np.empty_like(base)  # f + (a - q) u, the integrand
    top = np.empty_like(base)  # u_{k,n} (D_{k,n} + c_k q_n), the numerators
    q = np.empty(spec.tgrid.n_steps + 1)
    c_col = w.fold[:, :1]
    denom = 1.0 - c_col * a  # D, a row per mode
    weight = gamma[:, None] * (spec.sigma.values / inv.psi.values)
    q[0] = min(max(q0[0] + float(weight[:, 0] @ p.phi_k), lo), hi)
    g[:, 0] = f[:, 0] + (a[:, 0] - q[0]) * p.phi_k

    def leaf(start: int, stop: int) -> None:
        # H_k + c_k f_{k,n} but for the leaf's own g: far history and
        # c_k f_{k,n} in one array operation
        far = base[:, start:stop] + c_col * f[:, start:stop]
        near: list = [[] for _ in c]  # the leaf's g_{k,j}, newest first
        rows = zip(*(v.T.tolist() for v in (
            far, f[:, start:stop], a[:, start:stop], denom[:, start:stop],
            weight[:, start:stop])), q0[start:stop])
        x = float(q[start - 1])
        qs, nums = [], []
        for h_n, f_n, a_n, D, w_n, q0_n in rows:
            num = [h + sum(map(operator.mul, fk, gk))
                   for h, fk, gk in zip(h_n, fold, near)]
            A = list(map(operator.mul, w_n, num))
            last = math.inf
            while True:
                G = dG = d2G = d3G = 0.0
                for Ak, Dk, ck in zip(A, D, c):
                    r = 1.0 / (Dk + ck * x)
                    cr = ck * r
                    t = Ak * r
                    G += t
                    t *= cr
                    dG += t
                    t *= cr
                    d2G += t
                    d3G += t * cr
                slope = 1.0 + dG
                if slope > 0.0:
                    step = (x - q0_n - G) / slope
                    k2 = d2G / slope
                    bend = step * k2
                    if abs(bend) < 0.5:  # Halley's step and its cubic error
                        step /= 1.0 + bend
                        err = abs(k2 * k2 - d3G / slope) * abs(step) ** 3
                    else:  # Newton's step and its quadratic error
                        err = abs(k2) * step * step
                else:  # a plain step x -> G_n(x)
                    step = x - q0_n - G
                    err = math.inf
                nxt = min(max(x - step, lo), hi)
                moved = abs(nxt - x)
                if not moved < last:  # also ends a step that is not a number
                    break
                x = nxt
                if moved <= tol or err <= tol:
                    break
                last = moved
            qs.append(x)
            nums.append(num)
            for gk, fk, ak, v, Dk, ck in zip(near, f_n, a_n, num, D, c):
                gk.insert(0, fk + (ak - x) * v / (Dk + ck * x))
        q[start:stop] = qs
        top[:, start:stop] = np.array(nums).T
        g[:, start:stop] = [gk[::-1] for gk in near]

    march(w, base, g, leaf, _LEAF)
    # |G_n'(q_n)| = |sum_k w_{k,n} c_k u_{k,n} / (D_{k,n} + c_k q_n)|
    bottom = denom[:, 1:] + c_col * q[1:]
    u = top[:, 1:] / bottom
    ratio = np.abs(np.sum(weight[:, 1:] * c_col * u / bottom, axis=0))
    inside = (lo < q[1:]) & (q[1:] < hi)
    return q, float(ratio[inside].max(initial=0.0))


def recover_q(inv: InverseSpec) -> InverseResult:
    """Find the fixed point of q -> clamp(L[q]) by one causal march.

    Node n solves one scalar equation for q_n given q_0..q_{n-1} by
    Halley's method from q_{n-1} (``_march``), stopping once the step or its
    predicted cubic successor is at round-off; a root outside the spec's q
    window is clamped to its end, and ``clamp_count`` counts the nodes at
    either end.  ``measured_ratio`` is the largest |1 - F_n'(q_n)| over the
    other nodes t_1..t_N, the local contraction of each node's equation,
    read at the recovered q_n itself.  One forward solve at the result,
    as ``apply_L`` makes it, checks it: ``iterates`` holds its residual
    sup |clamp(L[q]) - q|, a round-off check, since that solve marches the
    same discrete system exactly, and ``trace_sums`` and ``flux_defect``
    (also relative to max psi) come from its coefficients.  Only the flux
    floor is enforced (by ``inv``).
    """
    report = validate_theorem43(inv)
    lo, hi = inv.spec.q_window
    values, measured_ratio = _march(inv)
    q = Profile(inv.spec.tgrid, values)

    image, coeffs = _sweep(inv, q)
    residual = float(np.max(np.abs(image.clamped(lo, hi).values - values)))
    lam3 = eigenvalues(inv.spec.K, inv.spec.length) ** 3
    flux = flux_at_left(coeffs, inv.spec.length)
    flux_defect = float(np.max(np.abs(flux - inv.psi.values)))
    err = (None if inv.q_true is None
           else float(np.max(np.abs(values - inv.q_true.values))))

    return InverseResult(
        q=q, iterates=[residual], measured_ratio=measured_ratio,
        condition_report=report,
        clamp_count=int(np.count_nonzero((values == lo) | (values == hi))),
        flux_defect=flux_defect,
        flux_defect_rel=flux_defect / float(np.max(inv.psi.values)),
        trace_sums=[float(np.max(lam3 @ np.abs(coeffs)))],
        trace_bound=inv.trace_bound, recovery_error=err)


def _uniform(seed: int, n: int) -> np.ndarray:
    """Draws 1..n of the SplitMix64 stream from ``seed`` (Steele, Lea and
    Flood, OOPSLA 2014), each mapped to (z >> 11) 2^-52 - 1 in [-1, 1).

    State i is seed + i 0x9E3779B97F4A7C15 mod 2^64; the mix is two
    xor-shift-multiply rounds and a final xor-shift.  The uint64 array
    arithmetic wraps mod 2^64 without a warning, so the stream is fixed by
    the seed alone, whatever the installed NumPy.
    """
    z = np.arange(1, n + 1, dtype=np.uint64)
    z *= np.uint64(0x9E3779B97F4A7C15)
    z += np.uint64(seed)
    for shift, mult in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
        z ^= z >> np.uint64(shift)
        z *= np.uint64(mult)
    z ^= z >> np.uint64(31)
    z >>= np.uint64(11)
    return z.astype(np.float64) * 2.0 ** -52 - 1.0


def synthesize_data(spec: ProblemSpec, q_true: Profile,
                    noise_level: float = 0.0, seed: int = 0) -> InverseSpec:
    """Solve the modes of ``spec`` at the known coefficient ``q_true`` and
    package their flux trace as data on that same spec; a ``q_true`` outside
    the admissibility window is warned about, as ``solve_forward`` does.

    Noise is multiplicative uniform (level * U(-1,1) per node) so small
    levels keep the trace positive (``InverseSpec`` refuses one that is
    not).  Node n draws the n-th value of the SplitMix64 stream of ``seed``
    (``_uniform``), an integer in [0, 2^64), so the synthesized data are
    bitwise reproducible and do not depend on the NumPy version.  Level 0
    draws nothing.  The stream replaced NumPy's ``default_rng``, so data
    synthesized with noise differ from those of earlier versions.
    """
    if not (0.0 <= noise_level < math.inf):
        raise DomainError(f"noise level must be finite and nonnegative, got "
                          f"{noise_level}")
    # a float or bool seed would reach the stream truncated to an integer
    if (isinstance(seed, bool) or not isinstance(seed, int)
            or not 0 <= seed < 2 ** 64):
        raise DomainError(f"noise seed must be an integer in [0, 2^64), got "
                          f"{seed!r}")
    check_window(spec, q_true)
    psi = flux_at_left(solve_mode_set(spec, q_true), spec.length)
    if noise_level > 0.0:
        psi *= 1.0 + noise_level * _uniform(seed, psi.size)
    return InverseSpec(spec=spec, psi=Profile(spec.tgrid, psi), q_true=q_true)
