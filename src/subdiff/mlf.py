"""Two-parameter Mittag-Leffler function on the nonpositive real axis.

Everything the time-stepping machinery needs reduces to five callables:

* ``eval_mlf``    -- E_{rho,beta}(z) for z <= 0,
* ``relaxation``  -- E_{rho,1}(-lam * t^rho), the fractional relaxation curve,
* ``relaxation_curve`` -- the same curve at every entry of an array of times,
* ``kernel``      -- lam * t^(rho-1) * E_{rho,rho}(-lam * t^rho),
* ``kernel_mass`` -- the exact integral of ``kernel`` over [a, b].

The kernel is minus the derivative of the relaxation curve, so its integral
telescopes into relaxation differences; ``kernel_mass`` uses that closed form
and never touches the t -> 0 singularity numerically.

Evaluation strategy.  The power series is run (Kahan-compensated) whenever
its cancellation allows the 1e-12 relative target; beyond |z| = Z_SWITCH the
algebraic asymptotic expansion with smallest-term truncation is tried first.
Both estimate their own error a posteriori.  When neither attains its
tolerance the value is recovered from the real integral representation on
the branch cut (0 < rho <= 0.97) or from an extended-precision series; this
keeps the advertised tolerances honest also in the cancellation band that
plain double-precision series/asymptotics cannot cover.

``relaxation_curve`` routes a whole array through four stages: series, then
asymptotic expansion, then a vectorised branch cut, then the scalar
fallback.  The series and asymptotic bands run as term loops over all
entries still active, taking each term's coefficient once per term index
and applying the same compensation, stopping rules, error estimates and
acceptance tolerances as the scalar sums.  The entries they leave go through
the branch-cut integral rescaled so that its weight does not depend on the
argument (``_branch_cut_curve``): one composite Gauss-Legendre node set per
order serves them all, and each value is accepted under the scalar branch
cut's own error gate.  Only the entries it rejects, or that lie outside its
domain, go one by one to the scalar fallback (branch cut, then extended
precision).  A single value is cheaper on the scalar path, so the scalar
entry points keep their own loops.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConvergenceError, DomainError

Z_SWITCH = 5.0
SERIES_MAX_TERMS = 500
_EPS = 2.220446049250313e-16

# series is accepted only while the condition number keeps the rounding
# noise below the relative target
_SERIES_COND_LIMIT = 2.5e1
_REL_TARGET = 1e-13
_ABS_TARGET = 1e-16
# the series is not tried once x^(1/rho) exceeds this (its running maximum
# term outgrows the result beyond care)
_SERIES_CANCEL_MAX = 34.0
# an asymptotic value is also accepted at this absolute error estimate
_ASYMPTOTIC_ABS_MAX = 1e-13
# the branch cut serves orders up to this (its integrand peaks ever more
# sharply as rho -> 1); above it the extended-precision series takes over
_BRANCH_CUT_RHO_MAX = 0.97
# a branch-cut value is accepted at err <= _CUT_REL_TOL * max(|v|, _CUT_FLOOR)
_CUT_REL_TOL = 1e-12
_CUT_FLOOR = 1e-4

# Fixed-node branch-cut rule of ``relaxation_curve`` (beta = 1).  Domain: x in
# [_CUT_X_MIN, _CUT_X_MAX] (the fallback band lies inside) and rho at least
# _CUT_RHO_MIN, below which x^(1/rho) overflows and the node count grows
# like 1/rho.
_CUT_RHO_MIN = 0.01
_CUT_X_MIN = 0.5
_CUT_X_MAX = 100.0
# Gauss-Legendre points per panel of the coarse rule; the fine rule has twice
_CUT_N = 12
# panels start at w = _CUT_W_MIN (one more panel covers [0, _CUT_W_MIN]) and
# end where (x w)^(1/rho) = _CUT_TAIL_EXP at x = _CUT_X_MIN
_CUT_W_MIN = 1e-12
_CUT_TAIL_EXP = 42.0
# entries x nodes evaluated at a time (4 MB of doubles)
_CUT_BLOCK = 1 << 19


def rgamma(x: float) -> float:
    """Reciprocal gamma, zero at the poles (analytic continuation of 1/Gamma)."""
    if x > 0.0:
        if x <= 171.0:
            return 1.0 / math.gamma(x)
        return math.exp(-math.lgamma(x))
    n = round(x)
    if abs(x - n) < 1e-12 * max(1.0, abs(x)) and n <= 0:
        return 0.0
    # reflection sign: Gamma alternates on (-n-1, -n)
    sign = -1.0 if math.floor(-x) % 2 == 0 else 1.0
    try:
        return sign * math.exp(-math.lgamma(x))
    except (ValueError, OverflowError):
        return 0.0


def _log_rgamma_abs(x: float) -> tuple[float, float]:
    """(log |1/Gamma(x)|, sign); sign 0 exactly at a pole."""
    n = round(x)
    if abs(x - n) < 1e-12 * max(1.0, abs(x)) and n <= 0:
        return -math.inf, 0.0
    try:
        lg = math.lgamma(x)
    except ValueError:
        return -math.inf, 0.0
    if x > 0.0:
        return -lg, 1.0
    sign = -1.0 if math.floor(-x) % 2 == 0 else 1.0
    return -lg, sign


@dataclass(frozen=True)
class MlfParams:
    """Order/parameter pair (rho, beta) of E_{rho,beta}."""

    rho: float
    beta: float

    def __post_init__(self) -> None:
        if not (0.0 < self.rho < 2.0) or not math.isfinite(self.rho):
            raise DomainError(f"order rho must lie in (0, 2), got {self.rho!r}")
        if not math.isfinite(self.beta):
            raise DomainError(f"beta must be finite, got {self.beta!r}")


def _series(rho: float, beta: float, x: float) -> tuple[float, float]:
    """Power series sum E_{rho,beta}(-x); returns (value, est. relative error)."""
    lnx = math.log(x)
    total = 0.0
    comp = 0.0          # Kahan compensation
    abs_sum = 0.0
    small_streak = 0
    for k in range(SERIES_MAX_TERMS):
        lg, sg = _log_rgamma_abs(k * rho + beta)
        if sg == 0.0:
            term = 0.0
        else:
            e = k * lnx + lg
            if e > 700.0:
                return math.nan, math.inf
            term = sg * math.exp(e)
            if k % 2:
                term = -term
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        abs_sum += abs(term)
        if abs(term) < 1e-16 * abs(total):
            small_streak += 1
            if small_streak >= 3:
                break
        else:
            small_streak = 0
    else:
        return math.nan, math.inf
    if total == 0.0:
        return 0.0, math.inf
    cond = abs_sum / abs(total)
    return total, cond * 4.0 * _EPS


def _series_curve(rho: float, beta: float, x: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Array form of ``_series`` for x > 0: (values, est. relative errors)."""
    val = np.full(x.shape, math.nan)
    rel = np.full(x.shape, math.inf)
    idx = np.arange(x.size)
    lnx = np.log(x)
    total = np.zeros(x.size)
    comp = np.zeros(x.size)
    abs_sum = np.zeros(x.size)
    small_streak = np.zeros(x.size, dtype=int)
    for k in range(SERIES_MAX_TERMS):
        if idx.size == 0:
            break
        lg, sg = _log_rgamma_abs(k * rho + beta)  # a pole gives lg = -inf
        e = k * lnx + lg
        live = e <= 700.0
        if not live.all():  # overflowing entries fail, as in the scalar
            idx, lnx, e, total, comp, abs_sum, small_streak = (
                a[live] for a in (idx, lnx, e, total, comp, abs_sum,
                                  small_streak))
        term = (-sg if k % 2 else sg) * np.exp(e)
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        abs_sum += np.abs(term)
        small_streak = np.where(np.abs(term) < 1e-16 * np.abs(total),
                                small_streak + 1, 0)
        done = small_streak >= 3
        if done.any():
            fin, tot = idx[done], total[done]
            nonzero = tot != 0.0
            val[fin] = tot
            rel[fin[nonzero]] = (abs_sum[done][nonzero] / np.abs(tot[nonzero])
                                 * 4.0 * _EPS)
            keep = ~done
            idx, lnx, total, comp, abs_sum, small_streak = (
                a[keep] for a in (idx, lnx, total, comp, abs_sum, small_streak))
    # entries still running after SERIES_MAX_TERMS keep (nan, inf)
    return val, rel


def _asymptotic(rho: float, beta: float, x: float) -> tuple[float, float]:
    """Large-x expansion; returns (value, est. absolute error).

    Algebraic part: sum_{n>=1} (-1)^(n+1) x^(-n) / Gamma(beta - n*rho),
    truncated before its smallest term.  For rho in (1, 2) the two conjugate
    exponential contributions on the Stokes rays are added; on the negative
    axis they decay like exp(x^(1/rho) * cos(pi/rho)) and are computed
    exactly in complex double precision.
    """
    lnx = math.log(x)
    total = 0.0
    comp = 0.0
    best_min = math.inf
    err = math.inf
    terms_seen = 0
    for n in range(1, 301):
        lg, sg = _log_rgamma_abs(beta - n * rho)
        if sg == 0.0:
            continue
        e = -n * lnx + lg
        mag = math.exp(e) if e < 700.0 else math.inf
        # terms can dip spuriously when beta - n*rho grazes a Gamma pole, so
        # divergence onset is judged against the running envelope minimum
        if mag > 3.0 * best_min:
            err = mag
            break
        term = sg * mag if (n % 2 == 1) else -sg * mag
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        best_min = min(best_min, mag)
        err = mag  # provisional: tail estimated by the last included term
        terms_seen += 1
        if mag < 1e-18 * (abs(total) + 1e-300):
            break
    if terms_seen == 0:
        return math.nan, math.inf
    if rho > 1.0:
        w = x ** (1.0 / rho) * cmath.exp(1j * math.pi / rho)
        total += (2.0 / rho) * (w ** (1.0 - beta) * cmath.exp(w)).real
    elif rho == 1.0:
        # exponentially small ray term is real and not representable this
        # way; the caller treats rho == 1 separately
        return math.nan, math.inf
    return total, err + 4.0 * _EPS * abs(total)


def _asymptotic_curve(rho: float, beta: float, x: np.ndarray
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Array form of ``_asymptotic`` for 0 < rho < 1: (values, est. abs. errors)."""
    val = np.full(x.shape, math.nan)
    err_out = np.full(x.shape, math.inf)
    idx = np.arange(x.size)
    lnx = np.log(x)
    total = np.zeros(x.size)
    comp = np.zeros(x.size)
    best_min = np.full(x.size, math.inf)
    err = np.full(x.size, math.inf)
    seen = np.zeros(x.size, dtype=bool)

    def finish(stop, idx, total, err, seen):
        fin = stop & seen  # entries that stop before any term stay (nan, inf)
        val[idx[fin]] = total[fin]
        err_out[idx[fin]] = err[fin] + 4.0 * _EPS * np.abs(total[fin])

    for n in range(1, 301):
        if idx.size == 0:
            break
        lg, sg = _log_rgamma_abs(beta - n * rho)
        if sg == 0.0:
            continue
        e = -n * lnx + lg
        mag = np.exp(np.minimum(e, 700.0))
        mag[e >= 700.0] = math.inf
        diverged = mag > 3.0 * best_min
        term = (sg if n % 2 == 1 else -sg) * mag
        y = term - comp
        t = total + y
        new_comp = (t - total) - y
        # diverged entries stop before adding the term, with the term as error
        total = np.where(diverged, total, t)
        comp = np.where(diverged, comp, new_comp)
        best_min = np.where(diverged, best_min, np.minimum(best_min, mag))
        err = mag
        seen |= ~diverged
        converged = ~diverged & (mag < 1e-18 * (np.abs(total) + 1e-300))
        stop = diverged | converged
        if stop.any():
            finish(stop, idx, total, err, seen)
            keep = ~stop
            idx, lnx, total, comp, best_min, err, seen = (
                a[keep] for a in (idx, lnx, total, comp, best_min, err, seen))
    finish(np.ones(idx.size, dtype=bool), idx, total, err, seen)
    return val, err_out


def _branch_cut(rho: float, beta: float, x: float) -> tuple[float, float]:
    """Real integral over the branch cut, for 0 < rho < 1, beta <= rho + 0.75.

    E_{rho,beta}(-x) = (1/pi) * int_0^inf exp(-s) s^(rho-beta)
        * (s^rho sin(pi beta) - x sin(pi (rho-beta)))
        / (s^(2 rho) + 2 x s^rho cos(pi rho) + x^2) ds

    The substitution s = v^4 turns the weak endpoint singularity into a
    regular integrand (v-power exponent 4*(rho-beta)+3 >= 0), which keeps
    the quadrature error estimates honest.
    """
    from scipy.integrate import quad

    sb = math.sin(math.pi * beta)
    srb = math.sin(math.pi * (rho - beta))
    c = math.cos(math.pi * rho)
    vpow = 4.0 * (rho - beta) + 3.0

    def g(v: float) -> float:
        s = v ** 4.0
        sr = s ** rho
        den = sr * sr + 2.0 * x * sr * c + x * x
        return 4.0 * v ** vpow * math.exp(-s) * (sr * sb - x * srb) / (math.pi * den)

    def f(s: float) -> float:
        sr = s ** rho
        den = sr * sr + 2.0 * x * sr * c + x * x
        return math.exp(-s) * s ** (rho - beta) * (sr * sb - x * srb) / (math.pi * den)

    s_hi = 100.0
    peak = x ** (1.0 / rho) if x > 0 else 1.0
    pts = {0.0, s_hi ** 0.25}
    if peak < s_hi * 0.95:
        for frac in (0.5, 0.9, 0.97, 1.0, 1.03, 1.1, 2.0):
            p = peak * frac
            if 0.0 < p < s_hi:
                pts.add(p ** 0.25)
    cuts = sorted(pts)
    total = 0.0
    err = 0.0
    for a, b in zip(cuts[:-1], cuts[1:]):
        out = quad(g, a, b, epsabs=1e-16, epsrel=1e-13, limit=300, full_output=1)
        total += out[0]
        err += out[1]
    out = quad(f, s_hi, math.inf, epsabs=1e-18, epsrel=1e-13, limit=200,
               full_output=1)
    total += out[0]
    err += out[1]
    return total, err


@lru_cache(maxsize=32)
def _cut_edges(rho: float) -> np.ndarray:
    """Panel edges in w for ``_branch_cut_curve``: 0, then graded in y = log w.

    Each panel stays well inside the region where the integrand is analytic
    and bounded, for every x of the domain.  exp(-(x w)^(1/rho)) is bounded
    on the strip |Im y| < pi rho / 2, so the width bound is 2 rho where it
    turns over and grows to the left of that band, where it is nearly 1.  The
    Lorentzian has its poles at y = +-i pi (1 - rho), so near its peak at
    w = 1 (y = 0) the bound is the distance to a pole.  The bound is
    1-Lipschitz in y, so a step of half of it, taken at the left edge, leaves
    every panel no wider than the bound at any of its points.
    """
    delta = math.pi * (1.0 - rho)
    y_band = -math.log(_CUT_X_MAX) - 3.0 * rho  # (x w)^(1/rho) = e^-3 there
    y_end = rho * math.log(_CUT_TAIL_EXP) - math.log(_CUT_X_MIN)
    ys = [math.log(_CUT_W_MIN)]
    while ys[-1] < y_end:
        y = ys[-1]
        width = min(4.0, 2.0 * rho + max(0.0, y_band - y), math.hypot(y, delta))
        ys.append(min(y + 0.5 * width, y_end))
    edges = np.concatenate(([0.0], np.exp(ys)))
    edges.setflags(write=False)
    return edges


@lru_cache(maxsize=32)
def _cut_rule(rho: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss-Legendre rule on every panel of ``_cut_edges(rho)``.

    Returns (w^(1/rho) at the nodes, weights); the weights carry the factor
    sin(pi rho) / (pi rho) and the Lorentzian 1 / (w^2 + 2 w cos(pi rho) + 1).
    """
    edges = _cut_edges(rho)
    g, gw = np.polynomial.legendre.leggauss(n)
    a, half = edges[:-1, None], 0.5 * np.diff(edges)[:, None]
    w = (a + half * (g + 1.0)).ravel()
    c, s = math.cos(math.pi * rho), math.sin(math.pi * rho)
    weights = ((half * gw).ravel() * (s / (math.pi * rho))
               / ((w + c) ** 2 + s * s))
    powers = w ** (1.0 / rho)
    powers.setflags(write=False)
    weights.setflags(write=False)
    return powers, weights


def _branch_cut_curve(rho: float, x: np.ndarray
                      ) -> tuple[np.ndarray, np.ndarray]:
    """E_{rho,1}(-x) from the branch cut, one fixed rule for every entry of x.

    For _CUT_RHO_MIN <= rho <= _BRANCH_CUT_RHO_MAX and x in [_CUT_X_MIN,
    _CUT_X_MAX]; returns (values, est. absolute errors).  Putting
    s = (x w)^(1/rho) into the ``_branch_cut`` integral at beta = 1 gives

        E_{rho,1}(-x) = sin(pi rho)/(pi rho)
            * int_0^inf exp(-(x w)^(1/rho)) / (w^2 + 2 w cos(pi rho) + 1) dw,

    whose weight no longer depends on x.  The value is the composite rule
    with 2n points per panel; the error estimate is its distance from the
    n-point rule plus a bound on the integral beyond the last edge W,
    exp(-(x W)^(1/rho)) times the exact Lorentzian mass there.  The integrand
    is positive, so the sums do not cancel.  Entries go through in blocks,
    each row summed on its own, so no value depends on the block size.
    """
    coarse = _cut_rule(rho, _CUT_N)
    fine = _cut_rule(rho, 2 * _CUT_N)
    big_x = x ** (1.0 / rho)
    sums = []
    for powers, weights in (coarse, fine):
        out = np.empty(x.size)
        step = max(1, _CUT_BLOCK // powers.size)
        for i in range(0, x.size, step):
            block = np.exp(-big_x[i:i + step, None] * powers)
            out[i:i + step] = (block * weights).sum(axis=1)
        sums.append(out)
    w_end = _cut_edges(rho)[-1]
    c, s = math.cos(math.pi * rho), math.sin(math.pi * rho)
    tail = (np.exp(-big_x * w_end ** (1.0 / rho))
            * (math.atan2(s, w_end + c) / (math.pi * rho)))
    return sums[1], np.abs(sums[1] - sums[0]) + tail


def _mp_branch_cut(rho: float, beta: float, x: float) -> float:
    """Branch-cut integral in extended precision (0 < rho < 1, beta <= rho + 0.75)."""
    import mpmath as mp

    with mp.workdps(40):
        sb = mp.sinpi(mp.mpf(beta))
        srb = mp.sinpi(mp.mpf(rho) - mp.mpf(beta))
        c = mp.cospi(mp.mpf(rho))
        xm = mp.mpf(x)
        vpow = 4 * (mp.mpf(rho) - mp.mpf(beta)) + 3

        def g(v):
            s = v ** 4
            sr = s ** rho
            den = sr * sr + 2 * xm * sr * c + xm * xm
            return 4 * v ** vpow * mp.e ** (-s) * (sr * sb - xm * srb) / (mp.pi * den)

        def f(s):
            sr = s ** rho
            den = sr * sr + 2 * xm * sr * c + xm * xm
            return mp.e ** (-s) * s ** (rho - beta) * (sr * sb - xm * srb) / (mp.pi * den)

        s_hi = 100.0
        peak = x ** (1.0 / rho)
        vpts = {0.0, s_hi ** 0.25}
        if peak < s_hi * 0.95:
            for frac in (0.5, 1.0, 2.0):
                p = peak * frac
                if 0.0 < p < s_hi:
                    vpts.add(p ** 0.25)
        cuts = sorted(mp.mpf(v) for v in vpts)
        total = mp.mpf(0)
        for a, b in zip(cuts[:-1], cuts[1:]):
            total += mp.quad(g, [a, b])
        total += mp.quad(f, [mp.mpf(s_hi), mp.inf])
        return float(total)


def _mp_series(rho: float, beta: float, x: float) -> float:
    """Extended-precision series; slow, used only where doubles cannot win."""
    import mpmath as mp

    # digits lost to cancellation ~ x^(1/rho) * log10(e)
    lost = x ** (1.0 / rho) * 0.4343
    if lost > 3000.0:
        raise ConvergenceError(
            f"Mittag-Leffler series needs ~{lost:.0f} guard digits at "
            f"rho={rho}, beta={beta}, x={x}; out of supported range")
    with mp.workdps(int(lost * 1.05) + 40):
        z = mp.mpf(-x)
        rho_m = mp.mpf(rho)
        beta_m = mp.mpf(beta)
        total = mp.mpf(0)
        floor = mp.mpf(10) ** (-mp.mp.dps)
        term_bound = max(2000, int(20.0 * x ** (1.0 / rho) / rho))
        converged = False
        for k in range(term_bound):
            a = k * rho + beta
            if a <= 0 and abs(a - round(a)) < 1e-12:
                continue
            # the Gamma argument must carry full precision: a double-rounded
            # argument costs ~psi(a)*eps relative error, fatal after blow-up
            t = z ** k / mp.gamma(k * rho_m + beta_m)
            total += t
            if k > 2 and abs(t) < floor * (abs(total) + 1):
                converged = True
                break
        if not converged:
            raise ConvergenceError(
                f"extended-precision series did not converge within "
                f"{term_bound} terms at rho={rho}, beta={beta}, x={x}")
        return float(total)


def _reduce_beta_eval(rho: float, beta: float, x: float) -> float:
    """Branch-cut evaluation, lowering beta below rho + 0.75 first if needed.

    E_{rho, b + rho}(z) = (E_{rho, b}(z) - 1/Gamma(b)) / z climbs back up; the
    1/x factor per step never amplifies here because the series regime covers
    all x <= 1.
    """
    b_cap = rho + 0.75
    m = max(0, int(math.ceil((beta - b_cap) / rho - 1e-12)))
    b0 = beta - m * rho
    val, err = _branch_cut(rho, b0, x)
    if not math.isfinite(val) or err > _CUT_REL_TOL * max(abs(val), _CUT_FLOOR):
        val = _mp_branch_cut(rho, b0, x)
    b = b0
    for _ in range(m):
        val = (rgamma(b) - val) / x
        b += rho
    return val


@lru_cache(maxsize=100_000)
def _mlf_neg(rho: float, beta: float, x: float) -> float:
    """E_{rho,beta}(-x) for x >= 0, dispatching across regimes."""
    if x == 0.0:
        return rgamma(beta)
    if math.isinf(x):
        return 0.0
    if rho == 1.0 and beta == 1.0:
        return math.exp(-x)

    if x <= Z_SWITCH:
        cancel = x ** (1.0 / rho)
        if cancel <= _SERIES_CANCEL_MAX:
            val, rel = _series(rho, beta, x)
            if math.isfinite(val) and rel <= _REL_TARGET:
                return val
    else:
        val, abserr = _asymptotic(rho, beta, x)
        if math.isfinite(val):
            tol = max(_REL_TARGET * abs(val), _ABS_TARGET)
            if abserr <= tol or abserr <= _ASYMPTOTIC_ABS_MAX:
                return val
    return _fallback(rho, beta, x)


def _fallback(rho: float, beta: float, x: float) -> float:
    """E_{rho,beta}(-x) where neither the series nor the asymptotics qualify."""
    if 0.0 < rho <= _BRANCH_CUT_RHO_MAX:
        return _reduce_beta_eval(rho, beta, x)
    return _mp_series(rho, beta, x)


def eval_mlf(params: MlfParams, z: float) -> float:
    """E_{rho,beta}(z) for z <= 0.

    Relative accuracy ~1e-12 for |z| <= Z_SWITCH, absolute ~1e-10 beyond
    (in practice much better; the evaluator escalates until its internal
    error estimate meets the target or raises).
    """
    if not math.isfinite(z) and not (math.isinf(z) and z < 0):
        raise DomainError(f"argument must be a nonpositive real, got {z!r}")
    if z > 0.0:
        raise DomainError(f"argument must be nonpositive, got {z!r}")
    return _mlf_neg(params.rho, params.beta, -z)


def relaxation(rho: float, lam: float, t: float) -> float:
    """E_{rho,1}(-lam * t^rho); equals 1 at t = 0, decays monotonically."""
    if lam <= 0.0:
        raise DomainError(f"lam must be positive, got {lam!r}")
    if t < 0.0:
        raise DomainError(f"time must be nonnegative, got {t!r}")
    if t == 0.0:
        return 1.0
    return _mlf_neg(rho, 1.0, lam * t ** rho)


def relaxation_curve(rho: float, lam: float, t) -> np.ndarray:
    """E_{rho,1}(-lam * t^rho) at every entry of ``t >= 0``, for 0 < rho <= 1.

    Same values and tolerances as ``relaxation`` entry by entry (agreement to
    rounding), but the series and asymptotic sums run over the whole array;
    see the module docstring for the routing.
    """
    if not (0.0 < lam < math.inf):
        raise DomainError(f"lam must be positive and finite, got {lam!r}")
    if not (0.0 < rho <= 1.0):
        raise DomainError(f"relaxation_curve needs rho in (0, 1], got {rho!r}")
    t = np.asarray(t, dtype=float)
    if not np.all(t >= 0.0):
        raise DomainError("times must be nonnegative")
    if rho == 1.0:
        return np.exp(-lam * t)
    x = lam * t ** rho
    out = np.empty(x.shape)
    pending = np.ones(x.shape, dtype=bool)
    for edge, value in ((x == 0.0, 1.0), (np.isinf(x), 0.0)):
        out[edge] = value
        pending[edge] = False

    series = (pending & (x <= Z_SWITCH)
              & (np.minimum(x, Z_SWITCH) ** (1.0 / rho) <= _SERIES_CANCEL_MAX))
    val, rel = _series_curve(rho, 1.0, x[series])
    ok = np.isfinite(val) & (rel <= _REL_TARGET)
    _accept(out, pending, series, val, ok)

    asym = pending & (x > Z_SWITCH)
    val, abserr = _asymptotic_curve(rho, 1.0, x[asym])
    ok = np.isfinite(val) & (
        (abserr <= np.maximum(_REL_TARGET * np.abs(val), _ABS_TARGET))
        | (abserr <= _ASYMPTOTIC_ABS_MAX))
    _accept(out, pending, asym, val, ok)

    cut = pending & (x >= _CUT_X_MIN) & (x <= _CUT_X_MAX)
    if _CUT_RHO_MIN <= rho <= _BRANCH_CUT_RHO_MAX and cut.any():
        val, err = _branch_cut_curve(rho, x[cut])
        ok = np.isfinite(val) & (err <= _CUT_REL_TOL
                                 * np.maximum(np.abs(val), _CUT_FLOOR))
        _accept(out, pending, cut, val, ok)

    for i in np.flatnonzero(pending):
        out.flat[i] = _fallback(rho, 1.0, float(x.flat[i]))
    return out


def _accept(out: np.ndarray, pending: np.ndarray, band: np.ndarray,
            val: np.ndarray, ok: np.ndarray) -> None:
    """Store the accepted values of one band and clear them from ``pending``."""
    where = np.flatnonzero(band)[ok]
    out.flat[where] = val[ok]
    pending.flat[where] = False


def kernel(rho: float, lam: float, t: float) -> float:
    """lam * t^(rho-1) * E_{rho,rho}(-lam * t^rho), the relaxation kernel.

    Singular (integrably) at t = 0 for rho < 1; t must be positive.
    """
    if lam <= 0.0:
        raise DomainError(f"lam must be positive, got {lam!r}")
    if t <= 0.0:
        raise DomainError("kernel is singular at t = 0; need t > 0")
    return lam * t ** (rho - 1.0) * _mlf_neg(rho, rho, lam * t ** rho)


def kernel_mass(rho: float, lam: float, a: float, b: float) -> float:
    """Exact integral of ``kernel`` over [a, b]:  E(-lam a^rho) - E(-lam b^rho)."""
    if a < 0.0 or a > b:
        raise DomainError(f"need 0 <= a <= b, got a={a!r}, b={b!r}")
    if a == b:
        return 0.0
    return relaxation(rho, lam, a) - relaxation(rho, lam, b)
