"""Two-parameter Mittag-Leffler function on the nonpositive real axis.

Everything the time-stepping machinery needs reduces to five callables:

* ``eval_mlf``    -- E_{rho,beta}(z) for z <= 0,
* ``relaxation``  -- E_{rho,1}(-lam * t^rho), the fractional relaxation curve,
* ``relaxation_curve`` -- the same curve for an array of rates and times,
* ``kernel``      -- lam * t^(rho-1) * E_{rho,rho}(-lam * t^rho),
* ``kernel_mass`` -- the exact integral of ``kernel`` over [a, b].

The kernel is minus the derivative of the relaxation curve, so its integral
telescopes into relaxation differences; ``kernel_mass`` uses that closed form
and never touches the t -> 0 singularity numerically.

Evaluation strategy.  One array evaluator (``_curve``) serves every entry
point; the scalar functions pass it a one-entry array.  Each entry goes
through five stages, each taking what the ones before it left: the endpoints
x = 0 and x = inf and the case rho = beta = 1; the power series
(Kahan-compensated) where its cancellation allows the relative target; past
|z| = Z_SWITCH the asymptotic expansion truncated at its smallest term; the
branch-cut integral, rescaled so that one fixed Gauss-Legendre rule per
(rho, beta) serves every entry (``_branch_cut_curve``, beta first lowered to
at most 1); and the same integral in extended precision, one entry at a time
(``_mp_branch_cut``).  The two sums run as term loops over every entry still
active and estimate their own error a posteriori; what they cannot reach in
double precision goes on to the later stages, so the tolerances hold
everywhere.

Domain: the orders the solvers use, 0 < rho < 1 with any finite beta, and
rho = beta = 1 (the exponential).  ``MlfParams`` is the one order check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError

Z_SWITCH = 5.0
SERIES_MAX_TERMS = 500
_EPS = 2.220446049250313e-16

_REL_TARGET = 1e-13
# the series is not tried once x^(1/rho) exceeds this (its running maximum
# term outgrows the result beyond care)
_SERIES_CANCEL_MAX = 34.0
# a branch-cut value is accepted at err <= _CUT_REL_TOL * max(|v|, _CUT_FLOOR)
_CUT_REL_TOL = 1e-12
_CUT_FLOOR = 1e-4

# Fixed-node branch-cut rule.  Domain: x in [_CUT_X_MIN, _CUT_X_MAX] (the
# band the series and asymptotics leave lies inside) and rho at least
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
    if 0.0 < x <= 171.0:
        return 1.0 / math.gamma(x)
    try:
        lg, sign = _log_rgamma_abs(x)
        return sign * math.exp(lg)
    except OverflowError:
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
    # reflection sign: Gamma alternates on (-n-1, -n)
    sign = -1.0 if math.floor(-x) % 2 == 0 else 1.0
    return -lg, sign


@dataclass(frozen=True)
class MlfParams:
    """Order/parameter pair (rho, beta) of E_{rho,beta}: 0 < rho < 1 with
    any finite beta, or rho = beta = 1."""

    rho: float
    beta: float

    def __post_init__(self) -> None:
        if not (0.0 < self.rho < 1.0 or self.rho == self.beta == 1.0):
            raise DomainError(
                f"order rho must lie in (0, 1), or rho = beta = 1; got "
                f"rho={self.rho!r}, beta={self.beta!r}")
        if not math.isfinite(self.beta):
            raise DomainError(f"beta must be finite, got {self.beta!r}")


def _series_curve(rho: float, beta: float, x: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Power series of E_{rho,beta}(-x) for x > 0: (values, est. relative
    errors), the estimate being 4 eps times sum |terms| / |sum|."""
    val = np.full(x.shape, math.nan)
    rel = np.full(x.shape, math.inf)
    idx = np.arange(x.size)
    lnx = np.log(x)
    total = np.zeros(x.size)
    comp = np.zeros(x.size)
    abs_sum = np.zeros(x.size)
    small_streak = np.zeros(x.size, dtype=int)
    lnx_max = lnx.max(initial=-math.inf)
    for k in range(SERIES_MAX_TERMS):
        if idx.size == 0:
            break
        lg, sg = _log_rgamma_abs(k * rho + beta)  # a pole gives lg = -inf
        e = k * lnx + lg
        if k * lnx_max + lg > 700.0:  # entries whose term overflows fail
            live = e <= 700.0
            idx, lnx, e, total, comp, abs_sum, small_streak = (
                a[live] for a in (idx, lnx, e, total, comp, abs_sum,
                                  small_streak))
        term = (-sg if k % 2 else sg) * np.exp(e)
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        mag = np.abs(term)
        abs_sum += mag
        small_streak = (small_streak + 1) * (mag < 1e-16 * np.abs(total))
        done = small_streak >= 3
        if np.count_nonzero(done):
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


def _asymptotic_curve(rho: float, beta: float, x: np.ndarray
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Large-x expansion of E_{rho,beta}(-x): (values, est. absolute errors).

    The algebraic sum sum_{n>=1} (-1)^(n+1) x^(-n) / Gamma(beta - n*rho),
    truncated before its smallest term (rho < 1 has no exponential part on
    the negative axis).
    """
    val = np.full(x.shape, math.nan)
    err_out = np.full(x.shape, math.inf)
    idx = np.arange(x.size)
    lnx = np.log(x)
    total = np.zeros(x.size)
    comp = np.zeros(x.size)
    best_min = np.full(x.size, math.inf)
    over = np.zeros(x.size)
    err = np.full(x.size, math.inf)  # stays inf where no term is taken

    def finish(stop, err):
        at, v = idx[stop], total[stop]
        val[at] = v
        err_out[at] = err[stop] + 4.0 * _EPS * np.abs(v)

    for n in range(1, 301):
        if idx.size == 0:
            break
        b = beta - n * rho
        lg, sg = _log_rgamma_abs(b)
        if sg == 0.0:
            continue
        e = -n * lnx + lg
        mag = np.exp(np.minimum(e, 700.0))
        mag[e >= 700.0] = math.inf
        # below b = 1, 1/Gamma(b) = Gamma(1 - b) sin(pi b) / pi dips where b
        # grazes a pole and the remainder does not, so the stopping rules and
        # the estimate follow the envelope without the sine.  The estimate
        # adds every term taken past the smallest: near rho = 1 the terms no
        # longer alternate, so those do not cancel.
        env = mag / abs(math.sin(math.pi * b)) if b < 1.0 else mag
        diverged = env > 3.0 * best_min
        if np.count_nonzero(diverged):  # these stop before taking the term
            finish(diverged, over + env)
            keep = ~diverged
            idx, lnx, total, comp, best_min, over, mag, env = (
                a[keep] for a in (idx, lnx, total, comp, best_min, over, mag,
                                  env))
        term = (sg if n % 2 == 1 else -sg) * mag
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        over = np.where(env < best_min, 0.0, over + env)
        best_min = np.minimum(best_min, env)
        err = over + env
        converged = env < 1e-18 * (np.abs(total) + 1e-300)
        if np.count_nonzero(converged):
            finish(converged, err)
            keep = ~converged
            idx, lnx, total, comp, best_min, over, err = (
                a[keep] for a in (idx, lnx, total, comp, best_min, over, err))
    finish(np.ones(idx.size, dtype=bool), err)
    return val, err_out


def _lowered_beta(rho: float, beta: float) -> tuple[int, float]:
    """(m, beta - m*rho) for the fewest steps m >= 0 that bring beta to <= 1."""
    m = max(0, math.ceil((beta - 1.0) / rho - 1e-12))
    return m, beta - m * rho


def _raise_beta(rho: float, b0: float, m: int, x, val):
    """E_{rho, b0 + m rho}(-x) from val = E_{rho,b0}(-x) by m steps of
    E_{rho, b + rho}(z) = (E_{rho, b}(z) - 1/Gamma(b)) / z, for x > 0."""
    b = b0
    for _ in range(m):
        val = (rgamma(b) - val) / x
        b += rho
    return val


def _sin_pi(rho: float, beta: float) -> tuple[float, float]:
    """(sin(pi beta), sin(pi (beta - rho))), the latter from the sines and
    cosines of both angles, exact at integer beta (sin(pi rho) at beta = 1)."""
    if beta == round(beta):
        sb, cb = 0.0, (-1.0) ** round(beta)
    else:
        sb, cb = math.sin(math.pi * beta), math.cos(math.pi * beta)
    return sb, sb * math.cos(math.pi * rho) - cb * math.sin(math.pi * rho)


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


@lru_cache(maxsize=None)
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1]."""
    return np.polynomial.legendre.leggauss(n)


@lru_cache(maxsize=32)
def _cut_rule(rho: float, beta: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss-Legendre rule on every panel of ``_cut_edges(rho)``.

    Returns (w^(1/rho) at the nodes, weights); the weights carry the factor
    w^((1-beta)/rho) (w sin(pi beta) + sin(pi (beta - rho))) / (pi rho) and
    the Lorentzian 1 / (w^2 + 2 w cos(pi rho) + 1).
    """
    edges = _cut_edges(rho)
    g, gw = _gauss_legendre(n)
    a, half = edges[:-1, None], 0.5 * np.diff(edges)[:, None]
    w = (a + half * (g + 1.0)).ravel()
    c, s = math.cos(math.pi * rho), math.sin(math.pi * rho)
    sb, sbr = _sin_pi(rho, beta)
    num = w ** ((1.0 - beta) / rho) * (w * sb + sbr)
    weights = ((half * gw).ravel() * (num / (math.pi * rho))
               / ((w + c) ** 2 + s * s))
    powers = w ** (1.0 / rho)
    powers.setflags(write=False)
    weights.setflags(write=False)
    return powers, weights


def _branch_cut_curve(rho: float, beta: float, x: np.ndarray
                      ) -> tuple[np.ndarray, np.ndarray]:
    """E_{rho,beta}(-x) from the branch cut, one fixed rule for every entry of x.

    For _CUT_RHO_MIN <= rho < 1, beta <= 1 and x in [_CUT_X_MIN, _CUT_X_MAX];
    returns (values, est. absolute errors).  Putting s = (x w)^(1/rho) into
    the branch-cut integral in s (Gorenflo, Loutchko and Luchko, Fract. Calc.
    Appl. Anal. 5 (2002) 491) gives, with p = (1 - beta)/rho and
    L(w) = w^2 + 2 w cos(pi rho) + 1,

        E_{rho,beta}(-x) = x^p / (pi rho) int_0^inf exp(-(x w)^(1/rho)) w^p
            * (w sin(pi beta) + sin(pi (beta-rho))) / L(w) dw,

    whose weight does not depend on x and, for beta <= 1, stays bounded at
    w = 0.  The value is the composite rule with 2n points per panel.  The
    estimate is its distance from the n-point rule, 8 eps times the sum of
    the absolute terms, and a bound on the integral past the last edge W,
    where U = (x W)^(1/rho) >= _CUT_TAIL_EXP and both u^(1-beta) e^-u (for
    U >= 1 - beta) and w / L(w) decrease: the sin(pi (beta-rho)) part is at
    most its value at W times the exact Lorentzian mass, the w sin(pi beta)
    part at most W / L(W) times Gamma(a, U) <= U^(a-1) e^-U / (1 - (a-1)/U),
    a = 1 - beta + rho (a - 1 read as 0 when negative).  Entries go through
    in blocks, each row summed on its own, so no value depends on the block
    size.
    """
    fine = _cut_rule(rho, beta, 2 * _CUT_N)
    big_x = x ** (1.0 / rho)
    # exp(...) > 0, so the absolute terms sum against |weights|; with
    # nonnegative weights (beta = 1) they sum to the value itself
    rules = [_cut_rule(rho, beta, _CUT_N), fine]
    if (fine[1] < 0.0).any():
        rules.append((fine[0], np.abs(fine[1])))
    sums = []
    for powers, weights in rules:
        out = np.empty(x.size)
        step = max(1, _CUT_BLOCK // powers.size)
        buf = np.empty((min(step, x.size), powers.size))
        for i in range(0, x.size, step):
            # every block is formed in place in one buffer
            block = buf[:min(step, x.size - i)]
            np.multiply(big_x[i:i + step, None], -powers, out=block)
            np.exp(block, out=block)
            block *= weights
            out[i:i + step] = block.sum(axis=1)
        sums.append(out)
    lo, hi, mag = sums[0], sums[1], sums[-1]
    scale = x ** ((1.0 - beta) / rho)

    w_end = _cut_edges(rho)[-1]
    c, s = math.cos(math.pi * rho), math.sin(math.pi * rho)
    sb, sbr = _sin_pi(rho, beta)
    big_u = big_x * w_end ** (1.0 / rho)
    shifted = 1.0 - max(rho - beta, 0.0) / big_u
    tail = np.exp(-big_u) * (
        big_u ** (1.0 - beta)
        * (abs(sbr) / s * math.atan2(s, w_end + c) / (math.pi * rho))
        + abs(sb) * w_end / (((w_end + c) ** 2 + s * s) * math.pi)
        * big_u ** (rho - beta) / (x * shifted))
    tail = np.where(big_u >= 1.0 - beta, tail, math.inf)
    return (scale * hi,
            scale * (np.abs(hi - lo) + 8.0 * _EPS * mag) + tail)


def _mp_branch_cut(rho: float, beta: float, x: float) -> float:
    """E_{rho,beta}(-x) for 0 < rho < 1, beta <= 1 and x > 0: the w-integral
    of ``_branch_cut_curve`` by mpmath quadrature, every power taken in
    extended precision.

    The integral is split at w = 1, next to which the Lorentzian peaks ever
    more sharply as rho -> 1, and at w = 1/x, where exp(-(x w)^(1/rho))
    drops ever more steeply as rho -> 0; tanh-sinh clusters its nodes at
    both.  It ends where that exponential is e^-1000, far below the working
    precision (and exp of a larger argument costs more than the rest).
    """
    import mpmath as mp

    with mp.workdps(40):
        r, b, xm = mp.mpf(rho), mp.mpf(beta), mp.mpf(x)
        p = (1 - b) / r
        c, s = mp.cospi(r), mp.sinpi(r)
        sb, sbr = mp.sinpi(b), mp.sinpi(b - r)

        def f(w):
            xw = xm * w
            return (xw ** p * mp.exp(-xw ** (1 / r)) * (w * sb + sbr)
                    / ((w + c) ** 2 + s * s))

        w_end = 1000 ** r / xm
        cuts = sorted(w for w in {mp.mpf(0), mp.mpf(1), 1 / xm} if w < w_end)
        return float(mp.quad(f, cuts + [w_end]) / (mp.pi * r))


def _fallback(rho: float, beta: float, x: float) -> float:
    """E_{rho,beta}(-x) in extended precision, for one entry no band serves."""
    m, b0 = _lowered_beta(rho, beta)
    return _raise_beta(rho, b0, m, x, _mp_branch_cut(rho, b0, x))


def _curve(rho: float, beta: float, x: np.ndarray) -> np.ndarray:
    """E_{rho,beta}(-x) at every entry of x >= 0, for (rho, beta) that
    ``MlfParams`` accepts, through the five stages of the module docstring."""
    if rho == 1.0 and beta == 1.0:
        return np.exp(-x)
    shape, x = x.shape, x.ravel()
    out = np.zeros(x.size)  # the limit at x = inf
    pending = ~np.isinf(x)
    zero = x == 0.0
    if zero.any():  # 1/Gamma(beta) overflows for tiny beta, so only on demand
        out[zero] = rgamma(beta)
        pending &= ~zero

    with np.errstate(over="ignore"):  # inf fails the test, as it should
        cancel = np.minimum(x, Z_SWITCH) ** (1.0 / rho)
    series = pending & (x <= Z_SWITCH) & (cancel <= _SERIES_CANCEL_MAX)
    if series.any():
        val, rel = _series_curve(rho, beta, x[series])
        ok = np.isfinite(val) & (rel <= _REL_TARGET)
        _accept(out, pending, series, val, ok)

    asym = pending & (x > Z_SWITCH)
    if asym.any():
        val, abserr = _asymptotic_curve(rho, beta, x[asym])
        ok = np.isfinite(val) & (abserr <= _REL_TARGET * np.abs(val))
        _accept(out, pending, asym, val, ok)

    cut = pending & (x >= _CUT_X_MIN) & (x <= _CUT_X_MAX)
    if rho >= _CUT_RHO_MIN and cut.any():
        m, b0 = _lowered_beta(rho, beta)
        xc = x[cut]
        val, err = _branch_cut_curve(rho, b0, xc)
        ok = np.isfinite(val) & (err <= _CUT_REL_TOL
                                 * np.maximum(np.abs(val), _CUT_FLOOR))
        _accept(out, pending, cut, _raise_beta(rho, b0, m, xc, val), ok)

    for i in np.flatnonzero(pending):
        out[i] = _fallback(rho, beta, float(x[i]))
    return out.reshape(shape)


def _accept(out: np.ndarray, pending: np.ndarray, band: np.ndarray,
            val: np.ndarray, ok: np.ndarray) -> None:
    """Store the accepted values of one band and clear them from ``pending``."""
    where = np.flatnonzero(band)[ok]
    out[where] = val[ok]
    pending[where] = False


def eval_mlf(params: MlfParams, z: float) -> float:
    """E_{rho,beta}(z) for z <= 0.

    Each value meets, by its own error estimate, the gate of the stage that
    took it: 1e-13 relative in the series and asymptotic bands, 1e-12 *
    max(|v|, 1e-4) in the branch-cut rule, else extended precision.
    """
    if not math.isfinite(z) and not (math.isinf(z) and z < 0):
        raise DomainError(f"argument must be a nonpositive real, got {z!r}")
    if z > 0.0:
        raise DomainError(f"argument must be nonpositive, got {z!r}")
    return float(_curve(params.rho, params.beta, np.array([-z]))[0])


def relaxation(rho: float, lam: float, t: float) -> float:
    """E_{rho,1}(-lam * t^rho); equals 1 at t = 0, decays monotonically."""
    return float(relaxation_curve(rho, lam, t))


def relaxation_curve(rho: float, lam, t) -> np.ndarray:
    """E_{rho,1}(-lam * t^rho) for 0 < rho <= 1, every rate against every
    entry of ``t >= 0``.

    ``lam`` is one positive rate or an array of them; the result has shape
    ``lam.shape + t.shape``, and all rates go through one evaluation, so each
    band's term loop runs once for the whole set.
    """
    lam = np.asarray(lam, dtype=float)
    if not np.all((lam > 0.0) & (lam < math.inf)):
        raise DomainError(
            f"lam must be positive and finite, got {lam.tolist()!r}")
    MlfParams(rho, 1.0)
    t = np.asarray(t, dtype=float)
    if not np.all(t >= 0.0):
        raise DomainError("times must be nonnegative")
    return _curve(rho, 1.0, np.multiply.outer(lam, t ** rho))


def kernel(rho: float, lam: float, t: float) -> float:
    """lam * t^(rho-1) * E_{rho,rho}(-lam * t^rho), the relaxation kernel.

    Singular (integrably) at t = 0 for rho < 1; t must be positive.
    """
    MlfParams(rho, rho)
    if not (0.0 < lam < math.inf):
        raise DomainError(f"lam must be positive and finite, got {lam!r}")
    if not t > 0.0:
        raise DomainError("kernel is singular at t = 0; need t > 0")
    x = np.array([lam * t ** rho])
    return lam * t ** (rho - 1.0) * float(_curve(rho, rho, x)[0])


def kernel_mass(rho: float, lam: float, a: float, b: float) -> float:
    """Exact integral of ``kernel`` over [a, b]:  E(-lam a^rho) - E(-lam b^rho)."""
    if a < 0.0 or a > b:
        raise DomainError(f"need 0 <= a <= b, got a={a!r}, b={b!r}")
    if a == b:
        return 0.0
    return relaxation(rho, lam, a) - relaxation(rho, lam, b)
