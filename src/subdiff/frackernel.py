"""Discrete fractional-calculus building blocks on a uniform time grid.

Two independent discretizations live here:

* ``caputo_l1`` -- the L1 scheme for the Caputo derivative of order
  rho in (0,1): piecewise-linear interpolation of the sample series,
  exact on constants and linear functions, order 2-rho on smooth data.

* ``build_weights`` / ``convolve`` -- product integration for the weakly
  singular Mittag-Leffler kernel.  The kernel factor is integrated exactly
  per subinterval: the mass of t^(rho-1) E_{rho,rho}(-lam t^rho) over
  [a, b] is the relaxation difference (E_{rho,1}(-lam a^rho) -
  E_{rho,1}(-lam b^rho)) / lam, so the quadrature never sees the t -> 0
  singularity and is exact on constant integrands.

A uniform grid makes the weight matrix Toeplitz; only its first column is
stored, together with its real FFT.  ``convolve`` multiplies that cached
spectrum with the spectrum of the series, O(N log N) per call, and sums the
first ``_DIRECT_BLOCK`` outputs directly: FFT round-off is absolute, of order
eps * ||w||_1 * ||g||_inf, so only a direct sum keeps the early entries exact
(zero stays zero, constants stay exact) on every grid.  Weights for several
stiffnesses are one batch with a row each: one Mittag-Leffler evaluation
builds them, and ``convolve`` applies them with one FFT pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from .errors import DomainError, GridMismatchError, ResourceError
# the scalar ``relaxation`` stays bound here because bench/tracer.py wraps it
# under this name; the weight build itself uses the array form
from .mlf import relaxation, relaxation_curve  # noqa: F401

MAX_WEIGHT_STEPS = 16384
_L1_BLOCK = 16
#: leading outputs of ``convolve`` summed directly rather than through the FFT
_DIRECT_BLOCK = 64


def _fft_size(n: int) -> int:
    """Power of two >= 2n - 1: two n-term series convolve without wrap-around."""
    return 1 << (2 * n - 1).bit_length()


@dataclass(frozen=True)
class TimeGrid:
    """Uniform nodes t_j = j * t_final / n_steps, j = 0..n_steps."""

    t_final: float
    n_steps: int

    def __post_init__(self) -> None:
        if not (self.t_final > 0.0) or not math.isfinite(self.t_final):
            raise DomainError(f"t_final must be positive, got {self.t_final!r}")
        if self.n_steps < 1:
            raise DomainError(f"n_steps must be >= 1, got {self.n_steps!r}")

    @property
    def h(self) -> float:
        return self.t_final / self.n_steps

    @property
    def nodes(self) -> np.ndarray:
        return np.linspace(0.0, self.t_final, self.n_steps + 1)


def caputo_l1(grid: TimeGrid, samples, rho: float) -> np.ndarray:
    """L1 Caputo derivative approximants at t_1..t_N.

    ``samples`` is one series of N+1 values, or an (N+1, m) array holding m
    series as columns; the history sum runs along time as a real-FFT
    convolution, a block of columns at a time.  The value at t_0 does not
    exist in this scheme and is reported as NaN.
    """
    if not (0.0 < rho < 1.0):
        raise DomainError(f"caputo_l1 needs rho in (0, 1), got {rho!r}")
    u = np.asarray(samples, dtype=float)
    n = grid.n_steps
    if u.ndim not in (1, 2) or u.shape[0] != n + 1:
        raise GridMismatchError(
            f"series of shape {u.shape} does not match grid with {n + 1} nodes")
    m = np.arange(1, n + 1, dtype=float)
    b = m ** (1.0 - rho) - (m - 1.0) ** (1.0 - rho)
    size = _fft_size(n)
    spec_b = (grid.h ** (-rho) / math.gamma(2.0 - rho)) * np.fft.rfft(b, size)
    out = np.empty(u.shape)
    out[0] = np.nan
    du, cols = np.diff(u, axis=0).reshape(n, -1), out[1:].reshape(n, -1)
    # columns go through in blocks so the padded spectra stay small
    for j in range(0, du.shape[1], _L1_BLOCK):
        spec = np.fft.rfft(du[:, j:j + _L1_BLOCK], size, axis=0)
        spec *= spec_b[:, None]
        cols[:, j:j + _L1_BLOCK] = np.fft.irfft(spec, size, axis=0)[:n]
    return out


@dataclass(frozen=True)
class ConvolutionWeights:
    """Product-integration weights for the kernel at stiffness ``lam_eff``.

    ``w[n][j] = integral over [t_j, t_{j+1}] of
    (t_n - s)^(rho-1) E_{rho,rho}(-lam_eff (t_n - s)^rho) ds / 1`` -- stored
    through the Toeplitz first column ``column[m] = w[n][n-m]`` (uniform
    grid).  ``relax[n] = E_{rho,1}(-lam_eff t_n^rho)`` rides along since the
    same evaluations produce it, and ``spectrum`` is the real FFT of
    ``column[1:]`` at ``_fft_size(n_steps)`` points, which ``convolve`` reuses.
    ``lam_eff`` is one stiffness or a tuple of them; a tuple gives every
    array one row per stiffness.
    """

    rho: float
    lam_eff: float | tuple
    grid: TimeGrid
    column: np.ndarray = field(repr=False, compare=False)
    relax: np.ndarray = field(repr=False, compare=False)
    spectrum: np.ndarray = field(repr=False, compare=False)

    def take(self, rows: np.ndarray) -> "ConvolutionWeights":
        """The rows ``rows`` of tuple-built weights, as weights of their own."""
        return replace(self, lam_eff=tuple(np.take(self.lam_eff, rows).tolist()),
                       column=self.column[rows], relax=self.relax[rows],
                       spectrum=self.spectrum[rows])


@lru_cache(maxsize=128)
def _build_cached(rho: float, lam_eff: float | tuple,
                  grid: TimeGrid) -> ConvolutionWeights:
    lam = np.asarray(lam_eff)
    relax = relaxation_curve(rho, lam, grid.nodes)
    column = np.zeros(relax.shape)
    # mass of the kernel over [(m-1)h, mh]
    column[..., 1:] = -np.diff(relax, axis=-1) / lam[..., None]
    spectrum = np.fft.rfft(column[..., 1:], _fft_size(grid.n_steps), axis=-1)
    for a in (column, relax, spectrum):
        a.setflags(write=False)
    return ConvolutionWeights(rho=rho, lam_eff=lam_eff, grid=grid,
                              column=column, relax=relax, spectrum=spectrum)


def build_weights(grid: TimeGrid, rho: float,
                  lam_eff: float | tuple) -> ConvolutionWeights:
    """Closed-form product-integration weights; O(N) storage per stiffness,
    one array mlf call for all of them.  A tuple ``lam_eff`` (hashable, so
    it keys the cache) gives one row per stiffness."""
    lam = np.asarray(lam_eff, dtype=float)
    if not np.all((lam > 0.0) & np.isfinite(lam)):
        raise DomainError(f"lam_eff must be positive, got {lam_eff!r}")
    if not (0.0 < rho < 1.0):
        raise DomainError(f"weights need rho in (0, 1), got {rho!r}")
    if grid.n_steps > MAX_WEIGHT_STEPS:
        raise ResourceError(f"grid has {grid.n_steps} steps, exceeding the "
                            f"cap {MAX_WEIGHT_STEPS}")
    return _build_cached(rho, lam_eff, grid)


def convolve(weights: ConvolutionWeights, g) -> np.ndarray:
    """c[n] = sum_{j<n} w[n][j] * (g_j + g_{j+1})/2, with c[0] = 0, along
    the last axis; ``g`` has one row per row of the weights.

    Exact when g is constant: the weights integrate the kernel itself.  The
    sum runs through the cached weight spectrum, one batched FFT pair for
    all rows, with an absolute round-off of order eps * ||column||_1 *
    ||g||_inf, except on the first ``_DIRECT_BLOCK`` entries of each row,
    which are summed directly.
    """
    gv = np.asarray(g, dtype=float)
    if gv.shape != weights.column.shape:
        raise GridMismatchError(
            f"series of shape {gv.shape} does not match weights of shape "
            f"{weights.column.shape} ({weights.grid.n_steps + 1} nodes)")
    n = weights.grid.n_steps
    gbar = 0.5 * (gv[..., :-1] + gv[..., 1:])
    size = _fft_size(n)
    out = np.empty(gv.shape)
    out[..., 0] = 0.0
    spec = np.fft.rfft(gbar, size, axis=-1)
    spec *= weights.spectrum
    out[..., 1:] = np.fft.irfft(spec, size, axis=-1)[..., :n]
    m = min(n, _DIRECT_BLOCK)
    for row in np.ndindex(gv.shape[:-1]):
        out[row][1:m + 1] = np.convolve(weights.column[row][1:m + 1],
                                        gbar[row][:m])[:m]
    return out
