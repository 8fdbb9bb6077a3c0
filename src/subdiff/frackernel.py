"""Discrete fractional-calculus building blocks on a uniform time grid.

Two independent discretizations live here:

* ``caputo_l1`` -- the L1 scheme for the Caputo derivative of order
  rho in (0,1): piecewise-linear interpolation of the sample series,
  exact on constants and linear functions, order 2-rho on smooth data.

* ``build_weights`` / ``convolve`` -- product integration for the weakly
  singular Mittag-Leffler kernel.  The kernel factor is integrated exactly
  per subinterval via the closed-form mass identity, so the quadrature
  never sees the t -> 0 singularity and is exact on constant integrands.

A uniform grid makes the weight matrix Toeplitz; only its first column is
stored and convolutions run as ordinary discrete convolutions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import DomainError, GridMismatchError, ResourceError
# the scalar ``relaxation`` stays bound here because bench/tracer.py wraps it
# under this name; the weight build itself uses the array form
from .mlf import relaxation, relaxation_curve  # noqa: F401

MAX_WEIGHT_STEPS = 16384
_L1_BLOCK = 16


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

    def __len__(self) -> int:
        return self.n_steps + 1


def _as_series(grid: TimeGrid, samples) -> np.ndarray:
    u = np.asarray(samples, dtype=float)
    if u.shape != (grid.n_steps + 1,):
        raise GridMismatchError(
            f"series of length {u.shape} does not match grid with "
            f"{grid.n_steps + 1} nodes")
    return u


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
    size = 1 << (2 * n - 1).bit_length()  # >= 2n - 1: no circular wrap-around
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
    same evaluations produce it.
    """

    rho: float
    lam_eff: float
    grid: TimeGrid
    column: np.ndarray = field(repr=False, compare=False)
    relax: np.ndarray = field(repr=False, compare=False)

    def row(self, n: int) -> np.ndarray:
        """Weights w[n][0..n-1]."""
        if not 0 <= n <= self.grid.n_steps:
            raise IndexError(n)
        return self.column[1:n + 1][::-1]

    def dense(self) -> np.ndarray:
        """Full lower-triangular weight matrix (diagnostics; small grids only)."""
        n = self.grid.n_steps
        if n > 4096:
            raise ResourceError(
                f"dense weight matrix at {n} steps would need "
                f"{(n + 1) ** 2 * 8 / 1e9:.1f} GB; use row()/convolve")
        w = np.zeros((n + 1, n + 1))
        for i in range(1, n + 1):
            w[i, :i] = self.row(i)
        return w


@lru_cache(maxsize=128)
def _build_cached(rho: float, lam_eff: float, grid: TimeGrid) -> ConvolutionWeights:
    n = grid.n_steps
    relax = relaxation_curve(rho, lam_eff, grid.nodes)
    column = np.zeros(n + 1)
    column[1:] = -np.diff(relax) / lam_eff  # mass of kernel over [(m-1)h, mh]
    column.setflags(write=False)
    relax.setflags(write=False)
    return ConvolutionWeights(rho=rho, lam_eff=lam_eff, grid=grid,
                              column=column, relax=relax)


def build_weights(grid: TimeGrid, rho: float, lam_eff: float,
                  max_steps: int = MAX_WEIGHT_STEPS) -> ConvolutionWeights:
    """Closed-form product-integration weights; O(N) storage, one array mlf call."""
    if lam_eff <= 0.0 or not math.isfinite(lam_eff):
        raise DomainError(f"lam_eff must be positive, got {lam_eff!r}")
    if not (0.0 < rho <= 1.0):
        raise DomainError(f"weights need rho in (0, 1], got {rho!r}")
    if grid.n_steps > max_steps:
        raise ResourceError(
            f"grid has {grid.n_steps} steps, exceeding the cap {max_steps}")
    return _build_cached(rho, lam_eff, grid)


def convolve(weights: ConvolutionWeights, g) -> np.ndarray:
    """c[n] = sum_{j<n} w[n][j] * (g_j + g_{j+1})/2, with c[0] = 0.

    Exact when g is constant: the weights integrate the kernel itself.
    """
    gv = _as_series(weights.grid, g)
    n = weights.grid.n_steps
    gbar = 0.5 * (gv[:-1] + gv[1:])
    out = np.empty(n + 1)
    out[0] = 0.0
    out[1:] = np.convolve(weights.column[1:], gbar)[:n]
    return out
