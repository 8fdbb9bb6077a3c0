"""Orthonormal sine basis on (0, l): transforms, traces, tail diagnostics.

The basis is e_k(x) = sqrt(2/l) sin(pi k x / l), orthonormal in L2(0, l), and
the same functions are used for coefficient extraction and for reconstruction
so that transform round trips are exact up to quadrature error.  Coefficients
come from the discrete sine transform, the trapezoid weight h at every node,
which is exact on every mode up to M-1 and O(h^4) on data that vanish at both
ends; truncation is capped at K <= M/2 to keep the top retained mode
resolved by the grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import AliasingError, DomainError, GridMismatchError


@dataclass(frozen=True)
class SpaceGrid:
    """Uniform nodes x_i = i * length / n_cells, i = 0..n_cells; n_cells even."""

    length: float
    n_cells: int

    def __post_init__(self) -> None:
        if not (self.length > 0.0) or not math.isfinite(self.length):
            raise DomainError(f"length must be positive, got {self.length!r}")
        # a float count fails only later, in ``nodes``; a bool is below 2
        if (not isinstance(self.n_cells, int) or self.n_cells < 2
                or self.n_cells % 2):
            raise DomainError(
                f"n_cells must be a positive even integer, got {self.n_cells!r}")

    @property
    def h(self) -> float:
        return self.length / self.n_cells

    @property
    def nodes(self) -> np.ndarray:
        return np.linspace(0.0, self.length, self.n_cells + 1)


def eigenvalues(K: int, length: float) -> np.ndarray:
    """lam_k = pi k / l for k = 1..K."""
    if length <= 0.0:
        raise DomainError(f"length must be positive, got {length}")
    return math.pi * np.arange(1, K + 1) / length


@lru_cache(maxsize=64)
def basis(sgrid: SpaceGrid, K: int) -> np.ndarray:
    """Read-only (K, n_cells + 1) array; row k-1 holds e_k at the grid nodes.

    K is capped at M/2 so that the top retained mode is resolved by the grid.
    The sine of pi k x_i / l = pi k i / M is taken with k i reduced mod 2M in
    integers, so every argument is below 2 pi and off by a few eps, not by
    k eps: the rows stay orthogonal on the grid to a few eps.
    """
    if K < 1:
        raise DomainError(f"need K >= 1, got {K}")
    if K > sgrid.n_cells // 2:
        raise AliasingError(
            f"K={K} exceeds the anti-aliasing cap M/2={sgrid.n_cells // 2}")
    M = sgrid.n_cells
    ki = np.outer(np.arange(1, K + 1), np.arange(M + 1)) % (2 * M)
    e = math.sqrt(2.0 / sgrid.length) * np.sin(ki * (math.pi / M))
    # Dirichlet endpoints are zero analytically; make them zero exactly so
    # assembled fields honor the boundary to the last bit.
    e[:, 0] = 0.0
    e[:, -1] = 0.0
    e.setflags(write=False)
    return e


def sine_coefficients(sgrid: SpaceGrid, samples, K: int) -> np.ndarray:
    """c_k = h sum_i g(x_i) e_k(x_i) for k = 1..K (the basis vanishes at
    both ends); last axis of ``samples`` is space."""
    v = np.asarray(samples, dtype=float)
    if v.shape[-1] != sgrid.n_cells + 1:
        raise GridMismatchError(
            f"samples {v.shape} do not match grid with {sgrid.n_cells + 1} nodes")
    return (v @ basis(sgrid, K).T) * sgrid.h


def assemble_field(coeffs: np.ndarray, sgrid: SpaceGrid) -> np.ndarray:
    """u(x_i, t_n) = sum_k c_k(t_n) e_k(x_i) from (K, n_times) coefficients;
    rows of the result are the time nodes."""
    return coeffs.T @ basis(sgrid, coeffs.shape[0])


def flux_at_left(coeffs: np.ndarray, length: float) -> np.ndarray:
    """Boundary derivative trace u_x(0, .) = sum_k lambda_k sqrt(2/l) c_k
    of (K, ...) coefficients."""
    lam = eigenvalues(coeffs.shape[0], length)
    return (math.sqrt(2.0 / length) * lam) @ coeffs


def third_trace_at_left(coeffs: np.ndarray, length: float) -> np.ndarray:
    """u_xxx(0, .) = -sum_k lambda_k^3 sqrt(2/l) c_k of (K, ...)
    coefficients."""
    lam = eigenvalues(coeffs.shape[0], length)
    return -(math.sqrt(2.0 / length) * lam ** 3) @ coeffs


@dataclass(frozen=True)
class TailReport:
    """Weighted coefficient sums plus a truncation-error proxy.

    ``*_sum`` is sum_k lambda_k^p |c_k| (max over time for trajectories);
    ``*_tail`` is the part contributed by the top half of retained modes --
    if that is not small relative to the total, K is too low for the data.
    """

    weight_power: int
    phi_sum: float
    phi_tail: float
    phi_decaying: bool
    f_sum: float
    f_tail: float
    f_decaying: bool


def _weighted_partials(lambdas: np.ndarray, coeffs: np.ndarray,
                       p: int) -> tuple[float, float, bool]:
    K = lambdas.shape[0]
    w = lambdas ** p
    if coeffs.ndim == 1:
        per_mode = w * np.abs(coeffs)
        total = float(per_mode.sum())
        partial = float(per_mode[:max(1, K // 2)].sum())
        prev = float(per_mode[:max(1, K // 4)].sum())
    else:
        cum = np.cumsum(w[:, None] * np.abs(coeffs), axis=0)
        total = float(cum[-1].max())
        partial = float(cum[max(1, K // 2) - 1].max())
        prev = float(cum[max(1, K // 4) - 1].max())
    tail = total - partial
    prev_tail = partial - prev
    # every coefficient carries round-off of order eps * max|c|, which the
    # weights amplify by up to max(w); K such terms bound the noise in a sum
    slack = K * float(np.finfo(float).eps * np.max(w, initial=0.0)
                      * np.max(np.abs(coeffs), initial=0.0))
    decaying = K < 4 or tail <= prev_tail + slack
    return total, tail, decaying


def tail_diagnostics(lambdas: np.ndarray, phi_coeffs, f_coeffs=None,
                     weight_power: int = 3) -> TailReport:
    """Partial-sum diagnostics for the data entering the trace estimates."""
    if weight_power not in (2, 3):
        raise DomainError(f"weight_power must be 2 or 3, got {weight_power}")
    lam = np.asarray(lambdas, dtype=float)
    phi = np.asarray(phi_coeffs, dtype=float)
    if phi.shape != lam.shape:
        raise GridMismatchError(
            f"phi coefficients {phi.shape} do not match {lam.shape} eigenvalues")
    p_sum, p_tail, p_dec = _weighted_partials(lam, phi, weight_power)
    if f_coeffs is None:
        f_sum = f_tail = 0.0
        f_dec = True
    else:
        f = np.asarray(f_coeffs, dtype=float)
        if f.shape[0] != lam.shape[0]:
            raise GridMismatchError(
                f"f coefficients {f.shape} do not match {lam.shape} eigenvalues")
        f_sum, f_tail, f_dec = _weighted_partials(lam, f, weight_power)
    return TailReport(weight_power=weight_power, phi_sum=p_sum, phi_tail=p_tail,
                      phi_decaying=p_dec, f_sum=f_sum, f_tail=f_tail,
                      f_decaying=f_dec)
