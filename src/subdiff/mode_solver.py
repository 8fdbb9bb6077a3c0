"""Batched causal solve of the sine modes.

Each sine mode k obeys a fractional Cauchy problem that is equivalent to the
integral equation

    u_k(t) = phi_k E_{rho,1}(-lam_eff t^rho)
             + int_0^t K_{lam_eff}(t-s) [ f_k(s)
                 + (lam_k^2 (M_sigma - sigma(s)) - q(s)) u_k(s) ] ds

with lam_eff = lam_k^2 M_sigma, M_sigma the largest sample of sigma, and K
the Mittag-Leffler kernel.  The map on the right (``picard_step``) is a
contraction with a constant C_k computable from the samples of sigma and q
(``contraction_bound``): the paper's existence proof.  The solver does not
iterate it.  Product integration reads u_n only through the last step, so
with q known the discrete equation is lower-triangular and linear, and one
causal march (``march``) solves it up to round-off, with no tolerance and
no contraction condition; a step whose divisor vanishes is singular.

The modes of one problem share the time grid, rho, sigma and q, so they are
solved as one batch, a (K, N+1) array, on weights that one Mittag-Leffler
evaluation builds; a single mode is a one-row batch.  A mode without data
(phi_k and every f_k sample exactly 0) has u_k = 0 exactly, so it is not
solved: it leaves the batch, and the weights are built for the stiffnesses
of the other modes alone.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import (AdmissibilityError, DomainError, GridMismatchError,
                     SingularSystemError)
from .frackernel import ConvolutionWeights, TimeGrid, build_weights, convolve
from .profiles import Profile

#: nodes a forward leaf solves by one batched linear solve
_LEAF = 64


@dataclass(frozen=True, eq=False)
class ModeProblem:
    """The modes ``k`` (one entry each in ``k``, ``lam_k`` and ``phi_k``, one
    row of source samples each in ``f_k``); scalars and a single row of
    ``f_k`` make a one-mode batch."""

    k: np.ndarray
    lam_k: np.ndarray
    rho: float
    sigma: Profile
    q: Profile
    f_k: np.ndarray
    phi_k: np.ndarray
    grid: TimeGrid

    def __post_init__(self) -> None:
        k = np.atleast_1d(np.asarray(self.k))
        lam_k = np.atleast_1d(np.asarray(self.lam_k, dtype=float))
        phi_k = np.atleast_1d(np.asarray(self.phi_k, dtype=float))
        f_k = np.atleast_2d(np.asarray(self.f_k, dtype=float))
        if k.ndim != 1 or lam_k.shape != k.shape or phi_k.shape != k.shape:
            raise DomainError(
                f"need one mode index, eigenvalue and initial value per "
                f"mode, got shapes {k.shape}, {lam_k.shape}, {phi_k.shape}")
        if f_k.shape != (k.size, self.grid.n_steps + 1):
            raise GridMismatchError(
                f"sources of shape {f_k.shape} do not match {k.size} modes "
                f"on a grid with {self.grid.n_steps + 1} nodes")
        if not (np.all(np.isfinite(f_k)) and np.all(np.isfinite(phi_k))):
            raise DomainError("mode sources and initial values must be finite")
        for name, value in (("k", k), ("lam_k", lam_k), ("phi_k", phi_k),
                            ("f_k", f_k)):
            object.__setattr__(self, name, value)
        if np.any(k < 1):
            raise DomainError(f"mode index must be >= 1, got {k.min()}")
        bad = lam_k[~((lam_k > 0.0) & np.isfinite(lam_k))]
        if bad.size:
            raise DomainError(
                f"eigenvalues must be positive and finite, got {bad[0]}")
        if not (0.0 < self.rho < 1.0):
            raise DomainError(f"order must lie in (0, 1), got {self.rho}")
        for name in ("sigma", "q"):
            prof = getattr(self, name)
            if prof.grid != self.grid:
                raise GridMismatchError(f"{name} lives on a different time grid")
        if self.sigma.vmin <= 0.0:
            raise AdmissibilityError(
                f"sigma must be strictly positive; its smallest sample is "
                f"{self.sigma.vmin}")

    @cached_property
    def _lam_sq(self) -> list:
        # squared in Python floats: numpy's ``x ** 2`` rounds differently
        # from ``pow`` on some inputs
        return [lam ** 2 for lam in self.lam_k.tolist()]

    @cached_property
    def lam_eff(self) -> tuple:
        """lam_k^2 M_sigma per mode; a tuple, so that it keys the weight cache."""
        return tuple(sq * self.sigma.vmax for sq in self._lam_sq)

    @cached_property
    def weights(self) -> ConvolutionWeights:
        """Product-integration weights of the kernel at ``lam_eff``, a row
        per mode."""
        return build_weights(self.grid, self.rho, self.lam_eff)

    @cached_property
    def live(self) -> np.ndarray:
        """Indices of the modes with data, phi_k or some f_k sample nonzero;
        every other mode has u_k = 0 exactly."""
        return np.flatnonzero((self.phi_k != 0.0)
                              | np.any(self.f_k != 0.0, axis=1))

    @cached_property
    def bracket(self) -> np.ndarray:
        """lam_k^2 (M_sigma - sigma(t)) - q(t), the factor on u_k under the
        integral, a row per mode."""
        return (np.array(self._lam_sq)[:, None]
                * (self.sigma.vmax - self.sigma.values) - self.q.values)

    def restrict(self, rows: np.ndarray) -> "ModeProblem":
        """The modes at ``rows`` as a batch of their own, whose weights are
        built for their own stiffnesses when first needed."""
        return replace(self, k=self.k[rows], lam_k=self.lam_k[rows],
                       f_k=self.f_k[rows], phi_k=self.phi_k[rows])


def contraction_bound(p: ModeProblem) -> np.ndarray:
    """C_k = max_t |lam_k^2 (M_sigma - sigma(t)) - q(t)| / (lam_k^2 M_sigma),
    one per mode; each mode at or above 1 is warned about."""
    c = np.max(np.abs(p.bracket), axis=1) / np.array(p.lam_eff)
    for k, ck in zip(p.k[c >= 1.0].tolist(), c[c >= 1.0].tolist()):
        warnings.warn(
            f"mode {k}: contraction bound {ck:.4f} >= 1; the contraction "
            f"argument for the solution's existence does not cover it",
            stacklevel=2)
    return c


def picard_step(p: ModeProblem, current: np.ndarray) -> np.ndarray:
    """One application of the integral operator to ``current``, a row per mode."""
    g = p.f_k + p.bracket * np.asarray(current, dtype=float)
    return p.phi_k[:, None] * p.weights.relax + convolve(p.weights, g)


def march(w: ConvolutionWeights, base: np.ndarray, g: np.ndarray,
          leaf: Callable[[int, int], None], leaf_nodes: int) -> None:
    """Drive a causal product-integration system over nodes 1..N by the
    divide-and-conquer split of Hairer, Lubich and Schlichte (SIAM J. Sci.
    Stat. Comput. 6 (1985) 532).

    Node n of row k reads base[k, n] + w.head[k, n] g[k, 0] + sum_{i=1..n}
    w.fold[k, n-i] g[k, i], with g the integrand and g[:, 0] given; the
    head term goes into ``base`` first.  ``leaf(start, stop)`` fills
    ``g[:, start:stop]`` from ``base[:, start:stop]``, which then holds every
    term with i <= start - 1.  A longer stretch solves its first half, adds
    the terms of g_i, i = start..mid-1, to the second half's base by one FFT
    product, and solves the second half; each span's fold spectrum is
    computed once per march.
    """
    base += w.head * g[:, :1]
    spectra: dict = {}

    def history(start: int, mid: int, stop: int) -> None:
        # g_start..g_{mid-1} meet the weights fold[1..span-1]; a period of
        # span-1 keeps the wrap-around off the entries read
        span = stop - start
        size = 1 << (span - 2).bit_length()
        if span not in spectra:
            spectra[span] = np.fft.rfft(w.fold[:, 1:span], size)
        conv = np.fft.irfft(np.fft.rfft(g[:, start:mid], size)
                            * spectra[span], size)
        base[:, mid:stop] += conv[:, mid - start - 1:span - 1]

    def solve(start: int, stop: int) -> None:
        if stop - start <= leaf_nodes:
            leaf(start, stop)
            return
        mid = (start + stop) // 2
        solve(start, mid)
        history(start, mid, stop)
        solve(mid, stop)

    solve(1, base.shape[1])
    del solve  # its self-reference would hold the arrays to the next GC


def _march_rows(p: ModeProblem) -> np.ndarray:
    """The rows u_k of every mode of ``p``, by one march of forward leaves.

    On a leaf of L nodes from ``start``, with b the bracket, g = f + b u and
    E the lower-triangular Toeplitz matrix of fold[0..L-1], the nodes solve
    (I - E diag(b)) u = base + E f, one batched solve over the modes; the
    divisors 1 - fold_0 b_n are all checked before the march starts.
    """
    w, b, f = p.weights, p.bracket, p.f_k
    div = 1.0 - w.fold[:, :1] * b[:, 1:]
    bad = np.argwhere(~(np.isfinite(div) & (div != 0.0)).T)  # node order
    if bad.size:
        n, row = bad[0].tolist()
        raise SingularSystemError(
            f"mode {p.k[row]}: singular step at node {n + 1}, where "
            f"1 - fold_0 b = {div[row, n]}", step=n + 1)
    u = np.empty(f.shape)
    u[:, 0] = p.phi_k
    base = p.phi_k[:, None] * w.relax  # gains the history
    g = np.empty(f.shape)
    g[:, 0] = f[:, 0] + b[:, 0] * p.phi_k
    near: dict = {}  # E per leaf length, a (modes, L, L) stack

    def leaf(start: int, stop: int) -> None:
        L = stop - start
        if L not in near:
            lag = np.subtract.outer(np.arange(L), np.arange(L))
            near[L] = np.where(lag >= 0, w.fold[:, np.maximum(lag, 0)], 0.0)
        E = near[L]
        fs, bs = f[:, start:stop], b[:, start:stop]
        # E f as a sum along each row rather than a stacked product, whose
        # rounding varies with the row's place in memory: a mode's row is
        # then the same floats in any batch
        rhs = base[:, start:stop] + (E * fs[:, None]).sum(axis=-1)
        u[:, start:stop] = np.linalg.solve(np.eye(L) - E * bs[:, None],
                                           rhs[..., None])[..., 0]
        g[:, start:stop] = fs + bs * u[:, start:stop]

    march(w, base, g, leaf, _LEAF)
    return u


def solve_mode(p: ModeProblem) -> np.ndarray:
    """Every mode's row u_k, a (K, N+1) array, by one causal march.

    A mode without data (outside ``p.live``) is not solved: its row is
    exactly 0.  A singular step raises ``SingularSystemError`` naming the
    first such node, and the first mode singular there.
    """
    u = np.zeros(p.f_k.shape)
    live = p.live
    if live.size:
        u[live] = _march_rows(p.restrict(live))
    return u


def decompose_mode(p: ModeProblem) -> tuple[np.ndarray, np.ndarray]:
    """Split into the zero-initial-datum part V_k and the zero-source part W_k."""
    return (solve_mode(replace(p, phi_k=np.zeros_like(p.phi_k))),
            solve_mode(replace(p, f_k=np.zeros_like(p.f_k))))


def apriori_bounds(p: ModeProblem) -> tuple[np.ndarray, np.ndarray]:
    """Analytic envelopes: |V_k| and |W_k| under the worst-case coefficients.

    Both use the damping lam_k^2 m_sigma + n_q, with m_sigma and n_q the
    smallest samples of sigma and q: the slowest decay that coefficients
    bounded below by them can produce.  The envelopes only grow as those
    minima fall.
    """
    lam_slow = tuple(sq * p.sigma.vmin + p.q.vmin for sq in p._lam_sq)
    if min(lam_slow) <= 0.0:
        raise DomainError(
            f"lam_k^2 m_sigma + n_q = {min(lam_slow)} is not positive; the "
            f"envelope kernel is undefined")
    w_tilde = build_weights(p.grid, p.rho, lam_slow)
    v_bound = convolve(w_tilde, np.abs(p.f_k))
    w_bound = np.abs(p.phi_k)[:, None] * w_tilde.relax
    return v_bound, w_bound
