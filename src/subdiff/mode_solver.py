"""Batched Volterra solve of the sine modes by Picard iteration.

Each sine mode k obeys a fractional Cauchy problem that is equivalent to the
integral equation

    u_k(t) = phi_k E_{rho,1}(-lam_eff t^rho)
             + int_0^t K_{lam_eff}(t-s) [ f_k(s)
                 + (lam_k^2 (M_sigma - sigma(s)) - q(s)) u_k(s) ] ds

with lam_eff = lam_k^2 M_sigma and K the Mittag-Leffler kernel.  The map on
the right is a contraction whose constant C_k is computable from the data
bounds, so plain Picard iteration converges geometrically; the solver
measures the actual correction ratios and reports them next to the bound.

The modes of one problem share the time grid, rho, sigma and q, so they are
solved as one batch: a (K, N+1) array iterated by one loop, on weights that
one Mittag-Leffler evaluation builds.  Each mode stops at its own
convergence, so a batch gives every mode the values, iteration count and
contraction estimate that a solve of that mode alone gives; a single mode is
a one-row batch.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import AdmissibilityError, ConvergenceError, DomainError, GridMismatchError
from .frackernel import ConvolutionWeights, TimeGrid, build_weights, convolve
from .profiles import Profile

#: Picard budget of a forward solve: a mode stops once its correction falls
#: below ``PICARD_TOL``, and a mode still moving after ``PICARD_MAX_ITER``
#: steps is an error
PICARD_TOL = 1e-10
PICARD_MAX_ITER = 200
#: correction norms below eps * this factor are noise, not contraction data
_RATIO_FLOOR = 64.0


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
        if not np.all(np.isfinite(f_k)):
            raise DomainError("mode sources must be finite")
        for name, value in (("k", k), ("lam_k", lam_k), ("phi_k", phi_k),
                            ("f_k", f_k)):
            object.__setattr__(self, name, value)
        if np.any(k < 1):
            raise DomainError(f"mode index must be >= 1, got {k.min()}")
        if np.any(lam_k <= 0.0):
            raise DomainError(f"eigenvalue must be positive, got {lam_k.min()}")
        if not (0.0 < self.rho < 1.0):
            raise DomainError(f"order must lie in (0, 1), got {self.rho}")
        for name in ("sigma", "q"):
            prof = getattr(self, name)
            if prof.grid != self.grid:
                raise GridMismatchError(f"{name} lives on a different time grid")
        if self.sigma.vmin <= 0.0:
            raise AdmissibilityError(
                f"sigma must be strictly positive; lower bound is "
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
    def bracket(self) -> np.ndarray:
        """lam_k^2 (M_sigma - sigma(t)) - q(t), the factor on u_k under the
        integral, a row per mode."""
        return (np.array(self._lam_sq)[:, None]
                * (self.sigma.vmax - self.sigma.values) - self.q.values)

    def take(self, rows: np.ndarray) -> "ModeProblem":
        """The modes at ``rows`` as a batch of their own, on this batch's
        weights (no new build)."""
        sub = replace(self, k=self.k[rows], lam_k=self.lam_k[rows],
                      f_k=self.f_k[rows], phi_k=self.phi_k[rows])
        sub.__dict__["weights"] = self.weights.take(rows)  # seeds the cache
        return sub


def contraction_bound(p: ModeProblem) -> np.ndarray:
    """C_k = max_t |lam_k^2 (M_sigma - sigma(t)) - q(t)| / (lam_k^2 M_sigma),
    one per mode; each mode at or above 1 is warned about."""
    c = np.max(np.abs(p.bracket), axis=1) / np.array(p.lam_eff)
    for k, ck in zip(p.k[c >= 1.0].tolist(), c[c >= 1.0].tolist()):
        warnings.warn(
            f"mode {k}: contraction bound {ck:.4f} >= 1; Picard iteration "
            f"may not converge", stacklevel=2)
    return c


def picard_step(p: ModeProblem, current: np.ndarray) -> np.ndarray:
    """One application of the integral operator to ``current``, a row per mode."""
    g = p.f_k + p.bracket * np.asarray(current, dtype=float)
    return p.phi_k[:, None] * p.weights.relax + convolve(p.weights, g)


@dataclass(frozen=True, eq=False)
class ModeSolution:
    """Per mode: the trajectory (a row of ``u_k``), the Picard iterations it
    took, its largest measured correction ratio and its bound C_k."""

    u_k: np.ndarray
    iterations: np.ndarray
    contraction_estimate: np.ndarray
    C_k_bound: np.ndarray


def solve_mode(p: ModeProblem, tol: float = PICARD_TOL,
               initial: np.ndarray | None = None) -> ModeSolution:
    """Picard-iterate every mode to its fixed point; the initial guess is the
    homogeneous term.

    A mode whose correction falls below ``tol`` is frozen and later steps
    leave it out.  ``initial`` overrides the guess, a row per mode (useful
    for warm starts across an outer iteration); convergence does not depend
    on it.  If a mode is still moving after ``PICARD_MAX_ITER`` steps, the
    error names the first such mode, with its last correction.
    """
    if tol <= 0.0:
        raise DomainError(f"tol must be positive, got {tol}")
    c_bound = contraction_bound(p)
    if initial is None:
        u = p.phi_k[:, None] * p.weights.relax
    else:
        u = np.array(initial, dtype=float)
        if u.shape != p.f_k.shape:
            raise GridMismatchError("initial guess does not match the grid")
    n_modes = p.k.size
    iterations = np.zeros(n_modes, dtype=int)
    worst_ratio = np.zeros(n_modes)
    # the last correction of each mode; inf before the first makes the first
    # ratio 0, which leaves the estimate as it is
    prev_update = np.full(n_modes, math.inf)
    floor = _RATIO_FLOOR * np.finfo(float).eps
    active, sub = np.arange(n_modes), p
    for it in range(1, PICARD_MAX_ITER + 1):
        u_next = picard_step(sub, u[active])
        update = np.max(np.abs(u_next - u[active]), axis=1)
        scale = np.maximum(1.0, np.max(np.abs(u_next), axis=1))
        prev = prev_update[active]
        measured = prev > floor * scale
        worst_ratio[active[measured]] = np.fmax(
            worst_ratio[active[measured]], update[measured] / prev[measured])
        u[active] = u_next
        prev_update[active] = update
        done = update < tol
        if done.any():
            finished = active[done]
            iterations[finished] = it
            # exact by construction; pin against roundoff
            u[finished, 0] = p.phi_k[finished]
            active = active[~done]
            if active.size == 0:
                return ModeSolution(u_k=u, iterations=iterations,
                                    contraction_estimate=worst_ratio,
                                    C_k_bound=c_bound)
            sub = p.take(active)
    first = active[0]
    raise ConvergenceError(
        f"mode {p.k[first]}: Picard iteration did not reach tol={tol} in "
        f"{PICARD_MAX_ITER} iterations",
        iterations=PICARD_MAX_ITER, last_update=float(prev_update[first]),
        contraction_estimate=float(worst_ratio[first]))


def decompose_mode(p: ModeProblem, tol: float = PICARD_TOL
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Split into the zero-initial-datum part V_k and the zero-source part W_k."""
    v = solve_mode(replace(p, phi_k=np.zeros_like(p.phi_k)), tol)
    w = solve_mode(replace(p, f_k=np.zeros_like(p.f_k)), tol)
    return v.u_k, w.u_k


def apriori_bounds(p: ModeProblem) -> tuple[np.ndarray, np.ndarray]:
    """Analytic envelopes: |V_k| and |W_k| under the worst-case coefficients.

    Both use the damping lam_k^2 m_sigma + n_q, the slowest decay any
    admissible coefficient pair can produce.
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
