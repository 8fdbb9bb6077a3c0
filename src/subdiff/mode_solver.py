"""Per-mode Volterra solve by Picard iteration.

Each sine mode k obeys a fractional Cauchy problem that is equivalent to the
integral equation

    u_k(t) = phi_k E_{rho,1}(-lam_eff t^rho)
             + int_0^t K_{lam_eff}(t-s) [ f_k(s)
                 + (lam_k^2 (M_sigma - sigma(s)) - q(s)) u_k(s) ] ds

with lam_eff = lam_k^2 M_sigma and K the Mittag-Leffler kernel.  The map on
the right is a contraction whose constant C_k is computable from the data
bounds, so plain Picard iteration converges geometrically; the solver
measures the actual correction ratios and reports them next to the bound.
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

#: correction norms below eps * this factor are noise, not contraction data
_RATIO_FLOOR = 64.0


@dataclass(frozen=True, eq=False)
class ModeProblem:
    k: int
    lam_k: float
    rho: float
    sigma: Profile
    q: Profile
    f_k: Profile
    phi_k: float
    grid: TimeGrid

    def __post_init__(self) -> None:
        if self.k < 1:
            raise DomainError(f"mode index must be >= 1, got {self.k}")
        if self.lam_k <= 0.0:
            raise DomainError(f"eigenvalue must be positive, got {self.lam_k}")
        if not (0.0 < self.rho <= 1.0):
            raise DomainError(f"order must lie in (0, 1], got {self.rho}")
        for name in ("sigma", "q", "f_k"):
            prof = getattr(self, name)
            if prof.grid != self.grid:
                raise GridMismatchError(f"{name} lives on a different time grid")
        if self.sigma.vmin <= 0.0:
            raise AdmissibilityError(
                f"sigma must be strictly positive; lower bound is "
                f"{self.sigma.vmin}")

    @property
    def lam_eff(self) -> float:
        return self.lam_k ** 2 * self.sigma.vmax

    @cached_property
    def weights(self) -> ConvolutionWeights:
        """Product-integration weights of the kernel at ``lam_eff``."""
        return build_weights(self.grid, self.rho, self.lam_eff)

    @cached_property
    def bracket(self) -> np.ndarray:
        """lam_k^2 (M_sigma - sigma(t)) - q(t), the factor on u_k under the
        integral."""
        return (self.lam_k ** 2 * (self.sigma.vmax - self.sigma.values)
                - self.q.values)


def contraction_bound(p: ModeProblem) -> float:
    """C_k = max_t |lam_k^2 (M_sigma - sigma(t)) - q(t)| / (lam_k^2 M_sigma)."""
    c = float(np.max(np.abs(p.bracket))) / p.lam_eff
    if c >= 1.0:
        warnings.warn(
            f"mode {p.k}: contraction bound {c:.4f} >= 1; Picard iteration "
            f"may not converge", stacklevel=2)
    return c


def picard_step(p: ModeProblem, current: np.ndarray) -> np.ndarray:
    """One application of the integral operator to ``current``."""
    g = p.f_k.values + p.bracket * np.asarray(current, dtype=float)
    return p.phi_k * p.weights.relax + convolve(p.weights, g)


@dataclass(frozen=True, eq=False)
class ModeSolution:
    u_k: np.ndarray
    iterations: int
    contraction_estimate: float
    C_k_bound: float


def solve_mode(p: ModeProblem, tol: float = 1e-10, max_iter: int = 200,
               initial: np.ndarray | None = None) -> ModeSolution:
    """Picard-iterate to the fixed point; initial guess is the homogeneous term.

    ``initial`` overrides the guess (useful for warm starts across an outer
    iteration); convergence does not depend on it.
    """
    if tol <= 0.0:
        raise DomainError(f"tol must be positive, got {tol}")
    c_bound = contraction_bound(p)
    if initial is None:
        u = p.phi_k * p.weights.relax
    else:
        u = np.array(initial, dtype=float)
        if u.shape != (p.grid.n_steps + 1,):
            raise GridMismatchError("initial guess does not match the grid")
    prev_update = None
    worst_ratio = 0.0
    floor = _RATIO_FLOOR * np.finfo(float).eps
    for it in range(1, max_iter + 1):
        u_next = picard_step(p, u)
        update = float(np.max(np.abs(u_next - u)))
        scale = max(1.0, float(np.max(np.abs(u_next))))
        if prev_update is not None and prev_update > floor * scale:
            worst_ratio = max(worst_ratio, update / prev_update)
        u = u_next
        if update < tol:
            u[0] = p.phi_k  # exact by construction; pin against roundoff
            return ModeSolution(u_k=u, iterations=it,
                                contraction_estimate=worst_ratio,
                                C_k_bound=c_bound)
        prev_update = update
    raise ConvergenceError(
        f"mode {p.k}: Picard iteration did not reach tol={tol} in "
        f"{max_iter} iterations",
        iterations=max_iter,
        last_update=prev_update if prev_update is not None else math.inf,
        contraction_estimate=worst_ratio)


def decompose_mode(p: ModeProblem, tol: float = 1e-10,
                   max_iter: int = 200) -> tuple[np.ndarray, np.ndarray]:
    """Split into the zero-initial-datum part V_k and the zero-source part W_k."""
    zero_f = p.f_k.with_values(np.zeros(p.grid.n_steps + 1))
    v = solve_mode(replace(p, phi_k=0.0), tol, max_iter)
    w = solve_mode(replace(p, f_k=zero_f), tol, max_iter)
    return v.u_k, w.u_k


def apriori_bounds(p: ModeProblem) -> tuple[np.ndarray, np.ndarray]:
    """Analytic envelopes: |V_k| and |W_k| under the worst-case coefficients.

    Both use the damping lam_k^2 m_sigma + n_q, the slowest decay any
    admissible coefficient pair can produce.
    """
    lam_slow = p.lam_k ** 2 * p.sigma.vmin + p.q.vmin
    if lam_slow <= 0.0:
        raise DomainError(
            f"lam_k^2 m_sigma + n_q = {lam_slow} is not positive; the "
            f"envelope kernel is undefined")
    w_tilde = build_weights(p.grid, p.rho, lam_slow)
    v_bound = convolve(w_tilde, np.abs(p.f_k.values))
    w_bound = abs(p.phi_k) * w_tilde.relax
    return v_bound, w_bound
