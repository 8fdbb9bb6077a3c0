"""Independent finite-difference reference solver.

Implicit stepping: the fractional derivative is discretised by the L1 rule,
the space operator by second-order central differences, and both coefficient
terms are taken at the new time level, so every step solves (scale a_0 + q_n)
I + (sigma_n / h^2) T over the interior nodes, with T the fixed [-1, 2, -1]
stencil, diagonalised numerically once.  Shares nothing with the spectral
route beyond the problem container, which is the point: agreement between
the two is evidence, not tautology.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AdmissibilityError, DomainError, SingularSystemError
from .forward import FieldSolution, ProblemSpec
from .frackernel import TimeGrid
from .spectral import SpaceGrid


@dataclass(frozen=True)
class FdWorkspace:
    """Precomputed pieces of the implicit L1 scheme.

    ``a`` are the L1 weights a_m = (m+1)^{1-rho} - m^{1-rho}; the history
    weights d_m = a_m - a_{m+1} are positive and the summation-by-parts form
    keeps the right-hand side a plain dot product with past interior rows.
    ``mu`` and ``V`` are the eigenvalues (over h^2) and eigenvectors of the
    interior stencil T = tridiag(-1, 2, -1), from ``np.linalg.eigh``.
    """

    tgrid: TimeGrid
    sgrid: SpaceGrid
    rho: float
    scale: float
    a: np.ndarray
    d: np.ndarray
    mu: np.ndarray
    V: np.ndarray

    @classmethod
    def from_spec(cls, spec: ProblemSpec) -> "FdWorkspace":
        tg = spec.tgrid
        scale = tg.h ** (-spec.rho) / math.gamma(2.0 - spec.rho)
        m = np.arange(tg.n_steps + 1, dtype=float)
        a = (m + 1.0) ** (1.0 - spec.rho) - m ** (1.0 - spec.rho)
        d = a[:-1] - a[1:]
        n_in = spec.sgrid.n_cells - 1
        lam, V = np.linalg.eigh(
            2.0 * np.eye(n_in) - np.eye(n_in, k=1) - np.eye(n_in, k=-1))
        mu = lam / spec.sgrid.h ** 2
        for arr in (a, d, mu, V):
            arr.setflags(write=False)
        return cls(tgrid=tg, sgrid=spec.sgrid, rho=spec.rho, scale=scale,
                   a=a, d=d, mu=mu, V=V)

    def dominant(self, q_n: float) -> bool:
        """Strict diagonal dominance of the step system.

        diag - |off-diag sum| = scale*a_0 + q_n, so dominance can only fail
        for q(t_n) below -scale*a_0 (strongly negative).
        """
        return self.scale * self.a[0] + q_n > 0.0

    def history(self, interior: np.ndarray, n: int) -> np.ndarray:
        """L1 memory term at step n from interior rows 0..n-1."""
        h = self.a[n - 1] * interior[0]
        if n > 1:
            h = h + self.d[n - 2::-1] @ interior[1:n]
        return self.scale * h


def solve_fd(spec: ProblemSpec) -> FieldSolution:
    if spec.q is None:
        raise DomainError("cannot step the scheme without a reaction coefficient")
    if float(spec.sigma.values.min()) <= 0.0:
        raise AdmissibilityError("sigma must be strictly positive")

    ws = FdWorkspace.from_spec(spec)
    N, M = spec.tgrid.n_steps, spec.sgrid.n_cells
    sig, qv = spec.sigma.values, spec.q.values

    u = np.zeros((N + 1, M + 1))
    u[0] = spec.phi
    interior = u[:, 1:M]  # writable view, (N+1, M-1)

    dominant = True
    for n in range(1, N + 1):
        dominant = dominant and ws.dominant(float(qv[n]))
        rhs = ws.history(interior, n) + spec.f[n, 1:M]
        div = ws.scale * ws.a[0] + float(sig[n]) * ws.mu + float(qv[n])
        if not np.all(np.isfinite(div) & (div != 0.0)):
            raise SingularSystemError(
                f"singular step system at step {n}", step=n)
        interior[n] = ws.V @ ((rhs @ ws.V) / div)
        if not np.all(np.isfinite(interior[n])):
            raise SingularSystemError(
                f"non-finite values after step {n}", step=n)

    return FieldSolution(
        u=u, u_xx_diag=None, mode_set=None,
        diagnostics={"diagonally_dominant": dominant})
