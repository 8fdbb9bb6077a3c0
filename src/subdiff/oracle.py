"""Independent finite-difference reference solver.

Implicit stepping: the fractional derivative is discretised by the L1 rule,
the space operator by second-order central differences, and both coefficient
terms are taken at the new time level, so every step solves (scale a_0 + q_n)
I + (sigma_n / h^2) T over the interior nodes, with T the fixed [-1, 2, -1]
stencil, diagonalised in closed form.  The scheme steps the coefficients of
the interior rows in T's eigenbasis, where each step is one division, and
maps them back to physical space at the end.  Its L1 memory sum is split at
blocks of ``_HISTORY_BLOCK`` steps: the rows before a block reach all of its
steps through one matrix product, and each step adds only the rows of its own
block.  The split keeps the terms of the direct sum, so the result is exact
up to round-off.  Shares nothing with the spectral route beyond the problem
container, which is the point: agreement between the two is evidence, not
tautology.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SingularSystemError
from .forward import FieldSolution, ProblemSpec
from .frackernel import TimeGrid
from .spectral import SpaceGrid

#: steps per history block: the far field of a block is one matrix product
_HISTORY_BLOCK = 64


@dataclass(frozen=True)
class FdWorkspace:
    """Precomputed pieces of the implicit L1 scheme.

    ``a`` are the L1 weights a_m = (m+1)^{1-rho} - m^{1-rho}; the history
    weights d_m = a_m - a_{m+1} are positive and the summation-by-parts form
    keeps the right-hand side a weighted sum of past interior rows, linear in
    the rows, so it holds unchanged for their eigenbasis coefficients.
    ``mu`` and ``V`` are the eigenvalues (over h^2) and eigenvectors of the
    interior stencil T = tridiag(-1, 2, -1), in closed form: mu_j h^2 =
    4 sin^2(j pi/2M) and V_ij = sqrt(2/M) sin(i j pi/M), j ascending.
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
        M = spec.sgrid.n_cells
        j = np.arange(1, M)
        # 4 sin^2(j pi/2M) = 2 - 2 cos(j pi/M): the squared sine keeps the
        # low eigenvalues relatively accurate; the upper half takes the
        # cosine, as a sine of the integer M - 2j, which has no cancellation
        # there and is exactly 2 at j = M/2, so an exactly singular step
        # system still gives an exactly zero divisor
        lam = np.where(2 * j < M, 4.0 * np.sin(j * (math.pi / (2 * M))) ** 2,
                       2.0 - 2.0 * np.sin((M - 2 * j) * (math.pi / (2 * M))))
        # i j is reduced mod 2M in integers so every sine argument is < 2 pi
        V = math.sqrt(2.0 / M) * np.sin(np.outer(j, j) % (2 * M)
                                        * (math.pi / M))
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

    def history(self, rows: np.ndarray, n: int, stop: int) -> np.ndarray:
        """L1 memory of rows 0..n-1 on steps n..stop-1, one row per step.

        Step m weighs row 0 by a_{m-1} and row j >= 1 by d_{m-1-j}; the
        weights of rows 1..n-1 form a Toeplitz block, so the memory of all
        the steps is one matrix product.
        """
        steps = np.arange(n, stop)
        toeplitz = self.d[steps[:, None] - np.arange(2, n + 1)]
        h = self.a[steps - 1, None] * rows[0] + toeplitz @ rows[1:n]
        return self.scale * h


def solve_fd(spec: ProblemSpec) -> FieldSolution:
    if spec.q is None:
        raise DomainError("cannot step the scheme without a reaction coefficient")

    ws = FdWorkspace.from_spec(spec)
    N, M = spec.tgrid.n_steps, spec.sgrid.n_cells
    sig, qv = spec.sigma.values, spec.q.values

    dominant = bool(np.all(ws.dominant(qv[1:])))

    u = np.zeros((N + 1, M + 1))
    W = u[:, 1:M]  # writable view: eigenbasis coefficients while stepping
    W[0] = spec.phi[1:M] @ ws.V
    for s in range(1, N + 1, _HISTORY_BLOCK):
        stop = min(s + _HISTORY_BLOCK, N + 1)
        # the block's divisors in the eigenbasis: it steps up to its first
        # singular step, if any, and raises there before dividing by it
        div = ws.scale * ws.a[0] + sig[s:stop, None] * ws.mu + qv[s:stop, None]
        bad = np.flatnonzero(~np.all(np.isfinite(div) & (div != 0.0), axis=1))
        e = s + int(bad[0]) if bad.size else stop
        block = ws.history(W, s, e) + spec.f[s:e, 1:M] @ ws.V
        for n in range(s, e):
            if n > s:
                block[n - s] += ws.scale * (ws.d[n - s - 1::-1] @ W[s:n])
            W[n] = block[n - s] / div[n - s]
        # checked once per block: the rows before this block are finite, so
        # the block's first non-finite row is the first non-finite step
        rows = np.flatnonzero(~np.all(np.isfinite(W[s:e]), axis=1))
        if rows.size:
            n = s + int(rows[0])
            raise SingularSystemError(
                f"non-finite values after step {n}", step=n)
        if bad.size:
            raise SingularSystemError(
                f"singular step system at step {e}", step=e)

    for s in range(1, N + 1, _HISTORY_BLOCK):
        W[s:s + _HISTORY_BLOCK] = W[s:s + _HISTORY_BLOCK] @ ws.V.T
    u[0] = spec.phi
    return FieldSolution(
        u=u, u_xx_diag=None, u_k=None,
        diagnostics={"diagonally_dominant": dominant})
