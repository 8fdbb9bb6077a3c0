"""Independent finite-difference reference solver.

Implicit stepping: the fractional derivative is discretised by the L1 rule,
the space operator by second-order central differences, and both coefficient
terms are taken at the new time level, so every step solves (scale a_0 + q_n)
I + (sigma_n / h^2) T over the interior nodes, with T the fixed [-1, 2, -1]
stencil, diagonalised in closed form.  The scheme steps the coefficients of
the interior rows in T's eigenbasis, where each step is one division, and
maps them back to physical space at the end.

sigma and q depend on time only, so the eigenbasis columns do not couple,
and a column without data stays 0: ``solve_fd`` steps only the columns its
data excite (the cut and its bound are in its docstring), while the
divisors and the singular-step check cover every column.

The L1 memory sum is marched by the causal divide-and-conquer split of
Hairer, Lubich and Schlichte (SIAM J. Sci. Stat. Comput. 6 (1985) 532).
Every product serves all the stepped columns at once.  Steps go in blocks
of ``_HISTORY_BLOCK``, and block b >= 1 starts a dyadic right half of
(b & -b) blocks: before it is stepped, the rows of the equally long left
half reach all of that right half through one ``FdWorkspace.history`` call,
the far field.  That call is a Toeplitz matrix product while either side has
at most ``_FFT_MIN`` rows and a real-FFT convolution above that,
``_FFT_COLUMNS`` columns at a time.  Inside a block the same split runs on
leaves of ``_LEAF`` steps through views of one cached Toeplitz matrix, and a
leaf is stepped one row at a time.  Every earlier row reaches every step
exactly once, so the march keeps every term of the direct sum, at
O(k N log^2 N) cost for k stepped columns; the products into and out of the
eigenbasis cost O(N M^2) and O(N M k).  Each product adds into the
not-yet-stepped rows, which hold their steps' sources and right-hand sides
until they are divided.  The matrix products only reorder the sum; the FFT
far field adds round-off of order eps log N against the sum of the absolute
terms.

Shares nothing with the spectral route beyond the problem container, which
is the point: agreement between the two is evidence, not tautology.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import SingularSystemError
from .forward import FieldSolution, ProblemSpec
from .frackernel import TimeGrid
from .profiles import Profile
from .spectral import SpaceGrid

#: steps per history block, which holds the divisors and their checks
_HISTORY_BLOCK = 64
#: steps per leaf of a block, stepped one row at a time
_LEAF = 8
#: a history product with more rows than this on both sides goes by FFT
_FFT_MIN = 256
#: eigenbasis columns per FFT batch, so the padded spectra stay small
_FFT_COLUMNS = 16
#: an eigenbasis column is stepped only if its data exceed this multiple of
#: the largest column's: well above the round-off that a low mode's samples
#: leave in the columns of the others (0.3-1.6 eps at M = 128 to 4096)
_COLUMN_CUT = 64.0 * np.finfo(float).eps
#: rows per product into and out of the eigenbasis, so that the products'
#: temporaries stay small
_TRANSFORM_ROWS = 256


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
    ``near`` holds the weights inside a history block: scale d_{i-c-1},
    the weight of its row c on its step i, below the diagonal, and 1 on it,
    so that step i's row also picks up the step's own right-hand side.
    """

    tgrid: TimeGrid
    sgrid: SpaceGrid
    rho: float
    scale: float
    a: np.ndarray
    d: np.ndarray
    mu: np.ndarray
    V: np.ndarray
    near: np.ndarray

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
        i = np.arange(min(_HISTORY_BLOCK, tg.n_steps))
        lag = i[:, None] - i - 1
        near = (np.where(lag >= 0, scale * d[np.maximum(lag, 0)], 0.0)
                + np.eye(len(i)))
        for arr in (a, d, mu, V, near):
            arr.setflags(write=False)
        return cls(tgrid=tg, sgrid=spec.sgrid, rho=spec.rho, scale=scale,
                   a=a, d=d, mu=mu, V=V, near=near)

    def history(self, rows: np.ndarray, n: int, stop: int, start: int = 0,
                out: np.ndarray | None = None) -> np.ndarray:
        """L1 memory of rows start..n-1 on steps n..stop-1, one row per step.

        Step m weighs row 0 by a_{m-1} and row j >= 1 by d_{m-1-j}; the
        weights of rows max(start, 1)..n-1 form a Toeplitz block, so the
        memory of all the steps is one product: a matrix product while either
        side has at most ``_FFT_MIN`` rows, else a real-FFT convolution,
        ``_FFT_COLUMNS`` columns at a time.  Given ``out``, the memory is
        added to it in place.
        """
        if out is None:
            out = np.zeros((stop - n, rows.shape[1]))
        if start == 0:
            out += self.scale * self.a[n - 1:stop - 1, None] * rows[0]
        j = max(start, 1)
        width, count = n - j, stop - n
        if min(width, count) <= _FFT_MIN:
            toeplitz = sliding_window_view(self.d[:width + count - 1], width)
            out += (self.scale * toeplitz[:, ::-1]) @ rows[j:n]
            return out
        # the steps read outputs width-1..width+count-2 of the convolution;
        # at a size of at least width+count-1, the lags past those and the
        # circular wrap land only on outputs outside them
        size = 1 << (width + count - 2).bit_length()
        kernel = self.scale * np.fft.rfft(self.d[:size], size)
        for c in range(0, out.shape[1], _FFT_COLUMNS):
            cols = slice(c, c + _FFT_COLUMNS)
            # a batch is transposed so that each transform reads contiguous
            # memory
            spec = np.fft.rfft(np.ascontiguousarray(rows[j:n, cols].T), size)
            spec *= kernel
            out[:, cols] += np.fft.irfft(spec, size)[
                :, width - 1:width - 1 + count].T
        return out


def solve_fd(spec: ProblemSpec, q: Profile) -> FieldSolution:
    """Step the spec's problem at the reaction coefficient ``q``.

    Only the eigenbasis columns whose data exceed ``_COLUMN_CUT`` times the
    largest column's, or are not finite, are stepped.  Leaving the others at
    0 moves the field by at most sqrt(M-1) (1 + Gamma(1-rho) T^rho) times
    the cut where sigma_n mu_j + q_n >= 0.
    """
    spec.on_grid(q)
    ws = FdWorkspace.from_spec(spec)
    N, M = spec.tgrid.n_steps, spec.sgrid.n_cells
    sig, qv = spec.sigma.values, q.values

    u = np.zeros((N + 1, M + 1))
    # eigenbasis coefficients of the data, written into the interior block
    # by block; each column's size is its largest magnitude over the rows
    W = u[:, 1:M]
    W[0] = spec.phi[1:M] @ ws.V
    for s in range(1, N + 1, _TRANSFORM_ROWS):
        W[s:s + _TRANSFORM_ROWS] = spec.f[s:s + _TRANSFORM_ROWS, 1:M] @ ws.V
    size = np.maximum(W.max(axis=0), -W.min(axis=0))
    # a column whose size is not finite is stepped, so that an overflow
    # still raises at its own step.  The bound on the rest is the L1
    # scheme's maximum principle: where every divisor is at least scale a_0,
    # |w_n| <= |w_0| + Gamma(1-rho) t_n^rho max|f| in each column, and
    # |V w|_inf <= |w|_2 gives the sqrt(M-1)
    keep = np.flatnonzero(~np.isfinite(size)
                          | (size > _COLUMN_CUT * size.max()))
    if keep.size == M - 1:
        keep = slice(None)
    # the kept columns, a view that steps in place when they are all of
    # them; a row not yet stepped holds its source and accumulates its
    # right-hand side
    C, V = W[:, keep], ws.V[:, keep]
    for b, s in enumerate(range(1, N + 1, _HISTORY_BLOCK)):
        if b:
            # far field: block b starts the right half of a dyadic pair
            half = (b & -b) * _HISTORY_BLOCK
            end = min(s + half, N + 1)
            ws.history(C, s, end, start=s - half, out=C[s:end])
        stop = min(s + _HISTORY_BLOCK, N + 1)
        # the block's divisors in the eigenbasis: it steps up to its first
        # singular step, if any, and raises there before dividing by it
        div = ws.scale * ws.a[0] + sig[s:stop, None] * ws.mu + qv[s:stop, None]
        bad = np.flatnonzero(~np.all(np.isfinite(div) & (div != 0.0), axis=1))
        e = s + int(bad[0]) if bad.size else stop
        div = div[:, keep]
        C[s:e] += ws.scale * ws.a[s - 1:e - 1, None] * C[0]
        for leaf, p in enumerate(range(s, e, _LEAF)):
            if leaf:
                # near field: the same split on the block's leaves
                half = (leaf & -leaf) * _LEAF
                end = min(p + half, e)
                C[p:end] += ws.near[half:half + end - p, :half] @ C[p - half:p]
            # near's 1 on the diagonal picks up row n's right-hand side;
            # np.dot costs less per call than @ on these small products
            for n in range(p, min(p + _LEAF, e)):
                i = n - s
                np.divide(np.dot(ws.near[i, p - s:i + 1], C[p:n + 1]), div[i],
                          out=C[n])
        # checked once per block: the rows before this block are finite, so
        # the block's first non-finite row is the first non-finite step
        rows = np.flatnonzero(~np.all(np.isfinite(C[s:e]), axis=1))
        if rows.size:
            n = s + int(rows[0])
            raise SingularSystemError(
                f"non-finite values after step {n}", step=n)
        if bad.size:
            raise SingularSystemError(
                f"singular step system at step {e}", step=e)

    for s in range(1, N + 1, _TRANSFORM_ROWS):
        W[s:s + _TRANSFORM_ROWS] = np.dot(C[s:s + _TRANSFORM_ROWS], V.T)
    u[0] = spec.phi
    return FieldSolution(u=u)
