"""Forward solve of the subdiffusion problem on (0,l) x (0,T].

Pipeline: the problem spec expands the data in the sine basis once, or
takes their sine coefficients as given (``ProblemSpec.from_modes``); the
solve reports the coefficient assumptions, solves each mode's Volterra
equation, reassembles the field, and attaches the regularity diagnostics
(weighted coefficient sums and the short-time second-derivative blow-up
shape).  The pointwise PDE residual is a separate check,
``residual_check``, taken on the K coefficient series of a solution.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import AdmissibilityError, DomainError, GridMismatchError
from .frackernel import TimeGrid, caputo_l1
from .mode_solver import ModeProblem, contraction_bound, solve_mode
from .profiles import Profile
from .spectral import (
    SpaceGrid,
    assemble_field,
    basis,
    eigenvalues,
    sine_coefficients,
    tail_diagnostics,
)

_ENDPOINT_TOL = 1e-12
#: cap on the largest eigenvalue products the solve, its diagnostics and the
#: inverse traces form, lam_K^3 sqrt(2/l) and lam_K^2 M_sigma: the square
#: root of the largest double, so that such a product still fits after
#: meeting a coefficient or a sum over modes as large as itself; its
#: reciprocal floors lam_1^2 m_sigma, so that no rate lam_k^2 sigma the
#: mode solver divides by underflows
_MAX_SCALE = math.sqrt(np.finfo(float).max)


def _require_order(rho: float) -> None:
    if not (0.0 < rho < 1.0):
        raise DomainError(f"order must lie in (0, 1), got {rho}")


def _require_finite(f: np.ndarray, phi: np.ndarray) -> None:
    if not (np.all(np.isfinite(f)) and np.all(np.isfinite(phi))):
        raise DomainError("source and initial datum must be finite")


def default_mode_count(n_cells: int) -> int:
    """Sine modes kept when none are requested: a quarter of the cells, 1..64."""
    return min(64, max(1, n_cells // 4))


@dataclass(frozen=True, eq=False)
class ProblemSpec:
    """Data the forward and the inverse problem share, checked once at
    construction.

    The reaction coefficient q is not part of it: the forward solvers take it
    as an argument, and the inverse problem recovers it.  Assumption 1 is
    owned here: sigma's smallest sample m_sigma must be positive, and
    ``q_window`` is the open interval
    (-m_sigma lam_1^2, (M_sigma - m_sigma) lam_1^2) for q, with lam_1 = pi/l
    and m_sigma, M_sigma sigma's sampled extrema (``Profile.vmin``/``vmax``),
    the same bounds the mode solver contracts with.  A length so small that
    lam_K^3 sqrt(2/l) or lam_K^2 M_sigma exceeds ``_MAX_SCALE`` is refused
    (``DomainError``), and so is a length so large, or a sigma so small, that
    lam_1^2 m_sigma falls below 1/``_MAX_SCALE``.  Solvers trust the spec.

    The sine coefficients of the data are derived here once: ``phi_k`` (K,)
    of the initial datum and ``f_k`` (K, n_steps+1) of the source, rows
    modes and columns time nodes.  ``from_modes`` builds a spec the other
    way round, from those coefficients, which it keeps exactly as given.
    ``dataclasses.replace`` on any spec runs this constructor, so it returns
    a spec whose coefficients are projected from the grid fields, with
    round-off on the modes ``from_modes`` kept at exactly 0.
    """

    sgrid: SpaceGrid
    tgrid: TimeGrid
    rho: float
    sigma: Profile
    f: np.ndarray  # (n_steps+1, n_cells+1), rows are time nodes
    phi: np.ndarray  # (n_cells+1,)
    K: Optional[int] = None

    def __post_init__(self) -> None:
        _require_order(self.rho)
        nt, nx = self.tgrid.n_steps + 1, self.sgrid.n_cells + 1
        f = np.asarray(self.f, dtype=float)
        if f.shape != (nt, nx):
            raise GridMismatchError(
                f"source field {f.shape} does not match (time, space) = "
                f"({nt}, {nx})")
        phi = np.asarray(self.phi, dtype=float)
        if phi.shape != (nx,):
            raise GridMismatchError(
                f"initial datum {phi.shape} does not match {nx} space nodes")
        _require_finite(f, phi)
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "phi", phi)
        if self.K is None:
            object.__setattr__(self, "K",
                               default_mode_count(self.sgrid.n_cells))
        self._admit()
        object.__setattr__(self, "phi_k",
                           sine_coefficients(self.sgrid, phi, self.K))
        object.__setattr__(self, "f_k",
                           sine_coefficients(self.sgrid, f, self.K).T)

    @classmethod
    def from_modes(cls, sgrid: SpaceGrid, tgrid: TimeGrid, rho: float,
                   sigma: Profile, phi_k, f_k) -> "ProblemSpec":
        """The spec whose data have the sine coefficients ``phi_k`` (K,) and
        ``f_k`` (K, n_steps+1), kept exactly as given; K is their number of
        modes.  The grid fields ``phi`` and ``f`` are their sums over the
        sine basis, one product each.

        The checks are the grid constructor's, made in its order (order,
        shapes, finiteness, then sigma, length and K), so that data with
        several faults raise the same error as well: a coefficient that is
        not finite stands for a field that is not.  The one exception is a
        finite coefficient whose field overflows, which is found after the
        other checks.  ``dataclasses.replace`` on the result returns a
        grid-projected spec (see the class docstring)."""
        _require_order(rho)
        phi_k = np.asarray(phi_k, dtype=float)
        f_k = np.asarray(f_k, dtype=float)
        nt = tgrid.n_steps + 1
        if phi_k.ndim != 1 or f_k.shape != (phi_k.size, nt):
            raise GridMismatchError(
                f"mode coefficients {phi_k.shape} and {f_k.shape} do not "
                f"match (K,) and (K, {nt})")
        _require_finite(f_k, phi_k)
        spec = cls.__new__(cls)
        for name, value in (("sgrid", sgrid), ("tgrid", tgrid), ("rho", rho),
                            ("sigma", sigma), ("K", phi_k.size),
                            ("phi_k", phi_k), ("f_k", f_k)):
            object.__setattr__(spec, name, value)
        spec._admit()
        shapes = basis(sgrid, spec.K)
        phi, f = phi_k @ shapes, f_k.T @ shapes
        _require_finite(f, phi)  # a finite coefficient can overflow
        object.__setattr__(spec, "phi", phi)
        object.__setattr__(spec, "f", f)
        return spec

    def _admit(self) -> None:
        """The checks on sigma, length and K that both constructors make
        after order, shapes and finiteness; sets ``q_window``."""
        self.on_grid(self.sigma, "sigma")
        m_s, M_s = self.sigma.vmin, self.sigma.vmax
        if m_s <= 0.0:
            raise AdmissibilityError(
                f"sigma must be strictly positive; its smallest sample is "
                f"{m_s}")
        # products, not powers: a float product overflows to inf, where a
        # power raises
        lam_K = math.pi * self.K / self.length
        if not max(lam_K * lam_K * lam_K * math.sqrt(2.0 / self.length),
                   lam_K * lam_K * M_s) <= _MAX_SCALE:
            raise DomainError(
                f"length {self.length} is too small for {self.K} modes: "
                f"lam_K^3 sqrt(2/l) or lam_K^2 M_sigma exceeds "
                f"{_MAX_SCALE:.3g}")
        lam1sq = (math.pi / self.length) ** 2
        if not lam1sq * m_s >= 1.0 / _MAX_SCALE:
            raise DomainError(
                f"length {self.length} is too large for sigma's minimum "
                f"{m_s}: lam_1^2 m_sigma is below {1.0 / _MAX_SCALE:.3g}")
        basis(self.sgrid, self.K)  # range-checks K
        object.__setattr__(self, "q_window",
                           (-m_s * lam1sq, (M_s - m_s) * lam1sq))

    def on_grid(self, prof: Profile, name: str = "q") -> None:
        """Refuse a ``prof`` that is not a time profile on the spec's grid."""
        if not isinstance(prof, Profile):
            raise DomainError(f"{name} must be a time profile, got {prof!r}")
        if prof.grid != self.tgrid:
            raise GridMismatchError(f"{name} lives on a different time grid")

    @property
    def length(self) -> float:
        return self.sgrid.length

    @property
    def t_final(self) -> float:
        return self.tgrid.t_final


@dataclass(frozen=True)
class AssumptionReport:
    m_sigma: float
    M_sigma: float
    n_q: float
    N_q: float
    q_window: tuple[float, float]
    cond2_q_in_window: bool
    cond3_endpoints: bool
    endpoint_defect: float

    @property
    def all_passed(self) -> bool:
        return self.cond2_q_in_window and self.cond3_endpoints


def validate_assumption1(spec: ProblemSpec, q: Profile) -> AssumptionReport:
    """Sampled extrema of sigma and of the reaction coefficient ``q`` against
    the spec's admissibility window.

    The q window uses strict inequalities: a constant sigma yields the window
    (-m_sigma pi^2/l^2, 0), which excludes q identically zero.  Sigma's
    positivity (condition 1) is enforced by ``ProblemSpec`` itself, so it is
    not reported: it holds on every spec that exists.
    """
    spec.on_grid(q)
    m_s, M_s = spec.sigma.vmin, spec.sigma.vmax
    lo, hi = spec.q_window
    n_q, N_q = q.vmin, q.vmax
    cond2 = (n_q > lo) and (N_q < hi)
    defect = max(
        abs(float(spec.phi[0])), abs(float(spec.phi[-1])),
        float(np.max(np.abs(spec.f[:, 0]))), float(np.max(np.abs(spec.f[:, -1]))))
    return AssumptionReport(
        m_sigma=m_s, M_sigma=M_s, n_q=n_q, N_q=N_q, q_window=(lo, hi),
        cond2_q_in_window=cond2,
        cond3_endpoints=defect <= _ENDPOINT_TOL, endpoint_defect=defect)


@dataclass(eq=False)
class FieldSolution:
    """A solved field ``u`` (n_steps+1, n_cells+1), rows time nodes.

    ``u_k`` holds the (K, n_steps+1) sine coefficients the field was
    assembled from, where the route has them (the spectral one); the FD
    route leaves it None and ``diagnostics`` empty.  From ``solve_forward``,
    ``diagnostics`` is the content of the forward command's
    ``diagnostics.json``: the CLI writes it whole, so only what that artifact
    reports belongs there."""

    u: np.ndarray
    u_k: Optional[np.ndarray] = None
    diagnostics: dict = field(default_factory=dict)


def mode_problem(spec: ProblemSpec, q: Profile) -> ModeProblem:
    """The spec's K mode problems at reaction coefficient ``q``, one batch."""
    return ModeProblem(k=np.arange(1, spec.K + 1),
                       lam_k=eigenvalues(spec.K, spec.length), rho=spec.rho,
                       sigma=spec.sigma, q=q, f_k=spec.f_k, phi_k=spec.phi_k,
                       grid=spec.tgrid)


def solve_mode_set(spec: ProblemSpec, q: Profile) -> np.ndarray:
    """The rows u_k of the spec's K mode problems at reaction coefficient
    ``q``, a (K, N+1) array solved as one batch by one causal march
    (``solve_mode``); no field is assembled."""
    return solve_mode(mode_problem(spec, q))


def check_window(spec: ProblemSpec, q: Profile) -> AssumptionReport:
    """``validate_assumption1``, warning where ``q`` leaves the spec's
    admissibility window."""
    report = validate_assumption1(spec, q)
    if not report.cond2_q_in_window:
        warnings.warn(
            f"reaction coefficient leaves the admissibility window "
            f"{report.q_window}; the solve proceeds", stacklevel=3)
    return report


def _blowup_exponent(tgrid: TimeGrid, uxx_sup: np.ndarray) -> float:
    """Log-log slope of sup_x|u_xx| over the first decade of positive time;
    NaN where fewer than two positive nodes or a zero sup leave no line."""
    n_fit = min(10, tgrid.n_steps)
    y = uxx_sup[1:n_fit + 1]
    if n_fit < 2 or np.any(y <= 0.0):
        return math.nan
    t = tgrid.nodes[1:n_fit + 1]
    return float(np.polyfit(np.log(t), np.log(y), 1)[0])


def solve_forward(spec: ProblemSpec, q: Profile) -> FieldSolution:
    """Solve the spec's problem at the reaction coefficient ``q``: the modes
    by one causal march (``solve_mode_set``), then the field and its
    diagnostics.  A ``q`` outside the window is warned about, then solved,
    and so is each mode whose bound C_k (``contraction_bound``) is at least
    1, data or not."""
    report = check_window(spec, q)
    c_bound = contraction_bound(mode_problem(spec, q))
    coeffs = solve_mode_set(spec, q)
    lam = eigenvalues(spec.K, spec.length)
    u = assemble_field(coeffs, spec.sgrid)
    u_xx = assemble_field(-(lam ** 2)[:, None] * coeffs, spec.sgrid)

    rho, T = spec.rho, spec.t_final
    head = T ** rho / math.gamma(rho + 1.0)
    tail2 = tail_diagnostics(lam, spec.phi_k, spec.f_k, weight_power=2)
    tail3 = tail_diagnostics(lam, spec.phi_k, spec.f_k, weight_power=3)
    q1_value = float(np.max((lam ** 2) @ np.abs(coeffs)))
    q1_bound = head * tail2.f_sum + tail2.phi_sum
    uxx_sup = np.max(np.abs(u_xx), axis=1)
    q2_weighted = float(np.max(spec.tgrid.nodes[1:] ** rho * uxx_sup[1:]))

    diagnostics = {
        "assumption1": report,
        "contraction_bounds": c_bound.tolist(),
        "tail_p2": tail2,
        "tail_p3": tail3,
        "q1_value": q1_value,
        "q1_bound": q1_bound,
        "q2_weighted_max": q2_weighted,
        "q2_fitted_exponent": _blowup_exponent(spec.tgrid, uxx_sup),
        "init_defect": float(np.max(np.abs(u[0] - spec.phi))),
    }
    return FieldSolution(u=u, u_k=coeffs, diagnostics=diagnostics)


def residual_check(sol: FieldSolution, spec: ProblemSpec,
                   q: Profile) -> float:
    """max over t >= t_1 and interior x of |D^rho u - sigma u_xx + q u - f|.

    The derivative terms act on the K coefficient series c of the solution:
    ``sol.u_k``, or for a solution without them (the FD route) the K-mode
    sine projection of ``sol.u``.  The L1 derivative of each series (0 for
    a series that is 0 throughout, without an L1 sum) plus sigma lam_k^2 c
    is assembled once on the grid, where q u - f is added.
    """
    spec.on_grid(q)
    u = sol.u
    if u.shape != spec.f.shape:
        raise GridMismatchError("solution and problem grids differ")
    c = sol.u_k
    if c is None:
        c = sine_coefficients(spec.sgrid, u, spec.K).T
    lam = eigenvalues(c.shape[0], spec.length)
    # a series that is 0 throughout has derivative 0
    dcap = np.zeros((c.shape[0], spec.tgrid.n_steps))
    rows = np.any(c != 0.0, axis=1)
    if rows.any():
        dcap[rows] = caputo_l1(spec.tgrid, c[rows].T, spec.rho)[1:].T
    stiff = spec.sigma.values[1:] * (lam ** 2)[:, None] * c[:, 1:]
    nx = spec.sgrid.n_cells
    res = (assemble_field(dcap + stiff, spec.sgrid)[:, 1:nx]
           + q.values[1:, None] * u[1:, 1:nx] - spec.f[1:, 1:nx])
    return float(np.max(np.abs(res)))
