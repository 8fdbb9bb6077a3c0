"""Time-dependent coefficient profiles on a uniform grid.

A Profile is a sampled function of time plus (optionally) declared lower and
upper bounds.  Declared bounds let a caller assert prior knowledge (e.g. the
admissible range of a reaction coefficient) that is wider than the sampled
extrema; when absent, the nodewise extrema stand in.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, GridMismatchError
from .frackernel import TimeGrid


@dataclass(frozen=True, eq=False)
class Profile:
    grid: TimeGrid
    values: np.ndarray
    lower: float | None = None
    upper: float | None = None

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.grid.n_steps + 1,):
            raise GridMismatchError(
                f"profile has {v.shape} values for a grid with "
                f"{self.grid.n_steps + 1} nodes")
        if not np.all(np.isfinite(v)):
            raise DomainError("profile values must be finite")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)
        if self.lower is not None and _overshoots(self.lower, v.min()):
            raise DomainError(
                f"declared lower bound {self.lower} exceeds sampled minimum "
                f"{v.min()}")
        if self.upper is not None and _overshoots(-self.upper, -v.max()):
            raise DomainError(
                f"declared upper bound {self.upper} is below sampled maximum "
                f"{v.max()}")

    @property
    def vmin(self) -> float:
        return float(self.values.min() if self.lower is None else self.lower)

    @property
    def vmax(self) -> float:
        return float(self.values.max() if self.upper is None else self.upper)

    def with_values(self, values) -> "Profile":
        """Same grid, new samples; declared bounds are dropped, not inherited."""
        return Profile(self.grid, np.asarray(values, dtype=float))

    def clamped(self, lo: float, hi: float) -> tuple["Profile", int]:
        """Clamp nodewise into [lo, hi]; returns (profile, #nodes touched)."""
        if lo > hi:
            raise DomainError(f"empty clamp window [{lo}, {hi}]")
        clipped = np.clip(self.values, lo, hi)
        touched = int(np.count_nonzero(clipped != self.values))
        return Profile(self.grid, clipped), touched


def _overshoots(bound: float, extreme: float) -> bool:
    """Whether a declared lower bound lies above the sampled minimum by more
    than round-off: by over 1e-12, or onto the other side of zero (a bound
    that makes a sampled zero or negative value read as positive).  An upper
    bound is checked negated, against the negated maximum."""
    return bound > extreme and (bound > extreme + 1e-12
                                or np.sign(bound) != np.sign(extreme))


def constant(grid: TimeGrid, value: float) -> Profile:
    return Profile(grid, np.full(grid.n_steps + 1, float(value)),
                   lower=value, upper=value)


def affine(grid: TimeGrid, intercept: float, slope: float) -> Profile:
    return Profile(grid, intercept + slope * grid.nodes)


def sinusoidal_offset(grid: TimeGrid, offset: float, amplitude: float,
                      frequency: float = 1.0) -> Profile:
    return Profile(grid, offset + amplitude * np.sin(frequency * grid.nodes))


def power(grid: TimeGrid, coefficient: float, exponent: float) -> Profile:
    """coefficient * t^exponent; exponent >= 0 so the t=0 node stays finite."""
    if exponent < 0.0:
        raise DomainError(f"power profile needs exponent >= 0, got {exponent}")
    return Profile(grid, coefficient * grid.nodes ** exponent)


#: kind -> (function, required parameters, optional parameters); an optional
#: parameter left out takes the function's own default
_KINDS = {
    "constant": (constant, ("value",), ()),
    "affine": (affine, ("intercept", "slope"), ()),
    "sinusoidal-offset": (sinusoidal_offset, ("offset", "amplitude"),
                          ("frequency",)),
    "power": (power, ("coefficient", "exponent"), ()),
}


def named_profile(grid: TimeGrid, kind: str, **params: float) -> Profile:
    """Dispatch for the analytic profile kinds the run configuration accepts."""
    if not isinstance(kind, str) or kind not in _KINDS:
        raise DomainError(
            f"unknown profile kind {kind!r}; expected one of {sorted(_KINDS)}")
    fn, required, optional = _KINDS[kind]
    unknown = set(params) - set(required) - set(optional)
    if unknown:
        raise DomainError(f"profile kind {kind!r} got unknown parameters "
                          f"{sorted(unknown)}")
    missing = [n for n in required if n not in params]
    if missing:
        raise DomainError(f"profile kind {kind!r} missing parameters {missing}")
    return fn(grid, **params)
