"""Time-dependent coefficient profiles on a uniform grid.

A Profile is a sampled function of time and nothing more: its bounds
``vmin``/``vmax`` are the sampled extrema, the tightest constants m <= p(t)
<= M valid on the grid, so every reader of a coefficient's bounds reads the
same numbers.
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

    @property
    def vmin(self) -> float:
        return float(self.values.min())

    @property
    def vmax(self) -> float:
        return float(self.values.max())

    def clamped(self, lo: float, hi: float) -> "Profile":
        """The profile clamped nodewise into [lo, hi]."""
        if lo > hi:
            raise DomainError(f"empty clamp window [{lo}, {hi}]")
        return Profile(self.grid, np.clip(self.values, lo, hi))


def constant(grid: TimeGrid, value: float) -> Profile:
    return Profile(grid, np.full(grid.n_steps + 1, float(value)))


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
