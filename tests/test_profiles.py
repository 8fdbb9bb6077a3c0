"""Profile construction, bounds, and the named-analytic kinds."""

from __future__ import annotations

import numpy as np
import pytest

from subdiff.errors import DomainError, GridMismatchError
from subdiff.frackernel import TimeGrid
from subdiff import profiles


GRID = TimeGrid(2.0, 8)


def test_basic_construction():
    p = profiles.Profile(GRID, np.arange(9.0))
    assert p.vmin == 0.0 and p.vmax == 8.0
    assert not p.values.flags.writeable


def test_declared_bounds_win():
    p = profiles.Profile(GRID, np.ones(9), lower=0.5, upper=3.0)
    assert p.vmin == 0.5 and p.vmax == 3.0


def test_declared_bounds_must_bracket_samples():
    with pytest.raises(DomainError):
        profiles.Profile(GRID, np.ones(9), lower=1.5)
    with pytest.raises(DomainError):
        profiles.Profile(GRID, np.ones(9), upper=0.5)


def test_declared_bound_may_not_cross_zero():
    # within the round-off slack of the samples, but on the other side of
    # zero: such a bound would make a negative or zero sample read positive
    dip = np.ones(9)
    for node in (-5e-13, 0.0):
        dip[3] = node
        with pytest.raises(DomainError, match="lower bound"):
            profiles.Profile(GRID, dip, lower=5e-13)
    with pytest.raises(DomainError, match="lower bound"):
        profiles.Profile(GRID, np.full(9, -5e-13), lower=0.0)
    bump = -np.ones(9)
    bump[5] = 5e-13
    with pytest.raises(DomainError, match="upper bound"):
        profiles.Profile(GRID, bump, upper=-5e-13)
    # the slack itself stays, on either side of zero
    assert profiles.Profile(GRID, np.ones(9), lower=1.0 + 5e-13).vmin > 1.0
    assert profiles.Profile(GRID, -np.ones(9), upper=-1.0 - 5e-13).vmax < -1.0


def test_shape_mismatch():
    with pytest.raises(GridMismatchError):
        profiles.Profile(GRID, np.ones(5))


def test_nonfinite_rejected():
    with pytest.raises(DomainError):
        profiles.Profile(GRID, np.array([0.0] * 8 + [np.inf]))


def test_clamped():
    p = profiles.Profile(GRID, np.arange(9.0))
    q, touched = p.clamped(2.0, 6.0)
    assert touched == 4
    assert q.values.min() == 2.0 and q.values.max() == 6.0
    assert p.values.max() == 8.0  # original untouched


def test_constant():
    p = profiles.constant(GRID, 3.5)
    assert np.all(p.values == 3.5)
    assert p.lower == p.upper == 3.5


def test_affine():
    p = profiles.affine(GRID, 1.0, 2.0)
    np.testing.assert_allclose(p.values, 1.0 + 2.0 * GRID.nodes)


def test_sinusoidal_offset():
    p = profiles.sinusoidal_offset(GRID, 2.0, 0.5, frequency=3.0)
    np.testing.assert_allclose(p.values, 2.0 + 0.5 * np.sin(3.0 * GRID.nodes))


def test_power():
    p = profiles.power(GRID, 2.0, 0.5)
    np.testing.assert_allclose(p.values, 2.0 * np.sqrt(GRID.nodes))
    with pytest.raises(DomainError):
        profiles.power(GRID, 1.0, -0.5)


def test_named_dispatch():
    p = profiles.named_profile(GRID, "sinusoidal-offset", offset=2.0, amplitude=1.0)
    np.testing.assert_allclose(p.values, 2.0 + np.sin(GRID.nodes))
    # a left-out frequency takes sinusoidal_offset's own default
    explicit = profiles.named_profile(GRID, "sinusoidal-offset", offset=2.0,
                                      amplitude=1.0, frequency=1.0)
    np.testing.assert_array_equal(p.values, explicit.values)
    with pytest.raises(DomainError):
        profiles.named_profile(GRID, "sinusoidal-offset", offset=2.0,
                               amplitude=1.0, phase=0.5)
    with pytest.raises(DomainError):
        profiles.named_profile(GRID, "sinusoidal-offset", offset=2.0,
                               frequency=1.0)
    with pytest.raises(DomainError):
        profiles.named_profile(GRID, "quadratic", a=1.0)
    with pytest.raises(DomainError, match="unknown profile kind"):
        profiles.named_profile(GRID, ["constant"], value=1.0)
    with pytest.raises(DomainError):
        profiles.named_profile(GRID, "constant", value=1.0, slope=2.0)
    with pytest.raises(DomainError):
        profiles.named_profile(GRID, "affine", intercept=1.0)


def test_with_values_drops_bounds():
    p = profiles.constant(GRID, 1.0)
    q = p.with_values(np.full(9, 7.0))
    assert q.vmax == 7.0 and q.upper is None
