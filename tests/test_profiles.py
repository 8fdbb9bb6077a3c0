"""Profile construction, sampled bounds, and the named-analytic kinds."""

from __future__ import annotations

from dataclasses import fields

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
    assert [f.name for f in fields(p)] == ["grid", "values"]


def test_shape_mismatch():
    with pytest.raises(GridMismatchError):
        profiles.Profile(GRID, np.ones(5))


def test_nonfinite_rejected():
    with pytest.raises(DomainError):
        profiles.Profile(GRID, np.array([0.0] * 8 + [np.inf]))


def test_clamped():
    p = profiles.Profile(GRID, np.arange(9.0))
    q = p.clamped(2.0, 6.0)
    assert q.values.tolist() == [2.0, 2.0, 2.0, 3.0, 4.0, 5.0, 6.0, 6.0, 6.0]
    assert p.values.max() == 8.0  # original untouched
    with pytest.raises(DomainError, match="empty clamp window"):
        p.clamped(6.0, 2.0)


def test_constant():
    p = profiles.constant(GRID, 3.5)
    assert np.all(p.values == 3.5)
    assert p.vmin == p.vmax == 3.5


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

