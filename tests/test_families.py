import dataclasses
import warnings

import numpy as np
import pytest

from coorbit2d import (
    Family,
    GroupSpec,
    component_count,
    default_wavelet,
    diagonal,
    orbit_complement,
    shearlet,
    similitude,
)
from coorbit2d.families import DIAGONAL, FAMILIES, SHEARLET, SIMILITUDE, bump
from conftest import random_invertible

KINDS = (SIMILITUDE, DIAGONAL, SHEARLET)


def _near(x, ulps=4):
    """x and its neighbours up to `ulps` floats away on either side."""
    out = [x]
    lo = hi = x
    for _ in range(ulps):
        lo, hi = np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf)
        out += [lo, hi]
    return np.array(out)


def _edge_points(kind, rng):
    """eta within a few ulps of the support edges: |eta| (or |eta1|) = 1/2
    and 2, and, for the shearlet, |eta2| = |eta1|; in all four quadrants."""
    edges = np.concatenate([_near(0.5), _near(2.0)])
    inner = rng.uniform(0.5, 2.0, len(edges))
    if kind == SIMILITUDE:
        ang = rng.uniform(0.0, 2.0 * np.pi, len(edges))
        pts = [np.stack([edges * np.cos(ang), edges * np.sin(ang)], 1),
               np.stack([edges, 0.0 * edges], 1), np.stack([0.0 * edges, edges], 1)]
    elif kind == DIAGONAL:
        pts = [np.stack([edges, inner], 1), np.stack([inner, edges], 1)]
    else:
        pts = [np.stack([edges, rng.uniform(-1.0, 1.0, len(edges)) * edges], 1)]
        pts += [np.stack([np.full(9, v), _near(v)], 1) for v in inner]
    pts = np.concatenate(pts)
    return np.concatenate([pts * s for s in ([1, 1], [1, -1], [-1, 1], [-1, -1])])


# relative slack that widens the support in the masked reference: a magnitude
# t is kept when _LO < t < _HI, and a shearlet ratio when |eta2| < _K |eta1|
_SLACK = 1e-6
_LO, _HI = 0.5 * (1.0 - _SLACK), 2.0 * (1.0 + _SLACK)
_K = 1.0 + _SLACK


def _masked_profile(kind, e1, e2):
    """The profile as a mask of the support and the closed form on it, the
    way it was evaluated before the profile became total."""
    if kind == SIMILITUDE:
        r2 = np.square(e1) + np.square(e2)
        m = (r2 > _LO * _LO) & (r2 < _HI * _HI)
        values = bump(np.log2(np.hypot(e1[m], e2[m])))
    elif kind == DIAGONAL:
        a1, a2 = np.abs(e1), np.abs(e2)
        m = (a1 > _LO) & (a1 < _HI) & (a2 > _LO) & (a2 < _HI)
        values = bump(np.log2(a1[m])) * bump(np.log2(a2[m]))
    else:
        a1 = np.abs(e1)
        m = (a1 > _LO) & (a1 < _HI) & (np.abs(e2) < _K * a1)
        values = bump(np.log2(a1[m])) * bump(e2[m] / e1[m])
    out = np.zeros(e1.shape)
    out[m] = values
    return out


_SPECIAL = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, 1e308, 0.5, 1.0, 2.0])


@pytest.mark.parametrize("kind", KINDS)
def test_profile_is_total_and_equals_the_masked_reference(kind, rng):
    record = FAMILIES[kind]
    n = 100_000
    eta = rng.choice([-1.0, 1.0], (n, 2)) * 2.0 ** rng.uniform(-3.0, 3.0, (n, 2))
    special = np.stack(np.meshgrid(_SPECIAL, _SPECIAL), -1).reshape(-1, 2)
    eta = np.concatenate([eta, eta * [1.0, 0.0], eta * [0.0, 1.0], special,
                          _edge_points(kind, rng)])
    e1, e2 = eta[:, 0].copy(), eta[:, 1].copy()
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        got = record.profile(e1, e2)
        ref = _masked_profile(kind, e1, e2)
    assert np.count_nonzero(ref) > 1_000
    assert np.array_equal(got, ref)
    assert np.array_equal(np.signbit(got), np.signbit(ref))

    # off the support, evaluate gives +0.0 and no floating-point warning, also
    # where eta = B^T xi overflows or is nan
    family = Family(kind, 0.7 if kind == SHEARLET else None)
    for scale in (2.0 ** 600, 2.0 ** -600, 1.0):
        spec = GroupSpec(family, scale * np.eye(2))
        psi = default_wavelet(spec)
        lines = [(np.cos(a), np.sin(a)) for a in orbit_complement(spec).angles]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for xi in [(0.0, 0.0), *lines, (1e-320, 1e300), (1e300, 0.0), (np.inf, 1.0),
                       (np.nan, 0.0)]:
                value = psi.evaluate(*xi)
                assert value == 0.0 and not np.signbit(value), (scale, xi)

    # a scalar call equals its element of an array call (B = I)
    xi = eta[:200]
    values = psi.evaluate(xi[:, 0], xi[:, 1])
    assert np.count_nonzero(values) > 0
    for (x1, x2), v in zip(xi, values):
        assert psi.evaluate(x1, x2) == v


@pytest.mark.parametrize("family,angles", [
    (similitude(), ()), (diagonal(), (0.0, np.pi / 2)), (shearlet(0.7), (np.pi / 2,)),
], ids=KINDS)
def test_standard_complement_is_exact(family, angles):
    got = orbit_complement(GroupSpec(family)).angles
    assert [a.hex() for a in got] == [float(a).hex() for a in angles]


@pytest.mark.parametrize("family", [similitude(), diagonal(), shearlet(-1.3)], ids=KINDS)
def test_component_count_is_two_to_the_lines(family, rng):
    for b in [np.eye(2), *random_invertible(rng, 20)]:
        spec = GroupSpec(family, b)
        assert component_count(spec) == 2 ** len(orbit_complement(spec))


@pytest.mark.parametrize("kind", KINDS)
def test_records_are_read_only(kind):
    record = FAMILIES[kind]
    assert not record.orbit_samples.flags.writeable
    with pytest.raises(ValueError):
        record.orbit_samples[0] = 0.0
    assert record.orbit_samples.shape == (16, 2)
    with pytest.raises(dataclasses.FrozenInstanceError):
        record.components = 3
    with pytest.raises(TypeError):
        FAMILIES[kind] = record
