import dataclasses

import numpy as np
import pytest

from coorbit2d import (
    GroupSpec,
    component_count,
    diagonal,
    orbit_complement,
    shearlet,
    similitude,
)
from coorbit2d.families import DIAGONAL, FAMILIES, SHEARLET, SIMILITUDE
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


def _random_points(kind, rng, n):
    """n frequencies eta with log-scales spread a little past the support."""
    t = rng.uniform(-1.05, 1.05, (n, 2))
    mags = 2.0 ** t
    signs = rng.choice([-1.0, 1.0], (n, 2))
    if kind == SIMILITUDE:
        ang = rng.uniform(0.0, 2.0 * np.pi, n)
        return np.stack([mags[:, 0] * np.cos(ang), mags[:, 0] * np.sin(ang)], 1)
    if kind == DIAGONAL:
        return signs * mags
    eta1 = signs[:, 0] * mags[:, 0]
    return np.stack([eta1, eta1 * rng.uniform(-1.05, 1.05, n)], 1)


@pytest.mark.parametrize("kind", KINDS)
def test_every_point_of_the_profile_support_lies_in_one_piece(kind, rng):
    record = FAMILIES[kind]
    eta = np.concatenate([_random_points(kind, rng, 100_000), _edge_points(kind, rng)])
    e1, e2 = eta[:, 0].copy(), eta[:, 1].copy()
    mask, values = record.profile(e1, e2, np.empty_like(e1))
    profile = np.zeros(len(eta))
    profile[mask] = values
    g, b = record.pieces
    inside = np.all(np.einsum("pkj,nj->npk", g, eta) < b, axis=2)  # (n, pieces)
    pieces_hit = inside.sum(axis=1)
    assert np.count_nonzero(profile) > 10_000
    assert np.all(pieces_hit[profile != 0.0] == 1)
    assert np.all(pieces_hit <= 1)


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
    for a in (*record.pieces, record.orbit_samples):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 0.0
    assert record.orbit_samples.shape == (16, 2)
    with pytest.raises(dataclasses.FrozenInstanceError):
        record.components = 3
    with pytest.raises(TypeError):
        FAMILIES[kind] = record
