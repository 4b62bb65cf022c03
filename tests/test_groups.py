import numpy as np
import pytest

from coorbit2d import (
    ChartMismatchError,
    DiagonalChart,
    GroupSpec,
    NotInGroupError,
    ShearletChart,
    SimilitudeChart,
    SingularMatrixError,
    canonicalize,
    chart_from_element,
    contains,
    coorbit_equivalent,
    diagonal,
    element_from_chart,
    g_weight,
    haar_weight,
    rotation,
    same_group,
    shearlet,
    similitude,
)
from coorbit2d.sampling import default_sampling
from conftest import random_invertible

B_UNIT_SHEAR = np.array([[1.0, 1.0], [0.0, 1.0]])
SWAP = np.array([[0.0, 1.0], [1.0, 0.0]])

# per family: elements N of the standard normalizer, and factors F such that
# B and B F write the same group
NORMALIZERS = {
    "similitude": [1.7 * rotation(0.9), 0.6 * rotation(2.0) @ np.diag([1.0, -1.0])],
    "diagonal": [np.diag([2.5, -0.4]), SWAP @ np.diag([-1.2, 3.0])],
    "shearlet": [np.array([[1.5, -2.0], [0.0, -0.3]])],
}
REWRITES = {
    "similitude": [np.eye(2), 1e3 * rotation(0.4), 1e-3 * rotation(2.0) @ np.diag([1.0, -1.0])],
    "diagonal": [np.eye(2), np.diag([1e3, 1.0]), SWAP @ np.diag([1.0, 1e-3])],
    "shearlet": [np.eye(2), np.diag([1.0, 1e3]), np.array([[1e-3, 5.0], [0.0, 2.0]])],
}
FAMILIES = {"similitude": similitude(), "diagonal": diagonal(), "shearlet": shearlet(0.7)}


def _moved_off(kind, b, n, delta):
    """Conjugator of a group delta away from the one B N writes.

    For similitude M = B^-1 B_b gains, relative to the conformal part N has,
    a part of the other kind of size delta; for the diagonal and shearlet
    families the invariant lines turn by delta.
    """
    if kind == "similitude":
        other = np.diag([1.0, -1.0]) if np.linalg.det(n) > 0 else np.eye(2)
        return b @ (n + delta * np.sqrt(abs(np.linalg.det(n))) * other)
    return rotation(delta) @ b @ n


def _moved_elements(kind, b, delta):
    """Elements delta off the group B H B^-1, one per invariant they break.

    Similitude: the reflection-scaling part of B^-1 m B is delta times its
    rotation-scaling part.  Diagonal and shearlet: a rotation by delta turns
    the invariant lines (it keeps det, so l2 = det m / l1 moves by O(delta^2));
    shearlet also: |l2| = |l1|^c (1 + delta).
    """
    binv = np.linalg.inv(b)
    if kind == "similitude":
        r = 1.3 * rotation(0.7)
        return [b @ (r + delta * r @ np.diag([1.0, -1.0])) @ binv]
    if kind == "diagonal":
        return [rotation(delta) @ b @ np.diag([1.4, -0.6]) @ binv]
    a, c = 1.6, FAMILIES[kind].c
    return [rotation(delta) @ b @ np.array([[a, 0.8], [0.0, a ** c]]) @ binv,
            b @ np.array([[a, 0.8], [0.0, a ** c * (1.0 + delta)]]) @ binv]


class TestGroupSpecConditioning:
    # |det B| / (|b1| |b2|) is about eps / 2 for [[1, 1], [1, 1 + eps]]; at
    # the scale 1e160 det itself evaluates to inf - inf = nan
    def test_nearly_singular_conjugator_rejected(self):
        for family in (similitude(), diagonal(), shearlet(1.0)):
            for b in ([[1.0, 1.0], [1.0, 1.0 + 1e-10]],
                      1e160 * np.array([[1.0, 1.0], [1.0, 1.0 + 1e-15]])):
                with pytest.raises(SingularMatrixError):
                    GroupSpec(family, b)

    def test_conjugator_with_non_finite_inverse_rejected(self):
        # well conditioned, but its inverse overflows to inf
        for family in FAMILIES.values():
            with pytest.raises(SingularMatrixError, match="inverse"):
                GroupSpec(family, [[1e-310, 0.0], [0.0, 1.0]])

    @pytest.mark.parametrize("kind", FAMILIES)
    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_rescaled_conjugator_writes_the_same_group(self, rng, kind, scale):
        family = FAMILIES[kind]
        for b in (np.eye(2), B_UNIT_SHEAR, random_invertible(rng)):
            spec, scaled = GroupSpec(family, b), GroupSpec(family, scale * b)
            assert same_group(spec, scaled) and same_group(scaled, spec)
            # the same form, up to the roundoff of scaling by a non-power of two
            cf, cf_scaled = canonicalize(spec), canonicalize(scaled)
            assert cf_scaled.kind == cf.kind
            assert [cf_scaled.phi, cf_scaled.s, cf_scaled.c] == pytest.approx(
                [cf.phi, cf.s, cf.c], rel=1e-14)
            other = GroupSpec(family, rotation(0.4) @ b)
            for s2 in (spec, other, GroupSpec(family, scale * other.conjugator)):
                assert (coorbit_equivalent(scaled, s2).equivalent
                        == coorbit_equivalent(spec, s2).equivalent)


class TestElementFromChart:
    def test_diagonal_identity(self):
        spec = GroupSpec(diagonal())
        m = element_from_chart(spec, DiagonalChart(0.0, 0.0, 1, 1))
        assert np.allclose(m, np.eye(2))

    def test_shearlet_direct_substitution(self):
        spec = GroupSpec(shearlet(1.0))
        m = element_from_chart(spec, ShearletChart(1, np.log(2.0), 3.0))
        assert np.allclose(m, [[2.0, 3.0], [0.0, 2.0]])

    def test_similitude_conjugated(self):
        spec = GroupSpec(similitude(), B_UNIT_SHEAR)
        m = element_from_chart(spec, SimilitudeChart(0.0, np.pi / 2))
        expected = B_UNIT_SHEAR @ np.array([[0.0, 1.0], [-1.0, 0.0]]) @ np.linalg.inv(B_UNIT_SHEAR)
        assert np.allclose(m, expected, atol=1e-14)

    @pytest.mark.parametrize("kernel", [element_from_chart, haar_weight, g_weight],
                             ids=lambda f: f.__name__)
    @pytest.mark.parametrize("family, point", [
        (diagonal(), SimilitudeChart(0.0, 0.0)),
        (similitude(), DiagonalChart(0.0, 0.0)),
        (shearlet(1.0), DiagonalChart(0.0, 0.0)),
        (similitude(), ShearletChart(1, 0.0, 0.0)),
        (diagonal(), np.zeros((5, 3))),
        (shearlet(1.0), np.ones((2, 3, 2))),
        (similitude(), 0.0),
    ], ids=["similitude-on-diagonal", "diagonal-on-similitude", "diagonal-on-shearlet",
            "shearlet-on-similitude", "stack-width-3-on-diagonal",
            "stack-width-2-on-shearlet", "scalar-on-similitude"])
    def test_chart_family_mismatch(self, family, point, kernel):
        with pytest.raises(ChartMismatchError):
            kernel(GroupSpec(family), point)

    def test_chart_round_trip(self, rng):
        specs = [
            GroupSpec(similitude(), random_invertible(rng)),
            GroupSpec(diagonal(), random_invertible(rng)),
            GroupSpec(shearlet(-0.6), random_invertible(rng)),
        ]
        for spec in specs:
            for _ in range(20):
                p = _random_chart(spec, rng)
                m = element_from_chart(spec, p)
                q = chart_from_element(spec, m)
                m2 = element_from_chart(spec, q)
                assert np.allclose(m, m2, rtol=1e-10, atol=1e-12)

    def test_chart_from_element_off_group(self):
        with pytest.raises(NotInGroupError):
            chart_from_element(GroupSpec(diagonal()), [[1.0, 0.5], [0.0, 1.0]])


def _random_chart(spec, rng):
    kind = spec.family.kind
    if kind == "similitude":
        return SimilitudeChart(rng.uniform(-1.5, 1.5), rng.uniform(0, 2 * np.pi))
    if kind == "diagonal":
        return DiagonalChart(
            rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5),
            rng.choice([1, -1]), rng.choice([1, -1]),
        )
    return ShearletChart(rng.choice([1, -1]), rng.uniform(-1.5, 1.5),
                         rng.uniform(-3, 3))


class TestWeights:
    def test_similitude_haar_flat(self, rng):
        spec = GroupSpec(similitude())
        for _ in range(5):
            p = _random_chart(spec, rng)
            assert haar_weight(spec, p) == 1.0

    def test_diagonal_haar_flat(self, rng):
        spec = GroupSpec(diagonal())
        assert haar_weight(spec, _random_chart(spec, rng)) == 1.0

    def test_shearlet_haar_values(self):
        spec = GroupSpec(shearlet(0.5))
        assert haar_weight(spec, ShearletChart(1, 0.0, 0.3)) == pytest.approx(1.0)
        assert haar_weight(spec, ShearletChart(1, np.log(2.0), 0.0)) == pytest.approx(0.5)

    def test_g_weight_values(self):
        sim = GroupSpec(similitude())
        assert g_weight(sim, SimilitudeChart(0.0, 1.0)) == pytest.approx(1.0)
        assert g_weight(sim, SimilitudeChart(np.log(2.0), 1.0)) == pytest.approx(0.25)
        shr = GroupSpec(shearlet(1.0))
        assert g_weight(shr, ShearletChart(1, np.log(2.0), 0.0)) == pytest.approx(1.0 / 8.0)

    def test_conjugation_does_not_change_density(self, rng):
        b = random_invertible(rng)
        p = ShearletChart(1, 0.4, -0.2)
        assert haar_weight(GroupSpec(shearlet(2.0), b), p) == pytest.approx(
            haar_weight(GroupSpec(shearlet(2.0)), p)
        )


class TestChartStacks:
    """The kernels on an (M, k) stack of chart rows against one row at a time."""

    CONJUGATED = [
        GroupSpec(similitude(), [[1.3, 0.7], [-0.4, 0.9]]),
        GroupSpec(diagonal(), [[1.3, 0.7], [-0.4, 0.9]]),
        # c = 0.7: a scalar ** rounds differently from the array loop
        GroupSpec(shearlet(0.7), [[1.3, 0.7], [-0.4, 0.9]]),
    ]

    @pytest.mark.parametrize("spec", CONJUGATED, ids=lambda s: s.family.kind)
    def test_stack_equals_rows_bit_for_bit(self, spec):
        points = default_sampling(spec).points
        mats = element_from_chart(spec, points)
        assert mats.shape == (len(points), 2, 2)
        rows = np.array([element_from_chart(spec, p) for p in points])
        assert np.array_equal(mats, rows)
        assert np.array_equal(np.signbit(mats), np.signbit(rows))
        for kernel in (haar_weight, g_weight):
            one = [kernel(spec, p) for p in points]
            assert all(type(w) is float for w in one)
            assert np.array_equal(kernel(spec, points), np.array(one))

    @pytest.mark.parametrize("spec", CONJUGATED, ids=lambda s: s.family.kind)
    def test_chart_from_element_names_the_row(self, spec):
        row = default_sampling(spec).points[7]
        point = chart_from_element(spec, element_from_chart(spec, row))
        assert element_from_chart(spec, point).shape == (2, 2)
        assert np.allclose(point, row, rtol=1e-12, atol=1e-12)

    # (family, a valid point, column, bad value): a non-finite value in every
    # column, and 0 or 2 as well in every sign column
    BAD_ENTRIES = [
        (family, good, j, bad)
        for family, good, signs in ((similitude(), (0.1, 0.2), ()),
                                    (diagonal(), (0.1, 0.2, 1, -1), (2, 3)),
                                    (shearlet(0.5), (-1, 0.1, 0.2), (0,)))
        for j in range(len(good))
        for bad in (np.nan, np.inf, -np.inf) + ((0, 2) if j in signs else ())
    ]

    @pytest.mark.parametrize("kernel", [element_from_chart, haar_weight, g_weight],
                             ids=lambda f: f.__name__)
    @pytest.mark.parametrize("family, good, column, bad", BAD_ENTRIES)
    def test_bad_coordinate_or_sign_rejected(self, family, good, column, bad, kernel):
        spec = GroupSpec(family)
        point = list(good)
        point[column] = bad
        kernel(spec, good)
        with pytest.raises(ValueError):
            kernel(spec, point)
        # one bad row spoils a stack
        with pytest.raises(ValueError):
            kernel(spec, [good, point, good])


def _bump1d(t):
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    m = np.abs(t) < 1
    out[m] = np.exp(1.0 - 1.0 / (1.0 - t[m] ** 2))
    return out


class TestLeftInvarianceOracle:
    """Quadrature oracle for the Haar densities.

    A left-invariant measure satisfies  sum w F(chart(g h_p)) = sum w F(chart(h_p))
    for smooth compactly supported F; midpoint quadrature of smooth compactly
    supported integrands converges superalgebraically, so the two sums agree
    to ~1e-10 iff the chart density is right.
    """

    def test_shearlet_haar_density(self):
        spec = GroupSpec(shearlet(0.7))
        n = 220
        lams, dl = np.linspace(-3, 3, n, endpoint=False, retstep=True)
        lams = lams + dl / 2
        bs, db = np.linspace(-6, 6, n, endpoint=False, retstep=True)
        bs = bs + db / 2
        lam, b = np.meshgrid(lams, bs, indexing="ij")
        a = np.exp(lam)

        def F(lam_, b_):
            return _bump1d(lam_ / 2.2) * _bump1d(b_ / 4.5)

        w = np.exp(-lam) * dl * db  # haar density in chart coordinates
        s_ref = np.sum(w * F(lam, b))

        a0, b0 = np.exp(0.4), 0.8  # left translation by g0 = (a0, b0)
        lam_t = lam + 0.4
        b_t = a0 * b + b0 * a ** 0.7
        s_tr = np.sum(w * F(lam_t, b_t))
        assert abs(s_tr - s_ref) / s_ref < 1e-9

        # spot check: the vectorized chart translation matches the matrix path
        g0 = element_from_chart(spec, ShearletChart(1, 0.4, b0))
        rng = np.random.default_rng(7)
        for _ in range(25):
            i, j = rng.integers(0, n, size=2)
            m = g0 @ element_from_chart(spec, ShearletChart(1, lam[i, j], b[i, j]))
            q = chart_from_element(spec, m)
            assert q.lam == pytest.approx(lam_t[i, j], rel=1e-12)
            assert q.shear == pytest.approx(b_t[i, j], rel=1e-10, abs=1e-12)

        # negative control: the flat density is not left invariant
        w_bad = np.ones_like(lam) * dl * db
        s_ref_bad = np.sum(w_bad * F(lam, b))
        s_tr_bad = np.sum(w_bad * F(lam_t, b_t))
        assert abs(s_tr_bad - s_ref_bad) / s_ref_bad > 0.05

    def test_group_measure_det_exponent(self):
        # The measure of R^2 x| H factors as dx dh/|det h|.  Under left
        # translation by (x0, h0) the x-integral picks up 1/|det h0| and the
        # h-marginal with weight haar/|det h| picks up |det h0|; the product
        # is invariant only for det-exponent one.
        spec = GroupSpec(shearlet(0.7))
        c = 0.7
        n = 200
        lams, dl = np.linspace(-3, 3, n, endpoint=False, retstep=True)
        lams = lams + dl / 2
        bs, db = np.linspace(-7, 7, n, endpoint=False, retstep=True)
        bs = bs + db / 2
        lam, b = np.meshgrid(lams, bs, indexing="ij")
        a = np.exp(lam)
        det = a ** (1.0 + c)

        def Fh(lam_, b_):
            return _bump1d(lam_ / 2.0) * _bump1d(b_ / 4.0)

        lam0, b0 = 0.5, -0.6
        a0 = np.exp(lam0)
        lam_t, b_t = lam + lam0, a0 * b + b0 * a ** c
        det0 = a0 ** (1.0 + c)

        xs, dx = np.linspace(-8, 8, 400, endpoint=False, retstep=True)
        xs = xs + dx / 2
        x1, x2 = np.meshgrid(xs, xs, indexing="ij")

        def Fx(u1, u2):
            return _bump1d(u1 / 3.0) * _bump1d(u2 / 3.0)

        h0 = element_from_chart(spec, ShearletChart(1, lam0, b0))
        x0 = np.array([0.7, -0.4])
        u1 = x0[0] + h0[0, 0] * x1 + h0[0, 1] * x2
        u2 = x0[1] + h0[1, 0] * x1 + h0[1, 1] * x2

        sx_ref = np.sum(Fx(x1, x2)) * dx * dx
        sx_tr = np.sum(Fx(u1, u2)) * dx * dx
        assert sx_tr * abs(np.linalg.det(h0)) == pytest.approx(sx_ref, rel=1e-9)

        for exponent, should_hold in ((1.0, True), (2.0, False)):
            w = np.exp(-lam) / det ** exponent * dl * db
            sh_ref = np.sum(w * Fh(lam, b))
            sh_tr = np.sum(w * Fh(lam_t, b_t))
            total_ref = sx_ref * sh_ref
            total_tr = sx_tr * sh_tr
            rel = abs(total_tr - total_ref) / total_ref
            if should_hold:
                assert rel < 1e-8
            else:
                assert rel > 0.5  # off by a factor |det h0|

    def test_g_weight_matches_invariant_exponent(self):
        spec = GroupSpec(shearlet(0.7))
        p = ShearletChart(1, 0.3, 1.2)
        h = element_from_chart(spec, p)
        assert g_weight(spec, p) == pytest.approx(
            haar_weight(spec, p) / abs(np.linalg.det(h)), rel=1e-12
        )


class TestContains:
    def test_diagonal_member(self):
        assert contains(GroupSpec(diagonal()), np.diag([3.0, -2.0]))

    def test_shearlet_power_law(self):
        spec = GroupSpec(shearlet(2.0))
        assert contains(spec, [[2.0, 5.0], [0.0, 4.0]])
        assert not contains(spec, [[2.0, 5.0], [0.0, 3.0]])

    def test_chart_points_are_members(self, rng):
        specs = [
            GroupSpec(similitude(), random_invertible(rng)),
            GroupSpec(diagonal(), random_invertible(rng)),
            GroupSpec(shearlet(1.3), random_invertible(rng)),
        ]
        for spec in specs:
            for _ in range(30):
                m = element_from_chart(spec, _random_chart(spec, rng))
                assert contains(spec, m)

    def test_non_members_rejected(self, rng):
        spec = GroupSpec(similitude())
        assert not contains(spec, B_UNIT_SHEAR)
        assert not contains(GroupSpec(diagonal()), rotation(0.3))

    @pytest.mark.parametrize("family, m", [
        (diagonal(), [[1.0, 1e-7], [0.0, 1.0]]),
        (shearlet(0.5), [[1.0, 0.0], [1e-7, 1.0]]),
    ], ids=["diagonal", "shearlet"])
    def test_rescaled_axis_keeps_the_verdict(self, family, m):
        # a shear of 100 tol moves an invariant line off itself
        for b in (np.eye(2), np.diag([1e3, 1.0]), np.diag([1.0, 1e3])):
            assert not contains(GroupSpec(family, b), m)

    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_scalar_member_at_extreme_scale(self, scale):
        # det of a shearlet element is formed after an exact power-of-two
        # scaling, so it neither overflows nor underflows
        for family in (similitude(), diagonal(), shearlet(1.0)):
            for b in (np.eye(2), B_UNIT_SHEAR):
                assert contains(GroupSpec(family, b), scale * np.eye(2))
        assert not contains(GroupSpec(shearlet(0.7)), scale * np.eye(2))

    @pytest.mark.parametrize("kind", sorted(FAMILIES))
    def test_sharp_membership_boundary(self, kind, rng):
        # an element tol / 3 off the group is in it, one 3 tol off is not,
        # whichever conjugator B F writes the group
        tol = 1e-9
        for b in [np.eye(2), B_UNIT_SHEAR, *random_invertible(rng, 8)]:
            for f in REWRITES[kind]:
                spec = GroupSpec(FAMILIES[kind], b @ f)
                for delta, verdict in ((tol / 3, True), (3 * tol, False)):
                    for m in _moved_elements(kind, b, delta):
                        assert contains(spec, m, tol) is verdict


class TestLieAlgebra:
    def test_one_parameter_subgroups(self):
        # exp(t X) stays in the group for each Lie algebra basis element X
        from scipy.linalg import expm

        rot = np.array([[0.0, 1.0], [-1.0, 0.0]])
        nilpotent = np.array([[0.0, 1.0], [0.0, 0.0]])
        for family, basis, b in (
            (similitude(), (np.eye(2), rot), np.eye(2)),
            (diagonal(), (np.diag([1.0, 0.0]), np.diag([0.0, 1.0])), np.eye(2)),
            (shearlet(-0.8), (np.diag([1.0, -0.8]), nilpotent), B_UNIT_SHEAR),
        ):
            spec = GroupSpec(family, b)
            for x in basis:
                for t in (-0.7, 0.3, 1.1):
                    assert contains(spec, b @ expm(t * x) @ np.linalg.inv(b), tol=1e-8)


class TestSameGroup:
    def test_normalizing_conjugator_gives_same_group(self):
        spec = GroupSpec(diagonal())
        swapped = GroupSpec(diagonal(), SWAP)
        assert same_group(spec, swapped)

    def test_rotated_diagonal_differs(self):
        assert not same_group(GroupSpec(diagonal()),
                              GroupSpec(diagonal(), rotation(0.3)))

    def test_families_differ(self):
        assert not same_group(GroupSpec(diagonal()), GroupSpec(similitude()))

    @pytest.mark.parametrize("kind", sorted(NORMALIZERS))
    def test_sharp_normalizer_boundary(self, kind, rng):
        # a group tol / 3 away is the same, one 3 tol away is not, whichever
        # conjugator writes the first spec
        tol = 1e-9
        for b in [np.eye(2), B_UNIT_SHEAR, *random_invertible(rng, 8)]:
            for f in REWRITES[kind]:
                spec = GroupSpec(FAMILIES[kind], b @ f)
                for n in NORMALIZERS[kind]:
                    assert same_group(spec, GroupSpec(spec.family, b @ n), tol)
                    for delta, verdict in ((tol / 3, True), (3 * tol, False)):
                        other = GroupSpec(spec.family, _moved_off(kind, b, n, delta))
                        assert same_group(spec, other, tol) is verdict

    def test_swapping_the_specs_keeps_the_verdict(self, rng):
        tol = 1e-9
        for kind, normalizers in NORMALIZERS.items():
            for b in random_invertible(rng, 10):
                spec = GroupSpec(FAMILIES[kind], b)
                for n in normalizers:
                    for delta in (0.0, 0.99 * tol, 1.01 * tol, 0.5):
                        other = GroupSpec(spec.family, _moved_off(kind, b, n, delta))
                        assert same_group(spec, other, tol) == same_group(other, spec, tol)
