import numpy as np
import pytest

from coorbit2d import (
    CertificateError,
    DegenerateInputError,
    GroupSpec,
    LineSet,
    canonical_diagonal,
    canonical_shearlet,
    canonical_similitude,
    canonicalize,
    component_count,
    conjugate_spec,
    coorbit_equivalent,
    diagonal,
    in_coorbit_symmetry,
    in_normalizer,
    in_orbit_symmetry,
    lines_to_phi_s,
    orbit_complement,
    orbit_contains,
    rep_group,
    rotation,
    same_group,
    shear,
    shearlet,
    similitude,
)
from coorbit2d.classify import angle_distance, canonical_equal, mod_pi
from conftest import random_invertible

SWAP = np.array([[0.0, 1.0], [1.0, 0.0]])
PI = np.pi


class TestOrbitComplement:
    def test_standard_diagonal_axes(self):
        comp = orbit_complement(GroupSpec(diagonal()))
        assert comp.angles == (0.0, PI / 2)

    def test_standard_shearlet_vertical_line(self):
        comp = orbit_complement(GroupSpec(shearlet(0.4)))
        assert comp.angles == (PI / 2,)

    def test_standard_similitude_empty(self):
        assert len(orbit_complement(GroupSpec(similitude()))) == 0

    def test_conjugated_diagonal(self):
        # conjugator (R_{pi/4} S_1)^-T moves the axes to angles {0, 3pi/4}
        b = np.linalg.inv((rotation(PI / 4) @ shear(1.0)).T)
        comp = orbit_complement(GroupSpec(diagonal(), b))
        assert comp.angles == pytest.approx((0.0, 3 * PI / 4), abs=1e-12)


class TestComponentCount:
    def test_counts(self, rng):
        assert component_count(GroupSpec(similitude())) == 1
        assert component_count(GroupSpec(diagonal(), random_invertible(rng))) == 4
        assert component_count(GroupSpec(shearlet(-1.0), rotation(0.3))) == 2


class TestOrbitContains:
    def test_origin_excluded(self):
        assert not orbit_contains(GroupSpec(similitude()), (0.0, 0.0))

    def test_axis_point_excluded_for_diagonal(self):
        assert not orbit_contains(GroupSpec(diagonal()), (1.0, 0.0))

    def test_shearlet_open_halfplane(self):
        assert orbit_contains(GroupSpec(shearlet(2.0)), (1.0, 5.0))

    def test_boundary_sampling_matches_complement(self, rng):
        spec = GroupSpec(diagonal(), random_invertible(rng))
        comp = orbit_complement(spec)
        for a in comp.angles:
            v = np.array([np.cos(a), np.sin(a)])
            assert not orbit_contains(spec, 1.7 * v)
            assert not orbit_contains(spec, -0.4 * v)
        for _ in range(50):
            z = rng.normal(size=2)
            on_lines = comp.distance_from(z) <= 1e-9 * np.linalg.norm(z)
            assert orbit_contains(spec, z) == (not on_lines)


class TestLinesToPhiS:
    def test_axes_are_fixed(self):
        phi, s = lines_to_phi_s(LineSet((0.0, PI / 2)))
        assert phi == 0.0 and s == pytest.approx(0.0, abs=1e-15)

    def test_sheared_pair(self):
        phi, s = lines_to_phi_s(LineSet((0.0, 3 * PI / 4)))
        assert phi == pytest.approx(PI / 4)
        assert s == pytest.approx(1.0)

    def test_perpendicular_tie_break_takes_smaller_phi(self):
        phi, s = lines_to_phi_s(LineSet((PI / 6, PI / 2 + PI / 6)))
        assert s == pytest.approx(0.0, abs=1e-12)
        assert phi == pytest.approx(PI / 3)

    def test_mapping_verifies(self, rng):
        for _ in range(200):
            a1 = rng.uniform(0, PI)
            a2 = mod_pi(a1 + rng.uniform(0.05, PI - 0.05))
            lines = LineSet((a1, a2))
            phi, s = lines_to_phi_s(lines)
            images = LineSet(
                tuple(
                    np.arctan2(*(rotation(phi) @ shear(s) @ v)[::-1])
                    for v in (np.array([1.0, 0.0]), np.array([0.0, 1.0]))
                )
            )
            assert images.equals(lines, 1e-9)

    def test_degenerate_rejected(self):
        with pytest.raises((DegenerateInputError, ValueError)):
            lines_to_phi_s(LineSet((0.3,)))


class TestCanonicalize:
    def test_similitude_any_conjugator(self, rng):
        for _ in range(10):
            spec = GroupSpec(similitude(), random_invertible(rng))
            assert canonicalize(spec).kind == "similitude"

    def test_diagonal_round_trip(self, rng):
        for _ in range(300):
            phi = rng.uniform(0, PI)
            s = rng.uniform(1e-5, 10.0)
            cf = canonical_diagonal(phi, s)
            back = canonicalize(rep_group(cf))
            assert angle_distance(back.phi, phi) < 1e-9
            assert back.s == pytest.approx(s, abs=1e-9, rel=1e-9)

    def test_shearlet_round_trip(self, rng):
        for _ in range(300):
            phi = rng.uniform(0, PI)
            c = rng.uniform(-3, 3)
            back = canonicalize(rep_group(canonical_shearlet(phi, c)))
            assert angle_distance(back.phi, phi) < 1e-9
            assert back.c == c

    def test_shearlet_rotated_conjugator(self):
        cf = canonicalize(GroupSpec(shearlet(2.0), rotation(0.7)))
        assert cf.phi == pytest.approx(0.7)
        assert cf.c == 2.0

    def test_perpendicular_phi_ambiguity_same_group(self):
        # at s = 0 both phi and phi + pi/2 describe the same group
        phi = 1.1
        cf = canonicalize(rep_group(canonical_diagonal(phi, 0.0)))
        assert cf.s == pytest.approx(0.0, abs=1e-12)
        assert min(angle_distance(cf.phi, phi),
                   angle_distance(cf.phi, phi + PI / 2)) < 1e-9
        assert same_group(rep_group(cf), rep_group(canonical_diagonal(phi, 0.0)))

    def test_rep_group_examples(self):
        assert rep_group(canonical_diagonal(0.0, 0.0)).is_standard
        conj = rep_group(canonical_diagonal(PI / 4, 1.0)).conjugator
        expected = rotation(PI / 4) @ np.array([[1.0, 0.0], [-1.0, 1.0]])
        assert np.allclose(conj, expected)
        sh = rep_group(canonical_shearlet(0.7, 2.0))
        assert np.allclose(sh.conjugator, rotation(0.7))
        assert sh.family.c == 2.0

    def test_rep_group_range_validation(self):
        with pytest.raises(ValueError):
            canonical_diagonal(-0.1, 1.0)
        with pytest.raises(ValueError):
            canonical_diagonal(0.2, -1.0)
        with pytest.raises(ValueError):
            canonical_shearlet(PI, 1.0)


class TestCoorbitEquivalent:
    def test_similitude_conjugates_equivalent(self, rng):
        for _ in range(10):
            b1, b2 = random_invertible(rng, 2)
            v = coorbit_equivalent(GroupSpec(similitude(), b1),
                                   GroupSpec(similitude(), b2))
            assert v.equivalent

    def test_shearlet_exponent_mismatch(self):
        v = coorbit_equivalent(GroupSpec(shearlet(1.0)), GroupSpec(shearlet(1.5)))
        assert not v.equivalent

    def test_diagonal_normalizer_factor(self, rng):
        a = rep_group(canonical_diagonal(0.8, 2.0)).conjugator
        d = SWAP @ np.diag([2.0, -3.0])
        v = coorbit_equivalent(GroupSpec(diagonal(), a), GroupSpec(diagonal(), a @ d))
        assert v.equivalent

    def test_verdict_carries_certificates(self):
        v = coorbit_equivalent(GroupSpec(diagonal()), GroupSpec(shearlet(1.0)))
        assert v.component_counts == (4, 2)
        assert len(v.complements[0]) == 2 and len(v.complements[1]) == 1
        assert not v.equivalent
        assert "component" in v.reason

    def test_conjugation_covariance(self, rng):
        pool = _spec_pool(rng, 12)
        for _ in range(40):
            s1 = pool[rng.integers(len(pool))]
            s2 = pool[rng.integers(len(pool))]
            a = random_invertible(rng)
            v1 = coorbit_equivalent(s1, s2)
            v2 = coorbit_equivalent(conjugate_spec(s1, a), conjugate_spec(s2, a))
            assert v1.equivalent == v2.equivalent

    def test_equivalence_relation(self, rng):
        pool = _spec_pool(rng, 200)
        n = len(pool)
        e = np.zeros((n, n), dtype=bool)
        for i in range(n):
            for j in range(n):
                v = coorbit_equivalent(pool[i], pool[j])
                e[i, j] = v.equivalent
                # necessity: equivalent verdicts always carry equal complements
                if v.equivalent:
                    assert v.complements[0].equals(v.complements[1], 1e-9)
        assert np.all(np.diag(e))           # reflexive
        assert np.array_equal(e, e.T)        # symmetric
        reach = (e.astype(int) @ e.astype(int)) > 0
        assert np.all(e[reach])              # transitive


# ROADMAP reproducer: s = 7.4e-10 sits inside tol = 1e-9 of the perpendicular
# pair, and the two canonical phi values used to differ by pi/2
NEAR_PERP_PHI, NEAR_PERP_GAP = 2.6455835135848735, 7.4e-10


class TestNearPerpendicular:
    def test_reproducer_equivalent_with_equal_canonicals(self):
        a = rep_group(canonical_diagonal(NEAR_PERP_PHI, 0.0))
        b = rep_group(canonical_diagonal(NEAR_PERP_PHI, NEAR_PERP_GAP))
        verdict = coorbit_equivalent(a, b)
        assert verdict.equivalent
        cf1, cf2 = verdict.canonicals
        assert cf1.s == 0.0 and cf2.s == 0.0
        assert angle_distance(cf1.phi, cf2.phi) <= 1e-9
        assert cf1.phi == pytest.approx(NEAR_PERP_PHI - PI / 2, abs=1e-9)

    def test_snapped_phi_lies_in_quarter_turn(self):
        phi, s = lines_to_phi_s(LineSet((0.4, 0.4 + PI / 2 - 5e-10)))
        assert s == 0.0
        assert 0.0 <= phi < PI / 2
        assert angle_distance(phi, PI / 2 - 0.4) <= 1e-9

    def test_phi_within_tol_of_quarter_turn_maps_to_zero(self):
        phi, s = lines_to_phi_s(LineSet((1e-10, PI / 2 + 1e-10)))
        assert (phi, s) == (0.0, 0.0)

    def test_fuzz_pairs_inside_tolerance(self):
        rng = np.random.default_rng(20251017)
        for _ in range(1000):
            phi, gap = rng.uniform(0.0, PI), rng.uniform(1e-10, 1e-9)
            a = rep_group(canonical_diagonal(phi, 0.0))
            b = rep_group(canonical_diagonal(phi, gap))
            verdict = coorbit_equivalent(a, b)
            assert verdict.equivalent, (phi, gap)
            cf1, cf2 = verdict.canonicals
            assert canonical_equal(cf1, cf2), (phi, gap)
            assert angle_distance(cf1.phi, cf2.phi) <= 1e-9, (phi, gap)

    def test_contradicting_certificate_raises(self, monkeypatch):
        import coorbit2d.classify as classify

        monkeypatch.setattr(classify, "canonical_equal", lambda *a, **k: False)
        spec = GroupSpec(diagonal())
        with pytest.raises(CertificateError):
            classify.coorbit_equivalent(spec, spec)


def _spec_pool(rng, n):
    """Random specs with deliberate coincidences (normalizer-twisted twins)."""
    pool = []
    while len(pool) < n:
        kind = rng.integers(3)
        b = random_invertible(rng)
        if kind == 0:
            spec = GroupSpec(similitude(), b)
        elif kind == 1:
            spec = GroupSpec(diagonal(), b)
        else:
            spec = GroupSpec(shearlet(float(rng.uniform(-2, 2))), b)
        pool.append(spec)
        if len(pool) < n and rng.random() < 0.4:
            if kind == 0:
                twin = GroupSpec(similitude(), random_invertible(rng))
            elif kind == 1:
                d = SWAP @ np.diag(rng.choice([1.5, -2.0, 0.5], size=2))
                twin = GroupSpec(diagonal(), b @ d)
            else:
                t = np.triu(rng.normal(size=(2, 2)))
                while abs(np.linalg.det(t)) < 0.1:
                    t = np.triu(rng.normal(size=(2, 2)))
                twin = GroupSpec(spec.family, b @ t)
            pool.append(twin)
    return pool[:n]


class TestSymmetryGroups:
    def test_similitude_orbit_symmetry_everything(self, rng):
        spec = GroupSpec(similitude())
        for _ in range(20):
            assert in_orbit_symmetry(spec, random_invertible(rng))

    def test_diagonal_swap_in_all_three(self):
        spec = GroupSpec(diagonal())
        assert in_normalizer(spec, SWAP)
        assert in_coorbit_symmetry(spec, SWAP)
        assert in_orbit_symmetry(spec, SWAP)

    def test_shearlet_rotation_not_orbit_symmetric(self):
        assert not in_orbit_symmetry(GroupSpec(shearlet(1.0)), rotation(0.3))

    def test_shearlet_upper_triangular_coorbit(self):
        spec = GroupSpec(shearlet(0.7))
        assert in_coorbit_symmetry(spec, np.array([[2.0, 1.5], [0.0, -0.5]]))

    def test_similitude_normalizer(self):
        spec = GroupSpec(similitude())
        assert in_normalizer(spec, np.diag([1.0, -1.0]))
        assert not in_normalizer(spec, np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_diagonal_rotation_not_coorbit(self):
        assert not in_coorbit_symmetry(GroupSpec(diagonal()), rotation(0.2))

    def test_inclusion_chain(self, rng):
        specs = [
            GroupSpec(similitude()),
            GroupSpec(diagonal()),
            GroupSpec(shearlet(1.4)),
            GroupSpec(diagonal(), random_invertible(rng)),
        ]
        mats = [random_invertible(rng) for _ in range(200)]
        mats += [np.diag(rng.choice([2.0, -1.5], size=2)) for _ in range(10)]
        mats += [SWAP @ np.diag([1.0, 3.0]), np.triu(rng.normal(size=(2, 2))) + np.eye(2)]
        for spec in specs:
            for a in mats:
                if abs(np.linalg.det(a)) < 1e-6:
                    continue
                n_h = in_normalizer(spec, a)
                s_h = in_coorbit_symmetry(spec, a)
                s_o = in_orbit_symmetry(spec, a)
                assert (not n_h) or s_h
                assert (not s_h) or s_o
