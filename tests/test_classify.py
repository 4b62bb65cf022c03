import argparse
import math

import numpy as np
import pytest

from coorbit2d import (
    CanonicalForm,
    DegenerateInputError,
    GroupSpec,
    LineSet,
    SingularMatrixError,
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
    rep_group,
    rotation,
    same_group,
    shear,
    shearlet,
    similitude,
    symmetry,
)
from coorbit2d.classify import angle_distance, mod_pi
from coorbit2d.cli import _TOLERANCE
from coorbit2d.groups import DEFAULT_TOL, valid_tolerance
from conftest import diagonal_spec_from_lines, random_invertible

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


# the standard directions whose lines make up each family's complement
STD_DIRECTIONS = {"similitude": [], "diagonal": [(1.0, 0.0), (0.0, 1.0)],
                  "shearlet": [(0.0, 1.0)]}
# agreement with the reference complement: 4 ulp of pi, absolute
ANGLE_ULPS = 4 * np.spacing(PI)


def _reference_complement(spec):
    """The complement as B^-T, inverted by LAPACK, moves the standard directions."""
    b_inv_t = np.linalg.inv(spec.conjugator).T
    return LineSet(tuple(np.arctan2(*(b_inv_t @ e)[::-1])
                         for e in STD_DIRECTIONS[spec.family.kind]))


class TestClosedFormComplement:
    """orbit_complement against the complement mapped by an inverse matrix."""

    @staticmethod
    def _assert_matches_reference(b):
        for family in (diagonal(), shearlet(0.7), similitude()):
            spec = GroupSpec(family, b)
            got, ref = orbit_complement(spec), _reference_complement(spec)
            assert len(got) == len(ref) and got.equals(ref, ANGLE_ULPS), (b, got, ref)

    def test_random_conjugators(self, rng):
        for b in rng.normal(size=(10_000, 2, 2)):
            self._assert_matches_reference(b)

    @pytest.mark.parametrize("k", [-900, 900])
    def test_conjugators_scaled_by_powers_of_two(self, rng, k):
        for b in random_invertible(rng, 50):
            for d in ((k, k), (k, 0), (0, k)):
                self._assert_matches_reference(b @ np.diag(np.ldexp(1.0, d)))

    @pytest.mark.parametrize("factor", [1.0 + 1e-6, 1.001, 1.1, 2.0])
    def test_column_sines_just_above_tolerance(self, rng, factor):
        # columns (1, 0) and (cos t, sin t), with sin t = factor * DEFAULT_TOL
        sine = factor * DEFAULT_TOL
        for phi, scale in zip(rng.uniform(0.0, 2.0 * PI, 20), np.exp(rng.uniform(-5, 5, 20))):
            b = rotation(phi) @ np.array([[1.0, np.sqrt(1.0 - sine * sine)],
                                          [0.0, sine]]) @ np.diag([1.0, scale])
            self._assert_matches_reference(b)

    @pytest.mark.parametrize("identity", [None, np.eye(2), [[1.0, 0.0], [0.0, 1.0]]],
                             ids=["default", "eye", "list"])
    def test_identity_gives_the_standard_angles_exactly(self, identity):
        args = () if identity is None else (identity,)
        assert orbit_complement(GroupSpec(diagonal(), *args)).angles == (0.0, PI / 2)
        assert orbit_complement(GroupSpec(shearlet(-2.0), *args)).angles == (PI / 2,)
        assert orbit_complement(GroupSpec(similitude(), *args)).angles == ()


class TestComponentCount:
    def test_counts(self, rng):
        assert component_count(GroupSpec(similitude())) == 1
        assert component_count(GroupSpec(diagonal(), random_invertible(rng))) == 4
        assert component_count(GroupSpec(shearlet(-1.0), rotation(0.3))) == 2


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
        # wide gaps; gaps just outside the s <= tol snap on both sides of
        # pi/2; gaps just above the LineSet limit, where s = cot(delta) is huge
        u = rng.uniform(1e-8, 1e-6, 100)
        gaps = np.concatenate([rng.uniform(0.05, PI - 0.05, 200), PI / 2 - u,
                               PI / 2 + u, rng.uniform(2e-9, 1e-6, 100)])
        for delta in gaps:
            a1 = rng.uniform(0, PI)
            lines = LineSet((a1, mod_pi(a1 + delta)))
            phi, s = lines_to_phi_s(lines)
            assert s > 1e-9, delta
            images = LineSet(
                tuple(
                    np.arctan2(*(rotation(phi) @ shear(s) @ v)[::-1])
                    for v in (np.array([1.0, 0.0]), np.array([0.0, 1.0]))
                )
            )
            assert images.equals(lines, 1e-9), delta

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

    def test_rep_group_is_math_on_floats(self, rng):
        # R_phi [[1, 0], [-s, 1]] from math.cos and math.sin, each entry a
        # sum of two rounded products; the numpy-built representative it
        # replaced (rotation and @) writes the same group
        n = 5000
        forms = [*map(canonical_diagonal, rng.uniform(0.0, PI, n), rng.uniform(1e-5, 10.0, n)),
                 *map(canonical_shearlet, rng.uniform(0.0, PI, n), rng.uniform(-3.0, 3.0, n))]
        for cf in forms:
            spec = rep_group(cf)
            c, s = math.cos(cf.phi), math.sin(cf.phi)
            if cf.kind == "diagonal":
                old = GroupSpec(diagonal(), rotation(cf.phi) @ [[1.0, 0.0], [-cf.s, 1.0]])
                (a00, a01, a10, a11), (b00, b01, b10, b11) = (c, s, -s, c), (1.0, 0.0, -cf.s, 1.0)
                want = (a00 * b00 + a01 * b10, a00 * b01 + a01 * b11,
                        a10 * b00 + a11 * b10, a10 * b01 + a11 * b11)
            else:
                old, want = GroupSpec(shearlet(cf.c), rotation(cf.phi)), (c, s, -s, c)
            assert [x.hex() for x in spec.entries] == [x.hex() for x in want], cf
            assert spec.family == old.family and same_group(spec, old, DEFAULT_TOL), cf
            back = canonicalize(spec)
            assert back.kind == cf.kind and angle_distance(back.phi, cf.phi) <= DEFAULT_TOL, cf
            if cf.kind == "diagonal":
                assert abs(back.s - cf.s) <= DEFAULT_TOL, cf
            else:
                assert back.c == cf.c, cf

    def test_rep_group_range_validation(self):
        for make, phi, second in ((canonical_diagonal, -0.1, 1.0),
                                  (canonical_diagonal, 0.2, -1.0),
                                  (canonical_diagonal, 0.1, np.nan),
                                  (canonical_diagonal, 0.1, np.inf),
                                  (canonical_shearlet, PI, 1.0)):
            with pytest.raises(ValueError):
                make(phi, second)


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

    def test_accepted_ill_conditioned_conjugator_self_equivalent(self):
        # |det B| / (|b1| |b2|) ~ 5e-9, just above the GroupSpec bound
        spec = GroupSpec(diagonal(), [[1.0, 1.0], [1.0, 1.0 + 1e-8]])
        assert coorbit_equivalent(spec, spec).equivalent

    def test_certificate_read_on_demand_matches_eager_reference(self, rng):
        pool = _spec_pool(rng, 200)
        eager = [canonicalize(s) for s in pool]

        def fields(cf):
            return cf.kind, *(None if v is None else float.hex(v)
                              for v in (cf.phi, cf.s, cf.c))

        def fmt(ls):
            return "{" + ", ".join(f"{a:.12g}" for a in ls.angles) + "}"

        def reason(s1, s2, tol=DEFAULT_TOL):
            c1, c2 = component_count(s1), component_count(s2)
            l1, l2 = orbit_complement(s1), orbit_complement(s2)
            if c1 != c2:
                return f"component counts differ: {c1} vs {c2}"
            if not l1.equals(l2, tol):
                return f"dual-orbit complements differ: {fmt(l1)} vs {fmt(l2)}"
            if c1 == 2:
                dc = abs(s1.family.c - s2.family.c)
                return (f"same complement line; shearlet exponents "
                        f"{s1.family.c:.12g} vs {s2.family.c:.12g} "
                        + ("agree" if dc <= tol else f"differ by {dc:.3g}"))
            return f"complements coincide and orbit has {c1} component(s)"

        for i, s1 in enumerate(pool):
            for j, s2 in enumerate(pool):
                v = coorbit_equivalent(s1, s2)
                assert [fields(cf) for cf in v.canonicals] == [fields(eager[i]),
                                                               fields(eager[j])]
                assert v.reason == reason(s1, s2)

    def test_lines_within_tol_raise_before_the_certificate_is_read(self):
        # complement lines 0.05 apart: no canonical form at tol 0.1, so the
        # verdict is refused, whichever side the spec is on
        spec = GroupSpec(diagonal(), [[1.0, np.cos(0.05)], [0.0, np.sin(0.05)]])
        other = GroupSpec(similitude())
        for s1, s2 in ((spec, spec), (spec, other), (other, spec)):
            with pytest.raises(DegenerateInputError):
                coorbit_equivalent(s1, s2, 0.1)
        with pytest.raises(DegenerateInputError):
            in_coorbit_symmetry(spec, np.eye(2), 0.1)
        assert coorbit_equivalent(spec, spec, 0.01).equivalent

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
            assert cf1.s == cf2.s == 0.0, (phi, gap)
            assert angle_distance(cf1.phi, cf2.phi) <= 1e-9, (phi, gap)


class TestNearEqualLines:
    """Complements that differ by d <= 9e-10 < tol, away from perpendicular.

    Through s = cot(theta), an angle gap d becomes an s gap of about
    d / sin(theta)^2, which mostly exceeds tol; the verdict must still
    follow the complements."""

    def test_fuzz_pairs_equivalent(self):
        rng = np.random.default_rng(20261018)
        for theta in (0.5, 0.1, 0.01):
            for _ in range(200):
                a1, d = rng.uniform(0.0, PI), 1e-10 + 8e-10 * (1.0 - rng.random())
                s1 = diagonal_spec_from_lines(a1, a1 + theta)
                s2 = diagonal_spec_from_lines(a1, a1 + theta + d)
                verdict = coorbit_equivalent(s1, s2)
                assert verdict.equivalent, (a1, theta, d)
                cf1, cf2 = verdict.canonicals
                assert angle_distance(cf1.phi, cf2.phi) <= 1e-9, (a1, theta, d)
                images = [orbit_complement(rep_group(cf)) for cf in (cf1, cf2)]
                assert images[0].equals(images[1], 1e-9), (a1, theta, d)


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


_BAD_TOLERANCES = [float("nan"), -1.0, -1e-300, float("inf"), -float("inf")]


class TestTolerance:
    @pytest.mark.parametrize("tol", _BAD_TOLERANCES)
    def test_every_decision_refuses_a_bad_tolerance(self, tol):
        for spec in (GroupSpec(similitude()), GroupSpec(diagonal()),
                     GroupSpec(shearlet(0.7))):
            for call in (lambda: canonicalize(spec, tol),
                         lambda: coorbit_equivalent(spec, spec, tol),
                         lambda: same_group(spec, spec, tol),
                         lambda: in_normalizer(spec, np.eye(2), tol),
                         lambda: in_coorbit_symmetry(spec, np.eye(2), tol),
                         lambda: in_orbit_symmetry(spec, np.eye(2), tol)):
                with pytest.raises(ValueError, match="tol"):
                    call()

    @pytest.mark.parametrize("tol", _BAD_TOLERANCES)
    def test_lines_to_phi_s_refuses_a_bad_tolerance(self, tol):
        # a nan tolerance gave the pair of lines a form; the tolerance is
        # refused before the count of lines is
        for lines in (LineSet((0, 1)), LineSet((0.3,)), LineSet(())):
            with pytest.raises(ValueError, match="tol must satisfy"):
                lines_to_phi_s(lines, tol)

    @pytest.mark.parametrize("tol", [*_BAD_TOLERANCES, 0.0, 5e-324, 1e-9, 1e308])
    def test_the_cli_flag_keeps_the_same_rule(self, tol):
        try:
            _TOLERANCE(repr(tol))
        except argparse.ArgumentTypeError:
            accepted = False
        else:
            accepted = True
        assert accepted == valid_tolerance(tol)


# A nearly singular A, and two whose inverse is not finite
_REFUSED_MATRICES = [[[1.0, 1.0], [1.0, 1.0 + 1e-12]], [[1e-310, 0.0], [0.0, 1.0]],
                     [[-5e-324, -5e-324], [-5e-324, 0.0]]]


def _ci_grid():
    """The spec and matrix sets of the CI classification steps, with the
    matrices conjugation refuses."""
    rng = np.random.default_rng(2201)
    conjugators = [np.eye(2), *rng.normal(size=(12, 2, 2)), 1e200 * rotation(0.4),
                   np.diag([1e-300, 1e300])]
    specs = [GroupSpec(f, b) for f in (similitude(), diagonal(), shearlet(0.7))
             for b in conjugators]
    specs += [rep_group(canonical_diagonal(2.6455835135848735, s))
              for s in (0.0, 7.4e-10, 0.5)]
    matrices = [np.eye(2), np.diag([2.0, -0.5]), [[0.0, 1.0], [1.0, 0.0]],
                [[1.0, 0.3], [0.0, 1.0]], 1e-3 * rotation(1.1),
                *rng.normal(size=(4, 2, 2)), *_REFUSED_MATRICES]
    return specs, matrices


def _outcome(call):
    """What a call returns, or the type and message of what it raises."""
    try:
        return call()
    except Exception as exc:  # noqa: BLE001 - the error is the outcome compared
        return type(exc), str(exc)


class TestSymmetryGroups:
    @pytest.mark.parametrize("family", [similitude(), diagonal(), shearlet(0.7)],
                             ids=lambda f: f.kind)
    @pytest.mark.parametrize("a", _REFUSED_MATRICES, ids=["near-singular",
                                                          "subnormal", "tiny"])
    def test_predicates_refuse_the_matrices_conjugation_refuses(self, family, a):
        spec = GroupSpec(family)
        with pytest.raises(SingularMatrixError):
            conjugate_spec(spec, a)
        for predicate in (in_normalizer, in_coorbit_symmetry, in_orbit_symmetry):
            with pytest.raises(SingularMatrixError):
                predicate(spec, a)

    @pytest.mark.parametrize("tol", [DEFAULT_TOL, 0.0, 0.3, np.nan])
    def test_symmetry_is_the_three_predicates(self, tol):
        # one conjugated spec answers all three, and a fault raises what the
        # first predicate to meet it raises
        specs, matrices = _ci_grid()
        raised = 0
        for spec in specs:
            for a in matrices:
                want = _outcome(lambda: tuple(
                    predicate(spec, a, tol)
                    for predicate in (in_normalizer, in_coorbit_symmetry, in_orbit_symmetry)))
                assert _outcome(lambda: symmetry(spec, a, tol)) == want, (spec, a)
                raised += isinstance(want[0], type)
        assert 0 < raised < len(specs) * len(matrices) or np.isnan(tol)

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

    def test_similitude_normalizer_under_a_shear_conjugator(self):
        # B (R(0.5) + 1e-8 E11) B^-1 with B = [[1, 2], [0, 1]] lies 10 tol off
        # the normalizer; the second matrix is B R(0.5) B^-1 itself
        spec = GroupSpec(similitude(), [[1.0, 2.0], [0.0, 1.0]])
        off = [[-0.0812685053180332, 2.397127673021015],
               [-0.479425538604203, 1.8364336390987788]]
        exact = [[-0.08126851531803325, 2.397127693021015],
                 [-0.479425538604203, 1.8364336390987788]]
        assert not in_normalizer(spec, off)
        assert in_normalizer(spec, exact)

    def test_normalizer_verdict_ignores_how_the_conjugator_is_written(self):
        # I and the axis scalings write the standard groups; each A moves the
        # invariant line e1 by 1e-7, 100 tol, so it is outside every normalizer
        for family, a, scalings in (
                (diagonal(), [[1.0, 1e-7], [0.0, 1.0]], ([1e3, 1.0], [1e6, 1.0])),
                (shearlet(0.7), [[1.0, 0.0], [1e-7, 1.0]], ([1.0, 1e3], [1.0, 1e6]))):
            for b in (np.eye(2), *map(np.diag, scalings)):
                spec = GroupSpec(family, b)
                assert not in_normalizer(spec, a)
                assert not in_orbit_symmetry(spec, a)

    @pytest.mark.parametrize("tol", [0.0, 1e-9])
    def test_inclusion_chain_at_the_boundary(self, tol, rng):
        # A = R(delta) B N B^-1 turns the invariant lines of a diagonal or
        # shearlet group by delta; for these families all three groups agree
        normalizers = {"diagonal": (diagonal(), SWAP @ np.diag([2.0, -0.5])),
                       "shearlet": (shearlet(-1.3), np.array([[1.5, -2.0], [0.0, -0.3]]))}
        for family, n in normalizers.values():
            for b in random_invertible(rng, 20):
                b = b @ np.diag([10.0 ** rng.uniform(-3, 3), 1.0])
                spec = GroupSpec(family, b)
                for delta in (0.0, 1e-9 / 3, 1e-9, 3e-9):
                    a = rotation(delta) @ b @ n @ np.linalg.inv(b)
                    n_h = in_normalizer(spec, a, tol)
                    s_h = in_coorbit_symmetry(spec, a, tol)
                    s_o = in_orbit_symmetry(spec, a, tol)
                    assert n_h == s_h == s_o

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


class TestInputChecks:
    def test_unknown_canonical_kind(self):
        with pytest.raises(ValueError, match="unknown canonical kind 'conic'"):
            CanonicalForm("conic")

    @pytest.mark.parametrize("kind,fields,name", [
        ("diagonal", {"phi": 0.1}, "s"), ("diagonal", {"s": 0.5}, "s"),
        ("shearlet", {"phi": 0.1}, "c"),
    ])
    def test_canonical_form_needs_its_parameters(self, kind, fields, name):
        with pytest.raises(ValueError, match=f"{kind} canonical form needs phi and {name}"):
            CanonicalForm(kind, **fields)

    def test_canonical_form_repr(self):
        assert repr(canonical_similitude()) == "Canonical(similitude)"
        assert repr(canonical_diagonal(0.5, 0.25)) == "Canonical(diagonal, phi=0.5, s=0.25)"
        assert repr(canonical_shearlet(0.5, -1.5)) == "Canonical(shearlet, phi=0.5, c=-1.5)"

    def test_shearlets_with_exponents_apart_are_not_the_same_group(self):
        spec = GroupSpec(shearlet(0.5))
        assert not same_group(spec, GroupSpec(shearlet(0.5 + 1e-6)))
        assert same_group(spec, GroupSpec(shearlet(0.5 + 1e-10)))
