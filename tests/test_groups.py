import dataclasses
import pickle
from fractions import Fraction
from math import frexp, hypot, isfinite, ldexp, nextafter

import numpy as np
import pytest

from coorbit2d import (
    ChartMismatchError,
    DegenerateInputError,
    DiagonalChart,
    Family,
    GroupSpec,
    LineSet,
    ShearletChart,
    SimilitudeChart,
    SingularMatrixError,
    canonical_diagonal,
    canonical_shearlet,
    canonical_similitude,
    canonicalize,
    conjugate_spec,
    coorbit_equivalent,
    diagonal,
    element_from_chart,
    g_weight,
    haar_weight,
    orbit_complement,
    rep_group,
    rotation,
    same_group,
    shearlet,
    similitude,
)
from coorbit2d import groups
from coorbit2d.families import FAMILIES as RECORDS
from coorbit2d.groups import DEFAULT_TOL, checked_matrix, mod_pi
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


def _exact_inverse_is_finite(m):
    """Whether the exact inverse of a finite 2x2 float matrix rounds to finite floats."""
    if not np.isfinite(m).all():
        return False
    (a, b), (c, d) = (map(Fraction, row) for row in m.tolist())
    det = a * d - b * c
    try:  # int / int rounds correctly, and raises past the float range
        return det != 0 and all(np.isfinite(float(x / det)) for x in (a, b, c, d))
    except OverflowError:
        return False


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

    def test_subnormal_conjugator_that_lapack_cannot_invert_rejected(self):
        # column sine 0.707, but the inverse has entries 2^1074
        b = [[-5e-324, -5e-324], [-5e-324, 0.0]]
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.inv(b)
        for family in FAMILIES.values():
            with pytest.raises(SingularMatrixError, match="inverse"):
                GroupSpec(family, b)

    def test_accepted_exactly_where_the_inverse_is_finite(self, rng):
        # every column scaling 2^k, k in [-1074, 1023], of a few conjugators:
        # subnormal columns, inverses past the float range, and inf entries.
        # GroupSpec accepts exactly where the exact inverse rounds to finite
        # floats, and refuses wherever LAPACK cannot invert.  On subnormal
        # columns LAPACK's own inverse can overflow or stay finite wrongly,
        # so it is no reference there
        counts = {"accepted": 0, "refused": 0, "lapack raised": 0}
        for b in random_invertible(rng, 4):
            for k in range(-1074, 1024):
                t = np.ldexp(1.0, k)
                with np.errstate(over="ignore"):  # inf entries at the top of the range
                    scaled = (b * t, b * [t, 1.0], b * [1.0, t])
                for m in scaled:
                    try:
                        GroupSpec(diagonal(), m)
                    except SingularMatrixError:
                        accepted = False
                    else:
                        accepted = True
                    assert accepted == _exact_inverse_is_finite(m), m
                    counts["accepted" if accepted else "refused"] += 1
                    try:
                        with np.errstate(all="ignore"):
                            np.linalg.inv(m)
                    except np.linalg.LinAlgError:
                        assert not accepted, m
                        counts["lapack raised"] += 1
        assert all(counts.values()), counts

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


def _numpy_checked_matrix(m, name):
    """The numpy form of `checked_matrix` that the float check replaced,
    kept as the reference it must equal bit for bit."""
    a = np.array(m, dtype=float)
    if a.shape != (2, 2):
        raise ValueError(f"{name} must be 2x2, got shape {a.shape}")
    (a0, b0), (c0, d0) = a.tolist()
    e1, e2 = frexp(max(abs(a0), abs(c0)))[1], frexp(max(abs(b0), abs(d0)))[1]
    p, q, r, s = ldexp(a0, -e1), ldexp(b0, -e2), ldexp(c0, -e1), ldexp(d0, -e2)
    if not isfinite(p + q + r + s):
        raise SingularMatrixError(f"{name} has non-finite entries")
    det = abs(p * s - q * r)
    if not det:
        raise SingularMatrixError(f"{name} is singular")
    try:
        finite = (isfinite(ldexp(max(abs(q), abs(s)) / det, -e1))
                  and isfinite(ldexp(max(abs(p), abs(r)) / det, -e2)))
    except OverflowError:
        finite = False
    a.flags.writeable = False
    return a, det / (hypot(p, r) * hypot(q, s)), finite


def _check_outcome(check, m):
    """Accepted with the array bytes, sine (hex) and inverse flag, or refused
    with the error type and message."""
    try:
        a, sine, finite = check(m, "B")
    except ValueError as exc:
        return type(exc), str(exc)
    return a.tobytes(), a.dtype, a.flags.writeable, sine.hex(), finite


def _float_path_matrices(rng):
    """Over 10^4 seeded matrices at the edges of the float check."""
    out = list(rng.normal(size=(2000, 2, 2)))
    for b in rng.normal(size=(400, 2, 2)):  # column scalings 2^+-500
        for k1 in (-500, 0, 500):
            for k2 in (-500, 0, 500):
                out.append(b * np.ldexp(1.0, [k1, k2]))
    for b in rng.normal(size=(60, 2, 2)):  # subnormal columns, down to 5e-324
        for k in range(-1080, -1015, 4):
            out.append(b * np.ldexp(1.0, [k, 0]))
            out.append(np.ldexp(b, k))
    for k in range(-2000, 2001):  # the sine rule near DEFAULT_TOL
        out.append(np.array([[1.0, 1.0], [0.0, 1e-9 + k * 2e-18]]))
    special = (np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, 1.7976931348623157e308)
    for b in rng.normal(size=(100, 2, 2)):  # non-finite and extreme entries
        m = b.copy()
        m.flat[rng.integers(4)] = special[rng.integers(len(special))]
        out.append(m)
    for u, v in rng.normal(size=(200, 2, 2)):  # exact zero determinants
        k = rng.integers(-3, 4)
        out += [np.column_stack([u, np.ldexp(u, k)]), np.outer(u, [0.0, 1.0]),
                np.array([u, np.zeros(2)])]
    with np.errstate(all="ignore"):
        out += [np.array([[1e308, 1e308], [1e308, -1e308]]) * 10.0, np.zeros((2, 2))]
    # inputs the float path reads through np.array
    out += [m.tolist() for m in out[:200]]
    out += [[[1, 2], [3, 4]], np.array([[2, 0], [0, 3]]), np.eye(2, dtype=np.float32),
            np.eye(2).astype(">f8"), np.eye(2)[:, ::-1], np.eye(3), [1.0, 2.0]]
    return out


class TestFloatPath:
    """The classification path on B's four Python floats."""

    def test_check_equals_the_numpy_form_bit_for_bit(self, rng):
        matrices = _float_path_matrices(rng)
        assert len(matrices) >= 10_000
        seen = set()
        for m in matrices:
            want = _check_outcome(_numpy_checked_matrix, m)
            assert _check_outcome(checked_matrix, m) == want, m
            seen.add(want[1] if isinstance(want[0], type) else (want[-1], True))
        # every branch is reached: accepted with a finite and with an
        # infinite inverse, non-finite, singular and not 2x2
        assert {(True, True), (False, True), "B has non-finite entries", "B is singular",
                "B must be 2x2, got shape (3, 3)"} <= seen, seen

    def test_spec_keeps_the_checked_floats(self, rng):
        # GroupSpec accepts what the numpy form's rule accepts; its array is
        # the input's, read-only, and built once
        for m in _float_path_matrices(rng)[::7]:
            want = _check_outcome(_numpy_checked_matrix, m)
            ok = not isinstance(want[0], type) and want[-1] and float.fromhex(want[3]) > DEFAULT_TOL
            try:
                spec = GroupSpec(diagonal(), m)
            except ValueError:
                assert not ok, m
                continue
            assert ok, m
            b = spec.conjugator
            assert np.array_equal(b, np.array(m, dtype=float)) and b.dtype == float
            assert not b.flags.writeable and spec.conjugator is b
            assert spec.entries == tuple(np.array(m, dtype=float).ravel().tolist())

    def test_conjugate_spec_rounds_each_product_once(self, rng):
        for family in FAMILIES.values():
            for b, a in zip(random_invertible(rng, 300), random_invertible(rng, 300)):
                moved = conjugate_spec(GroupSpec(family, b), a)
                (a00, a01), (a10, a11) = a.tolist()
                (b00, b01), (b10, b11) = b.tolist()
                want = (a00 * b00 + a01 * b10, a00 * b01 + a01 * b11,
                        a10 * b00 + a11 * b10, a10 * b01 + a11 * b11)
                assert [x.hex() for x in moved.entries] == [x.hex() for x in want]

    def test_records_are_immutable_and_keep_their_value_semantics(self):
        spec = GroupSpec(shearlet(0.7), rotation(0.3))
        lines = LineSet((0.5, -0.25))
        cf = canonical_diagonal(0.5, 0.25)
        verdict = coorbit_equivalent(spec, spec)
        for record, name in ((spec, "conjugator"), (spec, "family"), (spec.family, "c"),
                             (lines, "angles"), (lines, "gap"), (cf, "s"),
                             (verdict, "equivalent")):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(record, name, None)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(record, name)
        # a spec is equal only to itself; the others compare by value
        assert spec != GroupSpec(shearlet(0.7), rotation(0.3)) and spec == spec
        assert lines == LineSet((0.5, mod_pi(-0.25))) and hash(lines) == hash(LineSet(lines.angles))
        assert lines != lines.angles and cf == canonical_diagonal(0.5, 0.25)
        assert spec.family == shearlet(0.7) and hash(spec.family) == hash(shearlet(0.7))
        assert spec.family != shearlet(0.8) and diagonal() != similitude()
        assert repr(spec.family) == "Family(kind='shearlet', c=0.7)"
        assert repr(lines) == f"LineSet(angles={lines.angles!r})"
        assert repr(verdict).startswith("EquivalenceVerdict(equivalent=True, "
                                        "component_counts=(2, 2), complements=(LineSet(")
        assert repr(spec) == f"GroupSpec(shearlet(c=0.7), conjugator={rotation(0.3).tolist()})"
        for record in (lines, cf, verdict.complements[0], spec.family):
            assert pickle.loads(pickle.dumps(record)) == record
        back = pickle.loads(pickle.dumps(spec))
        assert back.entries == spec.entries and back.family == spec.family


def _outcome(check, *args):
    """A check's result with its floats in hex, or its error type and text."""
    try:
        out = check(*args)
    except ValueError as exc:
        return type(exc), str(exc)
    if isinstance(out, tuple):
        return tuple([x.hex() if isinstance(x, float) else x for x in out])
    return out


def _both_paths(check, cases):
    """The outcomes of `check` on each case (a tuple of arguments), as it
    runs and with `_scale_free` false everywhere, so on the scaled path."""
    got = [_outcome(check, *args) for args in cases]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(groups, "_scale_free", lambda *entries: False)
        return got, [_outcome(check, *args) for args in cases]


# the edges of the scale-free range, each with its neighbour on the other side
_EDGES_IN = (groups._LO, nextafter(groups._HI, 0.0))
_EDGES_OUT = (nextafter(groups._LO, 0.0), groups._HI)


def _sweep_matrices():
    """60 random B (seed 7)."""
    return np.random.default_rng(7).normal(size=(60, 2, 2))


def _column_scalings(b):
    """B scaled by 2^k, k in [-1074, 1023], in both columns, the first or the
    second, as four floats."""
    t = np.ldexp(1.0, np.arange(-1074, 1024))[:, None, None]
    with np.errstate(over="ignore"):  # inf entries at the top of the range
        return [m for cols in ((1, 1), (1, 0), (0, 1))
                for m in (b * np.where(cols, t, 1.0)).reshape(-1, 4).tolist()]


def _special_entries(b):
    """B with one entry replaced by +-0, a subnormal, +-inf, nan or a value at
    either side of a range edge, as four floats."""
    out = []
    for i in range(4):
        for x in (0.0, 5e-324, 2.5e-310, np.inf, np.nan, *_EDGES_IN, *_EDGES_OUT):
            for sign in (1.0, -1.0):
                m = b.ravel().tolist()
                m[i] = sign * x
                out.append(m)
    return out


def _conjugator(entries):
    """Whether a GroupSpec accepts the four floats as its conjugator."""
    try:
        sine, finite = groups._checked(*entries, "B")
    except SingularMatrixError:
        return False
    return finite and sine > DEFAULT_TOL


class TestScaleFreePath:
    """`_checked` and `_similar` read B as it is where `_scale_free` holds,
    and must equal their column-scaled path bit for bit there."""

    def test_edges(self):
        for x in _EDGES_IN + (0.0, -0.0, 1.0, -3.5):
            assert groups._scale_free(x, 1.0, -x, 2.0) and groups._scale_free(1.0, 1.0, 1.0, -x)
        for x in _EDGES_OUT + (5e-324, np.inf, -np.inf, np.nan):
            for i in range(4):
                m = [1.0, 2.0, 3.0, 4.0]
                m[i] = -x if i % 2 else x
                assert not groups._scale_free(*m), m

    def test_check_equals_the_scaled_check(self):
        # the column-scaling sweep of 60 random B, and B with special entries
        spec = GroupSpec(diagonal())
        fast = {False: 0, True: 0}
        seen = set()
        for b in _sweep_matrices():
            scalings, special = _column_scalings(b), _special_entries(b)
            cases = [(*m, "B") for m in scalings + special]
            got, want = _both_paths(groups._checked, cases)
            assert got == want, b
            seen.update(w[1] for w in want)  # the inverse flag, or the refusal
            for m in scalings:
                fast[groups._scale_free(*m)] += 1
            # conjugate_spec refuses A exactly where checked_matrix does, on a
            # fifth of the scalings and every special entry
            for m in scalings[::5] + special:
                a = np.array(m).reshape(2, 2)
                refused = _outcome(checked_matrix, a, "A")
                moved = _outcome(conjugate_spec, spec, a)
                if isinstance(refused[0], type):
                    assert moved == refused, m
                elif isinstance(moved, tuple):  # refused as a conjugator, not as A
                    assert not moved[1].startswith("A "), m
        # both paths, and on the scaled one every outcome, are reached
        assert fast[True] > 70_000 and fast[False] > 300_000, fast
        assert {True, False, "B has non-finite entries", "B is singular"} <= seen, seen

    def test_similitude_test_equals_the_scaled_test(self, rng):
        # pairs B, B N' with N' at 0, tol / 3, 3 tol and 0.3 from a similarity
        # N, both scaled by 2^k in one or both columns (k across the float
        # range and near the range edges), at tolerances from 0 to 1e300
        tols = (0.0, 5e-324, 1e-300, 1e-200, 1e-9, 0.5, 2.0, 1e200, 1e300)
        ks = sorted({*range(-1074, 1024, 29), *range(-205, -194), *range(195, 206)})
        cases = []
        for b in random_invertible(rng, 4):
            for n in NORMALIZERS["similitude"]:
                for delta in (0.0, 1e-9 / 3, 3e-9, 0.3):
                    other = _moved_off("similitude", b, n, delta)
                    for k in ks:
                        for d in ((k, k), (k, 0), (0, k)):
                            s = np.ldexp(1.0, d)
                            with np.errstate(over="ignore"):
                                ea, eb = (b * s).ravel().tolist(), (other * s).ravel().tolist()
                            if _conjugator(ea) and _conjugator(eb):
                                cases += [(ea, eb, tol) for tol in tols]
        got, want = _both_paths(groups._similar, cases)
        assert got == want
        fast = sum(groups._scale_free(*ea) and groups._scale_free(*eb) for ea, eb, _ in cases)
        assert 5_000 < fast < len(cases) - 5_000, (fast, len(cases))
        assert 0 < sum(want) < len(want)


def _closed_form_complement(family, b):
    """The complement in closed form from the four floats of B;
    DegenerateInputError if its two lines lie within DEFAULT_TOL."""
    (p, q), (r, s) = b.tolist()
    return LineSet(RECORDS[family.kind].complement(p, q, r, s))


class TestStoredComplement:
    """The complement GroupSpec computes once, when it is built."""

    @staticmethod
    def _assert_bit_equal(spec):
        want = _closed_form_complement(spec.family, spec.conjugator).angles
        got = orbit_complement(spec).angles
        assert [a.hex() for a in got] == [a.hex() for a in want], spec

    def test_equals_the_closed_form_bit_for_bit(self, rng):
        scalings = [np.diag(np.ldexp(1.0, k)) for k in
                    ((500, 500), (-500, -500), (500, -500), (-500, 500), (500, 0), (0, -500))]
        for kind, family in FAMILIES.items():
            for b in [*REWRITES[kind], *random_invertible(rng, 200)]:
                for m in (np.eye(2), *scalings):
                    spec = GroupSpec(family, b @ m)
                    self._assert_bit_equal(spec)
                    for a in (rotation(0.7), B_UNIT_SHEAR, *random_invertible(rng, 2)):
                        self._assert_bit_equal(conjugate_spec(spec, a))

    def test_rep_group_specs_equal_the_closed_form_bit_for_bit(self, rng):
        forms = [canonical_similitude(),
                 *(canonical_diagonal(phi, s) for phi, s in
                   zip(rng.uniform(0.0, np.pi, 200), rng.uniform(0.0, 10.0, 200))),
                 *(canonical_shearlet(phi, c) for phi, c in
                   zip(rng.uniform(0.0, np.pi, 200), rng.uniform(-3.0, 3.0, 200)))]
        for cf in forms:
            self._assert_bit_equal(rep_group(cf))

    @pytest.mark.parametrize("which", ["unit-shear", "equal-rows"])
    def test_lines_within_tolerance_raise_at_decisions_not_at_construction(self, which):
        # near a column sine of DEFAULT_TOL the sine rule of the constructor
        # and LineSet's angle rule round apart; a B that passes the first and
        # fails the second is still built, and its complement, its verdicts
        # and its canonical form raise DegenerateInputError
        ref = GroupSpec(diagonal())
        built, degenerate_built = 0, 0
        for k in range(-2000, 2000):
            t = 1e-9 + k * 2e-18
            b = np.array([[1.0, 1.0], [0.0, t]] if which == "unit-shear"
                         else [[0.3, 0.3 + t], [1.1, 1.1]])
            _, sine, finite = checked_matrix(b, "B")
            try:
                spec = GroupSpec(diagonal(), b)
            except SingularMatrixError:
                assert not (sine > DEFAULT_TOL and finite), t
                continue
            assert sine > DEFAULT_TOL and finite, t
            built += 1
            try:
                _closed_form_complement(spec.family, b)
            except DegenerateInputError:
                degenerate = True
            else:
                degenerate = False
            for call in (lambda: orbit_complement(spec),
                         lambda: coorbit_equivalent(spec, ref),
                         lambda: coorbit_equivalent(ref, spec),
                         lambda: canonicalize(spec)):
                if degenerate:
                    with pytest.raises(DegenerateInputError):
                        call()
                else:
                    call()
            degenerate_built += degenerate
        # the unit shear reaches both sides of the two rules; every B with
        # equal rows has a column sine of about 0.85 t and is refused
        assert (degenerate_built > 0) if which == "unit-shear" else built == 0


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
            t = element_from_chart(spec, ShearletChart(1, lam_t[i, j], b_t[i, j]))
            assert np.diag(m) == pytest.approx(np.diag(t), rel=1e-12)
            assert m[0, 1] == pytest.approx(t[0, 1], rel=1e-10, abs=1e-12)
            assert m[1, 0] == 0.0

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


class TestLieAlgebra:
    def test_one_parameter_subgroups(self):
        # b exp(t X) b^-1 is the element at chart point base + t * step for
        # each Lie algebra basis element X
        from scipy.linalg import expm

        rot = np.array([[0.0, 1.0], [-1.0, 0.0]])
        nilpotent = np.array([[0.0, 1.0], [0.0, 0.0]])
        for family, b, base, generators in (
            (similitude(), np.eye(2), (0.0, 0.0),
             ((np.eye(2), (1.0, 0.0)), (rot, (0.0, 1.0)))),
            (diagonal(), np.eye(2), (0.0, 0.0, 1.0, 1.0),
             ((np.diag([1.0, 0.0]), (1.0, 0.0, 0.0, 0.0)),
              (np.diag([0.0, 1.0]), (0.0, 1.0, 0.0, 0.0)))),
            (shearlet(-0.8), B_UNIT_SHEAR, (1.0, 0.0, 0.0),
             ((np.diag([1.0, -0.8]), (0.0, 1.0, 0.0)), (nilpotent, (0.0, 0.0, 1.0)))),
        ):
            spec = GroupSpec(family, b)
            for x, step in generators:
                for t in (-0.7, 0.3, 1.1):
                    point = np.add(base, t * np.array(step))
                    np.testing.assert_allclose(
                        element_from_chart(spec, point),
                        b @ expm(t * x) @ np.linalg.inv(b), rtol=1e-12, atol=1e-14)


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

    @pytest.mark.parametrize("k", [-500, 500])
    def test_similitude_boundary_with_columns_far_apart_in_scale(self, k, rng):
        # B = b diag(2^k, 2^-k), its columns 2^1000 apart in scale; scaling a
        # whole conjugator by one factor would flush its small column's
        # products.  The normalizer elements here multiply exactly.  Against
        # B with its small column scaled by 1 + 2 g, M = B^-1 B' has
        # reflection part 2 g and rotation part 2 + 2 g (scaling the large
        # column would round it off the line of B's by more than tol)
        tol = 1e-9
        for b in [np.eye(2), *random_invertible(rng, 4)]:
            b = b @ np.diag(np.ldexp(1.0, [k, -k]))
            spec = GroupSpec(similitude(), b)
            for n in (SWAP, np.diag([2.0, -2.0]), [[0.0, 0.5], [-0.5, 0.0]]):
                assert same_group(spec, GroupSpec(similitude(), b @ n), tol)
            for gap, verdict in ((tol / 3, True), (3 * tol, False)):
                stretch = [1.0 + 2 * gap, 1.0] if k < 0 else [1.0, 1.0 + 2 * gap]
                other = GroupSpec(similitude(), b * stretch)
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


class TestInputChecks:
    def test_matrix_must_be_2x2(self):
        with pytest.raises(ValueError, match="B must be 2x2, got shape"):
            checked_matrix(np.eye(3), "B")

    def test_at_most_two_lines(self):
        with pytest.raises(ValueError, match="at most two lines"):
            LineSet((0.1, 0.5, 1.0))

    def test_line_sets_of_different_length_differ(self):
        one, two = LineSet((0.1,)), LineSet((0.1, 1.0))
        assert not one.equals(two)
        assert not two.equals(one)
        assert not LineSet(()).equals(one)

    @pytest.mark.parametrize("kind,c,message", [
        ("conic", None, "unknown family kind 'conic'"),
        ("shearlet", None, "shearlet family requires a finite exponent c"),
        ("shearlet", np.inf, "shearlet family requires a finite exponent c"),
        ("similitude", 1.0, "similitude family takes no exponent"),
        ("diagonal", 0.5, "diagonal family takes no exponent"),
    ])
    def test_family_kind_and_exponent(self, kind, c, message):
        with pytest.raises(ValueError, match=message):
            Family(kind, c)
