"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with  pytest tests/test_acceptance.py -v -s  to see the per-criterion
summary lines alongside the pytest verdicts.
"""

import time

import numpy as np
import pytest

from coorbit2d import (
    CoverageWarning,
    GroupSpec,
    canonical_diagonal,
    canonical_shearlet,
    canonicalize,
    calderon_constant,
    coorbit_equivalent,
    coorbit_norm,
    diagonal,
    diagonal_sampling,
    freq_bump,
    in_coorbit_symmetry,
    in_normalizer,
    in_orbit_symmetry,
    invert,
    norm_ratio_profile,
    rep_group,
    rotation,
    shearlet,
    shearlet_sampling,
    similitude,
    similitude_sampling,
    wave_packet,
)
from coorbit2d.classify import angle_distance
from coorbit2d.groups import DiagonalChart, ShearletChart, SimilitudeChart
from coorbit2d.transform import analyze
from conftest import covariance_residual

SWAP = np.array([[0.0, 1.0], [1.0, 0.0]])
PI = np.pi


def _report(criterion, ok, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def _random_invertible(rng, min_det=0.1):
    while True:
        m = rng.normal(size=(2, 2))
        if abs(np.linalg.det(m)) >= min_det:
            return m


# ---------------------------------------------------------------------------
# criterion 1: canonical round trips


def test_criterion_1_canonical_round_trip():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst_d = 0.0
    for _ in range(1000):
        phi = rng.uniform(0.0, PI)
        s = rng.uniform(0.0, 10.0)
        while PI / 2 - np.arctan2(1.0, s) < 1e-6:  # theta away from pi/2
            s = rng.uniform(0.0, 10.0)
        back = canonicalize(rep_group(canonical_diagonal(phi, s)))
        worst_d = max(worst_d, angle_distance(back.phi, phi), abs(back.s - s))
    worst_s = 0.0
    for _ in range(1000):
        phi = rng.uniform(0.0, PI)
        c = rng.uniform(-3.0, 3.0)
        back = canonicalize(rep_group(canonical_shearlet(phi, c)))
        worst_s = max(worst_s, angle_distance(back.phi, phi), abs(back.c - c))
    elapsed = time.perf_counter() - t0
    ok = worst_d <= 1e-9 and worst_s <= 1e-9 and elapsed < 1.0
    _report(1, ok,
            f"diagonal worst {worst_d:.2e}, shearlet worst {worst_s:.2e}, "
            f"runtime {elapsed:.2f}s (< 1 s)")


# ---------------------------------------------------------------------------
# criterion 2: equivalence truth table


def test_criterion_2_truth_table():
    rng = np.random.default_rng(202)
    b1, b2, b3 = (_random_invertible(rng) for _ in range(3))
    a_phi_s = rep_group(canonical_diagonal(0.8, 2.0)).conjugator
    cases = [
        # (i) similitude conjugates are always equivalent
        ("sim random conjugates", GroupSpec(similitude(), b1),
         GroupSpec(similitude(), b2), True),
        ("sim identity vs rotated-scaled", GroupSpec(similitude()),
         GroupSpec(similitude(), rotation(0.5) @ np.diag([3.0, 1.0])), True),
        # (ii) diagonal: equivalent iff complement line pairs match
        ("diag normalizer factor", GroupSpec(diagonal(), a_phi_s),
         GroupSpec(diagonal(), a_phi_s @ SWAP @ np.diag([2.0, -3.0])), True),
        ("diag swap", GroupSpec(diagonal()),
         GroupSpec(diagonal(), SWAP), True),
        ("diag extra rotation", GroupSpec(diagonal(), a_phi_s),
         GroupSpec(diagonal(), a_phi_s @ rotation(0.2)), False),
        ("diag rotated vs standard", GroupSpec(diagonal()),
         GroupSpec(diagonal(), rotation(0.2)), False),
        # (iii) shearlet: same c and same complement line
        ("shear upper-triangular factor", GroupSpec(shearlet(1.0), rotation(0.9)),
         GroupSpec(shearlet(1.0), rotation(0.9) @ np.array([[2.0, 1.0], [0.0, -0.5]])),
         True),
        ("shear exponent off by 1e-3", GroupSpec(shearlet(1.0)),
         GroupSpec(shearlet(1.0 + 1e-3)), False),
        ("shear rotations 0 vs pi/4", GroupSpec(shearlet(1.0)),
         GroupSpec(shearlet(1.0), rotation(PI / 4)), False),
        # (iv) cross-family pairs never equivalent
        ("sim vs diag", GroupSpec(similitude(), b1), GroupSpec(diagonal(), b2), False),
        ("sim vs shear", GroupSpec(similitude(), b2),
         GroupSpec(shearlet(1.0), b3), False),
        ("diag vs shear", GroupSpec(diagonal(), b3),
         GroupSpec(shearlet(0.5), b1), False),
    ]
    assert len(cases) == 12
    failures = []
    for label, s1, s2, expected in cases:
        verdict = coorbit_equivalent(s1, s2)
        if verdict.equivalent != expected:
            failures.append(label)
        # decisions must be symmetric
        if coorbit_equivalent(s2, s1).equivalent != expected:
            failures.append(label + " (sym)")
    _report(2, not failures,
            f"12 golden cases exact" if not failures else f"failed: {failures}")


# ---------------------------------------------------------------------------
# criterion 3: symmetry lemma and inclusion chain


def test_criterion_3_symmetry_lemma_and_chain():
    rng = np.random.default_rng(303)
    specs = {
        "similitude": GroupSpec(similitude()),
        "diagonal": GroupSpec(diagonal()),
        "shearlet": GroupSpec(shearlet(1.7)),
    }
    chain_violations = 0
    closed_form_mismatches = 0
    n_random = 1000
    for name, spec in specs.items():
        mats = [_random_invertible(rng) for _ in range(n_random)]
        # structured extras keep the positive branches exercised
        mats += [np.diag([2.0, -0.5]), SWAP @ np.diag([1.5, 1.0]),
                 np.array([[1.2, 0.7], [0.0, -2.0]]), np.eye(2)]
        for a in mats:
            n_h = in_normalizer(spec, a)
            s_h = in_coorbit_symmetry(spec, a)
            s_o = in_orbit_symmetry(spec, a)
            if (n_h and not s_h) or (s_h and not s_o):
                chain_violations += 1
            if name == "similitude":
                expected = True
            elif name == "diagonal":
                scale = np.max(np.abs(a))
                is_diag = max(abs(a[0, 1]), abs(a[1, 0])) <= 1e-9 * scale
                is_anti = max(abs(a[0, 0]), abs(a[1, 1])) <= 1e-9 * scale
                expected = is_diag or is_anti
            else:
                expected = abs(a[1, 0]) <= 1e-9 * np.max(np.abs(a))
            if s_h != expected:
                closed_form_mismatches += 1
    ok = chain_violations == 0 and closed_form_mismatches == 0
    _report(3, ok,
            f"{n_random} random matrices per family: "
            f"{chain_violations} chain violations, "
            f"{closed_form_mismatches} closed-form mismatches")


# ---------------------------------------------------------------------------
# criteria 4 and 5: isometry and inversion (shared pipelines)


@pytest.fixture(scope="module")
def isometry_results():
    configs = {
        "similitude": dict(
            spec=GroupSpec(similitude()),
            sampling=lambda s: similitude_sampling(s, (-2.0, 2.0), 32, 32),
            center=(1.0, 0.4), sigma=0.12,
        ),
        "diagonal": dict(
            spec=GroupSpec(diagonal()),
            sampling=lambda s: diagonal_sampling(s, (-2.0, 2.0), 20),
            center=(0.9, 0.9), sigma=0.1,
        ),
        "shearlet(c=1)": dict(
            spec=GroupSpec(shearlet(1.0)),
            sampling=lambda s: shearlet_sampling(s, (-2.0, 2.0), 20, (-5.0, 5.0), 80),
            center=(1.1, 0.1), sigma=0.1,
        ),
    }
    results = {}
    for name, cfg in configs.items():
        t0 = time.perf_counter()
        spec = cfg["spec"]
        sampling = cfg["sampling"](spec)
        f = freq_bump(128, 16.0, center=cfg["center"], sigma=cfg["sigma"])
        cal = calderon_constant(spec, sampling)
        slab = analyze(f.signal, spec, sampling)
        w2 = coorbit_norm(slab, 2.0)
        iso_err = abs(w2 ** 2 / (cal.mean * f.signal.norm_l2() ** 2) - 1.0)
        rec = invert(slab, spec, cal.mean)
        inv_err = float(
            np.sqrt(np.sum(np.abs(rec.data - f.signal.data) ** 2)
                    / np.sum(np.abs(f.signal.data) ** 2))
        )
        results[name] = {
            "isometry_error": iso_err,
            "inversion_error": inv_err,
            "runtime": time.perf_counter() - t0,
            "planes": len(sampling),
        }
        del slab, rec
    return results


def test_criterion_4_l2_isometry(isometry_results):
    details = []
    ok = True
    for name, r in isometry_results.items():
        details.append(f"{name}: |ratio-1|={r['isometry_error']:.2e} "
                       f"({r['planes']} planes, {r['runtime']:.1f}s)")
        ok = ok and r["isometry_error"] <= 5e-2 and r["runtime"] < 30.0
    _report(4, ok, "; ".join(details))


def test_criterion_5_inversion(isometry_results):
    details = []
    ok = True
    for name, r in isometry_results.items():
        details.append(f"{name}: rel L2 err={r['inversion_error']:.2e}")
        ok = ok and r["inversion_error"] <= 5e-2
    _report(5, ok, "; ".join(details))


# ---------------------------------------------------------------------------
# criterion 6: Calderon constancy


def test_criterion_6_calderon_constancy():
    fine = {
        "similitude": (GroupSpec(similitude()),
                       lambda s: similitude_sampling(s, (-2.0, 2.0), 64, 64)),
        "diagonal": (GroupSpec(diagonal()),
                     lambda s: diagonal_sampling(s, (-2.0, 2.0), 32)),
        "shearlet(c=1)": (GroupSpec(shearlet(1.0)),
                          lambda s: shearlet_sampling(s, (-2.0, 2.0), 32,
                                                      (-5.0, 5.0), 128)),
    }
    details = []
    ok = True
    for name, (spec, make) in fine.items():
        cal = calderon_constant(spec, make(spec))
        details.append(f"{name}: dev={cal.max_rel_deviation:.2e}")
        ok = ok and cal.max_rel_deviation <= 1e-2
    # negative control: truncated scale range varies with the sample radius
    spec = GroupSpec(similitude())
    trunc = similitude_sampling(spec, (-0.3, 0.3), 8, 16)
    cal = calderon_constant(spec, trunc)
    details.append(f"truncated control dev={cal.max_rel_deviation:.2f}")
    ok = ok and cal.max_rel_deviation > 0.5
    _report(6, ok, "; ".join(details))


# ---------------------------------------------------------------------------
# criterion 7: covariance identity


def test_criterion_7_covariance():
    # per family: spec, bump center, identity, h, unimodular and scaling charts
    cases = {
        "similitude": (GroupSpec(similitude()), (1.0, 0.3), SimilitudeChart(0.0, 0.0),
                       SimilitudeChart(0.2, 0.8), SimilitudeChart(0.0, PI / 2),
                       SimilitudeChart(0.25, 0.3)),
        "diagonal": (GroupSpec(diagonal()), (0.9, 0.9), DiagonalChart(0.0, 0.0),
                     DiagonalChart(0.15, -0.2), DiagonalChart(0.0, 0.0, 1, -1),
                     DiagonalChart(0.3, -0.25)),
        "shearlet(c=0.7)": (GroupSpec(shearlet(0.7)), (1.1, 0.1), ShearletChart(1, 0.0, 0.0),
                            ShearletChart(1, 0.2, 0.4), ShearletChart(1, 0.0, 1.0),
                            ShearletChart(1, 0.3, 0.0)),
    }
    n, length = 128, 16.0
    dx = length / n
    details = []
    ok = True
    for name, (spec, center, identity, h_chart, dilation_chart,
               scaling_chart) in cases.items():
        f = freq_bump(n, length, center=center, sigma=0.14)
        r_id = covariance_residual(f, (0.0, 0.0), identity, h_chart, spec)
        r_tr = covariance_residual(f, (5 * dx, -3 * dx), identity, h_chart, spec)
        r_dil = covariance_residual(f, (0.3, -0.7), dilation_chart, h_chart, spec)
        r_scale = covariance_residual(f, (0.0, 0.0), scaling_chart, h_chart, spec)
        details.append(
            f"{name}: id={r_id:.1e} shift={r_tr:.1e} dil={r_dil:.1e} "
            f"[scaling, reported only: {r_scale:.1e}]"
        )
        ok = ok and r_id == 0.0 and r_tr <= 1e-10 and r_dil <= 1e-8
    _report(7, ok, "; ".join(details))


# ---------------------------------------------------------------------------
# criterion 8: exploratory norm-ratio profiling (reported, non-gating)


def test_criterion_8_exploratory_profiles():
    n, length = 64, 16.0
    p = 1.0
    freqs = (0.6, 1.0, 1.6)
    angles = np.linspace(0.12, 0.62, 5)

    def packets(r):
        # fixed transverse width: directional concentration sharpens with
        # frequency, which is what the two shearlet orientations discriminate
        return [
            wave_packet(n, length, center=(r * np.cos(a), r * np.sin(a)),
                        sigma_along=0.1 * r, sigma_across=0.07, direction=a)
            for a in angles
        ]

    by_freq = {r: packets(r) for r in freqs[:-1]}
    # four of the five top-frequency packets reach just past the 64 x 64
    # band (1.94): a sliver of Gaussian tail beyond 3.5 widths
    with pytest.warns(CoverageWarning, match="wave packet"):
        by_freq[freqs[-1]] = packets(freqs[-1])

    s1 = rep_group(canonical_shearlet(0.0, 1.0))
    s2 = rep_group(canonical_shearlet(PI / 4, 1.0))
    samp1 = shearlet_sampling(s1, (-2.0, 2.0), 12, (-5.0, 5.0), 36)
    samp2 = shearlet_sampling(s2, (-2.0, 2.0), 12, (-5.0, 5.0), 36)
    shear_spreads = []
    for r in freqs:
        table = norm_ratio_profile(s1, s2, p, by_freq[r], samp1, samp2)
        shear_spreads.append(table.summary()["spread"])

    d1 = GroupSpec(diagonal(), rotation(0.4))
    d2 = GroupSpec(diagonal(), rotation(0.4) @ SWAP @ np.diag([2.0, -3.0]))
    dsamp1 = diagonal_sampling(d1, (-2.0, 2.0), 12)
    dsamp2 = diagonal_sampling(d2, (-2.0, 2.0), 12)
    diag_spreads = []
    for r in freqs:
        table = norm_ratio_profile(d1, d2, p, by_freq[r], dsamp1, dsamp2)
        diag_spreads.append(table.summary()["spread"])

    lines = [
        "inequivalent shearlet pair (phi 0 vs pi/4), ratio spread by frequency: "
        + ", ".join(f"{f:.2g} -> {s:.3g}" for f, s in zip(freqs, shear_spreads)),
        "N_H-related diagonal pair, ratio spread by frequency:               "
        + ", ".join(f"{f:.2g} -> {s:.3g}" for f, s in zip(freqs, diag_spreads)),
    ]
    grows = all(b > a for a, b in zip(shear_spreads, shear_spreads[1:]))
    bounded = all(s < 2.0 for s in diag_spreads)
    lines.append(f"spread grows monotonically: {grows}; "
                 f"N_H pair within factor 2: {bounded}")
    # exploratory: reported, not gated on a fixed threshold
    finite = all(np.isfinite(s) for s in shear_spreads + diag_spreads)
    _report(8, finite, " | ".join(lines))
