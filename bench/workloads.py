"""Seeded inputs, requests and output checks for the three workloads.

The seed draws everything the program sees: conjugators (a rotation times a
diagonal scaling with condition number <= 2), signal centres (placed inside
each family's default chart coverage), shearlet exponents, compare pairs and
the classification batch.  The program only receives the generated files
(CLI workloads) or objects (classify-mix).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from coorbit2d import (
    GroupSpec,
    canonical_diagonal,
    canonical_shearlet,
    classify,
    default_sampling,
    diagonal,
    freq_bump,
    rep_group,
    rotation,
    shearlet,
    similitude,
    wave_packet,
    write_group_spec,
    write_signal,
)
from coorbit2d.classify import angle_distance, mod_pi
from coorbit2d.errors import CoverageWarning

import oracles

FAMILIES = ("similitude", "diagonal", "shearlet")
WORKLOADS = ("l2-pipeline", "coeff-domain", "classify-mix")
SWAP = np.array([[0.0, 1.0], [1.0, 0.0]])


@dataclass(frozen=True)
class Size:
    """Grid sizes of the CLI workloads; the benchmark uses FULL."""

    n: int = 128
    length: float = 16.0
    compare_n: int = 64
    compare_length: float = 16.0


FULL = Size()


def _rng(seed, *stream):
    return np.random.default_rng([seed, *stream])


# ---------------------------------------------------------------------------
# seeded group specs and signals


def conjugator(rng):
    """Rotation times diag(e^u, e^-u), |u| <= ln(2)/2, so the condition number is <= 2."""
    u = rng.uniform(-0.5, 0.5) * np.log(2.0)
    return rotation(rng.uniform(0.0, 2.0 * np.pi)) @ np.diag([np.exp(u), np.exp(-u)])


def family_spec(kind, rng):
    fam = {"similitude": similitude, "diagonal": diagonal}.get(kind)
    family = shearlet(rng.uniform(0.5, 1.0)) if fam is None else fam()
    return GroupSpec(family, conjugator(rng))


def signal_centre(kind, spec, rng):
    """A frequency well inside the default chart coverage of `spec`.

    Drawn in standard coordinates w = B^T xi, away from the complement lines
    and the chart edges, then mapped back through B^-T.
    """
    if kind == "similitude":
        r, a = rng.uniform(0.8, 1.6), rng.uniform(0.0, 2.0 * np.pi)
        w = np.array([r * np.cos(a), r * np.sin(a)])
    elif kind == "diagonal":
        w = rng.choice([-1.0, 1.0], 2) * rng.uniform(0.9, 1.4, 2)
    else:
        w1 = rng.choice([-1.0, 1.0]) * rng.uniform(0.9, 1.4)
        w = np.array([w1, w1 * rng.uniform(-0.3, 0.3)])
    return np.linalg.inv(spec.conjugator).T @ w


@dataclass
class CliInputs:
    """Specs and signals of one CLI workload, plus the files they live in."""

    specs: dict      # name -> GroupSpec
    signals: dict    # family -> GridSignal
    paths: dict      # name -> Path of the spec or signal file


def make_cli_inputs(workload, seed, size, out_dir):
    """Generate the inputs of a CLI workload and write them under `out_dir`."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = _rng(seed, WORKLOADS.index(workload))
    specs, signals = {}, {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CoverageWarning)  # small test grids only
        for kind in FAMILIES:
            spec = family_spec(kind, rng)
            xi = signal_centre(kind, spec, rng)
            if workload == "l2-pipeline":
                sig = freq_bump(size.n, size.length, center=xi, sigma=0.12).signal
            else:
                sig = wave_packet(size.n, size.length, center=xi, sigma_along=0.12,
                                  sigma_across=0.06,
                                  direction=float(np.arctan2(xi[1], xi[0]))).signal
            specs[kind], signals[kind] = spec, sig
    if workload == "coeff-domain":
        c = rng.uniform(0.5, 1.0)
        specs["compare-shearlet-1"] = rep_group(canonical_shearlet(0.0, c))
        specs["compare-shearlet-2"] = rep_group(canonical_shearlet(np.pi / 4, c))
        b = conjugator(rng)
        specs["compare-diagonal-1"] = GroupSpec(diagonal(), b)
        specs["compare-diagonal-2"] = GroupSpec(diagonal(), b @ monomial(rng))
    ext = ".sig" if workload == "l2-pipeline" else ".csv"
    paths = {}
    for name, spec in specs.items():
        paths[name] = out_dir / f"{name}.json"
        write_group_spec(paths[name], spec)
    for kind, sig in signals.items():
        paths[f"{kind}-signal"] = out_dir / f"{kind}{ext}"
        write_signal(paths[f"{kind}-signal"], sig)
    return CliInputs(specs, signals, paths)


# ---------------------------------------------------------------------------
# CLI requests


@dataclass(frozen=True)
class CliRequest:
    kind: str        # norm2 | invert | norm1 | norminf | analyze | compare
    family: str
    args: tuple      # CLI arguments, without output options
    slab_bytes: int  # largest M x N x N complex slab one analysis builds (computed)


def _slab_bytes(spec, n):
    return len(default_sampling(spec)) * n * n * 16


def cli_cycle(workload, inputs, size, seed):
    """One cycle of the workload's requests, in the order they are sent."""
    reqs = []
    for kind in FAMILIES:
        spec, sig = str(inputs.paths[kind]), str(inputs.paths[f"{kind}-signal"])
        slab = _slab_bytes(inputs.specs[kind], size.n)
        if workload == "l2-pipeline":
            reqs.append(CliRequest("norm2", kind, ("norm", spec, sig, "--p", "2"), slab))
            reqs.append(CliRequest("invert", kind,
                                   ("invert", spec, sig, "--max-error", "5e-2"), slab))
        else:
            reqs.append(CliRequest("norm1", kind, ("norm", spec, sig, "--p", "1"), slab))
            reqs.append(CliRequest("norminf", kind, ("norm", spec, sig, "--p", "inf"), slab))
            reqs.append(CliRequest("analyze", kind, ("analyze", spec, sig, "--energies"),
                                   slab))
    if workload == "coeff-domain":
        for kind in ("shearlet", "diagonal"):
            s1, s2 = (inputs.specs[f"compare-{kind}-{i}"] for i in (1, 2))
            slab = max(_slab_bytes(s1, size.compare_n), _slab_bytes(s2, size.compare_n))
            reqs.append(CliRequest("compare", kind, (
                "compare", str(inputs.paths[f"compare-{kind}-1"]),
                str(inputs.paths[f"compare-{kind}-2"]), "--N", str(size.compare_n),
                "--L", repr(size.compare_length), "--seed", str(seed)), slab))
    return reqs


class CliChecker:
    """Checks CLI outputs against the oracles; the Calderon multiplier of each
    family is computed once per run."""

    def __init__(self, inputs):
        self.inputs = inputs
        self._multiplier = {}
        self._energy = {}

    def multiplier(self, kind):
        if kind not in self._multiplier:
            sig = self.inputs.signals[kind]
            c = oracles.calderon_multiplier(self.inputs.specs[kind], sig.N, sig.L)
            self._multiplier[kind] = c
            self._energy[kind] = oracles.weighted_energy(sig, c)
        return self._multiplier[kind]

    def energy(self, kind):
        self.multiplier(kind)
        return self._energy[kind]

    def check(self, outcomes):
        """Check one cycle.

        `outcomes` maps (kind, family) to (report values, reconstruction or
        None) for the requests of the cycle that produced a report.  Returns
        {(kind, family): mismatch text}, the reconstruction errors and the
        isometry errors.
        """
        errors, recon, isometry = {}, [], []
        for (kind, fam), (values, rec) in outcomes.items():
            if kind == "norm2":
                err = oracles.check_norm2(values["coorbit_norm"], self.energy(fam))
            elif kind == "invert":
                err = oracles.check_invert(rec, self.inputs.signals[fam],
                                           self.multiplier(fam),
                                           values["calderon_constant"])
                recon.append(values["relative_l2_error"])
                norm = outcomes.get(("norm2", fam))
                if norm is not None:
                    w2 = norm[0]["coorbit_norm"] ** 2
                    f2 = norm[0]["signal_l2"] ** 2
                    isometry.append(abs(w2 / (values["calderon_constant"] * f2) - 1.0))
            elif kind == "analyze":
                err = oracles.check_energy(values["total_weighted_energy"],
                                           self.energy(fam))
            elif kind == "norminf":
                a, n1 = outcomes.get(("analyze", fam)), outcomes.get(("norm1", fam))
                err = None if a is None or n1 is None else oracles.check_holder(
                    a[0]["total_weighted_energy"], n1[0]["coorbit_norm"],
                    values["coorbit_norm"])
            elif kind == "compare":
                err = oracles.check_compare_rows(values["rows"])
            else:  # norm1: checked through Holder on the norminf entry
                err = None
            if err is not None:
                errors[(kind, fam)] = err
        return errors, recon, isometry


# ---------------------------------------------------------------------------
# classify-mix: an in-process batch with known truth


CHUNK = 1000
# requests per chunk of each kind; the near-perpendicular slice is held at 10%
CLASSIFY_MIX = (
    ("equiv-diagonal-twist", 150),
    ("equiv-shearlet-twist", 150),
    ("equiv-similitude", 100),
    ("inequiv-params", 200),
    ("cross-family", 100),
    ("near-perpendicular", 100),
    ("round-trip", 100),
    ("symmetry", 100),
)
assert sum(n for _, n in CLASSIFY_MIX) == CHUNK


def monomial(rng):
    """Random element of the diagonal family's normalizer: D or D @ swap."""
    d = np.diag(rng.choice([-1.0, 1.0], 2) * np.exp(rng.uniform(-1.0, 1.0, 2)))
    return d @ SWAP if rng.random() < 0.5 else d


def upper_triangular(rng):
    d = rng.choice([-1.0, 1.0], 2) * np.exp(rng.uniform(-1.0, 1.0, 2))
    return np.array([[d[0], rng.uniform(-2.0, 2.0)], [0.0, d[1]]])


def random_invertible(rng, min_det=0.1):
    while True:
        m = rng.normal(size=(2, 2))
        if abs(np.linalg.det(m)) >= min_det:
            return m


def _diagonal_params(rng):
    return rng.uniform(0.0, np.pi), rng.uniform(0.05, 3.0)


def _make_request(kind, rng):
    """(kind, arguments, truth) for one classification request."""
    if kind == "equiv-diagonal-twist":
        b = rep_group(canonical_diagonal(*_diagonal_params(rng))).conjugator
        return kind, (GroupSpec(diagonal(), b), GroupSpec(diagonal(), b @ monomial(rng))), True
    if kind == "equiv-shearlet-twist":
        fam, b = shearlet(rng.uniform(-3.0, 3.0)), conjugator(rng)
        return kind, (GroupSpec(fam, b), GroupSpec(fam, b @ upper_triangular(rng))), True
    if kind == "equiv-similitude":
        return kind, (GroupSpec(similitude(), random_invertible(rng)),
                      GroupSpec(similitude(), random_invertible(rng))), True
    if kind == "inequiv-params":
        delta = 10.0 ** rng.uniform(-6.0, -2.0)
        bump_first = rng.random() < 0.5
        if rng.random() < 0.5:
            phi, s = _diagonal_params(rng)
            phi2, s2 = (mod_pi(phi + delta), s) if bump_first else (phi, s + delta)
            a = rep_group(canonical_diagonal(phi, s))
            b = rep_group(canonical_diagonal(phi2, s2)).conjugator @ monomial(rng)
            return kind, (a, GroupSpec(diagonal(), b)), False
        phi, c = rng.uniform(0.0, np.pi), rng.uniform(-3.0, 3.0)
        phi2, c2 = (mod_pi(phi + delta), c) if bump_first else (phi, c + delta)
        return kind, (GroupSpec(shearlet(c), rotation(phi)),
                      GroupSpec(shearlet(c2), rotation(phi2) @ upper_triangular(rng))), False
    if kind == "cross-family":
        k1, k2 = rng.choice(3, size=2, replace=False)
        return kind, (family_spec(FAMILIES[k1], rng), family_spec(FAMILIES[k2], rng)), False
    if kind == "near-perpendicular":
        # s gap in (1e-10, 1e-9], inside tol = 1e-9: the truth is "equivalent".
        # `rng` is the slice's own stream here (see classify_chunk)
        phi, gap = rng.uniform(0.0, np.pi), rng.uniform(1e-10, 1e-9)
        return kind, (rep_group(canonical_diagonal(phi, 0.0)),
                      rep_group(canonical_diagonal(phi, gap))), True
    if kind == "round-trip":
        phi = rng.uniform(0.0, np.pi)
        if rng.random() < 0.5:
            s = rng.uniform(0.0, 10.0)
            while np.pi / 2 - np.arctan2(1.0, s) < 1e-6:  # theta away from pi/2
                s = rng.uniform(0.0, 10.0)
            cf = canonical_diagonal(phi, s)
        else:
            cf = canonical_shearlet(phi, rng.uniform(-3.0, 3.0))
        return kind, (cf,), cf
    if kind == "symmetry":
        fam = FAMILIES[rng.integers(3)]
        spec = GroupSpec(shearlet(rng.uniform(0.5, 2.0)) if fam == "shearlet"
                         else {"similitude": similitude, "diagonal": diagonal}[fam]())
        a = random_invertible(rng) if rng.random() < 0.5 else _structured(fam, rng)
        return kind, (spec, a), symmetry_closed_form(fam, a)
    raise ValueError(f"unknown classify request kind {kind!r}")


def _structured(fam, rng):
    """A matrix on the positive branch of the family's closed forms."""
    if fam == "similitude":
        m = np.exp(rng.uniform(-1.0, 1.0)) * rotation(rng.uniform(0.0, 2.0 * np.pi))
        return m @ np.diag([1.0, -1.0]) if rng.random() < 0.5 else m
    return monomial(rng) if fam == "diagonal" else upper_triangular(rng)


def symmetry_closed_form(fam, a, tol=1e-9):
    """(normalizer, coorbit symmetry, orbit symmetry) of the standard family.

    Similitude: the normalizer is the conformal group, both symmetry groups
    are everything.  Diagonal: all three are the monomial matrices.
    Shearlet: all three are the upper-triangular matrices.
    """
    scale = tol * np.max(np.abs(a))
    if fam == "similitude":
        rot = abs(a[0, 0] - a[1, 1]) <= scale and abs(a[0, 1] + a[1, 0]) <= scale
        ref = abs(a[0, 0] + a[1, 1]) <= scale and abs(a[0, 1] - a[1, 0]) <= scale
        return (rot or ref, True, True)
    if fam == "diagonal":
        mono = (max(abs(a[0, 1]), abs(a[1, 0])) <= scale
                or max(abs(a[0, 0]), abs(a[1, 1])) <= scale)
        return (mono, mono, mono)
    upper = abs(a[1, 0]) <= scale
    return (upper, upper, upper)


# The near-perpendicular pairs of chunk k are drawn from a stream that does not
# depend on the seed, so the number of them that hit the live assert in
# classify.coorbit_equivalent is the same for every seed: a run's `failed`
# count is fixed by its chunk count, and runs with other seeds agree on it.
NEAR_PERP_SEED = 0


def classify_chunk(seed, k):
    """Chunk k of the classification batch: CHUNK requests in seeded order."""
    rng = _rng(seed, WORKLOADS.index("classify-mix"), k)
    near = _rng(NEAR_PERP_SEED, WORKLOADS.index("classify-mix"), k, 1)
    kinds = [kind for kind, n in CLASSIFY_MIX for _ in range(n)]
    return [_make_request(kinds[i], near if kinds[i] == "near-perpendicular" else rng)
            for i in rng.permutation(len(kinds))]


def execute_classify(kind, args):
    """Run one request through the public classify functions (module attributes,
    so that the traced run's wrappers see the calls)."""
    if kind == "round-trip":
        return classify.canonicalize(classify.rep_group(args[0]))
    if kind == "symmetry":
        return (classify.in_normalizer(*args), classify.in_coorbit_symmetry(*args),
                classify.in_orbit_symmetry(*args))
    return classify.coorbit_equivalent(*args).equivalent


def classify_correct(kind, out, truth, tol=1e-9):
    if kind != "round-trip":
        return out == truth
    if out.kind != truth.kind or angle_distance(out.phi, truth.phi) > tol:
        return False
    if truth.kind == "diagonal":
        return abs(out.s - truth.s) <= tol
    return abs(out.c - truth.c) <= tol
