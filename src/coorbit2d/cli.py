"""Command-line front end.

Every subcommand reads its inputs from files (or generates them from flags),
runs the requested computation once, and emits a deterministic report to
stdout or --out.  Exit codes: 0 success, 1 usage error, 2 I/O or parse error,
3 negative equivalence verdict, 4 numeric failure (requested tolerance
breached, or a degenerate numeric result), 5 internal error (any other
exception, reported as one line on stderr without a traceback).
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from . import __version__
from .classify import (
    canonicalize,
    component_count,
    coorbit_equivalent,
    in_coorbit_symmetry,
    in_normalizer,
    in_orbit_symmetry,
    orbit_complement,
    rep_group,
)
from .errors import CoorbitError, FormatError
from .groups import DEFAULT_TOL, DIAGONAL, SHEARLET, SIMILITUDE
from .io_formats import (
    emit_report,
    group_spec_to_dict,
    make_report,
    parse_group_spec,
    read_signal,
    write_signal,
)
from .sampling import (
    default_sampling,
    diagonal_sampling,
    shearlet_sampling,
    similitude_sampling,
)
from .signals import gen_test_signal
# analyze, coorbit_norm and invert are not called here; they stay importable
# from this module because bench/spans.py traces CLI requests through these names
from .transform import (  # noqa: F401
    _signal_stats,
    analyze,
    calderon_constant,
    coorbit_norm,
    covariance_residual,
    default_orbit_samples,
    invert,
    norm_ratio_profile,
    reconstruct,
    signal_coorbit_norm,
)
from .wavelets import default_wavelet

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_NEGATIVE = 3
EXIT_NUMERIC = 4
EXIT_INTERNAL = 5


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


class NumericFailure(Exception):
    pass


def _lineset_doc(ls):
    return {"count": len(ls), "angles_rad": list(ls.angles),
            "angles_deg": [a * 180.0 / np.pi for a in ls.angles]}


def _canonical_doc(cf):
    doc = {"kind": cf.kind}
    if cf.kind == DIAGONAL:
        doc["phi"] = cf.phi
        doc["s"] = cf.s
    elif cf.kind == SHEARLET:
        doc["phi"] = cf.phi
        doc["c"] = cf.c
    return doc


def _sampling_from_args(spec, args):
    kind = spec.family.kind
    lam = (args.lam_min, args.lam_max)
    if kind == SIMILITUDE:
        return similitude_sampling(spec, lam, args.n_scale, args.n_angle)
    if kind == DIAGONAL:
        return diagonal_sampling(spec, lam, args.n_scale)
    return shearlet_sampling(spec, lam, args.n_scale,
                             (args.shear_min, args.shear_max), args.n_shear)


def _add_sampling_flags(p):
    p.add_argument("--lam-min", type=float, default=-2.0,
                   help="lower log-scale bound (default -2)")
    p.add_argument("--lam-max", type=float, default=2.0,
                   help="upper log-scale bound (default 2)")
    p.add_argument("--n-scale", type=int, default=None,
                   help="points per log-scale axis (family default)")
    p.add_argument("--n-angle", type=int, default=32,
                   help="rotation points, similitude only (default 32)")
    p.add_argument("--shear-min", type=float, default=-5.0)
    p.add_argument("--shear-max", type=float, default=5.0)
    p.add_argument("--n-shear", type=int, default=48,
                   help="shear points, shearlet only (default 48)")


def _fill_sampling_defaults(spec, args):
    if args.n_scale is None:
        args.n_scale = 32 if spec.family.kind == SIMILITUDE else 16


def _emit(args, report):
    text = emit_report(report)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_matrix_flag(text):
    parts = text.split(",")
    if len(parts) != 4:
        raise _UsageError("--matrix expects four comma-separated numbers a,b,c,d")
    try:
        a, b, c, d = (float(v) for v in parts)
    except ValueError:
        raise _UsageError("--matrix entries must be numbers") from None
    # GroupSpec's conditioning test: |det| <= tol |a1| |a2| (a1, a2 the
    # columns) also rejects nan and inf entries, whose comparison fails
    if not abs(a * d - b * c) > DEFAULT_TOL * np.hypot(a, c) * np.hypot(b, d):
        raise _UsageError("--matrix must be finite and not numerically singular")
    return np.array([[a, b], [c, d]])


def _parse_exponent(text):
    """--p value: a positive number or 'inf'."""
    try:
        p = float(text)
    except ValueError:
        raise _UsageError(f"--p expects a number or 'inf', got {text!r}") from None
    if not p > 0:
        raise _UsageError(f"--p must be positive, got {text!r}")
    return p


# ---------------------------------------------------------------------------
# subcommands


def _cmd_classify(args):
    spec = parse_group_spec(args.group)
    t0 = time.perf_counter()
    cf = canonicalize(spec, args.tol)
    rep = rep_group(cf)
    report = make_report(
        "classify",
        {"group": group_spec_to_dict(spec)},
        {
            "canonical_form": _canonical_doc(cf),
            "component_count": component_count(spec),
            "complement": _lineset_doc(orbit_complement(spec)),
            "representative_conjugator": rep.conjugator.tolist(),
        },
        tolerances={"tol": args.tol},
        timing=time.perf_counter() - t0,
    )
    _emit(args, report)
    return EXIT_OK


def _cmd_equiv(args):
    s1 = parse_group_spec(args.group1)
    s2 = parse_group_spec(args.group2)
    t0 = time.perf_counter()
    verdict = coorbit_equivalent(s1, s2, args.tol)
    report = make_report(
        "equiv",
        {"group1": group_spec_to_dict(s1), "group2": group_spec_to_dict(s2)},
        {"equivalent": verdict.equivalent, "reason": verdict.reason},
        certificates={
            "component_counts": list(verdict.component_counts),
            "complements": [_lineset_doc(l) for l in verdict.complements],
            "canonical_forms": [_canonical_doc(c) for c in verdict.canonicals],
        },
        tolerances={"tol": args.tol},
        timing=time.perf_counter() - t0,
    )
    _emit(args, report)
    return EXIT_OK if verdict.equivalent else EXIT_NEGATIVE


def _cmd_symmetry(args):
    spec = parse_group_spec(args.group)
    mat = _parse_matrix_flag(args.matrix)
    t0 = time.perf_counter()
    triple = {
        "normalizer": in_normalizer(spec, mat, args.tol),
        "coorbit_symmetry": in_coorbit_symmetry(spec, mat, args.tol),
        "orbit_symmetry": in_orbit_symmetry(spec, mat, args.tol),
    }
    report = make_report(
        "symmetry",
        {"group": group_spec_to_dict(spec), "matrix": mat.tolist()},
        triple,
        tolerances={"tol": args.tol},
        timing=time.perf_counter() - t0,
    )
    _emit(args, report)
    return EXIT_OK


def _cmd_analyze(args):
    spec = parse_group_spec(args.group)
    sig = read_signal(args.signal)
    _fill_sampling_defaults(spec, args)
    sampling = _sampling_from_args(spec, args)
    psi = default_wavelet(spec)
    t0 = time.perf_counter()
    # the p = 2 plane sums are the plane energies; no slab is held
    sums, peaks = _signal_stats([sig], spec, sampling, psi, 2)
    energies = sums[:, 0]
    values = {
        "planes": len(sampling),
        "grid": {"N": sig.N, "L": sig.L},
        "total_weighted_energy": float(np.sum(sampling.g_w * energies)),
        "max_coefficient": float(peaks.max()),
    }
    if args.energies:
        values["plane_energies"] = [float(e) for e in energies]
    report = make_report(
        "analyze",
        {"group": group_spec_to_dict(spec), "signal": str(args.signal)},
        values,
        timing=time.perf_counter() - t0,
    )
    _emit(args, report)
    return EXIT_OK


def _cmd_norm(args):
    spec = parse_group_spec(args.group)
    sig = read_signal(args.signal)
    _fill_sampling_defaults(spec, args)
    sampling = _sampling_from_args(spec, args)
    psi = default_wavelet(spec)
    p = _parse_exponent(args.p)
    t0 = time.perf_counter()
    value = signal_coorbit_norm(sig, spec, sampling, psi, p)
    report = make_report(
        "norm",
        {"group": group_spec_to_dict(spec), "signal": str(args.signal),
         "p": args.p},
        {"coorbit_norm": value, "signal_l2": sig.norm_l2()},
        timing=time.perf_counter() - t0,
    )
    _emit(args, report)
    return EXIT_OK


def _cmd_invert(args):
    spec = parse_group_spec(args.group)
    sig = read_signal(args.signal)
    _fill_sampling_defaults(spec, args)
    sampling = _sampling_from_args(spec, args)
    psi = default_wavelet(spec)
    t0 = time.perf_counter()
    cal = calderon_constant(spec, psi, default_orbit_samples(spec), sampling)
    rec = reconstruct(sig, spec, sampling, psi, cal.mean)
    denom = sig.norm_l2()
    if denom == 0.0:
        rel_err = 0.0
    else:
        diff = sig.data - rec.data
        rel_err = float(np.sqrt(np.sum(np.abs(diff) ** 2)) * sig.dx / denom)
    if args.out_signal:
        write_signal(args.out_signal, rec)
    report = make_report(
        "invert",
        {"group": group_spec_to_dict(spec), "signal": str(args.signal)},
        {"relative_l2_error": rel_err, "calderon_constant": cal.mean,
         "calderon_deviation": cal.max_rel_deviation},
        timing=time.perf_counter() - t0,
    )
    _emit(args, report)
    if args.max_error is not None and rel_err > args.max_error:
        raise NumericFailure(
            f"reconstruction error {rel_err:.3g} exceeds --max-error {args.max_error:.3g}"
        )
    return EXIT_OK


def _cmd_calderon(args):
    spec = parse_group_spec(args.group)
    _fill_sampling_defaults(spec, args)
    sampling = _sampling_from_args(spec, args)
    psi = default_wavelet(spec)
    t0 = time.perf_counter()
    samples = default_orbit_samples(spec, args.n_samples)
    cal = calderon_constant(spec, psi, samples, sampling)
    report = make_report(
        "calderon",
        {"group": group_spec_to_dict(spec), "n_samples": len(samples)},
        {"mean": cal.mean, "max_rel_deviation": cal.max_rel_deviation,
         "values": list(cal.values)},
        timing=time.perf_counter() - t0,
    )
    _emit(args, report)
    if args.max_deviation is not None and cal.max_rel_deviation > args.max_deviation:
        raise NumericFailure(
            f"Calderon deviation {cal.max_rel_deviation:.3g} exceeds "
            f"--max-deviation {args.max_deviation:.3g}"
        )
    return EXIT_OK


def _covariance_cases(spec, n, length):
    """Identity, a grid translation, and a sampled (unit-determinant) dilation,
    plus one genuine scaling dilation reported for context."""
    from .groups import DiagonalChart, ShearletChart, SimilitudeChart, element_from_chart

    kind = spec.family.kind
    dx = length / n
    if kind == SIMILITUDE:
        h_chart = SimilitudeChart(0.2, 0.8)
        unimodular = SimilitudeChart(0.0, np.pi / 2)
        scaling = SimilitudeChart(0.25, 0.3)
    elif kind == DIAGONAL:
        h_chart = DiagonalChart(0.15, -0.2)
        unimodular = DiagonalChart(0.0, 0.0, 1, -1)
        scaling = DiagonalChart(0.3, -0.25)
    else:
        h_chart = ShearletChart(1, 0.2, 0.4)
        unimodular = ShearletChart(1, 0.0, 1.0)
        scaling = ShearletChart(1, 0.3, 0.0)
    e = element_from_chart
    return h_chart, [
        ("identity", np.zeros(2), np.eye(2)),
        ("grid_translation", np.array([5 * dx, -3 * dx]), np.eye(2)),
        ("sampled_dilation", np.array([0.3, -0.7]), e(spec, unimodular)),
        ("scaling_dilation", np.zeros(2), e(spec, scaling)),
    ]


def _cmd_covariance(args):
    spec = parse_group_spec(args.group)
    psi = default_wavelet(spec)
    t0 = time.perf_counter()
    n, length = args.N, args.L
    center = {"similitude": (1.0, 0.3), "diagonal": (0.9, 0.9),
              "shearlet": (1.1, 0.1)}[spec.family.kind]
    binv_t = np.linalg.inv(spec.conjugator).T
    f = gen_test_signal("freq_bump", n, length, center=binv_t @ np.array(center),
                        sigma=0.15)
    h_chart, cases = _covariance_cases(spec, n, length)
    residuals = {}
    for label, y, g in cases:
        residuals[label] = covariance_residual(f, y, g, h_chart, spec, psi)
    report = make_report(
        "covariance",
        {"group": group_spec_to_dict(spec), "grid": {"N": n, "L": length}},
        {"residuals": residuals},
        timing=time.perf_counter() - t0,
    )
    _emit(args, report)
    if args.max_residual is not None:
        gated = {k: v for k, v in residuals.items() if k != "scaling_dilation"}
        worst = max(gated.values())
        if worst > args.max_residual:
            raise NumericFailure(
                f"covariance residual {worst:.3g} exceeds "
                f"--max-residual {args.max_residual:.3g}"
            )
    return EXIT_OK


def _cmd_compare(args):
    s1 = parse_group_spec(args.group1)
    s2 = parse_group_spec(args.group2)
    p = _parse_exponent(args.p)
    t0 = time.perf_counter()
    n, length = args.N, args.L
    rng = np.random.default_rng(args.seed)
    signals = []
    for k in range(args.n_signals):
        ang = rng.uniform(0.0, np.pi / 2)
        r = 0.7 + 0.9 * k / max(args.n_signals - 1, 1)
        signals.append(
            gen_test_signal(
                "wave_packet", n, length,
                center=(r * np.cos(ang), r * np.sin(ang)),
                sigma_along=0.12 * r, sigma_across=0.06 * r, direction=ang,
            )
        )
    table = norm_ratio_profile(
        s1, s2, p, signals, default_sampling(s1), default_sampling(s2)
    )
    rows = [
        {"label": r.label, "norm1": r.norm1, "norm2": r.norm2,
         "ratio": r.ratio, "degenerate": r.degenerate}
        for r in table.rows
    ]
    report = make_report(
        "compare",
        {"group1": group_spec_to_dict(s1), "group2": group_spec_to_dict(s2),
         "p": args.p, "seed": args.seed},
        {"rows": rows, "summary": table.summary()},
        timing=time.perf_counter() - t0,
    )
    _emit(args, report)
    return EXIT_OK


def _cmd_gen_signal(args):
    rng = np.random.default_rng(args.seed)
    n, length = args.N, args.L
    if args.center is not None:
        parts = args.center.split(",")
        if len(parts) != 2:
            raise _UsageError("--center expects 'xi1,xi2'")
        center = (float(parts[0]), float(parts[1]))
    else:
        ang = rng.uniform(0, 2 * np.pi)
        r = rng.uniform(0.7, 1.5)
        center = (r * np.cos(ang), r * np.sin(ang))
    t0 = time.perf_counter()
    if args.kind == "wave_packet":
        f = gen_test_signal("wave_packet", n, length, center=center,
                            sigma_along=args.sigma, sigma_across=args.sigma / 2,
                            direction=np.arctan2(center[1], center[0]),
                            amplitude=args.amplitude)
    else:
        f = gen_test_signal("freq_bump", n, length, center=center,
                            sigma=args.sigma, shape=args.shape,
                            amplitude=args.amplitude)
    write_signal(args.out_signal, f.signal)
    report = make_report(
        "gen-signal",
        {"kind": args.kind, "N": n, "L": length, "seed": args.seed},
        {"label": f.label, "center": list(center), "sigma": args.sigma,
         "l2_norm": f.signal.norm_l2(), "written": str(args.out_signal)},
        timing=time.perf_counter() - t0,
    )
    _emit(args, report)
    return EXIT_OK


# ---------------------------------------------------------------------------


def build_parser():
    parser = _Parser(
        prog="coorbit2d",
        description=(
            "Classify 2D dilation groups up to coorbit equivalence and run "
            "the associated continuous wavelet transforms on sampled signals."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, tol=True):
        p.add_argument("--out", default=None, help="write report here instead of stdout")
        if tol:
            p.add_argument("--tol", type=float, default=1e-9,
                           help="comparison tolerance (default 1e-9)")

    p = sub.add_parser("classify", help="canonical form, components, complement")
    p.add_argument("group")
    common(p)
    p.set_defaults(fn=_cmd_classify)

    p = sub.add_parser("equiv", help="decide coorbit equivalence (exit 3 if not)")
    p.add_argument("group1")
    p.add_argument("group2")
    common(p)
    p.set_defaults(fn=_cmd_equiv)

    p = sub.add_parser("symmetry", help="normalizer / coorbit / orbit symmetry membership")
    p.add_argument("group")
    p.add_argument("--matrix", required=True, help="entries a,b,c,d row-major")
    common(p)
    p.set_defaults(fn=_cmd_symmetry)

    p = sub.add_parser("analyze", help="wavelet-transform a signal over the sampled chart")
    p.add_argument("group")
    p.add_argument("signal")
    p.add_argument("--energies", action="store_true", help="include per-plane energy table")
    _add_sampling_flags(p)
    common(p, tol=False)
    p.set_defaults(fn=_cmd_analyze)

    p = sub.add_parser("norm", help="coorbit quasi-norm of a signal")
    p.add_argument("group")
    p.add_argument("signal")
    p.add_argument("--p", default="2", help="exponent (number or 'inf', default 2)")
    _add_sampling_flags(p)
    common(p, tol=False)
    p.set_defaults(fn=_cmd_norm)

    p = sub.add_parser("invert", help="analyze + reconstruct, report the error")
    p.add_argument("group")
    p.add_argument("signal")
    p.add_argument("--out-signal", default=None, help="write the reconstruction here")
    p.add_argument("--max-error", type=float, default=None,
                   help="exit 4 if the relative L2 error exceeds this")
    _add_sampling_flags(p)
    common(p, tol=False)
    p.set_defaults(fn=_cmd_invert)

    p = sub.add_parser("calderon", help="admissibility constant and its deviation")
    p.add_argument("group")
    p.add_argument("--n-samples", type=int, default=16)
    p.add_argument("--max-deviation", type=float, default=None,
                   help="exit 4 if the relative deviation exceeds this")
    _add_sampling_flags(p)
    common(p, tol=False)
    p.set_defaults(fn=_cmd_calderon)

    p = sub.add_parser("covariance", help="representation-covariance residuals")
    p.add_argument("group")
    p.add_argument("--N", type=int, default=128)
    p.add_argument("--L", type=float, default=16.0)
    p.add_argument("--max-residual", type=float, default=None,
                   help="exit 4 if a gated residual exceeds this")
    common(p, tol=False)
    p.set_defaults(fn=_cmd_covariance)

    p = sub.add_parser("compare", help="norm-ratio profile between two groups")
    p.add_argument("group1")
    p.add_argument("group2")
    p.add_argument("--p", default="1")
    p.add_argument("--N", type=int, default=64)
    p.add_argument("--L", type=float, default=16.0)
    p.add_argument("--n-signals", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    common(p, tol=False)
    p.set_defaults(fn=_cmd_compare)

    p = sub.add_parser("gen-signal", help="generate a test signal file")
    p.add_argument("kind", choices=["freq_bump", "wave_packet"])
    p.add_argument("out_signal")
    p.add_argument("--N", type=int, default=128)
    p.add_argument("--L", type=float, default=16.0)
    p.add_argument("--center", default=None, help="frequency center 'xi1,xi2'")
    p.add_argument("--sigma", type=float, default=0.15)
    p.add_argument("--shape", choices=["gaussian", "bump"], default="gaussian")
    p.add_argument("--amplitude", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    common(p, tol=False)
    p.set_defaults(fn=_cmd_gen_signal)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.fn(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FormatError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_IO
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except NumericFailure as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except CoorbitError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except Exception as exc:  # the last boundary: one line, never a traceback
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
