"""Command-line front end.

Every subcommand reads its inputs from files (or generates them from flags),
runs the requested computation once, and emits a deterministic report to
stdout or --out.  Exit codes: 0 success, 1 usage error, 2 I/O or parse error,
3 negative equivalence verdict, 4 numeric failure (requested tolerance
breached, a degenerate numeric result, or an array too large to allocate),
5 internal error (any other exception, reported as one line on stderr
without a traceback).
"""

from __future__ import annotations

import argparse
import sys
import time
import warnings
from dataclasses import asdict

import numpy as np

from . import __version__
from .classify import (
    canonicalize,
    component_count,
    coorbit_equivalent,
    orbit_complement,
    rep_group,
    symmetry,
)
from .errors import CoorbitError, FormatError, SingularMatrixError, WeightRangeError
from .families import FAMILIES
from .groups import GroupSpec, similitude, valid_tolerance
from .io_formats import (
    emit_report,
    group_spec_to_dict,
    make_report,
    parse_group_spec,
    read_signal,
    write_signal,
)
from .sampling import LAM_RANGE, N_SHEAR, SHEAR_RANGE, default_sampling
from .signals import check_lattice, gen_test_signal, l2_norm, valid_grid_size
from .transform import (
    _signal_stats,
    calderon_constant,
    norm_ratio_profile,
    reconstruct,
    signal_coorbit_norm,
)

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
    name = FAMILIES[cf.kind].parameter
    if name is not None:
        doc["phi"] = cf.phi
        doc[name] = getattr(cf, name)
    return doc


def _add_sampling_flags(p):
    p.add_argument("--lam-min", type=float, default=LAM_RANGE[0],
                   help="lower log-scale bound (default %(default)g)")
    p.add_argument("--lam-max", type=float, default=LAM_RANGE[1],
                   help="upper log-scale bound (default %(default)g)")
    p.add_argument("--n-scale", type=int, default=None,
                   help="points per log-scale axis (family default)")
    p.add_argument("--shear-min", type=float, default=SHEAR_RANGE[0])
    p.add_argument("--shear-max", type=float, default=SHEAR_RANGE[1])
    p.add_argument("--n-shear", type=int, default=N_SHEAR,
                   help="shear points; checked for every family, used by the "
                        "shearlet chart only (default %(default)d)")


def _parse_matrix_flag(text):
    parts = text.split(",")
    if len(parts) != 4:
        raise _UsageError("--matrix expects four comma-separated numbers a,b,c,d")
    try:
        a, b, c, d = (float(v) for v in parts)
    except ValueError:
        raise _UsageError("--matrix entries must be numbers") from None
    try:  # GroupSpec's rule for a conjugator
        GroupSpec(similitude(), [[a, b], [c, d]])
    except SingularMatrixError:
        raise _UsageError("--matrix must be finite and not numerically singular, "
                          "with a finite inverse") from None
    return [[a, b], [c, d]]


def _flag_type(convert, check, expected):
    """An argparse type: `convert` the text, then require `check` of the value."""
    def parse(text):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not check(value):
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
        return value
    return parse


_GRID_SIZE = _flag_type(int, valid_grid_size, "a power of two from 8 to 2^31")
_POSITIVE = _flag_type(float, lambda x: 0.0 < x < np.inf, "a positive finite number")
# the signals square sigma and a packet's narrower width sigma / 2: neither
# square may overflow or underflow to 0 (products saturate where ** raises)
_WIDTH = _flag_type(float, lambda x: 0.0 < x and x * x < np.inf
                    and (x / 2) * (x / 2) > 0.0,
                    "a positive number whose square is finite and whose half "
                    "squares to more than 0")
_COUNT = _flag_type(int, lambda n: n >= 1, "a positive integer")
_SEED = _flag_type(int, lambda n: n >= 0, "a non-negative integer")
_FINITE = _flag_type(float, np.isfinite, "a finite number")
_TOLERANCE = _flag_type(float, valid_tolerance, "a non-negative finite number")
_CENTER = _flag_type(lambda text: tuple(float(v) for v in text.split(",")),
                     lambda c: len(c) == 2 and bool(np.all(np.isfinite(c))),
                     "'xi1,xi2' with finite numbers")


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


def _lattice(args):
    """--N and --L, held to GridSignal's lattice rule before any signal is made."""
    try:
        check_lattice(args.N, args.L)
    except ValueError as exc:
        raise _UsageError(f"--L {args.L:g} at --N {args.N}: {exc}") from None
    return args.N, args.L


def _transform_request(args, signal=True):
    """The signal (None unless `signal`) and the sampling of the group spec,
    made after the spec: a bad spec is reported before a bad signal, and both
    before bad sampling flags."""
    spec = parse_group_spec(args.group)
    sig = read_signal(args.signal) if signal else None
    # the builder rejects counts below 1 and empty or non-finite ranges; it
    # holds the shear flags to that rule for every family
    try:
        return sig, default_sampling(spec, (args.lam_min, args.lam_max), args.n_scale,
                                     (args.shear_min, args.shear_max), args.n_shear)
    except ValueError as exc:
        raise _UsageError(f"sampling flags: {exc}") from None


def _emit(args, t0, command, inputs, values, **extra):
    """Write the report, timed from `t0`, to --out or stdout."""
    text = emit_report(make_report(command, inputs, values,
                                   timing=time.perf_counter() - t0, **extra))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _gate(what, value, flag, limit):
    """Exit 4, once the report is written, if `value` exceeds --`flag`."""
    if limit is not None and value > limit:
        raise NumericFailure(f"{what} {value:.3g} exceeds --{flag} {limit:.3g}")


def _cmd_classify(args):
    spec = parse_group_spec(args.group)
    t0 = time.perf_counter()
    cf = canonicalize(spec, args.tol)
    a, b, c, d = rep_group(cf).entries
    _emit(args, t0, "classify", {"group": group_spec_to_dict(spec)}, {
        "canonical_form": _canonical_doc(cf),
        "component_count": component_count(spec),
        "complement": _lineset_doc(orbit_complement(spec)),
        "representative_conjugator": [[a, b], [c, d]],
    }, tolerances={"tol": args.tol})
    return EXIT_OK


def _cmd_equiv(args):
    s1 = parse_group_spec(args.group1)
    s2 = parse_group_spec(args.group2)
    t0 = time.perf_counter()
    verdict = coorbit_equivalent(s1, s2, args.tol)
    _emit(
        args, t0, "equiv",
        {"group1": group_spec_to_dict(s1), "group2": group_spec_to_dict(s2)},
        {"equivalent": verdict.equivalent, "reason": verdict.reason},
        certificates={
            "component_counts": list(verdict.component_counts),
            "complements": [_lineset_doc(l) for l in verdict.complements],
            "canonical_forms": [_canonical_doc(c) for c in verdict.canonicals],
        },
        tolerances={"tol": args.tol},
    )
    return EXIT_OK if verdict.equivalent else EXIT_NEGATIVE


def _cmd_symmetry(args):
    spec = parse_group_spec(args.group)
    mat = _parse_matrix_flag(args.matrix)
    t0 = time.perf_counter()
    triple = dict(zip(("normalizer", "coorbit_symmetry", "orbit_symmetry"),
                      symmetry(spec, mat, args.tol)))
    _emit(args, t0, "symmetry",
          {"group": group_spec_to_dict(spec), "matrix": mat},
          triple, tolerances={"tol": args.tol})
    return EXIT_OK


def _cmd_analyze(args):
    sig, sampling = _transform_request(args)
    t0 = time.perf_counter()
    # the p = 2 plane sums are the plane energies; no slab is held
    sums, peaks = _signal_stats([sig], sampling, 2)
    energies = sums[:, 0]
    with np.errstate(over="ignore"):
        total = float(np.sum(sampling.g_w * energies))
    if not np.isfinite(total):
        raise WeightRangeError("the weighted energy ||W f||^2 leaves the "
                               "floating-point range")
    values = {
        "planes": len(sampling),
        "grid": {"N": sig.N, "L": sig.L},
        "total_weighted_energy": total,
        "max_coefficient": float(peaks.max()),
    }
    if args.energies:
        values["plane_energies"] = [float(e) for e in energies]
    _emit(args, t0, "analyze", {"group": group_spec_to_dict(sampling.spec),
                                "signal": str(args.signal)}, values)
    return EXIT_OK


def _cmd_norm(args):
    sig, sampling = _transform_request(args)
    p = _parse_exponent(args.p)
    t0 = time.perf_counter()
    value = signal_coorbit_norm(sig, sampling, p)
    _emit(args, t0, "norm",
          {"group": group_spec_to_dict(sampling.spec), "signal": str(args.signal),
           "p": args.p},
          {"coorbit_norm": value, "signal_l2": sig.norm_l2()})
    return EXIT_OK


def _cmd_invert(args):
    sig, sampling = _transform_request(args)
    t0 = time.perf_counter()
    cal = calderon_constant(sampling)
    rec = reconstruct(sig, sampling, cal.mean)
    denom = sig.norm_l2()
    rel_err = 0.0 if denom == 0.0 else l2_norm(sig.data - rec.data, sig.dx) / denom
    if args.out_signal:
        write_signal(args.out_signal, rec)
    _emit(args, t0, "invert",
          {"group": group_spec_to_dict(sampling.spec), "signal": str(args.signal)},
          {"relative_l2_error": rel_err, "calderon_constant": cal.mean,
           "calderon_deviation": cal.max_rel_deviation})
    _gate("reconstruction error", rel_err, "max-error", args.max_error)
    return EXIT_OK


def _cmd_calderon(args):
    _, sampling = _transform_request(args, signal=False)
    t0 = time.perf_counter()
    cal = calderon_constant(sampling)
    _emit(args, t0, "calderon",
          {"group": group_spec_to_dict(sampling.spec), "n_samples": len(cal.values)},
          {"mean": cal.mean, "max_rel_deviation": cal.max_rel_deviation,
           "values": list(cal.values)})
    _gate("Calderon deviation", cal.max_rel_deviation, "max-deviation",
          args.max_deviation)
    return EXIT_OK


def _cmd_compare(args):
    s1 = parse_group_spec(args.group1)
    s2 = parse_group_spec(args.group2)
    p = _parse_exponent(args.p)
    n, length = _lattice(args)
    t0 = time.perf_counter()
    # samplings first: weights out of range fail before any signal is made
    sampling1, sampling2 = default_sampling(s1), default_sampling(s2)
    rng = np.random.default_rng(args.seed)
    # radii at most the band over 1 + 3.5 * 0.12: the 3.5 sigma box of every
    # packet stays on the grid, and the test signals raise no CoverageWarning
    r_max = (n / 2 - 1) / length / (1 + 3.5 * 0.12)
    signals = []
    for k in range(args.n_signals):
        ang = rng.uniform(0.0, np.pi / 2)
        r = min(0.7 + 0.9 * k / max(args.n_signals - 1, 1), r_max)
        signals.append(
            gen_test_signal(
                "wave_packet", n, length,
                center=(r * np.cos(ang), r * np.sin(ang)),
                sigma_along=0.12 * r, sigma_across=0.06 * r, direction=ang,
            )
        )
    table = norm_ratio_profile(p, signals, sampling1, sampling2)
    _emit(args, t0, "compare",
          {"group1": group_spec_to_dict(s1), "group2": group_spec_to_dict(s2),
           "p": args.p, "seed": args.seed},
          {"rows": [asdict(r) for r in table.rows], "summary": table.summary()})
    return EXIT_OK


def _cmd_gen_signal(args):
    n, length = _lattice(args)
    rng = np.random.default_rng(args.seed)
    center = args.center
    if center is None:
        ang = rng.uniform(0, 2 * np.pi)
        r = rng.uniform(0.7, 1.5)
        center = (r * np.cos(ang), r * np.sin(ang))
    t0 = time.perf_counter()
    if args.kind == "wave_packet":
        params = dict(sigma_along=args.sigma, sigma_across=args.sigma / 2,
                      direction=np.arctan2(center[1], center[0]))
    else:
        params = dict(sigma=args.sigma, shape=args.shape)
    # the other flags are checked when parsed: a ValueError is an energy overflow
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                f = gen_test_signal(args.kind, n, length, center=center,
                                    amplitude=args.amplitude, **params)
        except ValueError:
            f = None
    for w in caught:  # one line each, without the source location
        print(f"warning: {w.message}", file=sys.stderr)
    if f is None:
        raise _UsageError(f"--amplitude {args.amplitude:g} overflows the signal")
    write_signal(args.out_signal, f.signal)
    _emit(args, t0, "gen-signal",
          {"kind": args.kind, "N": n, "L": length, "seed": args.seed},
          {"label": f.label, "center": list(center), "sigma": args.sigma,
           "l2_norm": f.signal.norm_l2(), "written": str(args.out_signal)})
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
            p.add_argument("--tol", type=_TOLERANCE, default=1e-9,
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
    p.add_argument("--max-error", type=_TOLERANCE, default=None,
                   help="exit 4 if the relative L2 error exceeds this")
    _add_sampling_flags(p)
    common(p, tol=False)
    p.set_defaults(fn=_cmd_invert)

    p = sub.add_parser("calderon", help="admissibility constant and its deviation")
    p.add_argument("group")
    p.add_argument("--max-deviation", type=_TOLERANCE, default=None,
                   help="exit 4 if the relative deviation exceeds this")
    _add_sampling_flags(p)
    common(p, tol=False)
    p.set_defaults(fn=_cmd_calderon)

    p = sub.add_parser("compare", help="norm-ratio profile between two groups")
    p.add_argument("group1")
    p.add_argument("group2")
    p.add_argument("--p", default="1")
    p.add_argument("--N", type=_GRID_SIZE, default=64)
    p.add_argument("--L", type=_POSITIVE, default=16.0)
    p.add_argument("--n-signals", type=_COUNT, default=5)
    p.add_argument("--seed", type=_SEED, default=0)
    common(p, tol=False)
    p.set_defaults(fn=_cmd_compare)

    p = sub.add_parser("gen-signal", help="generate a test signal file")
    p.add_argument("kind", choices=["freq_bump", "wave_packet"])
    p.add_argument("out_signal")
    p.add_argument("--N", type=_GRID_SIZE, default=128)
    p.add_argument("--L", type=_POSITIVE, default=16.0)
    p.add_argument("--center", type=_CENTER, default=None,
                   help="frequency center 'xi1,xi2'")
    p.add_argument("--sigma", type=_WIDTH, default=0.15)
    p.add_argument("--shape", choices=["gaussian", "bump"], default="gaussian")
    p.add_argument("--amplitude", type=_FINITE, default=1.0)
    p.add_argument("--seed", type=_SEED, default=0)
    common(p, tol=False)
    p.set_defaults(fn=_cmd_gen_signal)

    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
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
    except (NumericFailure, CoorbitError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except MemoryError as exc:  # e.g. an --N whose N x N arrays do not fit
        print(f"numeric failure: out of memory: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except Exception as exc:  # the last boundary: one line, never a traceback
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
