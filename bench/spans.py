"""Span tracing for the benchmark's traced runs.

The tracer wraps public names of coorbit2d modules from outside the program:
each call through a wrapped name records a span (name, start, end, parent,
request).  Spans stay in memory until the run ends and are then written out.
A name that is missing (renamed or removed by a later commit) is listed as
"not observed" instead of failing the run.

Layer metrics are derived from the spans: a span's self time is its duration
minus the durations of its child spans.  Counters (points evaluated, bytes
read, planes built, ...) are taken at the same boundaries; the work of
counting runs inside a ``trace.count`` span so it never lands in the self
time of a program layer.
"""

from __future__ import annotations

import functools
import math
import os
from collections import defaultdict
from importlib import import_module
from time import perf_counter

import numpy as np


class Tracer:
    """In-memory span recorder that installs and removes its wrappers."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, request id]
        self.counters = defaultdict(int)
        self.missing = []
        self.request = 0
        self._stack = []
        self._installed = []

    def wrap(self, name, fn, counter=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[idx] = [name, t0, t1, parent, self.request]
            if counter is not None:
                t2 = perf_counter()
                counter(self.counters, args, out)
                spans.append(["trace.count", t2, perf_counter(), parent, self.request])
            return out

        return wrapper

    def install(self, targets):
        """Wrap each (module, attribute path, span name, counter) target."""
        for module, attr, name, counter in targets:
            try:
                owner = import_module(module)
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, leaf)
            except (ImportError, AttributeError):
                self.missing.append(f"{module}.{attr}")
                continue
            setattr(owner, leaf, self.wrap(name, original, counter))
            self._installed.append((owner, leaf, original))

    def uninstall(self):
        for owner, leaf, original in reversed(self._installed):
            setattr(owner, leaf, original)
        self._installed.clear()

    def dump(self):
        return {"spans": self.spans, "counters": dict(self.counters),
                "missing": self.missing}


# ---------------------------------------------------------------------------
# counters, run on the return value of a wrapped call


def _count_read(counters, args, out):
    counters["io_formats.read_bytes"] += os.path.getsize(args[0])


def _count_points(counters, args, out):
    counters["sampling.points"] += len(out)


def _count_slab(counters, args, out):
    planes = out.planes
    counters["transform.planes"] += planes.shape[0]
    counters["transform.nonzero_planes"] += int(
        np.count_nonzero(np.any(planes.reshape(planes.shape[0], -1), axis=1)))
    counters["transform.slab_bytes_computed"] += planes.nbytes


def _count_evaluate(counters, args, out):
    counters["wavelets.points_evaluated"] += out.size
    counters["wavelets.support_hits"] += int(np.count_nonzero(out))


def _count_fft(counters, args, out):
    # complex N x N in and out; 5 n log2(n) flops for a complex FFT of size n
    counters["signals.fft_bytes_computed"] += 2 * 16 * out.size
    counters["signals.fft_flops_computed"] += int(5 * out.size * math.log2(out.size))


CLI_TARGETS = [
    ("coorbit2d.cli", "analyze", "transform.analyze", _count_slab),
    ("coorbit2d.cli", "coorbit_norm", "transform.coorbit_norm", None),
    ("coorbit2d.cli", "invert", "transform.invert", None),
    ("coorbit2d.cli", "calderon_constant", "transform.calderon_constant", None),
    ("coorbit2d.cli", "norm_ratio_profile", "transform.norm_ratio_profile", None),
    ("coorbit2d.cli", "read_signal", "io_formats.read_signal", _count_read),
    ("coorbit2d.cli", "write_signal", "io_formats.write_signal", None),
    ("coorbit2d.cli", "emit_report", "io_formats.emit_report", None),
    ("coorbit2d.cli", "parse_group_spec", "io_formats.parse_group_spec", None),
    ("coorbit2d.cli", "similitude_sampling", "sampling.build", _count_points),
    ("coorbit2d.cli", "diagonal_sampling", "sampling.build", _count_points),
    ("coorbit2d.cli", "shearlet_sampling", "sampling.build", _count_points),
    ("coorbit2d.cli", "default_sampling", "sampling.build", _count_points),
    ("coorbit2d.cli", "default_wavelet", "wavelets.default_wavelet", None),
    ("coorbit2d.cli", "gen_test_signal", "signals.gen_test_signal", None),
    ("coorbit2d.transform", "analyze", "transform.analyze", _count_slab),
    ("coorbit2d.transform", "coorbit_norm", "transform.coorbit_norm", None),
    ("coorbit2d.transform", "spectrum_from_signal", "signals.fft", _count_fft),
    ("coorbit2d.transform", "signal_from_spectrum", "signals.fft", _count_fft),
    ("coorbit2d.transform", "element_from_chart", "groups.element_from_chart", None),
    ("coorbit2d.transform", "orbit_contains", "classify.orbit_contains", None),
    ("coorbit2d.sampling", "haar_weight", "groups.weight", None),
    ("coorbit2d.sampling", "g_weight", "groups.weight", None),
    ("coorbit2d.wavelets", "WaveletSpec.evaluate", "wavelets.evaluate", _count_evaluate),
    ("coorbit2d.wavelets", "default_wavelet", "wavelets.default_wavelet", None),
    ("coorbit2d.wavelets", "orbit_contains", "classify.orbit_contains", None),
]

CLASSIFY_TARGETS = [
    ("coorbit2d.classify", name, f"classify.{name}", None)
    for name in ("coorbit_equivalent", "canonicalize", "orbit_complement",
                 "same_group", "orbit_contains")
]


# ---------------------------------------------------------------------------
# aggregation


class SpanStats:
    """Calls, total duration and self time per span name, summed over dumps."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)

    def add(self, spans):
        child = defaultdict(float)
        for name, t0, t1, parent, _ in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        for i, (name, t0, t1, _, _) in enumerate(spans):
            self.calls[name] += 1
            self.total[name] += t1 - t0
            self.self_time[name] += (t1 - t0) - child[i]

    def layer_self(self, prefix):
        return sum(v for k, v in self.self_time.items() if k.startswith(prefix))


# unit of every per-layer metric, in the order they are reported
PER_LAYER_UNITS = {
    "cli.requests": "count",
    "cli.self_s": "s",
    "cli.outside_main_s": "s",
    "io_formats.read_signal_s": "s",
    "io_formats.read_bytes": "bytes",
    "io_formats.write_signal_s": "s",
    "io_formats.emit_report_s": "s",
    "sampling.build_s": "s",
    "sampling.points": "count",
    "groups.element_from_chart_calls": "count",
    "groups.element_from_chart_s": "s",
    "groups.weight_calls": "count",
    "wavelets.evaluate_calls": "count",
    "wavelets.evaluate_s": "s",
    "wavelets.points_evaluated": "count",
    "wavelets.support_hit_ratio": "ratio",
    "signals.fft_calls": "count",
    "signals.fft_s": "s",
    "signals.fft_bytes_computed": "bytes",
    "signals.fft_flops_computed": "flops",
    "transform.analyze_s": "s",
    "transform.coorbit_norm_s": "s",
    "transform.invert_s": "s",
    "transform.calderon_s": "s",
    "transform.norm_ratio_profile_s": "s",
    "transform.self_s": "s",
    "transform.planes": "count",
    "transform.nonzero_plane_ratio": "ratio",
    "transform.slab_bytes_computed": "bytes",
    "classify.equiv_calls": "count",
    "classify.equiv_s": "s",
    "classify.canonicalize_calls": "count",
    "classify.orbit_complement_calls": "count",
    "classify.same_group_calls": "count",
    "classify.orbit_contains_calls": "count",
    "trace.overhead_ratio": "ratio",
}


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(stats, counters, cli_requests, cli_wall, overhead_ratio):
    """Per-layer metric values from aggregated spans and counters.

    `cli_wall` is the summed spawn-to-reap time of the traced CLI requests;
    the part of it outside ``cli.main`` is interpreter start, imports and exit.
    """
    t, n, c = stats.total, stats.calls, counters
    values = {
        "cli.requests": cli_requests,
        "cli.self_s": stats.self_time["cli.main"],
        "cli.outside_main_s": cli_wall - t["cli.main"] if cli_requests else 0.0,
        "io_formats.read_signal_s": t["io_formats.read_signal"],
        "io_formats.read_bytes": c.get("io_formats.read_bytes", 0),
        "io_formats.write_signal_s": t["io_formats.write_signal"],
        "io_formats.emit_report_s": t["io_formats.emit_report"],
        "sampling.build_s": t["sampling.build"],
        "sampling.points": c.get("sampling.points", 0),
        "groups.element_from_chart_calls": n["groups.element_from_chart"],
        "groups.element_from_chart_s": t["groups.element_from_chart"],
        "groups.weight_calls": n["groups.weight"],
        "wavelets.evaluate_calls": n["wavelets.evaluate"],
        "wavelets.evaluate_s": t["wavelets.evaluate"],
        "wavelets.points_evaluated": c.get("wavelets.points_evaluated", 0),
        "wavelets.support_hit_ratio": _ratio(c.get("wavelets.support_hits", 0),
                                             c.get("wavelets.points_evaluated", 0)),
        "signals.fft_calls": n["signals.fft"],
        "signals.fft_s": t["signals.fft"],
        "signals.fft_bytes_computed": c.get("signals.fft_bytes_computed", 0),
        "signals.fft_flops_computed": c.get("signals.fft_flops_computed", 0),
        "transform.analyze_s": t["transform.analyze"],
        "transform.coorbit_norm_s": t["transform.coorbit_norm"],
        "transform.invert_s": t["transform.invert"],
        "transform.calderon_s": t["transform.calderon_constant"],
        "transform.norm_ratio_profile_s": t["transform.norm_ratio_profile"],
        "transform.self_s": stats.layer_self("transform."),
        "transform.planes": c.get("transform.planes", 0),
        "transform.nonzero_plane_ratio": _ratio(c.get("transform.nonzero_planes", 0),
                                                c.get("transform.planes", 0)),
        "transform.slab_bytes_computed": c.get("transform.slab_bytes_computed", 0),
        "classify.equiv_calls": n["classify.coorbit_equivalent"],
        "classify.equiv_s": t["classify.coorbit_equivalent"],
        "classify.canonicalize_calls": n["classify.canonicalize"],
        "classify.orbit_complement_calls": n["classify.orbit_complement"],
        "classify.same_group_calls": n["classify.same_group"],
        "classify.orbit_contains_calls": n["classify.orbit_contains"],
        "trace.overhead_ratio": overhead_ratio,
    }
    return values
