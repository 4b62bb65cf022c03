"""coorbit2d benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see bench/README.md for why each exists):

* l2-pipeline   CLI ``norm --p 2`` and ``invert`` at N=128 per family
* coeff-domain  CLI ``norm --p 1|inf``, ``analyze --energies`` on CSV input,
                and two ``compare`` runs at N=64
* classify-mix  in-process equivalence / canonical-form / symmetry batch
* all           each of the above in turn, in its own process

Each workload is a closed loop with one client: the next request starts when
the previous one has finished.  CLI requests run in child processes timed
from spawn to reap; the timed phase runs whole request cycles until
--seconds have passed and the run has at least 10 requests.  classify-mix
sends a fixed number of chunks of 1000 requests, CLASSIFY_CHUNKS_PER_S per
second asked for, so that its work and its failure count do not depend on
the machine's speed.  Outputs are checked after the
timed phase.  With --trace 1 every request (classify: every chunk) is sent
twice in a row, untraced and with span wrappers, and the per-layer metrics
are printed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A record with every
metric, the environment and the per-request figures is written under
``.bench_work/results/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
from collections import Counter
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_PROBES = 7
# an untraced CLI run sends whole cycles until it has at least this many
# requests: one l2-pipeline cycle holds only 6
MIN_REQUESTS = 10
# classify-mix chunks per second of --seconds: 4000 requests/s, about the rate
# of the classification code at the seed commit on a 2-core Xeon
CLASSIFY_CHUNKS_PER_S = 4
RUN_DEADLINE_S = 170.0  # a run must end within 180 s; requests are killed past this

END_TO_END_UNITS = {
    "throughput_rps": "1/s",
    "latency_p50_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
# reported in the summary and the record, not gated: see bench/README.md
REPORTED_UNITS = {
    "latency_p99_s": "s",
    "error_rate": "ratio",
    "recon_err_max": "ratio",
    "isometry_err_max": "ratio",
}
P99_MIN_REQUESTS = 1000


def child_env():
    """Environment of every child: the checkout's sources, program-default threads."""
    env = dict(os.environ)
    env.pop("COORBIT2D_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def spawn(argv, cwd, stdout_path, stderr_path, timeout):
    """Run one child to completion; returns (wall s, exit code, peak RSS MB)."""
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        t0 = perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdout=out, stderr=err)
        timer = threading.Timer(max(timeout, 1.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0


class Clock:
    """Time left before the run's deadline."""

    def __init__(self):
        self.t0 = perf_counter()

    def left(self):
        return RUN_DEADLINE_S - (perf_counter() - self.t0)


# ---------------------------------------------------------------------------
# environment record


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _l3_cache_bytes():
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        for idx in sorted(base.glob("index*")):
            if (idx / "level").read_text().strip() == "3":
                text = (idx / "size").read_text().strip()
                mult = {"K": 1024, "M": 1024 ** 2, "G": 1024 ** 3}.get(text[-1], 1)
                return int(text.rstrip("KMG")) * mult
    except (OSError, ValueError):
        pass
    return None


def _git_sha():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            name = ref[5:]
            path = ROOT / ".git" / name
            if path.exists():
                return path.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + name):
                    return line.split()[0]
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def environment():
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "l3_cache_bytes": _l3_cache_bytes(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": _git_sha(),
        "child_env": "COORBIT2D_THREADS removed (program default: one thread)",
    }


# ---------------------------------------------------------------------------
# set-up


def measure_setup(workload, seed, work, clock, probes):
    """Wall times of `probes` launches of the workload driver in set-up mode:
    interpreter start, import coorbit2d, generate and write the inputs.

    Callers take half the probes before the timed phase and half after it, so
    the median does not rest on one stretch of machine load."""
    times = []
    for i in range(probes):
        argv = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                "--seed", str(seed), "--setup-probe", str(work / "inputs")]
        wall, code, _ = spawn(argv, work, work / "probe.out", work / "probe.err",
                              clock.left())
        if code != 0:
            err = (work / "probe.err").read_text(errors="replace")
            raise RuntimeError(f"set-up probe exited {code}:\n{err}")
        times.append(wall)
    return times


def setup_probe(workload, seed, out_dir):
    import workloads

    if workload == "classify-mix":
        workloads.classify_chunk(seed, 0)
    else:
        workloads.make_cli_inputs(workload, seed, workloads.FULL, out_dir)


# ---------------------------------------------------------------------------
# CLI workloads


def run_cli_requests(cycle, min_requests, seconds, out, clock, trace=False):
    """Send whole cycles until there are at least `min_requests` requests and
    `seconds` have passed.  With `trace`, every request is sent twice in a
    row, untraced and then traced, so both see the same machine load.

    Returns the executions and the wall time of the timed phase.
    """
    out.mkdir()
    runs = []
    t0 = perf_counter()
    k = 0
    while clock.left() > 0 and (len(runs) < min_requests or perf_counter() - t0 < seconds):
        for req in cycle:
            for traced in (False, True) if trace else (False,):
                i = len(runs)
                argv = [sys.executable, str(BENCH / "launcher.py"),
                        str(out / f"{i}.spans") if traced else "", *req.args,
                        "--out", str(out / f"{i}.json")]
                if req.kind == "invert":
                    argv += ["--out-signal", str(out / f"{i}.sig")]
                wall, code, rss = spawn(argv, out, out / f"{i}.stdout",
                                        out / f"{i}.stderr", clock.left())
                runs.append({"i": i, "cycle": k, "traced": traced, "req": req,
                             "wall": wall, "exit": code, "rss_mb": rss, "dir": out})
        k += 1
    return runs, perf_counter() - t0


def check_cli_runs(runs, checker):
    """Failure accounting and oracle checks for CLI executions.

    A request fails when it exits non-zero, prints a traceback, leaves no
    readable report, or its output fails an oracle.  Returns the number of
    wrong outputs and the accuracy figures.
    """
    from coorbit2d import parse_report, read_signal

    wrong = 0
    recon, isometry = [], []
    groups = {}
    for r in runs:
        r["error"] = None
        stderr = (r["dir"] / f"{r['i']}.stderr").read_text(errors="replace")
        if r["exit"] != 0:
            last = stderr.strip().splitlines()[-1:] or [""]
            r["error"] = f"exit {r['exit']}: {last[0]}"
        elif "Traceback (most recent call last)" in stderr:
            r["error"] = "traceback on stderr"
        if r["error"] is not None:
            continue
        try:
            values = parse_report((r["dir"] / f"{r['i']}.json").read_text())["values"]
            rec = (read_signal(r["dir"] / f"{r['i']}.sig")
                   if r["req"].kind == "invert" else None)
        except (OSError, ValueError, KeyError) as exc:
            r["error"] = f"unreadable output: {exc}"
            wrong += 1
            continue
        groups.setdefault((r["cycle"], r["traced"]), {})[
            (r["req"].kind, r["req"].family)] = (values, rec, r)
    for outcomes in groups.values():
        errors, rc, iso = checker.check({k: v[:2] for k, v in outcomes.items()})
        recon += rc
        isometry += iso
        for key, msg in errors.items():
            outcomes[key][2]["error"] = f"oracle: {msg}"
            wrong += 1
    return wrong, recon, isometry


def cli_workload(workload, seed, seconds, trace, work, clock):
    import workloads
    from spans import SpanStats, layer_metrics

    setup = [] if trace else measure_setup(workload, seed, work, clock, SETUP_PROBES // 2)
    inputs = workloads.make_cli_inputs(workload, seed, workloads.FULL, work / "inputs")
    cycle = workloads.cli_cycle(workload, inputs, workloads.FULL, seed)
    runs, wall = run_cli_requests(cycle, 1 if trace else MIN_REQUESTS, seconds,
                                  work / "requests", clock, trace)
    if not trace:
        setup += measure_setup(workload, seed, work, clock, SETUP_PROBES - len(setup))
    wrong, recon, isometry = check_cli_runs(runs, workloads.CliChecker(inputs))
    failed = sum(r["error"] is not None for r in runs)
    result = {
        "correct": wrong == 0,
        "attempted": len(runs),
        "failed": failed,
        "errors": _tally(r["error"] for r in runs if r["error"]),
        "requests": [{"kind": r["req"].kind, "family": r["req"].family,
                      "traced": r["traced"], "wall_s": r["wall"], "exit": r["exit"],
                      "rss_mb": r["rss_mb"], "slab_bytes_computed": r["req"].slab_bytes,
                      "error": r["error"]} for r in runs],
    }
    if not trace:
        walls = [r["wall"] for r in runs]
        result["metrics"] = {
            "throughput_rps": (len(runs) - failed) / wall,
            "latency_p50_s": statistics.median(walls),
            "peak_rss_mb": max(r["rss_mb"] for r in runs),
            "setup_s": statistics.median(setup),
        }
        result["reported"] = {
            "latency_p99_s": _p99(walls),
            "error_rate": failed / len(runs),
            "recon_err_max": max(recon) if recon else None,
            "isometry_err_max": max(isometry) if isometry else None,
        }
        result["counts"] = {"latency": len(walls), "timed_wall_s": wall}
        return result
    traced = [r for r in runs if r["traced"]]
    stats, counters, missing = SpanStats(), {}, set()
    spans_dir = work / "spans"  # kept with the record; the rest of the work dir goes
    spans_dir.mkdir()
    for r in traced:
        path = r["dir"] / f"{r['i']}.spans"
        try:
            dump = json.loads(path.read_text())
        except (OSError, ValueError):
            continue
        shutil.copy(path, spans_dir / f"{r['i']}.json")
        stats.add(dump["spans"])
        for key, v in dump["counters"].items():
            counters[key] = counters.get(key, 0) + v
        missing.update(dump["missing"])
    traced_wall = sum(r["wall"] for r in traced)
    plain_wall = sum(r["wall"] for r in runs if not r["traced"])
    result["metrics"] = layer_metrics(stats, counters, len(traced), traced_wall,
                                      traced_wall / plain_wall - 1.0)
    result["counts"] = {"traced_request_wall_s": traced_wall,
                        "untraced_request_wall_s": plain_wall}
    result["not_observed"] = sorted(missing)
    return result


# ---------------------------------------------------------------------------
# classify-mix


def run_chunk(reqs, tracer=None, base=0):
    """Send one chunk of classification requests; returns latencies, outputs
    and the chunk's wall time."""
    import workloads

    latencies, outs = [], []
    t_chunk = perf_counter()
    for i, (kind, args, _) in enumerate(reqs):
        if tracer is not None:
            tracer.request = base + i
        t0 = perf_counter()
        try:
            out, exc = workloads.execute_classify(kind, args), None
        except Exception as e:  # recorded as a failed request; the run goes on
            out, exc = None, e
        latencies.append(perf_counter() - t0)
        outs.append((out, exc))
    return latencies, outs, perf_counter() - t_chunk


def check_chunk(reqs, outs):
    """Failure texts of a chunk, and how many of them are wrong verdicts."""
    import workloads

    errors, wrong = [], 0
    for (kind, _, truth), (out, exc) in zip(reqs, outs):
        if exc is not None:
            errors.append(f"{kind}: {type(exc).__name__} {exc}".rstrip().splitlines()[0])
        elif not workloads.classify_correct(kind, out, truth):
            wrong += 1
            errors.append(f"{kind}: wrong verdict")
    return errors, wrong


def classify_chunk_count(seconds, trace):
    """Chunks of a classify-mix run: fixed by --seconds, not by the clock.

    A traced run sends each chunk twice, so it takes half as many."""
    n = max(1, round(seconds * CLASSIFY_CHUNKS_PER_S))
    return max(1, n // 2) if trace else n


def run_classify_chunks(seed, chunks, tracer=None, clock=None):
    """Closed loop over chunks 0 .. chunks-1, after an untimed warm-up chunk.

    With a tracer, each chunk is sent twice in a row, untraced and then traced
    (rebuilt from the seed, so no object is reused), so both see the same
    machine load.  Checks run between chunks, outside the timed phase.  The
    loop stops early only when the run's deadline is near."""
    import workloads
    from spans import CLASSIFY_TARGETS

    run_chunk(workloads.classify_chunk(seed, chunks))  # warm-up, not counted
    acc = {"latencies": [], "errors": [], "wrong": 0, "timed": 0.0,
           "plain_s": 0.0, "traced_s": 0.0, "chunks": 0}
    for k in range(chunks):
        if clock is not None and clock.left() < 20.0:
            break
        acc["chunks"] += 1
        for traced in (False, True) if tracer is not None else (False,):
            reqs = workloads.classify_chunk(seed, k)
            if traced:
                tracer.install(CLASSIFY_TARGETS)
            try:
                lat, outs, t = run_chunk(reqs, tracer if traced else None,
                                         k * workloads.CHUNK)
            finally:
                if traced:
                    tracer.uninstall()
            errors, wrong = check_chunk(reqs, outs)
            acc["latencies"] += lat
            acc["errors"] += errors
            acc["wrong"] += wrong
            acc["timed"] += t
            acc["traced_s" if traced else "plain_s"] += t
    return acc


def classify_workload(seed, seconds, trace, work, clock):
    from spans import SpanStats, Tracer, layer_metrics

    tracer = Tracer() if trace else None
    setup = [] if trace else measure_setup("classify-mix", seed, work, clock,
                                           SETUP_PROBES // 2)
    chunks = classify_chunk_count(seconds, trace)
    run = run_classify_chunks(seed, chunks, tracer, clock)
    lat = run["latencies"]
    n = len(lat)
    result = {
        "correct": run["wrong"] == 0,
        "attempted": n,
        "failed": len(run["errors"]),
        "errors": _tally(run["errors"]),
    }
    if not trace:
        setup += measure_setup("classify-mix", seed, work, clock, SETUP_PROBES - len(setup))
        result["metrics"] = {
            "throughput_rps": (n - result["failed"]) / run["timed"],
            "latency_p50_s": statistics.median(lat),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "setup_s": statistics.median(setup),
        }
        result["reported"] = {
            "latency_p99_s": _p99(lat),
            "error_rate": result["failed"] / n,
            "recon_err_max": None,
            "isometry_err_max": None,
        }
        result["counts"] = {"latency": n, "timed_wall_s": run["timed"],
                            "chunks": run["chunks"], "chunks_planned": chunks}
        return result
    stats = SpanStats()
    stats.add(tracer.spans)
    with open(work / "spans.json", "w", encoding="utf-8") as fh:
        json.dump(tracer.dump(), fh)
    result["metrics"] = layer_metrics(stats, tracer.counters, 0, 0.0,
                                      run["traced_s"] / run["plain_s"] - 1.0)
    result["counts"] = {"untraced_wall_s": run["plain_s"], "traced_wall_s": run["traced_s"]}
    result["not_observed"] = sorted(tracer.missing)
    return result


def _tally(items):
    return dict(Counter(items))


def _p99(samples):
    """p99 only when at least ten samples lie beyond it."""
    if len(samples) < P99_MIN_REQUESTS:
        return None
    return statistics.quantiles(samples, n=100)[98]


# ---------------------------------------------------------------------------
# reporting


def _fmt(value, unit):
    if value is None:
        return "n/a"
    if isinstance(value, int):
        return f"{value} {unit}"
    return f"{value:.6g} {unit}"


def print_summary(workload, args, result, env):
    print(f"workload {workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}")
    counts = result["counts"]
    if args.trace:
        from spans import PER_LAYER_UNITS

        for name, unit in PER_LAYER_UNITS.items():
            print(f"  {name:34s} {_fmt(result['metrics'][name], unit)}")
        if workload != "classify-mix":
            share = result["metrics"]["cli.self_s"] / counts["traced_request_wall_s"]
            print(f"  cli.self_s share of traced request time: {share:.4f}")
        if result["not_observed"]:
            print(f"  not observed: {', '.join(result['not_observed'])}")
    else:
        m, rep = result["metrics"], result["reported"]
        n = counts["latency"]
        notes = {
            "throughput_rps": f"{result['attempted'] - result['failed']} ok in "
                              f"{counts['timed_wall_s']:.3f} s",
            "latency_p50_s": f"n={n}",
            "latency_p99_s": f"n={n}" if rep["latency_p99_s"] is not None
            else f"n={n}, needs >= {P99_MIN_REQUESTS}",
            "error_rate": f"{result['failed']} of {result['attempted']}",
            "setup_s": f"median of {SETUP_PROBES}",
        }
        for name, unit in {**END_TO_END_UNITS, **REPORTED_UNITS}.items():
            value = m[name] if name in m else rep[name]
            print(f"  {name:18s} {_fmt(value, unit):22s} {notes.get(name, '')}")
    for err, n in result["errors"].items():
        print(f"  failure x{n}: {err}")
    if "requests" in result:
        l3 = env["l3_cache_bytes"]
        seen = {}
        for r in result["requests"]:
            seen.setdefault((r["kind"], r["family"]), r["slab_bytes_computed"])
        slabs = ", ".join(f"{k}/{f} {b / 1e6:.0f} MB" for (k, f), b in seen.items())
        l3_text = f"{l3 / 2 ** 20:.0f} MiB" if l3 else "unknown"
        print(f"  slab bytes computed per request (L3 cache {l3_text}): {slabs}")
    print("env " + json.dumps(env, sort_keys=True))


def run_one(args):
    clock = Clock()
    env = environment()
    WORK.mkdir(exist_ok=True)
    work = WORK / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir()
    try:
        if args.workload == "classify-mix":
            result = classify_workload(args.seed, args.seconds, args.trace, work, clock)
        else:
            result = cli_workload(args.workload, args.seed, args.seconds, args.trace,
                                  work, clock)
        results = WORK / "results"
        results.mkdir(exist_ok=True)
        stem = f"{args.workload}-s{args.seed}-t{args.trace}"
        record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "environment": env, **result}
        (results / f"{stem}.json").write_text(json.dumps(record, indent=1, default=str))
        for name in ("spans", "spans.json"):
            if (work / name).exists():
                dest = results / f"{stem}-{name}"
                if dest.is_dir():
                    shutil.rmtree(dest)
                shutil.move(str(work / name), dest)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print_summary(args.workload, args, result, env)
    from spans import PER_LAYER_UNITS

    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": result["metrics"][name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


def run_all(args):
    """Every workload in its own process, so peak RSS and set-up stay per workload."""
    import workloads

    code = 0
    for name in workloads.WORKLOADS:
        argv = [sys.executable, str(BENCH / "run.py"), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        code = max(code, subprocess.run(argv, check=False).returncode)
    return code


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["l2-pipeline", "coeff-domain", "classify-mix", "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-probe", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "coorbit2d" / "__init__.py").is_file():
        print(f"run.py: no coorbit2d sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe is not None:
        setup_probe(args.workload, args.seed, args.setup_probe)
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
