"""Tests of the benchmark itself (not part of the program's suite).

    PYTHONPATH=src python3 -m pytest -q bench

A tiny-grid smoke run of every request kind, a check that each oracle
rejects a deliberately corrupted output, and checks of the tracer.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import oracles  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from coorbit2d import GridSignal, read_signal, write_signal  # noqa: E402

TINY = workloads.Size(n=32, length=8.0, compare_n=16, compare_length=8.0)
SEED = 7


def _cli_cycle(workload, tmp_path, trace):
    inputs = workloads.make_cli_inputs(workload, SEED, TINY, tmp_path)
    cycle = workloads.cli_cycle(workload, inputs, TINY, SEED)
    runs, _ = run.run_cli_requests(cycle, 1, 0, tmp_path / "out", run.Clock(), trace)
    return inputs, runs


@pytest.fixture(scope="module")
def l2_runs(tmp_path_factory):
    return _cli_cycle("l2-pipeline", tmp_path_factory.mktemp("l2"), trace=True)


@pytest.fixture(scope="module")
def coeff_runs(tmp_path_factory):
    return _cli_cycle("coeff-domain", tmp_path_factory.mktemp("coeff"), trace=False)


def _by_kind(runs):
    return {(r["req"].kind, r["req"].family): r for r in runs if not r["traced"]}


# ---------------------------------------------------------------------------
# smoke runs of every request kind


def test_l2_pipeline_smoke(l2_runs):
    inputs, runs = l2_runs
    assert {r["req"].kind for r in runs} == {"norm2", "invert"}
    assert [r["traced"] for r in runs] == [False, True] * 6
    wrong, recon, isometry = run.check_cli_runs(runs, workloads.CliChecker(inputs))
    assert [r["error"] for r in runs] == [None] * 12
    assert wrong == 0
    assert len(recon) == len(isometry) == 6
    assert max(recon) < 5e-2


def test_coeff_domain_smoke(coeff_runs):
    inputs, runs = coeff_runs
    assert {r["req"].kind for r in runs} == {"norm1", "norminf", "analyze", "compare"}
    wrong, _, _ = run.check_cli_runs(runs, workloads.CliChecker(inputs))
    assert [r["error"] for r in runs] == [None] * 11
    assert wrong == 0


def test_classify_mix_smoke():
    result = run.run_classify_chunks(SEED, 1)
    assert len(result["latencies"]) == workloads.CHUNK
    assert result["wrong"] == 0
    # only the near-perpendicular slice may fail (the live assert in classify)
    assert all(e.startswith("near-perpendicular: AssertionError") for e in result["errors"])


def test_traced_requests_record_every_layer(l2_runs):
    runs = [r for r in l2_runs[1] if r["traced"]]
    stats, counters = spans.SpanStats(), {}
    for r in runs:
        dump = json.loads((r["dir"] / f"{r['i']}.spans").read_text())
        assert dump["missing"] == []
        stats.add(dump["spans"])
        for k, v in dump["counters"].items():
            counters[k] = counters.get(k, 0) + v
    m = spans.layer_metrics(stats, counters, len(runs), sum(r["wall"] for r in runs), 0.0)
    assert m.keys() == spans.PER_LAYER_UNITS.keys()
    for name in ("cli.self_s", "io_formats.read_signal_s", "io_formats.write_signal_s",
                 "sampling.build_s", "groups.element_from_chart_s", "wavelets.evaluate_s",
                 "signals.fft_s", "transform.analyze_s", "transform.invert_s",
                 "transform.calderon_s", "transform.self_s"):
        assert m[name] > 0.0, name
    assert 0.0 < m["wavelets.support_hit_ratio"] < 1.0
    assert m["transform.planes"] == m["sampling.points"]  # one analysis per sampling


def test_failed_request_is_counted(tmp_path):
    bad = workloads.CliRequest("norm2", "similitude",
                               ("norm", str(tmp_path / "missing.json"), "x.sig"), 0)
    runs, _ = run.run_cli_requests([bad], 1, 0, tmp_path / "bad", run.Clock())
    inputs = workloads.make_cli_inputs("l2-pipeline", SEED, TINY, tmp_path)
    wrong, _, _ = run.check_cli_runs(runs, workloads.CliChecker(inputs))
    assert runs[0]["exit"] == 2 and runs[0]["error"].startswith("exit 2")
    assert wrong == 0


# ---------------------------------------------------------------------------
# every oracle rejects a corrupted output


def _corrupt_report(r, key, factor):
    path = r["dir"] / f"{r['i']}.json"
    doc = json.loads(path.read_text())
    if key == "rows":
        doc["values"]["rows"][0]["ratio"] *= factor
    else:
        doc["values"][key] *= factor
    path.write_text(json.dumps(doc))


def _recheck(inputs, runs):
    for r in runs:
        r["error"] = None
    run.check_cli_runs(runs, workloads.CliChecker(inputs))
    return {key: r["error"] for key, r in _by_kind(runs).items() if r["error"]}


def test_l2_oracles_reject_corruption(l2_runs):
    inputs, runs = l2_runs
    by = _by_kind(runs)
    _corrupt_report(by[("norm2", "diagonal")], "coorbit_norm", 1 + 1e-8)
    r = by[("invert", "shearlet")]
    rec = read_signal(r["dir"] / f"{r['i']}.sig")
    data = rec.data.copy()
    data[3, 5] += 1e-6 * np.abs(data).max()
    write_signal(r["dir"] / f"{r['i']}.sig", GridSignal(rec.N, rec.L, data))
    errors = _recheck(inputs, runs)
    assert set(errors) == {("norm2", "diagonal"), ("invert", "shearlet")}
    assert all(e.startswith("oracle:") for e in errors.values())


def test_coeff_oracles_reject_corruption(coeff_runs):
    inputs, runs = coeff_runs
    by = _by_kind(runs)
    _corrupt_report(by[("analyze", "similitude")], "total_weighted_energy", 1 + 1e-8)
    _corrupt_report(by[("norminf", "diagonal")], "coorbit_norm", 1e-3)
    _corrupt_report(by[("compare", "shearlet")], "rows", 1 + 1e-9)
    errors = _recheck(inputs, runs)
    assert set(errors) == {("analyze", "similitude"), ("norminf", "diagonal"),
                           ("compare", "shearlet")}


def test_compare_rows_oracle_rejects_degenerate_and_nonfinite():
    row = {"norm1": 2.0, "norm2": 4.0, "ratio": 0.5, "degenerate": False}
    assert oracles.check_compare_rows([row]) is None
    assert oracles.check_compare_rows([]) is not None
    assert oracles.check_compare_rows([{**row, "degenerate": True, "ratio": None}])
    assert oracles.check_compare_rows([{**row, "norm1": float("inf"),
                                        "ratio": float("inf")}])


def test_classify_oracle_rejects_wrong_verdicts():
    for kind, args, truth in workloads.classify_chunk(SEED, 0)[:200]:
        if kind == "near-perpendicular":
            continue
        out = workloads.execute_classify(kind, args)
        assert workloads.classify_correct(kind, out, truth)
        if kind == "round-trip":
            shifted = type(out)(out.kind, phi=(out.phi + 1e-6) % np.pi, s=out.s, c=out.c)
            assert not workloads.classify_correct(kind, shifted, truth)
        elif kind == "symmetry":
            assert not workloads.classify_correct(kind, (not out[0],) + out[1:], truth)
        else:
            assert not workloads.classify_correct(kind, not out, truth)


# ---------------------------------------------------------------------------
# tracer and inputs


def test_missing_name_is_not_observed():
    tracer = spans.Tracer()
    tracer.install([("coorbit2d.transform", "no_such_function", "x", None),
                    ("coorbit2d.no_such_module", "f", "x", None)])
    assert tracer.missing == ["coorbit2d.transform.no_such_function",
                              "coorbit2d.no_such_module.f"]
    tracer.uninstall()


def test_self_time_subtracts_children():
    stats = spans.SpanStats()
    stats.add([["a", 0.0, 10.0, -1, 0], ["b", 1.0, 4.0, 0, 0], ["c", 2.0, 3.0, 1, 0]])
    assert stats.total["a"] == 10.0
    assert stats.self_time["a"] == 7.0
    assert stats.self_time["b"] == 2.0
    assert stats.layer_self("") == 10.0


def test_install_and_uninstall_restore_originals():
    from coorbit2d import classify

    original = classify.orbit_complement
    tracer = spans.Tracer()
    tracer.install(spans.CLASSIFY_TARGETS)
    assert classify.orbit_complement is not original
    tracer.uninstall()
    assert classify.orbit_complement is original


def test_classify_failures_do_not_depend_on_the_seed():
    def near_perpendicular(seed):
        return [r for r in workloads.classify_chunk(seed, 0)
                if r[0] == "near-perpendicular"]

    a, b = near_perpendicular(1), near_perpendicular(2)
    assert len(a) == 100
    assert [float(r[1][1].conjugator[0, 0]) for r in a] == \
        [float(r[1][1].conjugator[0, 0]) for r in b]
    assert run.classify_chunk_count(20, trace=False) == 80
    assert run.classify_chunk_count(20, trace=True) == 40


def test_inputs_are_seeded(tmp_path):
    a = workloads.make_cli_inputs("coeff-domain", 3, TINY, tmp_path / "a")
    b = workloads.make_cli_inputs("coeff-domain", 3, TINY, tmp_path / "b")
    for name, path in a.paths.items():
        assert path.read_bytes() == b.paths[name].read_bytes()
    first = [(k, t) for k, _, t in workloads.classify_chunk(3, 0)]
    assert first == [(k, t) for k, _, t in workloads.classify_chunk(3, 0)]


def test_benchmark_json_matches_the_metrics_emitted():
    doc = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == spans.PER_LAYER_UNITS
