import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from coorbit2d import (
    GridSignal,
    GroupSpec,
    analyze,
    calderon_constant,
    canonical_diagonal,
    coorbit_norm,
    default_sampling,
    diagonal,
    diagonal_sampling,
    freq_bump,
    invert,
    parse_report,
    read_signal,
    rep_group,
    rotation,
    shearlet,
    shearlet_sampling,
    signal_coorbit_norm,
    similitude,
    similitude_sampling,
    write_group_spec,
    write_signal,
)
from coorbit2d import cli
from coorbit2d.classify import angle_distance
from coorbit2d.cli import main
from conftest import diagonal_spec_from_lines, random_invertible

SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, parse_report(out) if out.strip().startswith("{") else out


@pytest.fixture
def diag_path(tmp_path):
    p = tmp_path / "diag.json"
    write_group_spec(p, GroupSpec(diagonal()))
    return str(p)


@pytest.fixture
def bump_signal(tmp_path):
    f = freq_bump(64, 16.0, center=(0.9, 0.9), sigma=0.12)
    p = tmp_path / "bump.sig"
    write_signal(p, f.signal)
    return str(p)


class TestClassify:
    def test_identity_diagonal(self, capsys, diag_path):
        code, report = run_cli(capsys, "classify", diag_path)
        assert code == 0
        values = report["values"]
        assert values["canonical_form"] == {"kind": "diagonal", "phi": 0.0, "s": 0.0}
        assert values["component_count"] == 4
        assert values["complement"]["angles_deg"] == [0.0, 90.0]
        assert values["representative_conjugator"] == [[1.0, 0.0], [0.0, 1.0]]

    def test_report_written_to_file(self, tmp_path, capsys, diag_path):
        out = tmp_path / "r.json"
        code, _ = run_cli(capsys, "classify", diag_path, "--out", str(out))
        assert code == 0
        assert json.loads(out.read_text())["command"] == "classify"

    def test_golden_stability_modulo_timing(self, capsys, diag_path):
        _, r1 = run_cli(capsys, "classify", diag_path)
        _, r2 = run_cli(capsys, "classify", diag_path)
        r1.pop("timing_seconds")
        r2.pop("timing_seconds")
        assert r1 == r2


class TestEquiv:
    def test_similitude_conjugates_exit_zero(self, tmp_path, capsys, rng):
        p1, p2 = tmp_path / "s1.json", tmp_path / "s2.json"
        write_group_spec(p1, GroupSpec(similitude(), random_invertible(rng)))
        write_group_spec(p2, GroupSpec(similitude(), random_invertible(rng)))
        code, report = run_cli(capsys, "equiv", str(p1), str(p2))
        assert code == 0
        assert report["values"]["equivalent"] is True

    def test_negative_verdict_exit_three(self, tmp_path, capsys, diag_path):
        p2 = tmp_path / "rot.json"
        write_group_spec(p2, GroupSpec(diagonal(), rotation(0.2)))
        code, report = run_cli(capsys, "equiv", diag_path, str(p2))
        assert code == 3
        assert report["values"]["equivalent"] is False
        assert len(report["certificates"]["complements"]) == 2


    def test_near_perpendicular_pair_exit_zero(self, tmp_path, capsys):
        p1, p2 = _near_perpendicular_pair(tmp_path)
        code, report = run_cli(capsys, "equiv", p1, p2)
        assert code == 0
        _assert_same_canonical_phi(report)

    def test_near_perpendicular_pair_under_optimize(self, tmp_path):
        # the verdict's consistency check must not be an assert stripped by -O
        p1, p2 = _near_perpendicular_pair(tmp_path)
        env = dict(os.environ, PYTHONPATH=str(SRC))
        proc = subprocess.run([sys.executable, "-O", "-m", "coorbit2d", "equiv", p1, p2],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        _assert_same_canonical_phi(parse_report(proc.stdout))

    def test_near_equal_lines_exit_zero(self, tmp_path, capsys):
        # complements {0.3, 0.8} and {0.3, 0.8 + 5e-10}: an angle gap inside
        # tol whose s = cot(theta) gap is not
        paths = []
        for name, a2 in (("a.json", 0.8), ("b.json", 0.8 + 5e-10)):
            write_group_spec(tmp_path / name, diagonal_spec_from_lines(0.3, a2))
            paths.append(str(tmp_path / name))
        code, report = run_cli(capsys, "equiv", *paths)
        assert code == 0
        _assert_same_canonical_phi(report)


def _near_perpendicular_pair(tmp_path):
    """The ROADMAP reproducer: s = 0 against s = 7.4e-10, inside tol = 1e-9."""
    paths = []
    for name, s in (("perp.json", 0.0), ("near.json", 7.4e-10)):
        p = tmp_path / name
        write_group_spec(p, rep_group(canonical_diagonal(2.6455835135848735, s)))
        paths.append(str(p))
    return paths


def _assert_same_canonical_phi(report):
    assert report["values"]["equivalent"] is True
    cf1, cf2 = report["certificates"]["canonical_forms"]
    assert angle_distance(cf1["phi"], cf2["phi"]) <= 1e-9


class TestSymmetry:
    def test_swap_triple_all_yes(self, capsys, diag_path):
        code, report = run_cli(capsys, "symmetry", diag_path, "--matrix", "0,1,1,0")
        assert code == 0
        assert report["values"] == {
            "normalizer": True, "coorbit_symmetry": True, "orbit_symmetry": True,
        }

    def test_rotation_triple_all_no(self, capsys, diag_path):
        c, s = np.cos(0.2), np.sin(0.2)
        code, report = run_cli(
            capsys, "symmetry", diag_path, "--matrix", f"{c},{s},{-s},{c}"
        )
        assert code == 0
        assert not any(report["values"].values())

    def test_bad_matrix_flag(self, capsys, diag_path):
        code, _ = run_cli(capsys, "symmetry", diag_path, "--matrix", "1,2,3")
        assert code == 1

    @pytest.mark.parametrize("matrix", ["1,1,1,1.0000000001", "1,1,1,1", "nan,0,0,1"])
    def test_singular_or_non_finite_matrix_is_usage_error(self, capsys, diag_path,
                                                          matrix):
        assert main(["symmetry", diag_path, "--matrix", matrix]) == 1
        assert capsys.readouterr().err.startswith("usage error: --matrix")

    def test_well_conditioned_matrix_accepted(self, capsys, diag_path):
        # |det| = 1e-8, above the 2e-9 that tol |a1| |a2| gives here
        code, report = run_cli(capsys, "symmetry", diag_path, "--matrix",
                               "1,1,1,1.00000001")
        assert code == 0
        assert all(isinstance(v, bool) for v in report["values"].values())

    @pytest.mark.parametrize("matrix", ["1e200,0,0,1e200", "1e-200,0,0,1e-200"])
    def test_scalar_matrix_at_extreme_scale_accepted(self, capsys, diag_path, matrix):
        # det leaves the float range here; the conditioning rule is scale-free,
        # and a scalar matrix lies in every normalizer
        code, report = run_cli(capsys, "symmetry", diag_path, "--matrix", matrix)
        assert code == 0
        assert all(report["values"].values())
        assert capsys.readouterr().err == ""


class TestExitCodes:
    def test_usage_error(self, capsys):
        code = main(["classify"])  # missing argument
        assert code == 1

    def test_unknown_command(self):
        assert main(["frobnicate"]) == 1

    def test_parse_error(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text("{")
        assert main(["classify", str(p)]) == 2

    def test_nearly_singular_conjugator_is_parse_error(self, tmp_path, capsys):
        # det of the second evaluates to nan; the rule does not depend on scale
        for b in ([[1.0, 1.0], [1.0, 1.0 + 1e-10]],
                  [[1e160, 1e160], [1e160, 1e160 * (1 + 1e-15)]]):
            p = tmp_path / "ill.json"
            p.write_text(json.dumps({"family": "diagonal", "conjugator": b}))
            assert main(["classify", str(p)]) == 2
            assert "singular" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["classify", "norm"])
    def test_conjugator_with_non_finite_inverse_is_parse_error(self, tmp_path, capsys,
                                                               bump_signal, command):
        p = tmp_path / "subnormal.json"
        p.write_text(json.dumps({"family": "diagonal",
                                 "conjugator": [[1e-310, 0.0], [0.0, 1.0]]}))
        argv = [command, str(p)] + ([bump_signal] if command == "norm" else [])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error:") and err.count("\n") == 1

    def test_missing_file(self, tmp_path):
        assert main(["classify", str(tmp_path / "none.json")]) == 2

    def test_bad_exponent_is_usage_error(self, capsys, diag_path, bump_signal):
        for p in ("abc", "0", "-1", "nan"):
            assert main(["norm", diag_path, bump_signal, "--p", p]) == 1
        assert "usage error" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        "norm {similitude} {signal} --n-scale 0",
        "norm {similitude} {signal} --n-angle -2",
        "norm {similitude} {signal} --lam-min nan",
        "norm {shearlet} {signal} --shear-min inf",
        "norm {similitude} {signal} --lam-min 2 --lam-max -2",
        "gen-signal freq_bump {out} --center a,b",
        "gen-signal freq_bump {out} --N 100",
        "gen-signal freq_bump {out} --sigma -1",
        "covariance {similitude}",
        # --n-samples is no longer a flag of calderon: refused as unknown
        "calderon {similitude} --n-samples 0",
        "calderon {similitude} --n-samples 17",
        "calderon {shearlet} --n-samples 17",
        "calderon {similitude} --n-samples 16",
        "classify {similitude} --tol nan",
        "classify {similitude} --tol inf",
        "equiv {similitude} {similitude} --tol -1",
        "symmetry {similitude} --matrix 1,0,0,1 --tol nan",
        "gen-signal freq_bump {out} --amplitude nan",
        "gen-signal freq_bump {out} --amplitude inf",
        "gen-signal freq_bump {out} --seed -1",
        "compare {similitude} {similitude} --seed -1",
        "compare {similitude} {similitude} --n-signals 0",
        "compare {similitude} {similitude} --n-signals -3",
        "invert {similitude} {signal} --max-error nan",
        "invert {similitude} {signal} --max-error -1",
        "calderon {similitude} --max-deviation nan",
    ])
    def test_bad_flag_is_usage_error(self, capsys, tmp_path, bump_signal, command):
        paths = {"signal": bump_signal, "out": str(tmp_path / "out.sig")}
        for name, family in (("similitude", similitude()), ("shearlet", shearlet(0.5))):
            paths[name] = str(tmp_path / f"{name}.json")
            write_group_spec(paths[name], GroupSpec(family))
        assert main(command.format(**paths).split()) == 1
        assert capsys.readouterr().err.startswith("usage error:")

    @pytest.mark.parametrize("kind", ["freq_bump", "wave_packet"])
    @pytest.mark.parametrize("amplitude", ["1e308", "1e200"])
    def test_overflowing_amplitude_is_usage_error(self, capsys, tmp_path, kind,
                                                  amplitude):
        # finite amplitudes whose signal (1e308) or its L2 norm (1e200)
        # overflows at N = 128
        out = tmp_path / "out.sig"
        assert main(["gen-signal", kind, str(out), "--amplitude", amplitude]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: --amplitude ")
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("command", [
        "analyze {group} {signal}", "norm {group} {signal}",
        "invert {group} {signal}", "calderon {group}", "compare {group} {group}",
    ])
    def test_weight_overflow_is_numeric_failure(self, capsys, tmp_path,
                                                bump_signal, command):
        # g_w = exp(-(2 + c) lam) leaves the float range on the default
        # log-scales (+-1.875) once |c| exceeds ~378: no flag is at fault
        group = str(tmp_path / "c400.json")
        write_group_spec(group, GroupSpec(shearlet(400.0)))
        argv = command.format(group=group, signal=bump_signal).split()
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            assert main(argv) == 4
        err = capsys.readouterr().err
        assert err.startswith("numeric failure: ")
        assert err.count("\n") == 1
        assert record == []

    @pytest.mark.parametrize("conjugator", [
        1e200 * rotation(0.4), rotation(0.2) @ np.array([[1.0, 1.0], [0.0, 2e-9]]),
    ], ids=["scaled-1e200", "column-sine-2e-9"])
    @pytest.mark.parametrize("command", [
        "norm {group} {signal} --p 2", "norm {group} {signal} --p 1",
        "invert {group} {signal}", "calderon {group}",
    ])
    def test_element_overflow_is_numeric_failure(self, capsys, tmp_path, bump_signal,
                                                 conjugator, command):
        # B m B^-1 leaves the float range for e^(c lam) ~ 1e306 and these B
        group = str(tmp_path / "c376.json")
        write_group_spec(group, GroupSpec(shearlet(376.0), conjugator))
        argv = command.format(group=group, signal=bump_signal).split()
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            assert main(argv) == 4
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("numeric failure: the elements of ")
        assert err.count("\n") == 1
        assert record == []

    @pytest.mark.parametrize("command", [
        "norm {group} {signal} --p 0.01", "norm {group} {signal} --p 400",
        "compare {group} {group} --p 0.01",
    ])
    def test_norm_power_out_of_range_is_numeric_failure(self, capsys, tmp_path, command):
        # sum |W|^0.01 to the power 100 overflows; |W|^400 underflows to 0
        # although max |W| ~ 0.1
        group, signal = str(tmp_path / "perp.json"), str(tmp_path / "f32.sig")
        write_group_spec(group, rep_group(canonical_diagonal(2.6455835135848735, 0.0)))
        assert main(["gen-signal", "freq_bump", signal, "--N", "32",
                     "--center", "0.8,0.2"]) == 0
        capsys.readouterr()
        argv = command.format(group=group, signal=signal).split()
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            assert main(argv) == 4
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("numeric failure: the coorbit norm at p = ")
        assert err.count("\n") == 1
        assert record == []

    def test_gen_signal_warning_is_one_line(self, capsys, tmp_path):
        out = tmp_path / "wp.sig"
        code = main(["gen-signal", "wave_packet", str(out), "--N", "32", "--seed", "3"])
        err = capsys.readouterr().err
        assert code == 0 and out.exists()
        assert err.startswith("warning: wave packet reaches ")
        assert err.count("\n") == 1 and "cli.py" not in err

    def test_zero_tolerance_is_accepted(self, capsys, diag_path):
        code, report = run_cli(capsys, "equiv", diag_path, diag_path, "--tol", "0")
        assert code == 0
        assert report["tolerances"] == {"tol": 0.0}

    def test_unexpected_exception_exit_five(self, capsys, monkeypatch, diag_path):
        def boom(args):
            raise RuntimeError("something broke")

        monkeypatch.setattr(cli, "_cmd_classify", boom)
        assert main(["classify", diag_path]) == 5
        err = capsys.readouterr().err
        assert err == "internal error: RuntimeError: something broke\n"
        assert "Traceback" not in err

    def test_numeric_failure_exit_four(self, capsys, tmp_path, diag_path,
                                       bump_signal):
        code, _ = run_cli(
            capsys, "invert", diag_path, bump_signal,
            "--n-scale", "6", "--max-error", "1e-9",
        )
        assert code == 4


class TestRequestOrder:
    """A transform command parses the group spec, then reads the signal, then
    builds the sampling, then parses --p: the first fault met sets the exit."""

    @pytest.mark.parametrize("command,code,prefix", [
        ("norm {nope}.json {nope}.sig --p 0", 2, "input error: cannot read group spec:"),
        ("norm {group} {nope}.sig --n-scale 0 --p 0", 2,
         "input error: cannot read signal:"),
        ("norm {group} {signal} --n-scale 0 --p 0", 1, "usage error: sampling flags:"),
        ("norm {group} {signal} --p 0", 1, "usage error: --p must be positive"),
        ("calderon {nope}.json --n-scale 0", 2, "input error: cannot read group spec:"),
    ])
    def test_first_fault_sets_the_exit(self, capsys, tmp_path, diag_path, bump_signal,
                                       command, code, prefix):
        argv = command.format(group=diag_path, signal=bump_signal,
                              nope=tmp_path / "nope").split()
        assert main(argv) == code
        err = capsys.readouterr().err
        assert err.startswith(prefix) and err.count("\n") == 1


class TestFailedGateReport:
    """A breached gate exits 4 after the full report is written."""

    @pytest.mark.parametrize("argv,what,flag,value_of", [
        (["invert", "{group}", "{signal}", "--n-scale", "6", "--max-error", "1e-9"],
         "reconstruction error", "max-error",
         lambda v: v["relative_l2_error"]),
        (["calderon", "{group}", "--n-scale", "8", "--max-deviation", "0"],
         "Calderon deviation", "max-deviation",
         lambda v: v["max_rel_deviation"]),
    ], ids=["invert", "calderon"])
    def test_report_then_one_line(self, capsys, diag_path, bump_signal,
                                  argv, what, flag, value_of):
        argv = [a.format(group=diag_path, signal=bump_signal) for a in argv]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 4
        report = parse_report(captured.out)
        assert report["command"] == argv[0]
        value = value_of(report["values"])
        limit = float(argv[-1])
        assert value > limit
        assert captured.err == (f"numeric failure: {what} {value:.3g} "
                                f"exceeds --{flag} {limit:.3g}\n")


class TestPipeline:
    def test_gen_analyze_norm_invert(self, tmp_path, capsys):
        gpath = tmp_path / "sim.json"
        write_group_spec(gpath, GroupSpec(similitude()))
        spath = tmp_path / "f.sig"
        code, gen = run_cli(
            capsys, "gen-signal", "freq_bump", str(spath),
            "--N", "64", "--center", "1.0,0.4", "--sigma", "0.12",
        )
        assert code == 0 and gen["values"]["l2_norm"] > 0

        code, rep = run_cli(
            capsys, "analyze", str(gpath), str(spath),
            "--n-scale", "12", "--n-angle", "12", "--energies",
        )
        assert code == 0
        assert rep["values"]["planes"] == 144
        assert len(rep["values"]["plane_energies"]) == 144

        code, rep = run_cli(
            capsys, "norm", str(gpath), str(spath),
            "--p", "2", "--n-scale", "12", "--n-angle", "12",
        )
        assert code == 0 and rep["values"]["coorbit_norm"] > 0

        rec_path = tmp_path / "rec.sig"
        code, rep = run_cli(
            capsys, "invert", str(gpath), str(spath),
            "--n-scale", "16", "--n-angle", "16",
            "--out-signal", str(rec_path), "--max-error", "0.05",
        )
        assert code == 0
        assert rep["values"]["relative_l2_error"] <= 0.05
        assert rec_path.exists()

    def test_calderon_command(self, capsys, tmp_path):
        gpath = tmp_path / "sim.json"
        write_group_spec(gpath, GroupSpec(similitude()))
        code, rep = run_cli(
            capsys, "calderon", str(gpath), "--n-scale", "32", "--n-angle", "16",
            "--max-deviation", "0.01",
        )
        assert code == 0
        assert rep["values"]["mean"] > 0
        assert len(rep["values"]["values"]) == 16

    def test_calderon_deviation_gate(self, capsys, tmp_path):
        gpath = tmp_path / "sim.json"
        write_group_spec(gpath, GroupSpec(similitude()))
        code, _ = run_cli(
            capsys, "calderon", str(gpath),
            "--lam-min", "-0.3", "--lam-max", "0.3",
            "--n-scale", "8", "--n-angle", "8", "--max-deviation", "0.5",
        )
        assert code == 4

    def test_compare_command(self, capsys, tmp_path):
        g1, g2 = tmp_path / "a.json", tmp_path / "b.json"
        write_group_spec(g1, GroupSpec(shearlet(1.0)))
        write_group_spec(g2, GroupSpec(shearlet(1.0), rotation(np.pi / 4)))
        # both packet radii (0.7 and 1.6) are capped to fit the 32 x 32 band
        # (0.94): a test-signal CoverageWarning would fail the command
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, rep = run_cli(
                capsys, "compare", str(g1), str(g2),
                "--N", "32", "--n-signals", "2", "--p", "1",
            )
        assert code == 0
        rows = rep["values"]["rows"]
        assert len(rows) == 2
        assert not any(row["degenerate"] for row in rows)


# small samplings in CLI flag form and as library calls, one per family
MULTIPLIER_CASES = {
    "similitude": (GroupSpec(similitude(), rotation(0.4)),
                   ["--n-scale", "8", "--n-angle", "8"],
                   lambda s: similitude_sampling(s, (-2.0, 2.0), 8, 8)),
    "diagonal": (GroupSpec(diagonal(), rotation(0.3)),
                 ["--n-scale", "6"],
                 lambda s: diagonal_sampling(s, (-2.0, 2.0), 6)),
    "shearlet": (GroupSpec(shearlet(0.7), rotation(-0.5)),
                 ["--n-scale", "6", "--n-shear", "8"],
                 lambda s: shearlet_sampling(s, (-2.0, 2.0), 6, (-5.0, 5.0), 8)),
}


@pytest.mark.parametrize("family", sorted(MULTIPLIER_CASES))
class TestMultiplierCommands:
    """norm --p 2 and invert take the multiplier path, analyze and norm at
    other p stream their planes; the slab path is the reference."""

    def _setup(self, tmp_path, family):
        spec, flags, make_sampling = MULTIPLIER_CASES[family]
        gpath, spath = tmp_path / "g.json", tmp_path / "f.sig"
        write_group_spec(gpath, spec)
        center = np.linalg.inv(spec.conjugator).T @ np.array([1.0, 0.3])
        write_signal(spath, freq_bump(32, 8.0, center=center, sigma=0.2).signal)
        return spec, str(gpath), str(spath), flags, make_sampling(spec)

    def test_norm2_matches_slab_path(self, tmp_path, capsys, family):
        spec, gpath, spath, flags, sampling = self._setup(tmp_path, family)
        code, rep = run_cli(capsys, "norm", gpath, spath, "--p", "2", *flags)
        assert code == 0
        sig = read_signal(spath)
        ref = coorbit_norm(analyze(sig, spec, sampling), 2)
        assert abs(rep["values"]["coorbit_norm"] - ref) <= 1e-12 * ref

    def test_streamed_commands_match_slab_path(self, tmp_path, capsys, family):
        spec, gpath, spath, flags, sampling = self._setup(tmp_path, family)
        slab = analyze(read_signal(spath), spec, sampling)
        energies = slab.plane_energies()
        code, rep = run_cli(capsys, "analyze", gpath, spath, "--energies", *flags)
        assert code == 0
        assert rep["values"]["planes"] == len(sampling)
        assert rep["values"]["plane_energies"] == energies.tolist()
        assert rep["values"]["total_weighted_energy"] == float(
            np.sum(sampling.g_w * energies))
        assert rep["values"]["max_coefficient"] == float(np.max(np.abs(slab.planes)))
        for p in ("1", "inf"):
            code, rep = run_cli(capsys, "norm", gpath, spath, "--p", p, *flags)
            assert code == 0
            assert rep["values"]["coorbit_norm"] == coorbit_norm(slab, float(p))

    def test_default_sampling_writes_nothing_to_stderr(self, tmp_path, capsys,
                                                       family):
        # at fine scales the default samplings map the wavelet off the band
        # on purpose: those planes are exactly 0 and nothing is wrong
        spec, gpath, spath, *_ = self._setup(tmp_path, family)
        reports = {}
        for command, *flags in (["analyze"], ["norm"], ["norm", "--p", "1"],
                                ["invert"]):
            with warnings.catch_warnings(record=True) as record:
                warnings.simplefilter("always")
                assert main([command, gpath, spath, *flags]) == 0
            captured = capsys.readouterr()
            assert captured.err == ""
            assert record == []
            reports[(command, *flags)] = parse_report(captured.out)["values"]
        # the CLI default grid is the library's default_sampling
        sampling = default_sampling(spec)
        assert reports[("analyze",)]["planes"] == len(sampling)
        assert reports[("norm", "--p", "1")]["coorbit_norm"] == signal_coorbit_norm(
            read_signal(spath), spec, sampling, 1)

    def test_default_compare_writes_nothing_to_stderr(self, tmp_path, capsys,
                                                      family):
        # at the default N = 64 the top packet (r = 1.6) used to reach past
        # the band (1.94); the radii are capped so that every packet fits
        _, gpath, *_ = self._setup(tmp_path, family)
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            assert main(["compare", gpath, gpath]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert record == []
        assert len(parse_report(captured.out)["values"]["rows"]) == 5

    def test_invert_matches_library_invert(self, tmp_path, capsys, family):
        spec, gpath, spath, flags, sampling = self._setup(tmp_path, family)
        out = tmp_path / "rec.sig"
        code, rep = run_cli(capsys, "invert", gpath, spath, "--out-signal", str(out),
                            *flags)
        assert code == 0
        sig = read_signal(spath)
        c_psi = calderon_constant(spec, sampling).mean
        assert rep["values"]["calderon_constant"] == c_psi
        ref = invert(analyze(sig, spec, sampling), spec, c_psi).data
        gap = np.linalg.norm(read_signal(out).data - ref) / np.linalg.norm(ref)
        assert gap <= 1e-12
