import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from coorbit2d import (
    CoverageWarning,
    GroupSpec,
    calderon_constant,
    canonical_diagonal,
    default_sampling,
    diagonal,
    freq_bump,
    parse_report,
    read_signal,
    rep_group,
    rotation,
    shearlet,
    signal_coorbit_norm,
    similitude,
    write_group_spec,
    write_signal,
)
from coorbit2d import cli, signals
from coorbit2d.classify import angle_distance
from coorbit2d.cli import main
from conftest import (
    analyze,
    big_bump_data,
    coorbit_norm,
    diagonal_spec_from_lines,
    invert,
    random_invertible,
    write_raw_signal,
)

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

    def test_non_numeric_matrix_is_usage_error(self, capsys, diag_path):
        assert main(["symmetry", diag_path, "--matrix", "1,x,0,1"]) == 1
        assert capsys.readouterr().err == "usage error: --matrix entries must be numbers\n"

    @pytest.mark.parametrize("matrix", ["1,1,1,1.0000000001", "1,1,1,1", "nan,0,0,1"])
    def test_singular_or_non_finite_matrix_is_usage_error(self, capsys, diag_path,
                                                          matrix):
        assert main(["symmetry", diag_path, "--matrix", matrix]) == 1
        assert capsys.readouterr().err.startswith("usage error: --matrix")

    @pytest.mark.parametrize("family", [diagonal(), similitude()],
                             ids=["diagonal", "similitude"])
    @pytest.mark.parametrize("matrix", ["1e-310,0,0,1", "-5e-324,-5e-324,-5e-324,0"],
                             ids=["inverse-overflows", "lapack-cannot-invert"])
    def test_matrix_with_non_finite_inverse_is_usage_error(self, capsys, tmp_path,
                                                           family, matrix):
        # well conditioned, but its inverse leaves the float range: GroupSpec's
        # rule refuses it in one line, before conjugate_spec is reached
        p = tmp_path / "spec.json"
        write_group_spec(p, GroupSpec(family))
        assert main(["symmetry", str(p), f"--matrix={matrix}"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: --matrix") and err.count("\n") == 1

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

    @pytest.mark.parametrize("command", ["classify", "norm-spec", "norm-csv"])
    def test_input_that_is_not_utf8_is_parse_error(self, tmp_path, capsys, diag_path,
                                                   bump_signal, command):
        # a 0xff byte inside the family string, and a CSV that starts 0xff 0xfe
        bad_spec, bad_csv = tmp_path / "bad.json", tmp_path / "bad.csv"
        bad_spec.write_bytes(b'{"family": "di\xffagonal"}')
        bad_csv.write_bytes(b"\xff\xfe4,8.0\n")
        argv = {"classify": ["classify", str(bad_spec)],
                "norm-spec": ["norm", str(bad_spec), bump_signal],
                "norm-csv": ["norm", diag_path, str(bad_csv)]}[command]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error: cannot read") and err.count("\n") == 1
        assert "can't decode byte 0xff" in err

    @pytest.mark.parametrize("document", [
        '{"family": "shearlet", "c": 1' + "0" * 400 + "}",
        '{"family": "diagonal", "conjugator": [[1' + "0" * 400 + ", 0], [0, 1]]}",
        '{"family": "shearlet", "c": 1' + "0" * 5000 + "}",
        "[" * 100_000,
    ], ids=["c-past-float-range", "conjugator-past-float-range", "past-digit-limit",
            "nested-past-recursion-limit"])
    def test_spec_past_a_decoder_limit_is_parse_error(self, tmp_path, capsys, document):
        # float() of a 401-digit integer overflows, json refuses an integer of
        # 5001 digits, and 10^5 nested arrays pass the recursion limit
        p = tmp_path / "spec.json"
        p.write_text(document)
        assert main(["classify", str(p)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error:") and err.count("\n") == 1

    @pytest.mark.parametrize("document,key", [
        ('{"family": "diagonal", "family": "similitude"}', "family"),
        ('{"family": "shearlet", "c": 1.0, "conjugator": [[1, 0], [0, 1]], "c": 2.0}', "c"),
    ], ids=["family", "c"])
    def test_repeated_key_in_a_spec_is_parse_error(self, tmp_path, capsys, document, key):
        # json keeps the last of a repeated key; a spec file refuses it
        p = tmp_path / "spec.json"
        p.write_text(document)
        assert main(["classify", str(p)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("input error: malformed group spec document: "
                                f"repeated key {key!r}\n")

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

    def test_subnormal_conjugator_lapack_cannot_invert_is_parse_error(self, tmp_path,
                                                                      capsys):
        # column sine 0.707 and an inverse with entries 2^1074
        p = tmp_path / "den.json"
        p.write_text(json.dumps({"family": "diagonal",
                                 "conjugator": [[-5e-324, -5e-324], [-5e-324, 0.0]]}))
        assert main(["classify", str(p)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error:") and "inverse" in err
        assert err.count("\n") == 1

    def test_allocation_failure_is_numeric_failure(self, capsys, tmp_path, monkeypatch):
        # stands in for an --N whose N x N grids do not fit in memory; nothing
        # that large is allocated here
        def no_memory(n, length):
            raise MemoryError(f"Unable to allocate 16.0 GiB for an array with "
                              f"shape ({n},) and data type float64")

        monkeypatch.setattr(signals, "freq_grids", no_memory)
        out = tmp_path / "x.sig"
        assert main(["gen-signal", "freq_bump", str(out), "--N", "32"]) == 4
        err = capsys.readouterr().err
        assert err == ("numeric failure: out of memory: Unable to allocate 16.0 GiB "
                       "for an array with shape (32,) and data type float64\n")
        assert not out.exists()

    def test_out_in_missing_directory_is_io_error(self, tmp_path, capsys, diag_path):
        out = tmp_path / "missing" / "report.json"
        assert main(["classify", diag_path, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("i/o error: ") and err.count("\n") == 1
        assert not out.parent.exists()

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
        # the shear flags are checked for every family, not only for shearlets
        "norm {similitude} {signal} --n-shear 0",
        "norm {similitude} {signal} --shear-min nan",
        "norm {similitude} {signal} --shear-min 3 --shear-max -3",
        "norm {diagonal} {signal} --n-shear 0",
        "norm {diagonal} {signal} --shear-min nan",
        "norm {diagonal} {signal} --shear-min 3 --shear-max -3",
        "calderon {diagonal} --n-shear -1",
        "gen-signal freq_bump {out} --center a,b",
        "gen-signal freq_bump {out} --N 100",
        # above 2^31, the largest power of two of the u32 .sig header
        "gen-signal freq_bump {out} --N 4294967296",
        "compare {similitude} {similitude} --N 4294967296",
        pytest.param(f"gen-signal freq_bump {{out}} --N {2 ** 1100}",
                     id="gen-signal freq_bump {out} --N 2**1100"),
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
        for name, family in (("similitude", similitude()), ("diagonal", diagonal()),
                             ("shearlet", shearlet(0.5))):
            paths[name] = str(tmp_path / f"{name}.json")
            write_group_spec(paths[name], GroupSpec(family))
        assert main(command.format(**paths).split()) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and err.count("\n") == 1

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
    def test_element_overflow_is_never_formed(self, capsys, tmp_path, bump_signal,
                                              conjugator, command):
        # B m B^-1 leaves the float range for e^(c lam) ~ 1e306 and these B,
        # but the transform takes psi-hat at m^T B^T xi and forms no element
        group = str(tmp_path / "c376.json")
        write_group_spec(group, GroupSpec(shearlet(376.0), conjugator))
        argv = command.format(group=group, signal=bump_signal).split()
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            assert main(argv) == 0
        out, err = capsys.readouterr()
        report = parse_report(out)  # one report, nothing else
        assert err == "" and record == []
        if command.startswith("calderon"):
            # the orbit samples are eta = B^T xi: B does not enter the constant
            standard = str(tmp_path / "c376-standard.json")
            write_group_spec(standard, GroupSpec(shearlet(376.0)))
            assert main(["calderon", standard]) == 0
            values = parse_report(capsys.readouterr().out)["values"]["values"]
            assert ([v.hex() for v in report["values"]["values"]]
                    == [v.hex() for v in values])

    def test_subnormal_column_runs_the_transform(self, capsys, tmp_path, bump_signal):
        # LAPACK's inverse of this B overflows although the exact one is
        # finite; no inverse of B lies on the transform path
        group = tmp_path / "subnormal-column.json"
        group.write_text(json.dumps({"family": "diagonal", "conjugator": [
            [5.384484352221483e-309, -0.05369281733950327],
            [5.19317140289342e-309, 0.20227489929360437]]}))
        for argv in (["classify", str(group)], ["norm", str(group), bump_signal]):
            with warnings.catch_warnings(record=True) as record:
                warnings.simplefilter("always")
                assert main(argv) == 0
            out, err = capsys.readouterr()
            parse_report(out)
            assert err == "" and record == []

    def test_large_signal_norms_at_p2_and_weighted_energy_overflow(self, capsys,
                                                                   tmp_path):
        # ||f|| ~ 1e153 is in range, |fhat|^2 is not: norm --p 2 scales |fhat|
        # first; ||W f||^2 of a 5e154 bump overflows, which analyze refuses
        group = str(tmp_path / "sim.json")
        write_group_spec(group, GroupSpec(similitude()))
        for amplitude in ("1e154", "5e154"):
            assert main(["gen-signal", "freq_bump", str(tmp_path / f"{amplitude}.sig"),
                         "--N", "64", "--center", "1.0,0.2",
                         "--amplitude", amplitude]) == 0
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            code, rep = run_cli(capsys, "norm", group, str(tmp_path / "1e154.sig"))
            assert code == 0
            assert rep["values"]["coorbit_norm"] == pytest.approx(5.50212e153, rel=1e-5)
            assert main(["analyze", group, str(tmp_path / "5e154.sig")]) == 4
        out, err = capsys.readouterr()
        assert out == "" and err == ("numeric failure: the weighted energy ||W f||^2 "
                                     "leaves the floating-point range\n")
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


class TestSignalRule:
    """Every signal meets GridSignal's rule (lattice step, finite energy) when
    it is read or made: the command fails at once, in one stderr line."""

    @pytest.mark.parametrize("command,code", [
        *((f"{cmd} {{group}} {{tmp}}/{length}.sig", 2)
          for length in ("1e-300", "1e-160", "1e160", "1e300")
          for cmd in ("norm --p 1", "norm --p 2", "invert", "analyze")),
        ("gen-signal freq_bump {tmp}/x.sig --L 1e-300", 1),
        ("gen-signal freq_bump {tmp}/x.sig --L 1e300", 1),
        ("gen-signal wave_packet {tmp}/x.sig --L 1e300", 1),
        ("compare {group} {group} --L 1e-300", 1),
        ("compare {group} {group} --N 8 --L 1e300", 1),
    ])
    def test_lattice_step_out_of_range(self, capsys, tmp_path, diag_path, command,
                                       code):
        # (L/N)^2 or (N/L)^2 of these lattices leaves the normal float range
        data = np.random.default_rng(5).normal(size=(32, 32))
        for length in ("1e-300", "1e-160", "1e160", "1e300"):
            write_raw_signal(tmp_path / f"{length}.sig", 32, float(length), data)
        argv = command.format(group=diag_path, tmp=tmp_path).split()
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            assert main(argv) == code
        out, err = capsys.readouterr()
        prefix = {1: "usage error: --L ",
                  2: "input error: invalid signal contents: L must be"}[code]
        assert out == "" and err.startswith(prefix) and err.count("\n") == 1
        assert record == []
        assert not (tmp_path / "x.sig").exists()

    @pytest.mark.parametrize("command", [
        "norm {group} {signal} --p 2", "norm {group} {signal} --p 1",
        "norm {group} {signal} --p inf", "invert {group} {signal}",
        "analyze {group} {signal}",
    ])
    def test_overflowing_energy_is_refused_at_read(self, capsys, tmp_path, diag_path,
                                                   command):
        signal = tmp_path / "big.sig"
        write_raw_signal(signal, 32, 8.0, big_bump_data())
        argv = command.format(group=diag_path, signal=signal).split()
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("input error: invalid signal contents: signal energy")
        assert err.count("\n") == 1
        assert record == []

    def test_large_samples_on_a_fine_lattice_are_accepted(self, capsys, tmp_path,
                                                          diag_path):
        # |f| ~ (N/L)^2 ~ 1e244 overflows sum |f|^2, but ||f|| ~ 1e120 and its
        # square are in range
        signal = tmp_path / "x.sig"
        code, rep = run_cli(capsys, "gen-signal", "freq_bump", str(signal),
                            "--L", "1e-120", "--center", "0,0")
        assert code == 0
        assert rep["values"]["l2_norm"] == pytest.approx(1e120, rel=1e-12)
        for command, *flags in (["norm", "--p", "2"], ["norm", "--p", "1"],
                                ["norm", "--p", "inf"], ["invert"], ["analyze"]):
            code = main([command, diag_path, str(signal), *flags])
            assert code in (0, 4)
            assert capsys.readouterr().err.count("\n") <= 1

    @pytest.mark.parametrize("sigma", ["1e-300", "1e200"])
    @pytest.mark.parametrize("kind", ["freq_bump", "wave_packet"])
    def test_sigma_whose_square_is_out_of_range_is_usage_error(self, capsys,
                                                               tmp_path, kind,
                                                               sigma):
        out = tmp_path / "x.sig"
        assert main(["gen-signal", kind, str(out), "--sigma", sigma]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: argument --sigma")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_gen_signal_bump_shape(self, capsys, tmp_path):
        out = tmp_path / "b.sig"
        code, _ = run_cli(capsys, "gen-signal", "freq_bump", str(out), "--N", "32",
                          "--center", "0.8,0.2", "--shape", "bump")
        assert code == 0
        with pytest.warns(CoverageWarning, match="frequency bump"):
            ref = freq_bump(32, 16.0, (0.8, 0.2), 0.15, shape="bump").signal
        assert read_signal(out).data.tobytes() == ref.data.tobytes()

    def test_norm_shear_range_flags(self, capsys, tmp_path):
        spec = GroupSpec(shearlet(0.7), rotation(-0.5))
        group, signal = tmp_path / "g.json", tmp_path / "f.sig"
        write_group_spec(group, spec)
        write_signal(signal, freq_bump(32, 8.0, (0.8, 0.2), 0.15).signal)
        code, rep = run_cli(capsys, "norm", str(group), str(signal), "--p", "1",
                            "--shear-min", "-2", "--shear-max", "2")
        assert code == 0
        sig = read_signal(signal)
        sampling = default_sampling(spec, shear_range=(-2, 2))
        narrow = signal_coorbit_norm(sig, sampling, 1)
        assert rep["values"]["coorbit_norm"] == narrow
        assert narrow != signal_coorbit_norm(sig, default_sampling(spec), 1)


class TestRequestOrder:
    """A transform command parses the group spec, then reads the signal, then
    builds the sampling, then parses --p: the first fault met sets the exit."""

    @pytest.mark.parametrize("command,code,prefix", [
        ("norm {nope}.json {nope}.sig --p 0", 2, "input error: cannot read group spec:"),
        ("norm {group} {nope}.sig --n-scale 0 --p 0", 2,
         "input error: cannot read signal:"),
        ("norm {group} {signal} --n-scale 0 --p 0", 1, "usage error: sampling flags:"),
        ("norm {group} {nope}.sig --n-shear 0", 2, "input error: cannot read signal:"),
        ("norm {group} {signal} --n-shear 0 --p 0", 1,
         "usage error: sampling flags: n_shear"),
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
            "--n-scale", "12", "--energies",
        )
        assert code == 0
        # one plane per class of H/K_psi: one per log-scale
        assert rep["values"]["planes"] == 12
        assert len(rep["values"]["plane_energies"]) == 12

        code, rep = run_cli(
            capsys, "norm", str(gpath), str(spath),
            "--p", "2", "--n-scale", "12",
        )
        assert code == 0 and rep["values"]["coorbit_norm"] > 0

        rec_path = tmp_path / "rec.sig"
        code, rep = run_cli(
            capsys, "invert", str(gpath), str(spath),
            "--n-scale", "16",
            "--out-signal", str(rec_path), "--max-error", "0.05",
        )
        assert code == 0
        assert rep["values"]["relative_l2_error"] <= 0.05
        assert rec_path.exists()

    def test_calderon_command(self, capsys, tmp_path):
        gpath = tmp_path / "sim.json"
        write_group_spec(gpath, GroupSpec(similitude()))
        code, rep = run_cli(
            capsys, "calderon", str(gpath), "--n-scale", "32",
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
            "--n-scale", "8", "--max-deviation", "0.5",
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
                   ["--n-scale", "8"],
                   lambda s: default_sampling(s, (-2.0, 2.0), 8)),
    "diagonal": (GroupSpec(diagonal(), rotation(0.3)),
                 ["--n-scale", "6"],
                 lambda s: default_sampling(s, (-2.0, 2.0), 6)),
    "shearlet": (GroupSpec(shearlet(0.7), rotation(-0.5)),
                 ["--n-scale", "6", "--n-shear", "8"],
                 lambda s: default_sampling(s, (-2.0, 2.0), 6, (-5.0, 5.0), 8)),
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
        ref = coorbit_norm(analyze(sig, sampling), 2)
        assert abs(rep["values"]["coorbit_norm"] - ref) <= 1e-12 * ref

    def test_streamed_commands_match_slab_path(self, tmp_path, capsys, family):
        spec, gpath, spath, flags, sampling = self._setup(tmp_path, family)
        slab = analyze(read_signal(spath), sampling)
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
            read_signal(spath), sampling, 1)

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
        c_psi = calderon_constant(sampling).mean
        assert rep["values"]["calderon_constant"] == c_psi
        ref = invert(analyze(sig, sampling), c_psi).data
        gap = np.linalg.norm(read_signal(out).data - ref) / np.linalg.norm(ref)
        assert gap <= 1e-12
