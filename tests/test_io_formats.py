import json

import numpy as np
import pytest

from coorbit2d import (
    FormatError,
    GridSignal,
    GroupSpec,
    emit_report,
    group_spec_from_dict,
    group_spec_to_dict,
    make_report,
    parse_group_spec,
    parse_report,
    read_signal,
    shearlet,
    write_group_spec,
    write_signal,
)
from conftest import big_bump_data, write_raw_signal


class TestGroupSpecFiles:
    def test_minimal_diagonal(self, tmp_path):
        p = tmp_path / "g.json"
        p.write_text('{"family": "diagonal"}')
        spec = parse_group_spec(p)
        assert spec.family.kind == "diagonal"
        assert spec.is_standard

    def test_shearlet_with_conjugator(self, tmp_path):
        p = tmp_path / "g.json"
        p.write_text('{"family": "shearlet", "c": 0.5, "conjugator": [[0, 1], [-1, 0]]}')
        spec = parse_group_spec(p)
        assert spec.family.c == 0.5
        assert np.allclose(spec.conjugator, [[0, 1], [-1, 0]])

    def test_missing_c(self, tmp_path):
        p = tmp_path / "g.json"
        p.write_text('{"family": "shearlet"}')
        with pytest.raises(FormatError, match="'c'"):
            parse_group_spec(p)

    def test_unexpected_c(self):
        with pytest.raises(FormatError, match="'c'"):
            group_spec_from_dict({"family": "diagonal", "c": 1.0})

    def test_unknown_key_named(self):
        with pytest.raises(FormatError, match="'shift'"):
            group_spec_from_dict({"family": "diagonal", "shift": 3})

    def test_singular_conjugator(self):
        with pytest.raises(FormatError, match="conjugator"):
            group_spec_from_dict(
                {"family": "diagonal", "conjugator": [[1, 2], [2, 4]]}
            )

    def test_bool_is_not_a_number(self):
        with pytest.raises(FormatError):
            group_spec_from_dict({"family": "shearlet", "c": True})

    def test_malformed_json(self, tmp_path):
        p = tmp_path / "g.json"
        p.write_text('{"family": ')
        with pytest.raises(FormatError, match="malformed"):
            parse_group_spec(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FormatError):
            parse_group_spec(tmp_path / "nope.json")

    def test_round_trip(self, tmp_path, rng):
        spec = GroupSpec(shearlet(-1.25), np.array([[1.0, 0.5], [0.25, 2.0]]))
        p = tmp_path / "g.json"
        write_group_spec(p, spec)
        back = parse_group_spec(p)
        assert back.family == spec.family
        assert np.array_equal(back.conjugator, spec.conjugator)

    def test_fuzz_mutated_documents(self, rng, tmp_path):
        base = group_spec_to_dict(
            GroupSpec(shearlet(0.75), np.array([[1.0, 0.3], [-0.2, 1.1]]))
        )
        junk = [None, True, "x", [], {}, [[1, 2], [3]], [[1, 2], [3, "a"]], -0.0]
        keys = ["family", "c", "conjugator", "extra", "Family", ""]
        for _ in range(300):
            doc = json.loads(json.dumps(base))
            for _ in range(rng.integers(1, 3)):
                k = keys[rng.integers(len(keys))]
                if rng.random() < 0.3 and k in doc:
                    del doc[k]
                else:
                    doc[k] = junk[rng.integers(len(junk))]
            p = tmp_path / "fuzz.json"
            p.write_text(json.dumps(doc))
            try:
                spec = parse_group_spec(p)
            except FormatError:
                continue  # rejected cleanly: fine
            # accepted documents must reproduce a valid spec
            assert spec.family.kind in ("similitude", "diagonal", "shearlet")


class TestSignalFiles:
    def _random_signal(self, rng, n=16, length=2.0):
        data = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        return GridSignal(n, length, data)

    def test_binary_round_trip_bit_exact(self, tmp_path, rng):
        sig = self._random_signal(rng)
        p = tmp_path / "s.sig"
        write_signal(p, sig)
        back = read_signal(p)
        assert back.N == sig.N and back.L == sig.L
        assert np.array_equal(back.data, sig.data)

    def test_binary_length_exact(self, tmp_path, rng):
        sig = self._random_signal(rng)
        p = tmp_path / "s.sig"
        write_signal(p, sig)
        assert p.stat().st_size == 18 + 16 * sig.N ** 2

    def test_truncated_payload(self, tmp_path, rng):
        sig = self._random_signal(rng)
        p = tmp_path / "s.sig"
        write_signal(p, sig)
        raw = p.read_bytes()
        p.write_bytes(raw[:-8])
        with pytest.raises(FormatError, match="truncated"):
            read_signal(p)

    def test_magic_mismatch(self, tmp_path, rng):
        sig = self._random_signal(rng)
        p = tmp_path / "s.sig"
        write_signal(p, sig)
        raw = bytearray(p.read_bytes())
        raw[0:4] = b"NOPE"
        p.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="magic"):
            read_signal(p)

    def test_version_mismatch(self, tmp_path, rng):
        sig = self._random_signal(rng)
        p = tmp_path / "s.sig"
        write_signal(p, sig)
        raw = bytearray(p.read_bytes())
        raw[4] = 9
        p.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="version"):
            read_signal(p)

    def test_csv_round_trip(self, tmp_path, rng):
        sig = self._random_signal(rng)
        p = tmp_path / "s.csv"
        write_signal(p, sig)
        back = read_signal(p)
        assert back.N == sig.N and back.L == sig.L
        assert np.array_equal(back.data, sig.data)  # 17 digits round-trip floats

    @pytest.mark.parametrize("suffix", [".sig", ".csv"])
    def test_round_trip_keeps_signed_zeros_and_subnormals(self, tmp_path, suffix):
        # every (re, im) pair of +-0.0 and +-5e-324; re + 1j * im would give
        # +0.0 for -0.0 in either part
        parts = (0.0, -0.0, 5e-324, -5e-324)
        pairs = np.array([(re, im) for re in parts for im in parts])
        data = np.resize(pairs, (8, 16)).view(complex)
        p = tmp_path / f"s{suffix}"
        write_signal(p, GridSignal(8, 1.0, data))
        assert read_signal(p).data.tobytes() == data.tobytes()

    def test_overflowing_energy_rejected(self, tmp_path):
        p = tmp_path / "big.sig"
        write_raw_signal(p, 32, 8.0, big_bump_data())
        with pytest.raises(FormatError, match="invalid signal contents: .*energy"):
            read_signal(p)

    def test_csv_bad_cell_position_reported(self, tmp_path):
        n = 8
        sig = GridSignal(n, 1.0, np.zeros((n, n)))
        p = tmp_path / "s.csv"
        write_signal(p, sig)
        lines = p.read_text().splitlines()
        cells = lines[3].split(",")
        cells[4] = "oops"
        lines[3] = ",".join(cells)
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError, match=r"row 3, col 5"):
            read_signal(p)

    def test_csv_wrong_row_count(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("8,1.0\n" + "\n".join(["0,0"] * 3) + "\n")
        with pytest.raises(FormatError, match="rows"):
            read_signal(p)

    def test_fuzz_binary_mutations(self, tmp_path, rng):
        sig = self._random_signal(rng, n=8)
        p = tmp_path / "s.sig"
        write_signal(p, sig)
        pristine = p.read_bytes()
        for _ in range(200):
            raw = bytearray(pristine)
            op = rng.integers(3)
            if op == 0:
                raw = raw[: rng.integers(0, len(raw))]
            elif op == 1:
                raw[rng.integers(len(raw))] ^= 1 << rng.integers(8)
            else:
                raw += bytes(rng.integers(1, 16))
            p.write_bytes(bytes(raw))
            try:
                back = read_signal(p)
            except FormatError:
                continue
            # mutations that survive parsing must still be structurally valid
            assert back.data.shape == (back.N, back.N)


class TestReports:
    def test_deterministic_serialization(self):
        r1 = make_report("classify", {"group": {"family": "diagonal"}},
                         {"b": 2.0, "a": 1}, timing=0.5)
        r2 = make_report("classify", {"group": {"family": "diagonal"}},
                         {"a": 1, "b": 2.0}, timing=0.5)
        assert emit_report(r1) == emit_report(r2)

    def test_round_trip(self):
        report = make_report(
            "equiv", {"g": 1}, {"v": [1.5, -2.25e-17, 3]},
            certificates={"angles": [0.0, np.pi / 2]},
            tolerances={"tol": 1e-9}, timing=0.001,
        )
        text = emit_report(report)
        assert parse_report(text) == json.loads(text)
        back = parse_report(text)
        assert back["certificates"]["angles"][1] == np.pi / 2  # 17 digits exact

    def test_seventeen_digit_floats(self):
        text = emit_report({"x": 0.1})
        assert "0.10000000000000001" in text

    def test_nonfinite_rejected(self):
        with pytest.raises(FormatError):
            emit_report({"x": float("nan")})

    def test_unsupported_type_rejected(self):
        with pytest.raises(FormatError):
            emit_report({"x": object()})

    def test_parse_rejects_garbage(self):
        with pytest.raises(FormatError):
            parse_report("not a report")


class TestInputChecks:
    @pytest.mark.parametrize("doc,message", [
        ({"family": "shearlet", "c": float("inf")}, "key 'c' must be finite"),
        ({"family": "diagonal", "conjugator": [[1.0, float("nan")], [0.0, 1.0]]},
         "key 'conjugator' must be finite"),
        (["diagonal"], "group spec document must be an object"),
    ])
    def test_group_spec_documents(self, doc, message):
        with pytest.raises(FormatError, match=message):
            group_spec_from_dict(doc)

    @pytest.mark.parametrize("text,message", [
        ("", "empty CSV signal file"),
        ("\n  \n", "empty CSV signal file"),
        ("4\n", "CSV header must be 'N,L'"),
        ("4,1.0,2\n", "CSV header must be 'N,L'"),
        ("four,1.0\n", "bad CSV header"),
        ("4,one\n", "bad CSV header"),
        ("1,1.0\n0,0,0\n", "row 1: expected 2 cells, got 3"),
        ("4,-1.0\n" + "0,0,0,0,0,0,0,0\n" * 4, "invalid signal contents"),
    ])
    def test_csv_signal_contents(self, tmp_path, text, message):
        p = tmp_path / "s.csv"
        p.write_text(text)
        with pytest.raises(FormatError, match=message):
            read_signal(p)

    @pytest.mark.parametrize("name", ["missing.csv", "dir.csv"])
    def test_unreadable_csv_signal(self, tmp_path, name):
        (tmp_path / "dir.csv").mkdir()
        with pytest.raises(FormatError, match="cannot read signal"):
            read_signal(tmp_path / name)

    @pytest.mark.parametrize("report", [[1, 2], "report", None])
    def test_report_must_be_a_mapping(self, report):
        with pytest.raises(FormatError, match="report must be a mapping"):
            emit_report(report)
