"""On-disk formats: group spec documents, signal files, and reports.

Group specs are strict JSON documents; unknown and repeated keys are
rejected and error messages name the offending key.  Signals use a fixed
little-endian binary layout (magic "C2D1", u16 version, u32 N, f64 L, N^2
complex128 values, row-major, the same bytes as interleaved re/im f64 pairs;
exactly 18 + 16 N^2 bytes) or, for hand-authored fixtures, a CSV variant
selected by the .csv extension.  Reports serialize deterministically (sorted
keys, floats at 17 significant digits) so byte comparison of two reports is
meaningful.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

from .errors import FormatError, SingularMatrixError
from .groups import DIAGONAL, SHEARLET, SIMILITUDE, GroupSpec, diagonal, shearlet, similitude
from .signals import GridSignal

_MAGIC = b"C2D1"
_VERSION = 1
_HEADER = struct.Struct("<4sHId")

_GROUP_KEYS = {"family", "c", "conjugator"}


def _require_number(value, key):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise FormatError(f"key {key!r} must be a number")
    try:
        v = float(value)
    except OverflowError:  # an integer literal past the float range
        v = np.inf
    if not np.isfinite(v):
        raise FormatError(f"key {key!r} must be finite")
    return v


def group_spec_from_dict(doc):
    if not isinstance(doc, dict):
        raise FormatError("group spec document must be an object")
    unknown = set(doc) - _GROUP_KEYS
    if unknown:
        raise FormatError(f"unknown key {sorted(unknown)[0]!r} in group spec")
    if "family" not in doc:
        raise FormatError("missing key 'family'")
    family = doc["family"]
    if family not in (SIMILITUDE, DIAGONAL, SHEARLET):
        raise FormatError(f"key 'family' must be one of similitude|diagonal|shearlet, got {family!r}")
    if family == SHEARLET:
        if "c" not in doc:
            raise FormatError("missing key 'c' (required for shearlet family)")
        fam = shearlet(_require_number(doc["c"], "c"))
    else:
        if "c" in doc:
            raise FormatError(f"key 'c' is not allowed for family {family!r}")
        fam = similitude() if family == SIMILITUDE else diagonal()
    conj = doc.get("conjugator")
    if conj is None:
        return GroupSpec(fam)
    if (not isinstance(conj, list) or len(conj) != 2
            or any(not isinstance(row, list) or len(row) != 2 for row in conj)):
        raise FormatError("key 'conjugator' must be a 2x2 array of numbers")
    vals = [[_require_number(v, "conjugator") for v in row] for row in conj]
    try:
        return GroupSpec(fam, np.array(vals))
    except SingularMatrixError as exc:
        raise FormatError(f"key 'conjugator' is singular: {exc}") from exc


def group_spec_to_dict(spec):
    doc = {"family": spec.family.kind}
    if spec.family.c is not None:
        doc["c"] = spec.family.c
    if not spec.is_standard:
        doc["conjugator"] = [list(spec.entries[:2]), list(spec.entries[2:])]
    return doc


def parse_group_spec(path):
    """Read and validate a group spec JSON document."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:  # a decode error is a ValueError
        raise FormatError(f"cannot read group spec: {exc}") from exc
    try:
        doc = json.loads(text, object_pairs_hook=_unique_keys)
    except (ValueError, RecursionError) as exc:  # also past a digit or nesting limit
        raise FormatError(f"malformed group spec document: {exc}") from exc
    return group_spec_from_dict(doc)


def _unique_keys(pairs):
    """A JSON object as a dict; FormatError, a ValueError, if a key repeats."""
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise FormatError(f"repeated key {key!r}")
        doc[key] = value
    return doc


def write_group_spec(path, spec):
    Path(path).write_text(
        json.dumps(group_spec_to_dict(spec), indent=1, sort_keys=True) + "\n",
        encoding="utf-8",
    )


# ---------------------------------------------------------------------------
# signal files


def write_signal(path, sig):
    """Write a GridSignal; .csv extension selects the text format."""
    path = Path(path)
    if path.suffix.lower() == ".csv":
        _write_signal_csv(path, sig)
        return
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(_MAGIC, _VERSION, sig.N, sig.L))
        fh.write(np.asarray(sig.data, dtype="<c16").tobytes())


def read_signal(path):
    path = Path(path)
    if path.suffix.lower() == ".csv":
        return _read_signal_csv(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise FormatError(f"cannot read signal: {exc}") from exc
    if len(raw) < _HEADER.size:
        raise FormatError("truncated header")
    magic, version, n, length = _HEADER.unpack_from(raw)
    if magic != _MAGIC:
        raise FormatError(f"magic mismatch: expected {_MAGIC!r}, got {magic!r}")
    if version != _VERSION:
        raise FormatError(f"unsupported version {version}")
    expected = _HEADER.size + 16 * n * n
    if len(raw) != expected:
        raise FormatError(
            f"truncated payload: expected {expected} bytes, got {len(raw)}"
        )
    # copied, so the array is aligned and writable
    data = np.frombuffer(raw, "<c16", offset=_HEADER.size).reshape(n, n).copy()
    try:
        return GridSignal(n, length, data)
    except ValueError as exc:
        raise FormatError(f"invalid signal contents: {exc}") from exc


def _fmt17(x):
    return format(float(x), ".17g")


def _write_signal_csv(path, sig):
    # a row holds re, im of each of its N samples: the float view of the data
    np.savetxt(path, np.ascontiguousarray(sig.data).view(float), fmt="%.17g",
               delimiter=",", header=f"{sig.N},{_fmt17(sig.L)}", comments="")


def _is_number(text):
    try:
        float(text)
    except ValueError:
        return False
    return True


def _read_signal_csv(path):
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:  # a decode error is a ValueError
        raise FormatError(f"cannot read signal: {exc}") from exc
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise FormatError("empty CSV signal file")
    head = lines[0].split(",")
    if len(head) != 2:
        raise FormatError("CSV header must be 'N,L'")
    try:
        n = int(head[0])
        length = float(head[1])
    except ValueError as exc:
        raise FormatError(f"bad CSV header: {exc}") from exc
    if len(lines) - 1 != n:
        raise FormatError(f"expected {n} data rows, got {len(lines) - 1}")
    flat = np.empty((n, 2 * n))
    for i, line in enumerate(lines[1:]):
        cells = line.split(",")
        if len(cells) != 2 * n:
            raise FormatError(
                f"row {i + 1}: expected {2 * n} cells, got {len(cells)}"
            )
        try:
            flat[i] = [float(c) for c in cells]
        except ValueError:
            j = next(j for j, c in enumerate(cells) if not _is_number(c))
            raise FormatError(
                f"row {i + 1}, col {j + 1}: non-numeric cell {cells[j].strip()!r}"
            ) from None
    try:
        return GridSignal(n, length, flat.view(complex))
    except ValueError as exc:
        raise FormatError(f"invalid signal contents: {exc}") from exc


# ---------------------------------------------------------------------------
# reports


def _emit_value(value, indent):
    pad = " " * indent
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        v = float(value)
        if not np.isfinite(v):
            raise FormatError("reports may not contain non-finite numbers")
        return _fmt17(v)
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, (list, tuple, np.ndarray)):
        items = list(np.asarray(value).tolist()) if isinstance(value, np.ndarray) else list(value)
        if not items:
            return "[]"
        inner = ",\n".join(
            pad + "  " + _emit_value(v, indent + 2) for v in items
        )
        return "[\n" + inner + "\n" + pad + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = ",\n".join(
            pad + "  " + json.dumps(str(k)) + ": " + _emit_value(value[k], indent + 2)
            for k in sorted(value, key=str)
        )
        return "{\n" + inner + "\n" + pad + "}"
    raise FormatError(f"unsupported report value of type {type(value).__name__}")


def emit_report(result):
    """Serialize a report mapping deterministically (sorted keys, 17 digits)."""
    if not isinstance(result, dict):
        raise FormatError("report must be a mapping")
    return _emit_value(result, 0) + "\n"


def parse_report(text):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"malformed report: {exc}") from exc


def make_report(command, inputs, values, certificates=None, tolerances=None,
                timing=None):
    report = {
        "command": command,
        "inputs": inputs,
        "values": values,
    }
    if certificates is not None:
        report["certificates"] = certificates
    if tolerances is not None:
        report["tolerances"] = tolerances
    if timing is not None:
        report["timing_seconds"] = float(timing)
    return report
