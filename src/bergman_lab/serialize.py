"""Descriptor parsing and deterministic report emission.

Weight and symbol descriptors are single JSON documents.  Reports are
emitted with a fixed field order and fixed float formatting (12 significant
digits, falling back to the shortest exact form when 12 digits do not round
trip), so identical runs produce byte-identical files.
"""

from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path

import numpy as np

from .errors import DescriptorError, SymbolFormError, WeightDomainError
from .projection import BoundedSymbol
from .weights import _KINDS, RadialWeight

SCHEMA_VERSION = 1


# ----------------------------------------------------------------------
# Float and JSON formatting
# ----------------------------------------------------------------------

def fmt_float(x: float) -> str:
    """12-significant-digit rendering; shortest round-trip form as fallback."""
    if not math.isfinite(x):
        return "null"
    s = f"{float(x):.12g}"
    if float(s) == float(x):
        return s
    return repr(float(x))


def _emit(obj, out: list[str]):
    if obj is None:
        out.append("null")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(fmt_float(float(obj)))
    elif isinstance(obj, str):
        out.append(json.dumps(obj, ensure_ascii=False))
    elif isinstance(obj, dict):
        out.append("{")
        for i, (kk, vv) in enumerate(obj.items()):
            if i:
                out.append(", ")
            out.append(json.dumps(str(kk), ensure_ascii=False))
            out.append(": ")
            _emit(vv, out)
        out.append("}")
    elif isinstance(obj, (list, tuple, np.ndarray)):
        out.append("[")
        for i, vv in enumerate(list(obj)):
            if i:
                out.append(", ")
            _emit(vv, out)
        out.append("]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps_report(report: dict) -> str:
    """Deterministic JSON text (insertion order, fixed float format, LF)."""
    out: list[str] = []
    _emit(report, out)
    return "".join(out) + "\n"


def report_envelope(command: str, label: str, n: int, params: dict,
                    results: dict) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "tool": "bergman-lab",
        "command": command,
        "label": label,
        "n": n,
        "params": params,
        "results": results,
    }


def validate_report(doc: dict) -> list[str]:
    """Structural check used by the round-trip tests; returns problems."""
    problems = []
    for key, typ in (("schema_version", int), ("tool", str), ("command", str),
                     ("label", str), ("n", int), ("params", dict),
                     ("results", dict)):
        if key not in doc:
            problems.append(f"missing field {key}")
        elif not isinstance(doc[key], typ):
            problems.append(f"field {key} has type {type(doc[key]).__name__}, "
                            f"expected {typ.__name__}")
    if doc.get("schema_version") not in (None, SCHEMA_VERSION):
        problems.append("unknown schema_version")
    return problems


def write_csv(path, header: list[str], rows) -> None:
    """CSV with header row, UTF-8, LF line endings, fixed float format."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([fmt_float(v) if isinstance(v, (float, np.floating))
                         else ("" if v is None else v) for v in row])
    Path(path).write_text(buf.getvalue(), encoding="utf-8")


# ----------------------------------------------------------------------
# Descriptor parsing
# ----------------------------------------------------------------------

def _require(doc: dict, field: str, typ, where: str, item=None):
    if field not in doc:
        raise DescriptorError(f"{where}: missing field {field!r}", field=field)
    val = doc[field]
    if typ is float and isinstance(val, (int, float)) and not isinstance(val, bool):
        return float(val)
    if not isinstance(val, typ):
        raise DescriptorError(
            f"{where}: field {field!r} must be {typ.__name__}, got "
            f"{type(val).__name__}", field=field)
    if item is not None and not all(type(x) is item for x in val):
        raise DescriptorError(f"{where}: field {field!r} must be a list of "
                              f"{item.__name__}", field=field)
    return val


def load_samples_csv(path) -> list[list[float]]:
    """Two-column (r, value) CSV; an optional non-numeric header is skipped."""
    samples = []
    for lineno, row in enumerate(csv.reader(_read_text(path).splitlines()), start=1):
        if not row:
            continue
        try:
            r, v = float(row[0]), float(row[1])
        except (ValueError, IndexError):
            if lineno == 1:
                continue
            raise DescriptorError(
                f"{path}: line {lineno}: expected two numeric columns",
                field="samples")
        samples.append([r, v])
    return samples


def parse_weight(doc: dict, base_dir: Path | None = None) -> RadialWeight:
    kind = _require(doc, "kind", str, "weight descriptor")
    label = doc.get("label", "")
    if not isinstance(label, str):
        raise DescriptorError("weight descriptor: field 'label' must be a string",
                              field="label")
    entry = _KINDS.get(kind)
    if entry is None:
        raise DescriptorError(f"weight descriptor: unknown kind {kind!r}", field="kind")
    where = f"{kind} weight"
    if "samples_csv" in doc and "samples" in entry.bounds:
        path = (base_dir or Path()) / _require(doc, "samples_csv", str, where)
        doc = {**doc, "samples": load_samples_csv(path)}
    values = {name: _require(doc, name, entry.param_type, where) for name in entry.bounds}
    try:
        return RadialWeight(kind, label, **values)
    except WeightDomainError as exc:  # the kind's check names the parameter
        raise DescriptorError(f"weight descriptor: {exc}", field=entry.admit(values)[0]) from exc


def _read_text(path: Path) -> str:
    """The text of a descriptor or samples file; DescriptorError if it cannot
    be read as UTF-8."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise DescriptorError(f"{path}: cannot read file ({exc.strerror or exc})") from exc
    except UnicodeDecodeError as exc:
        raise DescriptorError(f"{path}: not UTF-8 text ({exc.reason})") from exc


def _read_json(path: Path) -> dict:
    """The JSON object in the file at path; DescriptorError if the file
    cannot be read, is not valid JSON or holds no object."""
    text = _read_text(path)
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DescriptorError(f"{path}: line {exc.lineno}: not valid JSON "
                              f"({exc.msg})") from exc
    if not isinstance(doc, dict):
        raise DescriptorError(f"{path}: descriptor must be a JSON object")
    return doc


def load_weight_file(path) -> RadialWeight:
    path = Path(path)
    return parse_weight(_read_json(path), base_dir=path.parent)


def parse_symbol(doc: dict) -> BoundedSymbol:
    kind = _require(doc, "kind", str, "symbol descriptor")
    try:
        if kind == "monomial":
            return BoundedSymbol.monomial(_require(doc, "multi_index", list,
                                                    "monomial symbol", item=int))
        if kind == "conj_monomial":
            return BoundedSymbol.conj_monomial(_require(doc, "multi_index", list,
                                                         "conjugate monomial symbol", item=int))
        if kind == "radial_indicator":
            return BoundedSymbol.radial_indicator(
                _require(doc, "r_lo", float, "radial indicator"),
                _require(doc, "r_hi", float, "radial indicator"))
        if kind == "unimodular_phase":
            return BoundedSymbol.unimodular_phase(
                _require(doc, "multi_index", list, "unimodular phase", item=int),
                _require(doc, "multi_index_2", list, "unimodular phase", item=int))
        if kind == "custom":
            grid = doc.get("polar_grid")
            if not isinstance(grid, dict):
                raise SymbolFormError(
                    "custom symbols must carry a 'polar_grid' object with "
                    "r_nodes, mod_nodes, arg_nodes and values_real/values_imag; "
                    "other samplings are not in slice form")
            vr = np.asarray(_require(grid, "values_real", list, "custom symbol"),
                            dtype=float)
            vi = np.asarray(grid.get("values_imag", np.zeros_like(vr).tolist()),
                            dtype=float)
            return BoundedSymbol.custom_from_polar_grid(
                _require(grid, "r_nodes", list, "custom symbol"),
                _require(grid, "mod_nodes", list, "custom symbol"),
                _require(grid, "arg_nodes", list, "custom symbol"),
                vr + 1j * vi,
                _require(doc, "sup_norm_bound", float, "custom symbol"))
    except (DescriptorError, SymbolFormError):
        raise
    except ValueError as exc:
        raise DescriptorError(f"symbol descriptor: {exc}") from exc
    raise DescriptorError(f"symbol descriptor: unknown kind {kind!r}", field="kind")


def load_symbol_file(path) -> BoundedSymbol:
    return parse_symbol(_read_json(Path(path)))
