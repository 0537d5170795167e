"""Deterministic JSON/CSV emission.

All floating-point values print with 17 significant digits so every finite
double round-trips bit-faithfully. Non-finite floats have no JSON encoding,
so NaN and infinities serialize as null in JSON and as "nan"/"inf"/"-inf"
in CSV cells. Key order is insertion order throughout; nothing here depends
on wall-clock time, so equal inputs give byte-identical outputs.
"""

from __future__ import annotations

import dataclasses
import json
import math
from typing import Any, Iterable, List, Mapping, Sequence

import numpy as np

from .fock_core import ComplexAmplitude, DensityOperator, PureState


def fmt_float(x: float) -> str:
    """Format one float with 17 significant digits (CSV cell form)."""
    x = float(x)
    if math.isnan(x):
        return "nan"
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return format(x, ".17g")


def _json_float(x: float) -> str:
    return format(x, ".17g") if math.isfinite(x) else "null"


def _emit(obj: Any, out: List[str]) -> None:
    if obj is None:
        out.append("null")
    elif isinstance(obj, (bool, np.bool_)):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(_json_float(float(obj)))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, (complex, np.complexfloating)):
        out.append(f'{{"re":{_json_float(float(obj.real))},"im":{_json_float(float(obj.imag))}}}')
    elif isinstance(obj, ComplexAmplitude):
        out.append(f'{{"re":{_json_float(float(obj.re))},"im":{_json_float(float(obj.im))}}}')
    elif isinstance(obj, (dict, Mapping)):
        out.append("{")
        for i, (key, value) in enumerate(obj.items()):
            if i:
                out.append(",")
            out.append(json.dumps(str(key)))
            out.append(":")
            _emit(value, out)
        out.append("}")
    elif isinstance(obj, (list, tuple, np.ndarray)):
        out.append("[")
        for i, value in enumerate(obj):
            if i:
                out.append(",")
            _emit(value, out)
        out.append("]")
    elif dataclasses.is_dataclass(obj):
        _emit(
            {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)},
            out,
        )
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__} to JSON")


def dumps(obj: Any) -> str:
    """Serialize to a JSON string with the number rules above."""
    out: List[str] = []
    _emit(obj, out)
    return "".join(out)


def state_to_jsonable(state) -> Mapping[str, Any]:
    """A JSON-ready description of a pure or mixed state."""
    if isinstance(state, PureState):
        return {
            "kind": "pure",
            "cutoff": state.cutoff,
            "modes": state.mode_count,
            "amplitudes": [complex(a) for a in state.amplitudes],
        }
    if isinstance(state, DensityOperator):
        return {
            "kind": "mixed",
            "cutoff": state.cutoff,
            "modes": state.mode_count,
            "diagonal": [float(p) for p in state.diagonal()],
            "matrix": [[complex(v) for v in row] for row in state.matrix],
        }
    raise TypeError(f"cannot serialize {type(state).__name__} as a state")


def csv_cell(value: Any) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return fmt_float(value)


def csv_row(columns: Sequence[str], row: Mapping[str, Any]) -> str:
    """One CSV data line: the row's values in column order, via csv_cell."""
    return ",".join(csv_cell(row[c]) for c in columns)


def csv_lines(columns: Sequence[str], rows: Iterable[str], manifest_json: str) -> str:
    """Render a CSV document: manifest comment, header, then data rows.

    Each row is one rendered data line without its newline: csv_row for a
    mapping, or a caller's own rendering that follows the same cell rules.
    """
    lines = [f"# manifest: {manifest_json}", ",".join(columns)]
    lines.extend(rows)
    return "\n".join(lines) + "\n"
