"""Deterministic JSON/CSV emission.

All floating-point values print with 17 significant digits so every finite
double round-trips bit-faithfully. Non-finite floats have no JSON encoding,
so NaN and infinities serialize as null in JSON and as "nan"/"inf"/"-inf"
in CSV cells. Key order is insertion order throughout; nothing here depends
on wall-clock time, so equal inputs give byte-identical outputs.

csv_block is the one CSV renderer, for the sweep CSV and the runs CSV
alike: it lays out whole columns with numpy. Integers print in decimal,
text columns as their ASCII bytes, and floats as fmt_float prints them,
byte for byte. A float x with 1e-6 < |x| < 1e17 has a decimal exponent E
in [-6, 16], so x * 10**(16 - E) needs a power of ten no larger than
10**22, which is an exact double; Dekker's two-product (Numer. Math. 18,
1971) gives that product exactly as hi + lo, and hi + rint(lo) is the
correctly rounded (round-half-even) 17-digit significand that
format(x, ".17g") prints. NaN and +-0 are rendered from fixed patterns.
Every other float (infinities, |x| <= 1e-6 including subnormals,
|x| >= 1e17) is formatted by fmt_float's rule one cell at a time and then
placed with the rest.
"""

from __future__ import annotations

import json
import math
from typing import Any, List, Mapping, Sequence, Tuple

import numpy as np

from .fock_core import ComplexAmplitude, DensityOperator, PureState


def fmt_float(x: float) -> str:
    """Format one float with 17 significant digits (CSV cell form).

    format() already spells the non-finite values "nan", "inf" and "-inf".
    """
    return format(float(x), ".17g")


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


# Layout of one float cell in csv_block: a sign slot, the "0.000" prefix of
# fixed notation below 1, the 17 significand digits each followed by a
# point slot, and the exponent "e-0d" (in the exact range, scientific
# notation only occurs at E = -5 and -6).
_F_WIDTH = 44
_F_DIGIT0 = 6
_F_EXP_DIGIT = 43
_E_MIN, _E_MAX = -6, 16
_POW10 = np.array([10.0**k for k in range(23)])  # exact doubles
_NAN_TEMPLATE = np.frombuffer(
    b"-0.000" + b"".join(bytes([d, 46]) for d in b"nan00000000000000") + b"e-00", np.uint8
)


def _float_keep_table() -> np.ndarray:
    """Bytes kept per code (E - _E_MIN) * 18 + significant digit count, for
    E in [_E_MIN, _E_MAX] and 1 to 17 digits; then the nan and zero codes."""
    e = np.arange(_E_MIN, _E_MAX + 1)[:, None, None]
    nz = np.arange(18)[None, :, None]
    pos = np.arange(_F_WIDTH)
    i, is_point = np.divmod(pos - _F_DIGIT0, 2)  # slot of digit i, or the point after it
    in_digits = (i >= 0) & (i < 17)
    scientific = e < -4
    digit = in_digits & (is_point == 0) & (i < np.maximum(nz, e + 1))
    point = in_digits & (is_point == 1) & (
        ((e >= 0) & (i == e) & (nz > e + 1)) | (scientific & (i == 0) & (nz > 1))
    )
    prefix = (e < 0) & ~scientific & (pos >= 1) & (pos < 2 - e)  # "0." and -E-1 zeros
    exponent = scientific & (pos >= _F_WIDTH - 4)
    table = ((digit | point | prefix | exponent) & (nz > 0)).reshape(-1, _F_WIDTH)
    special = np.zeros((2, _F_WIDTH), dtype=bool)
    special[0, [_F_DIGIT0, _F_DIGIT0 + 2, _F_DIGIT0 + 4]] = True  # "nan"
    special[1, _F_DIGIT0] = True  # "0"
    return np.concatenate([table, special])


_F_KEEP = _float_keep_table()
_NAN_CODE, _ZERO_CODE = len(_F_KEEP) - 2, len(_F_KEEP) - 1


def _split(a: np.ndarray):
    """Veltkamp's split of each a into two halves of at most 26 bits."""
    c = 134217729.0 * a  # 2**27 + 1
    hi = c - (c - a)
    return hi, a - hi


def _two_product(a: np.ndarray, b: np.ndarray):
    """a * b exactly as hi + lo (Dekker)."""
    hi = a * b
    a_hi, a_lo = _split(a)
    b_hi, b_lo = _split(b)
    lo = ((a_hi * b_hi - hi) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    return hi, lo


def _significands(a: np.ndarray):
    """Decimal exponent E and 17-digit significand D of each 1e-6 < a < 1e17.

    D is the correctly rounded integer nearest a * 10**(16 - E), with
    10**16 <= D < 10**17.
    """
    e = np.floor(np.log10(a)).astype(np.int64)
    np.clip(e, _E_MIN, _E_MAX, out=e)
    hi, lo = _two_product(a, _POW10[16 - e])
    # log10 can miss by one next to a power of ten; compare the exact product
    low = (hi < 1e16) | ((hi == 1e16) & (lo < 0))
    high = (hi > 1e17) | ((hi == 1e17) & (lo >= 0))
    fix = np.flatnonzero(low | high)
    if fix.size:
        e[fix] += high[fix].astype(np.int64) - low[fix]
        hi[fix], lo[fix] = _two_product(a[fix], _POW10[16 - e[fix]])
    # hi is an even integer above 2**53, so adding rint(lo) rounds half to
    # even. D never rounds up to 10**17: in this range the largest double
    # below each power of ten scales to at least 8.7 below 10**17.
    d = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    return e, d


def _put_digits(values: np.ndarray, out: np.ndarray) -> None:
    """Decimal digits of non-negative integers, as ASCII, into out (n, k)."""
    k = out.shape[1]
    if k > 9:  # peel off the low nine digits so both parts divide as int32
        high = values // 10**9
        _put_digits(values - high * 10**9, out[:, k - 9 :])
        _put_digits(high, out[:, : k - 9])
        return
    values = values.astype(np.int32)
    for i in range(k - 1, 0, -1):
        q = values // 10
        out[:, i] = values - q * 10 + 48
        values = q
    out[:, 0] = values + 48


def _put_floats(x: np.ndarray, text: np.ndarray, keep: np.ndarray) -> None:
    """Float cells into (n, _F_WIDTH) views: the nan pattern, then every other value."""
    text[:] = _NAN_TEMPLATE
    keep[:] = _F_KEEP[_NAN_CODE]
    a = np.abs(x)
    nan = np.isnan(x)
    keep[:, 0] = np.signbit(x) & ~nan
    exact = (a > 1e-6) & (a < 1e17)
    if exact.any():
        rows = slice(None) if exact.all() else np.flatnonzero(exact)
        e, d = _significands(a[rows])
        digits = np.empty((len(d), 17), dtype=np.uint8)
        _put_digits(d, digits)
        nz = 17 - np.argmax(digits[:, ::-1] != 48, axis=1)
        text[rows, _F_DIGIT0 : _F_DIGIT0 + 34 : 2] = digits
        text[rows, _F_EXP_DIGIT] = 48 - e  # read only where E is -5 or -6
        keep[rows, 1:] = _F_KEEP[(e - _E_MIN) * 18 + nz, 1:]
    zero = np.flatnonzero(a == 0)
    if zero.size:
        text[zero, _F_DIGIT0] = 48
        keep[zero, 1:] = _F_KEEP[_ZERO_CODE, 1:]
    other = np.flatnonzero(~(exact | nan) & (a != 0))
    if other.size:
        cells = np.array([fmt_float(v) for v in x[other].tolist()], dtype=f"S{_F_WIDTH}")
        cells = cells.view(np.uint8).reshape(-1, _F_WIDTH)
        text[other] = cells
        keep[other] = cells != 0


# Digit i of k is kept when the value reaches _INT_FLOOR[i - k]; the last always.
_INT_FLOOR = np.array([10**i for i in range(18, 0, -1)] + [0], dtype=np.uint64)


def _int_layout(v: np.ndarray) -> Tuple[bool, int]:
    """Whether an int64 column needs a sign slot, and its largest digit count."""
    low, top = (int(v.min()), int(v.max())) if len(v) else (0, 0)
    return low < 0, len(str(max(top, -low)))


def _put_ints(v: np.ndarray, signed: bool, text: np.ndarray, keep: np.ndarray) -> None:
    """Integer cells into (n, signed + digit count) views."""
    v = v.astype(np.int64)
    if signed:
        text[:, 0] = 45  # "-"
        keep[:, 0] = v < 0
        v = np.abs(v)  # the int64 minimum stays negative, but reads 2**63 below
        text, keep = text[:, 1:], keep[:, 1:]
    magnitude = v.view(np.uint64)
    _put_digits(magnitude, text)
    np.greater_equal(magnitude[:, None], _INT_FLOOR[-text.shape[1] :], out=keep)


def csv_block(columns: Sequence[np.ndarray]) -> bytes:
    """CSV data lines of equal-length columns, joined by newlines, as ASCII.

    Integer and bool columns (int64 range) render as decimal integers, text
    columns (dtype S) as their bytes up to the first NUL, so b"" is an empty
    cell, and every other column as fmt_float renders its float values.
    Each row is laid out at fixed width, every cell followed by a separator;
    a keep mask then drops the unused bytes in one np.compress. Returning
    bytes lets a caller write each block to a binary file as soon as it is
    rendered, with no decode or encode pass. The working memory is 520-660 B
    per row (tracemalloc peak at 1024-16384 rows of the runs CSV's columns),
    so a caller bounds it by the rows it passes.
    """
    layouts = [_int_layout(c) if c.dtype.kind in "biu" else None for c in columns]
    widths = [
        c.itemsize if c.dtype.kind == "S" else _F_WIDTH if lay is None else lay[0] + lay[1]
        for c, lay in zip(columns, layouts)
    ]
    n = len(columns[0])
    text = np.empty((n, sum(widths) + len(widths)), dtype=np.uint8)
    keep = np.empty(text.shape, dtype=bool)
    at = 0
    for col, layout, w in zip(columns, layouts, widths):
        cell_text, cell_keep = text[:, at : at + w], keep[:, at : at + w]
        if col.dtype.kind == "S":
            cell_text[:] = np.ascontiguousarray(col).view(np.uint8).reshape(n, w)
            np.logical_and.accumulate(cell_text != 0, axis=1, out=cell_keep)
        elif layout is None:
            _put_floats(np.asarray(col, dtype=np.float64), cell_text, cell_keep)
        else:
            _put_ints(col, layout[0], cell_text, cell_keep)
        at += w
        text[:, at] = 44  # ","
        keep[:, at] = True
        at += 1
    text[:, -1] = 10  # "\n"
    out = np.compress(keep.ravel(), text.ravel())
    return out[:-1].tobytes()
