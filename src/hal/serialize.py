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
format(x, ".17g") prints. The significands of all float columns of a block
are found in one pass, and their digits formed eight at a time in uint64
words (SWAR), as are the digits of integers. NaN and +-0 are rendered from
fixed patterns. Every other float (infinities, |x| <= 1e-6 including
subnormals, |x| >= 1e17) is formatted by fmt_float's rule one cell at a
time and then placed with the rest.
"""

from __future__ import annotations

import functools
import json
import math
from typing import Any, List, Mapping, Sequence, Tuple

import numpy as np

from .fock_core import DensityOperator, PureState


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
            "amplitudes": state.amplitudes.tolist(),
        }
    if isinstance(state, DensityOperator):
        return {
            "kind": "mixed",
            "cutoff": state.cutoff,
            "modes": state.mode_count,
            "diagonal": state.diagonal().tolist(),
            "matrix": state.matrix.tolist(),
        }
    raise TypeError(f"cannot serialize {type(state).__name__} as a state")


# Layout of one float cell in csv_block, at its widest: a sign slot, the
# "0.000" prefix of fixed notation below 1, the 17 significand digits each
# followed by a point slot, and the exponent "e-0d" (in the exact range,
# scientific notation only occurs at E = -5 and -6). The point follows digit
# E in fixed notation and digit 0 in scientific notation, so a column whose
# exact cells in a block have fixed-notation exponents of at most P >= 0 only
# needs the point slots after digits 0..P: its cell is 28 + P of these 44
# slots (_float_layout).
_F_WIDTH = 44
_F_DIGIT0 = 6
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


@functools.lru_cache(maxsize=None)
def _float_layout(p: int) -> Tuple[np.ndarray, np.ndarray]:
    """The nan text and the keep table of a cell with point slots after
    digits 0..p only: 28 + p of the widest cell's slots."""
    points = _F_DIGIT0 + 2 * p + 2
    slots = np.r_[0:points, points : _F_DIGIT0 + 34 : 2, _F_WIDTH - 4 : _F_WIDTH]
    return _NAN_TEMPLATE[slots], np.ascontiguousarray(_F_KEEP[:, slots])


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


def _scaled(a: np.ndarray, e: np.ndarray) -> np.ndarray:
    """The integer nearest a * 10**(16 - e), ties to even."""
    hi, lo = _two_product(a, _POW10[16 - e])
    # hi is an even integer above 2**53, so adding rint(lo) rounds half to even
    return hi.astype(np.int64) + np.rint(lo).astype(np.int64)


def _significands(a: np.ndarray):
    """Decimal exponent E and 17-digit significand D of each 1e-6 < a < 1e17.

    D is the correctly rounded integer nearest a * 10**(16 - E), with
    10**16 <= D < 10**17. log10 can miss E by one next to a power of ten,
    which D shows: in this range the largest double below each power of ten
    scales to at least 8.3 below 10**17, so an E one too high gives a D
    below 10**16, one too low a D of at least 10**17, and the right E never
    rounds D up to 10**17.
    """
    e = np.floor(np.log10(a)).astype(np.int64)
    np.clip(e, _E_MIN, _E_MAX, out=e)
    d = _scaled(a, e)
    fix = np.flatnonzero((d < 10**16) | (d >= 10**17))
    if fix.size:
        e[fix] += np.where(d[fix] < 10**16, -1, 1)
        d[fix] = _scaled(a[fix], e[fix])
    return e, d


def _digits(v: np.ndarray, k: int) -> np.ndarray:
    """ASCII decimal digits of integers 0 <= v < 10**k, as an (n, k) view of
    little-endian uint64 words.

    Each group of 8 digits becomes its digits at once (SWAR): the word is
    split into two 4-digit lanes of 32 bits, each lane into two 2-digit
    lanes of 16 bits, each of those into two digit bytes, every split a
    multiply-shift division that cannot carry across lanes. The first digit
    lands in the lowest byte. A single group of at most 4, 2 or 1 digits
    skips the splits it does not need.
    """
    groups = -(-k // 8)
    per = 8 if groups > 1 or k > 4 else 4 if k > 2 else k  # digits per word
    w = np.empty((len(v), groups), dtype=np.uint64)
    for j in range(groups - 1, 0, -1):
        q = v // 10**8
        w[:, j] = v - q * 10**8
        v = q
    w[:, 0] = v
    # a split of lane x at 10**h into b-bit halves is q + ((x - q * 10**h) << b),
    # computed as (x << b) - q * (10**h * 2**b - 1)
    if per > 4:
        q = w // 10**4
        w <<= 32
        w -= q * ((10**4 << 32) - 1)
    if per > 2:
        q = (w * 5243 >> 19) & 0x7F0000007F  # x // 100 in each lane x < 43699
        w <<= 16
        w -= q * ((100 << 16) - 1)
    if per > 1:
        q = (w * 103 >> 10) & 0x000F000F000F000F  # x // 10 in each lane x < 179
        w <<= 8
        w -= q * ((10 << 8) - 1)
    w |= 0x3030303030303030  # "0" is 0x30
    stop = 8 * (groups - 1) + per
    return w.astype("<u8", copy=False).view(np.uint8)[:, stop - k : stop]


def _cells(a: np.ndarray) -> np.ndarray:
    """The rows of an (n, w) byte array whose rows are contiguous, as n items
    of w bytes, which numpy copies and gathers whole instead of byte by byte."""
    return a.view(np.dtype((np.void, a.shape[1])))[:, 0]


def _significant_bytes(w: np.ndarray) -> np.ndarray:
    """Bytes up to the last nonzero one of little-endian words of digit
    values (0-9): the float exponent of the word's top bit, which rounding
    to 53 bits cannot carry past bit 3 of its byte."""
    return (np.frexp(w.astype(np.float64))[1] + 7) >> 3


def _float_columns(xs: Sequence[np.ndarray]) -> List[tuple]:
    """The float columns of a block, their exact cells found and converted
    to digits in one pass over all of them.

    Per column, a tuple: x; P, the largest fixed-notation exponent among
    its exact cells (at least 0); the exact-range mask; the exact rows, a
    slice when every row is exact; and per exact row E, the first digit and
    the other 16 in ASCII, and the _F_KEEP code.
    """
    n = len(xs[0])
    a = np.abs(np.concatenate(xs))
    exact = (a > 1e-6) & (a < 1e17)
    at = np.flatnonzero(exact)
    e, d = _significands(a.take(at))
    first = d // 10**16
    digits = _digits(d - first * 10**16, 16)
    values = digits.view("<u8") ^ 0x3030303030303030  # digits 1-8 and 9-16
    low = values[:, 1] != 0
    nz = np.where(low, 9, 1) + _significant_bytes(np.where(low, values[:, 1], values[:, 0]))
    code = (e - _E_MIN) * 18 + nz
    first += 48
    ends = np.searchsorted(at, np.arange(len(xs) + 1) * n).tolist()
    columns = []
    for j, (x, lo, hi) in enumerate(zip(xs, ends[:-1], ends[1:])):
        rows = slice(None) if hi - lo == n else at[lo:hi] - j * n
        p = max(0, int(e[lo:hi].max())) if hi > lo else 0
        columns.append(
            (x, p, exact[j * n : (j + 1) * n], rows, e[lo:hi], first[lo:hi], digits[lo:hi], code[lo:hi])
        )
    return columns


def _put_floats(column: tuple, text: np.ndarray, keep: np.ndarray) -> None:
    """A _float_columns column into (n, 28 + P) views that hold the nan
    cell: the exact cells, then zero and fallback cells where it has any."""
    x, p, exact, rows, e, first, digits, code = column
    table = _float_layout(p)[1]
    points = _F_DIGIT0 + 2 * p + 2
    text[rows, _F_DIGIT0] = first
    text[rows, _F_DIGIT0 + 2 : points : 2] = digits[:, :p]
    if p < 16:
        _cells(text[:, points : points + 16 - p])[rows] = _cells(digits[:, p:])
    text[rows, -1] = 48 - e  # read only where E is -5 or -6
    _cells(keep)[rows] = np.take(_cells(table), code, mode="clip")
    if isinstance(rows, slice):
        keep[:, 0] = np.signbit(x)
        return
    nan = np.isnan(x)
    keep[:, 0] = np.signbit(x) & ~nan
    zero = np.flatnonzero(x == 0)
    if zero.size:
        text[zero, _F_DIGIT0] = 48
        keep[zero, 1:] = table[_ZERO_CODE, 1:]
    other = np.flatnonzero(~(exact | nan) & (x != 0))
    if other.size:
        w = text.shape[1]
        cells = np.array([fmt_float(v) for v in x[other].tolist()], dtype=f"S{w}")
        cells = cells.view(np.uint8).reshape(-1, w)
        text[other] = cells
        keep[other] = cells != 0


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
    k = text.shape[1]
    _cells(text)[:] = _cells(_digits(magnitude, k))
    for i in range(k - 1):  # digit i is kept when the value has k - i digits
        np.greater_equal(magnitude, 10 ** (k - 1 - i), out=keep[:, i])
    keep[:, k - 1] = True


def csv_block(columns: Sequence[np.ndarray]) -> bytes:
    """CSV data lines of equal-length columns, joined by newlines, as ASCII.

    Integer and bool columns (int64 range) render as decimal integers, text
    columns (dtype S) as their bytes up to the first NUL, so b"" is an empty
    cell, and every other column as fmt_float renders its float values.
    Each row is laid out at fixed width, every cell followed by a separator;
    a keep mask then zeroes the unused bytes in place, and bytes.translate
    drops them: no kept byte is NUL (a text cell is kept up to its first
    NUL). A float cell is 28 + P bytes wide, P the largest fixed-notation
    exponent among the column's exact cells in this block (at least 0), so
    a runs CSV row (three small integers and two floats below 10) is laid
    out in 68 bytes and keeps about 34. Returning bytes lets a caller write
    each block to a binary file as soon as it is rendered, with no decode or
    encode pass. The working memory is about 320 B per row (tracemalloc peak
    at 1024-16384 rows of the runs CSV's columns): the laid-out text, its
    mask, and their copy as bytes. A caller bounds it by the rows it passes.
    """
    kinds = [c.dtype.kind for c in columns]
    xs = [np.asarray(c, dtype=np.float64) for c, kind in zip(columns, kinds) if kind not in "biuS"]
    floats = iter(_float_columns(xs) if xs else ())
    layouts = [
        col.itemsize if kind == "S" else _int_layout(col) if kind in "biu" else next(floats)
        for col, kind in zip(columns, kinds)
    ]
    widths = [
        lay if kind == "S" else lay[0] + lay[1] if kind in "biu" else 28 + lay[1]
        for kind, lay in zip(kinds, layouts)
    ]
    # one row of separators and of the float cells' constant bytes and nan
    # pattern, repeated for every row; the columns then overwrite their cells
    starts = np.cumsum([0] + [w + 1 for w in widths])
    row_text = np.zeros(starts[-1], dtype=np.uint8)
    row_keep = np.zeros(starts[-1], dtype=bool)
    row_text[starts[1:] - 1] = 44  # ","
    row_text[-1] = 10  # "\n"
    row_keep[starts[1:] - 1] = True
    for kind, lay, at, w in zip(kinds, layouts, starts.tolist(), widths):
        if kind not in "biuS":
            nan_text, table = _float_layout(lay[1])
            row_text[at : at + w] = nan_text
            row_keep[at : at + w] = table[_NAN_CODE]
    n = len(columns[0])
    text = np.repeat(row_text[None], n, axis=0)
    keep = np.repeat(row_keep[None], n, axis=0)
    for col, kind, lay, at, w in zip(columns, kinds, layouts, starts.tolist(), widths):
        cell_text, cell_keep = text[:, at : at + w], keep[:, at : at + w]
        if kind == "S":
            cell_text[:] = np.ascontiguousarray(col).view(np.uint8).reshape(n, w)
            np.logical_and.accumulate(cell_text != 0, axis=1, out=cell_keep)
        elif kind in "biu":
            _put_ints(col, lay[0], cell_text, cell_keep)
        else:
            _put_floats(lay, cell_text, cell_keep)
    text *= keep
    text[-1:, -1] = 0  # the last row's newline
    return text.tobytes().translate(None, b"\0")
