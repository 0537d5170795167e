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
from typing import Any, List, Mapping, Optional, Sequence, Tuple

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


def state_to_jsonable(state, cutoff: Optional[int] = None) -> Mapping[str, Any]:
    """A JSON-ready description of a pure or mixed state.

    "levels" is the number of occupations the state holds, state.cutoff + 1,
    and the amplitudes, diagonal and matrix are that long. "cutoff" is the
    given cutoff, by default the state's own: a protocol passes its own, so
    a conditional state on its support (every occupation from "levels" up
    to "cutoff" zero) names the truncation it was computed at.
    """
    if isinstance(state, PureState):
        kind, values = "pure", {"amplitudes": state.amplitudes.tolist()}
    elif isinstance(state, DensityOperator):
        kind = "mixed"
        values = {"diagonal": state.diagonal().tolist(), "matrix": state.matrix.tolist()}
    else:
        raise TypeError(f"cannot serialize {type(state).__name__} as a state")
    return {
        "kind": kind,
        "cutoff": state.cutoff if cutoff is None else cutoff,
        "levels": state.cutoff + 1,
        "modes": state.mode_count,
        **values,
    }


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
_MINUS = np.uint8(45)  # "-"


@functools.lru_cache(maxsize=None)
def _float_text_table() -> np.ndarray:
    """Cell text per code (E - _E_MIN) * 18 + significant digit count, for
    E in [_E_MIN, _E_MAX] and 1 to 17 digits; then the nan and zero codes.
    A code's row holds the bytes its cells keep that the sign and digits do
    not set: the "0." prefix and its zeros, the point and "e-0d". Every
    other slot, the sign and digit slots included, is NUL. Built on first
    use, so commands that write no CSV do not pay for it."""
    e = np.arange(_E_MIN, _E_MAX + 1)[:, None, None]
    nz = np.arange(18)[None, :, None]
    pos = np.arange(_F_WIDTH)
    i, is_point = np.divmod(pos - _F_DIGIT0, 2)  # slot of digit i, or the point after it
    in_digits = (i >= 0) & (i < 17)
    scientific = e < -4
    point = in_digits & (is_point == 1) & (
        ((e >= 0) & (i == e) & (nz > e + 1)) | (scientific & (i == 0) & (nz > 1))
    )
    prefix = (e < 0) & ~scientific & (pos >= 1) & (pos < 2 - e)  # "0." and -E-1 zeros
    exponent = scientific & (pos >= _F_WIDTH - 4)
    const = np.frombuffer(b" 0.000" + b"\0." * 17 + b"e-0\0", np.uint8)
    table = const * ((point | prefix | exponent) & (nz > 0))
    table[: -4 - _E_MIN, 1:, -1] = 48 - e[: -4 - _E_MIN, :, 0]  # the d of "e-0d"
    special = np.zeros((2, _F_WIDTH), dtype=np.uint8)
    special[0, _F_DIGIT0 : _F_DIGIT0 + 6 : 2] = np.frombuffer(b"nan", np.uint8)
    special[1, _F_DIGIT0] = 48  # "0"
    return np.concatenate([table.reshape(-1, _F_WIDTH), special])


_NAN_CODE = (_E_MAX - _E_MIN + 1) * 18
_ZERO_CODE = _NAN_CODE + 1
# Row m keeps digits 1..m-1 of the 16 after a significand's first, as masks
# of the two little-endian words that hold them (digits 1-8 and 9-16), and
# makes the rest NUL.
_DIGIT_MASK = np.array(
    [[(1 << 8 * min(max(m - 1 - 8 * j, 0), 8)) - 1 for j in (0, 1)] for m in range(18)], dtype=np.uint64
)


@functools.lru_cache(maxsize=None)
def _float_layout(p: int) -> np.ndarray:
    """The text table of a cell with point slots after digits 0..p only:
    28 + p of the widest cell's slots."""
    points = _F_DIGIT0 + 2 * p + 2
    slots = np.r_[0:points, points : _F_DIGIT0 + 34 : 2, _F_WIDTH - 4 : _F_WIDTH]
    return np.ascontiguousarray(_float_text_table()[:, slots])


def _split(a: np.ndarray):
    """Veltkamp's split of each a into two halves of at most 26 bits."""
    c = 134217729.0 * a  # 2**27 + 1
    hi = c - (c - a)
    return hi, a - hi


_POW10_HI, _POW10_LO = _split(_POW10)


def _scaled(a: np.ndarray, e: np.ndarray) -> np.ndarray:
    """The integer nearest a * 10**(16 - e), ties to even.

    Dekker's two-product gives a * b exactly as hi + lo from the halves of
    a and of b = 10**(16 - e), whose split is taken once, above.
    """
    k = 16 - e
    b_hi, b_lo = _POW10_HI[k], _POW10_LO[k]
    hi = a * _POW10[k]
    a_hi, a_lo = _split(a)
    lo = ((a_hi * b_hi - hi) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
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
    np.maximum(e, _E_MIN, out=e)
    np.minimum(e, _E_MAX, out=e)
    d = _scaled(a, e)
    fix = np.flatnonzero((d < 10**16) | (d >= 10**17))
    if fix.size:
        e[fix] += np.where(d[fix] < 10**16, -1, 1)
        d[fix] = _scaled(a[fix], e[fix])
    return e, d


def _digits(v: np.ndarray, k: int, zeros: bool = True) -> np.ndarray:
    """ASCII decimal digits of integers 0 <= v < 10**k, as an (n, k) view of
    little-endian uint64 words; with zeros=False, leading zeros are NUL
    (0 itself is "0").

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
    if zeros:
        w |= 0x3030303030303030  # "0" is 0x30
    else:
        # -w sets every bit from w's lowest set bit up, which a digit byte
        # (0-9) holds below bit 4: "0" is ORed into the bytes from the first
        # nonzero digit on, and into every byte after a nonzero word
        lead = -w
        if groups > 1:
            lead[:, 1:][np.logical_or.accumulate(w[:, :-1] != 0, axis=1)] = ~np.uint64(0)
        w |= lead & 0x3030303030303030
        w[:, -1] |= 0x30 << 8 * (per - 1)
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
    slice when every row is exact; and per exact row the first digit and
    the other 16 in ASCII, NUL past the last one the cell keeps, and the
    _float_text_table code.
    """
    n = len(xs[0])
    a = np.concatenate(xs)
    np.abs(a, out=a)
    exact = (a > 1e-6) & (a < 1e17)
    at = np.flatnonzero(exact)
    e, d = _significands(a.take(at))
    first = d // 10**16
    digits = _digits(d - first * 10**16, 16)
    words = digits.view("<u8")  # digits 1-8 and 9-16
    values = words ^ 0x3030303030303030
    low = values[:, 1] != 0
    nz = np.where(low, 9, 1) + _significant_bytes(np.where(low, values[:, 1], values[:, 0]))
    words &= np.take(_DIGIT_MASK, np.maximum(nz, e + 1), axis=0)  # a cell keeps digits 0..max(nz, E + 1) - 1
    code = (e - _E_MIN) * 18 + nz
    first += 48
    ends = np.searchsorted(at, np.arange(len(xs) + 1) * n).tolist()
    columns = []
    for j, (x, lo, hi) in enumerate(zip(xs, ends[:-1], ends[1:])):
        rows = slice(None) if hi - lo == n else at[lo:hi] - j * n
        p = max(0, int(e[lo:hi].max())) if hi > lo else 0
        columns.append((x, p, exact[j * n : (j + 1) * n], rows, first[lo:hi], digits[lo:hi], code[lo:hi]))
    return columns


def _put_floats(column: tuple, text: np.ndarray) -> None:
    """A _float_columns column into an (n, 28 + P) view that holds the nan
    cell: the exact cells, then zero cells, the signs and fallback cells."""
    x, p, exact, rows, first, digits, code = column
    table = _float_layout(p)
    points = _F_DIGIT0 + 2 * p + 2
    _cells(text)[rows] = np.take(_cells(table), code, mode="clip")
    text[rows, _F_DIGIT0] = first
    text[rows, _F_DIGIT0 + 2 : points : 2] = digits[:, :p]
    if p < 16:
        _cells(text[:, points : points + 16 - p])[rows] = _cells(digits[:, p:])
    if isinstance(rows, slice):
        np.multiply(np.signbit(x), _MINUS, out=text[:, 0])
        return
    nan = np.isnan(x)
    zero = np.flatnonzero(x == 0)
    if zero.size:
        _cells(text)[zero] = _cells(table)[_ZERO_CODE]
    np.multiply(np.signbit(x) & ~nan, _MINUS, out=text[:, 0])
    other = np.flatnonzero(~(exact | nan) & (x != 0))
    if other.size:
        w = text.shape[1]
        cells = np.array([fmt_float(v) for v in x[other].tolist()], dtype=f"S{w}")
        text[other] = cells.view(np.uint8).reshape(-1, w)  # NUL-padded


def _int_layout(v: np.ndarray) -> Tuple[bool, int]:
    """Whether an int64 column needs a sign slot, and its largest digit count."""
    low, top = (int(v.min()), int(v.max())) if len(v) else (0, 0)
    return low < 0, len(str(max(top, -low)))


def _put_ints(v: np.ndarray, signed: bool, text: np.ndarray) -> None:
    """Integer cells into an (n, signed + digit count) view."""
    if signed:
        v = v.astype(np.int64)
        np.multiply(v < 0, _MINUS, out=text[:, 0])
        v = np.abs(v)  # the int64 minimum stays negative, but reads 2**63 below
        text = text[:, 1:]
    if text.shape[1] == 1:  # 0 to 9
        np.add(v, 48, out=text[:, 0], casting="unsafe")  # "0" is 48
    else:
        magnitude = v.astype(np.int64, copy=False).view(np.uint64)
        _cells(text)[:] = _cells(_digits(magnitude, text.shape[1], zeros=False))


@functools.lru_cache(maxsize=256)
def _row_text(cells: Tuple[Tuple[int, int], ...]) -> bytes:
    """One laid-out row of cells (width, P), P -1 for every cell but a float
    one: each cell followed by "," (the last by a newline), a float cell
    holding the nan cell, every other byte NUL."""
    row = np.zeros(sum(w + 1 for w, _ in cells), dtype=np.uint8)
    at = 0
    for w, p in cells:
        if p >= 0:
            row[at : at + w] = _float_layout(p)[_NAN_CODE]
        at += w + 1
        row[at - 1] = 44  # ","
    row[-1] = 10  # "\n"
    return row.tobytes()


def _laid_out(columns: Sequence[np.ndarray]) -> np.ndarray:
    """csv_block's rows at fixed width, every byte it drops NUL. A step of
    its own, so the float columns' digit arithmetic is freed before
    csv_block copies the text to bytes."""
    kinds = [c.dtype.kind for c in columns]
    xs = [np.asarray(c, dtype=np.float64) for c, kind in zip(columns, kinds) if kind not in "biuS"]
    floats = iter(_float_columns(xs) if xs else ())
    layouts = [
        col.itemsize if kind == "S" else _int_layout(col) if kind in "biu" else next(floats)
        for col, kind in zip(columns, kinds)
    ]
    cells = tuple(
        (lay, -1) if kind == "S" else (lay[0] + lay[1], -1) if kind in "biu" else (28 + lay[1], lay[1])
        for kind, lay in zip(kinds, layouts)
    )
    row = _row_text(cells)
    n = len(columns[0])
    text = np.frombuffer(bytearray(row) * n, dtype=np.uint8).reshape(n, len(row))  # writable
    at = 0
    for col, kind, lay, (w, _) in zip(columns, kinds, layouts, cells):
        cell = text[:, at : at + w]
        at += w + 1
        if kind == "S":
            cell[:] = np.ascontiguousarray(col).view(np.uint8).reshape(n, w)
            cell *= np.logical_and.accumulate(cell != 0, axis=1)
        elif kind in "biu":
            _put_ints(col, lay[0], cell)
        else:
            _put_floats(lay, cell)
    text[-1:, -1] = 0  # the last row's newline
    return text


def csv_block(columns: Sequence[np.ndarray]) -> bytes:
    """CSV data lines of equal-length columns, joined by newlines, as ASCII.

    Integer and bool columns (int64 range) render as decimal integers, text
    columns (dtype S) as their bytes up to the first NUL, so b"" is an empty
    cell, and every other column as fmt_float renders its float values.
    Each row is laid out at fixed width, every cell followed by a separator,
    and every byte a cell does not use is written as NUL: a leading zero of
    an integer, a float's unused prefix, point, digit and exponent slots, a
    text cell's bytes from its first NUL on. bytes.translate then drops the
    NULs; no other byte is NUL. A float cell is 28 + P bytes wide, P the
    largest fixed-notation exponent among the column's exact cells in this
    block (at least 0), so a runs CSV row (three small integers and two
    floats below 10) is laid out in 68 bytes and keeps about 34. Returning
    bytes lets a caller write each block to a binary file as soon as it is
    rendered, with no decode or encode pass. The working memory is the
    laid-out text and its copy as bytes, 136 B per row of tracemalloc peak
    at 4096 rows of the runs CSV's columns, or the text and the float
    columns' digit arithmetic where that is larger: 226 B per row when both
    float columns are exact in every row. A caller bounds it by the rows it
    passes.
    """
    return _laid_out(columns).tobytes().translate(None, b"\0")
