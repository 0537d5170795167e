"""Deterministic JSON/CSV emission.

All floating-point values print with 17 significant digits so every finite
double round-trips bit-faithfully. Non-finite floats have no JSON encoding,
so NaN and infinities serialize as null in JSON and as "nan"/"inf"/"-inf"
in CSV cells. Key order is insertion order throughout; nothing here depends
on wall-clock time, so equal inputs give byte-identical outputs.

csv_block is the one CSV renderer, for the sweep CSV and the runs CSV
alike: it lays out whole columns with numpy. Integers print in decimal,
text columns as their ASCII bytes, and floats as format(x, ".17g") prints
them, byte for byte. A float x with 1e-6 < |x| < 1e17 has a decimal
exponent E in [-6, 16], so x * 10**(16 - E) needs a power of ten no larger
than 10**22, which is an exact double; Dekker's two-product (Numer. Math.
18, 1971) gives that product exactly as hi + lo, and hi + rint(lo) is the
correctly rounded (round-half-even) 17-digit significand that format
prints. The significands of all dense float columns of
a block (an exact cell in at least one row in 8) are found in one pass, and
their digits formed eight at a time in uint64 words (SWAR), as are the
digits of integers. NaN and +-0 are rendered from fixed patterns. A sparse
column's exact cells and every other float (infinities, |x| <= 1e-6
including subnormals, |x| >= 1e17) are formatted by that rule one cell at
a time, and laid out with the rest or, when few, spliced in.
"""

from __future__ import annotations

import functools
import json
import math
from typing import Any, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .fock_core import DensityOperator, PureState


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


# Layout of one float cell in csv_block, at its widest (_float_text_table):
# a sign slot, the "0.000" prefix of fixed notation below 1, the 17
# significand digits each followed by a point slot, and the exponent "e-0d"
# (in the exact range, scientific notation only occurs at E = -5 and -6).
# A column's cell in a block keeps only the slots its exact cells there can
# use (_float_layout): with their exponents from L to P <= 0, the point slot
# after digit 0 if P = 0, the prefix slots of "0." and -L - 1 zeros (none
# for L >= 0, all five from L = -4 down) and the exponent slots if L < -4,
# 18 to 24 slots; with P >= 1, 28 + P slots, the point slots after digits
# 0..P and every prefix and exponent slot. Scientific cells (L < -4) that
# are rare in a column of P <= 0 are left to the other cells
# (_other_cells), so they widen no cell.
_F_WIDTH = 44
_F_DIGIT0 = 6
_E_MIN, _E_MAX = -6, 16
# A column with an exact cell in fewer than one row in _SPARSE of a block is
# sparse: it has no digits, and its cell is 3 bytes, room for nan and +-0.
# The numbers the digits leave (a sparse column's, infinities, |x| <= 1e-6,
# |x| >= 1e17) are formatted one at a time: when they are at least one row
# in _SPARSE, the cell is widened to _F_TEXT and they are laid out in it;
# fewer are spliced into the text.
_SPARSE = 8
_F_TEXT = 24  # the longest text of format(x, ".17g"), as in "-2.2250738585072014e-308"


def _split(a: np.ndarray):
    """Veltkamp's split of each a into two halves of at most 26 bits."""
    c = 134217729.0 * a  # 2**27 + 1
    hi = c - (c - a)
    return hi, a - hi


# 10**k for k in 0..22 (exact doubles), and the two halves of each
_POW10 = np.array([[10.0**k for k in range(23)], *zip(*(_split(10.0**k) for k in range(23)))])
# Codes of the text table's rows: ((E - _E_MIN) * 18 + n) * 2 + s for an
# exact cell of exponent E, n significant digits and sign bit s, then nan,
# 0, -0 and an empty cell (every byte NUL)
_NAN_CODE = (_E_MAX - _E_MIN + 1) * 36
# Column m of row j keeps digits 1..m-1 of the 16 after a significand's
# first in word j (digits 1-8, then 9-16), and makes the rest NUL.
_DIGIT_MASK = np.array(
    [[(1 << 8 * min(max(m - 1 - 8 * j, 0), 8)) - 1 for m in range(18)] for j in (0, 1)], dtype=np.uint64
)


@functools.lru_cache(maxsize=None)
def _float_text_table() -> np.ndarray:
    """The widest cell's text per code. A code's row holds the bytes its
    cells keep that the digits do not set: the sign, the "0." prefix and
    its zeros, the point and "e-0d", and "0" in the first digit's slot, to
    which the digit is added. Every other slot, the other digit slots
    included, is NUL. Built on first use, so commands that write no CSV do
    not pay for it."""
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
    const = np.frombuffer(b"\0" + b"0.000" + b"0." + b"\0." * 16 + b"e-0\0", np.uint8)
    unsigned = const * ((point | prefix | exponent | (pos == _F_DIGIT0)) & (nz > 0))
    unsigned[: -4 - _E_MIN, 1:, -1] = 48 - e[: -4 - _E_MIN, :, 0]  # the d of "e-0d"
    table = np.stack((unsigned, unsigned), axis=2)
    table[:, 1:, 1, 0] = 45  # "-"
    special = np.zeros((4, _F_WIDTH), dtype=np.uint8)  # nan, 0, -0, empty
    special[0, _F_DIGIT0 : _F_DIGIT0 + 6 : 2] = np.frombuffer(b"nan", np.uint8)
    special[1:3, _F_DIGIT0] = 48  # "0"
    special[2, 0] = 45  # "-"
    return np.concatenate([table.reshape(-1, _F_WIDTH), special])


@functools.lru_cache(maxsize=None)
def _float_layout(lo: Optional[int], p: int) -> tuple:
    """The cell of a column whose exact cells have exponents from lo <= 0
    (-5 for any below -4) to p, p = -1 when every exponent is below 0 and
    none below -4, as the widest cell's slots it keeps: its width, the slot
    of its first digit, its nan, 0, -0 and empty cells (a row each), and
    per code of an exponent up to max(p, 0), the highest a block of the
    layout reaches, either its first 8 bytes and, with an exponent, its
    last 4 as little-endian words (p <= 0), or its whole text (p >= 1, when
    lo is -5: every prefix and exponent slot), the rest None. lo None is a
    sparse column's 3-byte cell."""
    if lo is None:
        return 3, 0, np.frombuffer(b"nan0\0\0-0\0\0\0\0", np.uint8).reshape(4, 3), None, None, None
    width = 1 - max(lo, -4) if lo < 0 else 0  # of the prefix
    points = _F_DIGIT0 + 2 * p + 2
    exponent = _F_WIDTH - 4 if lo < -4 else _F_WIDTH
    slots = [*range(1 + width), *range(_F_DIGIT0, points), *range(points, _F_DIGIT0 + 34, 2),
             *range(exponent, _F_WIDTH)]
    text = _float_text_table()
    specials = np.ascontiguousarray(text[_NAN_CODE:][:, slots])
    text = text[: (max(p, 0) - _E_MIN + 1) * 36]
    if p > 0:
        return len(slots), 1 + width, specials, None, None, np.ascontiguousarray(text[:, slots])
    head = np.ascontiguousarray(text[:, slots[:8]]).view(_little(8))[:, 0]
    tail = np.ascontiguousarray(text[:, slots[-4:]]).view(_little(4))[:, 0] if lo < -4 else None
    return len(slots), 1 + width, specials, head, tail, None


def _scaled(a: np.ndarray, e: np.ndarray) -> np.ndarray:
    """The integer nearest a * 10**(16 - e), ties to even.

    Dekker's two-product gives a * b exactly as hi + lo from the halves of
    a and of b = 10**(16 - e), whose split is taken once, above, and
    gathered with b.
    """
    b, b_hi, b_lo = _POW10.take(16 - e, axis=1)
    hi = a * b
    a_hi, a_lo = _split(a)
    lo = a_hi * b_hi  # lo = ((a_hi * b_hi - hi) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    lo -= hi
    lo += a_hi * b_lo
    lo += a_lo * b_hi
    lo += a_lo * b_lo
    # hi is an even integer above 2**53, so adding rint(lo) rounds half to even
    d = hi.astype(np.int64)
    d += np.rint(lo, out=lo).astype(np.int64)
    return d


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
    fix = ((d - 10**16).view(np.uint64) >= 9 * 10**16).nonzero()[0]  # D outside [10**16, 10**17)
    if fix.size:
        e[fix] += np.where(d[fix] < 10**16, -1, 1)
        d[fix] = _scaled(a[fix], e[fix])
    return e, d


def _swar(w: np.ndarray, per: int = 8) -> np.ndarray:
    """Each uint64 word of w, an integer below 10**per, into its decimal
    digit values (0-9), in place, little-endian with the first digit in the
    lowest byte.

    Each word becomes its digits at once (SWAR): it is split into two
    4-digit lanes of 32 bits, each lane into two 2-digit lanes of 16 bits,
    each of those into two digit bytes, every split a multiply-shift
    division that cannot carry across lanes. Words of at most 4, 2 or 1
    digits skip the splits they do not need.
    """
    # a split of lane x at 10**h into b-bit halves is q + ((x - q * 10**h) << b),
    # computed as (x << b) - q * (10**h * 2**b - 1)
    if per > 4:
        q = w // 10**4
        w <<= 32
        q *= (10**4 << 32) - 1
        w -= q
    if per > 2:
        q = w * 5243  # then x // 100 in each lane x < 43699
        q >>= 19
        q &= 0x7F0000007F
        w <<= 16
        q *= (100 << 16) - 1
        w -= q
    if per > 1:
        q = w * 103  # then x // 10 in each lane x < 179
        q >>= 10
        q &= 0x000F000F000F000F
        w <<= 8
        q *= (10 << 8) - 1
        w -= q
    return w


def _int_digits(v: np.ndarray, k: int) -> np.ndarray:
    """ASCII decimal digits of integers 0 <= v < 10**k, leading zeros NUL
    (0 itself is "0"), as an (n, k) view whose rows are contiguous."""
    groups = -(-k // 8)
    per = 8 if groups > 1 or k > 4 else 4 if k > 2 else k  # digits in word 0
    w = np.empty((groups, len(v)), dtype=np.uint64)  # word 0 the first per digits, then 8 each
    w[-1] = v
    for j in range(groups - 1, 0, -1):
        np.floor_divide(w[j], 10**8, out=w[j - 1])
        w[j] -= w[j - 1] * 10**8
    _swar(w, per)
    # -w sets every bit from w's lowest set bit up, which a digit byte (0-9)
    # holds below bit 4: "0" is ORed into the bytes from the first nonzero
    # digit on, and into every byte after a nonzero word
    lead = -w
    for j in range(1, groups):
        lead[j, (w[:j] != 0).any(axis=0)] = ~np.uint64(0)
    w |= lead & 0x3030303030303030  # "0" is 0x30
    w[-1] |= 0x30 << 8 * (per - 1)
    stop = 8 * (groups - 1) + per
    return np.ascontiguousarray(w.T, dtype="<u8").view(np.uint8)[:, stop - k : stop]


@functools.lru_cache(maxsize=None)
def _void(width: int) -> np.dtype:
    return np.dtype((np.void, width))


@functools.lru_cache(maxsize=None)
def _little(size: int) -> np.dtype:
    return np.dtype(f"<u{size}")


def _cells(a: np.ndarray) -> np.ndarray:
    """The rows of an (n, w) byte array whose rows are contiguous, as n items
    of w bytes, which numpy copies and gathers whole instead of byte by byte."""
    return a.view(_void(a.shape[1]))[:, 0]


def _store(text: np.ndarray, at: int, words: np.ndarray) -> None:
    """Words into each row of an (n, w) byte array, little-endian, from
    byte at of the row on."""
    text[:, at : at + words.itemsize].view(_little(words.itemsize))[:, 0] = words


def _float_columns(xs: Sequence[np.ndarray], n: int) -> List[tuple]:
    """The float columns of a block, the digits of all dense ones formed in
    one pass over all their cells.

    Per column, a tuple: x as float64; the mask of the exact cells its
    layout holds; its layout key (see _float_layout), (None, 0) for a sparse
    column; and for a dense column, per row its _float_text_table code,
    first digit (0-9, as uint64) and the two words of the other 16 in
    ASCII, NUL past the last one the cell keeps, computed for a row outside
    the exact range as if it held 1.0, whose exponent 0 can only add the
    point slot after the first digit to the layout.
    The scientific cells of a dense column of P <= 0, when fewer than one in
    _SPARSE of its exact cells, are left out of its layout and mask.
    """
    x = np.concatenate(xs, dtype=np.float64, casting="unsafe").reshape(len(xs), n)
    a = np.abs(x)
    exact = (a > 1e-6) & (a < 1e17)
    counts = np.count_nonzero(exact, axis=1).tolist()
    dense = [j for j, count in enumerate(counts) if _SPARSE * count >= n]
    columns = [(x[j], exact[j], (None, 0), None) for j in range(len(xs))]
    if not dense:
        return columns
    pick = dense[0] if len(dense) == 1 else dense  # one column stays a view
    a, cells = a[pick], exact[pick]
    if sum(counts[j] for j in dense) < len(dense) * n:
        a = np.where(cells, a, 1.0)
    e, d = _significands(a.reshape(-1))
    del a, cells
    d = d.view(np.uint64)
    w = np.empty((2, len(d)), dtype=np.uint64)  # digits 0-8, then 9-16
    np.floor_divide(d, 10**8, out=w[0])
    np.subtract(d, w[0] * 10**8, out=w[1])
    del d
    first = w[0] // 10**8
    w[0] -= first * 10**8  # digits 1-8
    _swar(w)
    low = w[1] != 0
    # significant digits: 1, and 8 if digits 9-16 are not all 0, and the bytes
    # of the other word up to its last nonzero one, from the float exponent
    # of its top bit, which rounding to 53 bits cannot carry past bit 3 of
    # its byte (a digit is at most 9)
    nz = (np.frexp(np.where(low, w[1], w[0]).astype(np.float64))[1] + 15) >> 3
    np.add(nz, 8, out=nz, where=low)
    w |= 0x3030303030303030  # "0" is 0x30
    w &= _DIGIT_MASK.take(np.maximum(nz, e + 1), axis=1)  # a cell keeps digits 0..max(nz, E + 1) - 1
    code = ((e - _E_MIN) * 18 + nz) * 2 + np.signbit(x[pick]).reshape(-1)
    e = e.reshape(-1, n)  # each dense column's exponent range, one pass each
    keys = zip(e.min(axis=1).tolist(), e.max(axis=1).tolist())
    for i, (j, (lo, hi)) in enumerate(zip(dense, keys)):
        kept = exact[j]
        if hi > 0:  # one layout per P
            key = (-5, hi)
        else:
            if lo < -4:  # scientific cells, left to the other cells when rare
                scientific = e[i] < -4
                if _SPARSE * np.count_nonzero(scientific) < counts[j]:
                    kept = kept & ~scientific
                    lo = int(np.where(scientific, 0, e[i]).min())
            key = (max(lo, -5), 0 if hi == 0 or lo < -4 else -1)
        cells = slice(i * n, (i + 1) * n)
        columns[j] = (x[j], kept, key, (code[cells], first[cells], w[0, cells], w[1, cells]))
    return columns


def _exact_text(key: tuple, code, first, w1, w2, text: np.ndarray) -> None:
    """Cells of the layout key from their codes and digits into text, an
    (n, w) byte array of one cell per row, the rows contiguous: as whole
    words where no point slot lies among the digits (P <= 0), else gathered
    and placed byte by byte. The words render the bench's runs-CSV blocks
    in 0.83-0.93 of the time the gather takes (one pinned CPU)."""
    width, c0, _, head, tail, table = _float_layout(*key)
    p = key[1]
    if head is not None:
        _store(text, 0, head.take(code) | first << 8 * c0)
        _store(text, c0 + 2 + p, w1)
        _store(text, c0 + 10 + p, w2)
        if tail is not None:
            _store(text, width - 4, tail.take(code))
        return
    _cells(text)[:] = _cells(table).take(code)
    text[:, c0] += first.astype(np.uint8)
    slots = [c0 + 2 * i if i <= p else c0 + p + 1 + i for i in range(1, 17)]
    text[:, slots] = np.stack((w1, w2), axis=1).astype("<u8", copy=False).view(np.uint8)


def _other_cells(column: tuple, n: int) -> tuple:
    """A _float_columns column's key, digits and cell width, and the cells
    its digits leave: their rows (nan rows only in a dense column, whose
    digits go into every row), each one's row of the layout's specials (nan,
    0, -0, or the empty cell of a number), and the rows of the numbers among
    them with their text by format(x, ".17g"). Numbers in at least one row in
    _SPARSE of the block are laid out in the cell, widened to _F_TEXT, as
    an S array; fewer are spliced into the text, as a list of bytes."""
    x, kept, key, digits = column
    width = _float_layout(*key)[0]
    other = ((x == x) if digits is None else ~kept).nonzero()[0]  # x == x is False for nan
    if not other.size:
        return key, digits, width, other, None, other, []
    values = x[other]
    zero = values == 0
    code = np.where(zero, 1 + np.signbit(values), 3)
    numbers = ~zero
    if digits is not None:  # nan cells, written over by the digits
        nan = np.isnan(values)
        code[nan] = 0
        numbers &= ~nan
    rows = other[numbers]
    # format(x, ".17g") of each, formatted in one call
    texts = ("%.17g\n" * rows.size % tuple(values[numbers].tolist())).encode("ascii").split()
    if _SPARSE * rows.size >= n:
        texts = np.array(texts, dtype=f"S{_F_TEXT}")
        width = max(width, _F_TEXT)
    return key, digits, width, other, code, rows, texts


def _put_floats(column: tuple, text: np.ndarray, cell_at: int, splices: list) -> None:
    """An _other_cells column into the text, its cells from byte cell_at of
    each row on, where the row template holds the nan cell, NUL past the
    layout's width. A dense column's digits go into every row, and the rows
    they leave are then written over; numbers to splice are added to
    splices as (offsets, texts)."""
    key, digits, _, other, code, rows, texts = column
    width, _, specials, *_ = _float_layout(*key)
    cell = text[:, cell_at : cell_at + width]
    if digits is not None:
        _exact_text(key, *digits, cell)
    if other.size:
        _cells(cell)[other] = _cells(specials).take(code)
    if isinstance(texts, np.ndarray):
        text[rows, cell_at : cell_at + _F_TEXT] = texts.view(np.uint8).reshape(rows.size, _F_TEXT)
    elif texts:
        splices.append((rows * text.shape[1] + cell_at, texts))


_MINUS = np.uint8(45)  # "-"


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
        _cells(text)[:] = _cells(_int_digits(v.astype(np.int64, copy=False).view(np.uint64), text.shape[1]))


def _int_layout(v: np.ndarray) -> Tuple[bool, int]:
    """Whether an int column needs a sign slot, and its largest digit count."""
    low, top = int(v.min()), int(v.max())
    return low < 0, len(str(max(top, -low)))


def _laid_out(columns: Sequence[np.ndarray]) -> Tuple[np.ndarray, list]:
    """csv_block's rows at fixed width, every byte it drops NUL, and the
    cells to splice into them as (offsets, texts). A step of its own, so
    the float columns' digit arithmetic is freed before csv_block copies
    the text to bytes."""
    n = len(columns[0])
    kinds = [c.dtype.kind for c in columns]
    xs = [c for c, kind in zip(columns, kinds) if kind not in "biuS"]
    floats = iter([_other_cells(column, n) for column in _float_columns(xs, n)] if xs else ())
    layouts = [_int_layout(c) if kind in "biu" else None if kind == "S" else next(floats)
               for c, kind in zip(columns, kinds)]
    cells = []  # each cell's text in the row template
    for col, kind, lay in zip(columns, kinds, layouts):
        if kind == "S":
            cells.append(bytes(col.itemsize))
        elif kind in "biu":
            cells.append(bytes(lay[0] + lay[1]))
        else:
            cells.append(_float_layout(*lay[0])[2][0].tobytes().ljust(lay[2], b"\0"))
    row = b",".join(cells) + b"\n"
    text = np.frombuffer(bytearray(row) * n, dtype=np.uint8).reshape(n, len(row))  # writable
    splices = []
    at = 0
    for col, kind, lay, cell in zip(columns, kinds, layouts, cells):
        w = len(cell)
        if kind == "S":
            view = text[:, at : at + w]
            view[:] = np.ascontiguousarray(col).view(np.uint8).reshape(n, w)
            view *= np.logical_and.accumulate(view != 0, axis=1)
        elif kind in "biu":
            _put_ints(col, lay[0], text[:, at : at + w])
        else:
            _put_floats(lay, text, at, splices)
        at += w + 1
    text[-1, -1] = 0  # the last row's newline
    return text, splices


def _joined(text: np.ndarray, splices: list) -> bytes:
    """The laid-out text as bytes, each spliced cell inserted at its offset."""
    if not splices:
        return text.tobytes()
    offsets = np.concatenate([o for o, _ in splices])
    texts = [t for _, texts in splices for t in texts]
    if len(splices) > 1:
        order = np.argsort(offsets, kind="stable")
        offsets, texts = offsets[order], [texts[i] for i in order.tolist()]
    cuts = [0, *offsets.tolist(), text.size]
    flat = memoryview(text.reshape(-1))
    parts = [b""] * (2 * len(texts) + 1)
    parts[::2] = [flat[start:stop] for start, stop in zip(cuts, cuts[1:])]
    parts[1::2] = texts
    return b"".join(parts)


def csv_block(columns: Sequence[np.ndarray]) -> bytes:
    """CSV data lines of equal-length columns, joined by newlines, as ASCII.

    Integer and bool columns (int64 range) render as decimal integers, text
    columns (dtype S) as their bytes up to the first NUL, so b"" is an empty
    cell, and every other column as format(x, ".17g") renders its float
    values ("nan", "inf" and "-inf" for the non-finite ones).
    Each row is laid out at fixed width, every cell followed by a separator,
    and every byte a cell does not use is written as NUL: a leading zero of
    an integer, a float's unused sign, prefix, point, digit and exponent
    slots, a text cell's bytes from its first NUL on. A dense float column's
    cell is as wide as its exact cells in this block need: 18 to 24 bytes
    while their exponents are at most 0, else 28 + P, P the largest one.
    A sparse column's cell is 3 bytes, room for nan and +-0. The numbers
    left (a sparse column's exact cells, every column's fallback cells) are
    formatted one at a time: laid out in the cell, widened to 24 bytes, if
    they are in at least one row in 8, else spliced into the text as it is
    copied to bytes. bytes.translate then drops the NULs; no other byte is
    NUL. A runs CSV row (three small integers, a mostly nan x_sample and a
    noise value below 1) is laid out in 38 bytes and keeps about 35.
    Returning bytes lets a caller write each block to a binary file as soon
    as it is rendered, with no decode or encode pass. The working memory is
    the dense columns' digit arithmetic or the laid-out text beside its
    copy as bytes, whichever is larger: a tracemalloc peak of 115 B per row
    at 4096 rows of the runs CSV's columns, 197 B when both float columns
    are exact in every row. A caller bounds it by the rows it passes.
    """
    if not len(columns[0]):
        return b""
    return _joined(*_laid_out(columns)).translate(None, b"\0")
