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
prints. The significands of all dense float columns of a block (an exact
cell in at least one row in 8) are found in one pass, and their digits and
those of the integers formed eight at a time in uint64 words (SWAR), in
one pass. NaN and +-0 are rendered from fixed patterns. A sparse column's
exact cells and every other float (infinities, |x| <= 1e-6 including
subnormals, |x| >= 1e17) are formatted by that rule one cell at a time,
and laid out with the rest or, when few, spliced in.
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
# a sign slot and the "0.000" prefix of fixed notation below 1, both against
# the first digit so that the unused ones are one run of NULs, the 17
# significand digits each followed by a point slot, and the exponent "e-0d"
# (in the exact range, scientific notation only occurs at E = -5 and -6).
# A column's cell in a block keeps only the slots its exact cells there can
# use (_float_layout): with exponents from L to P <= 0, the point slot after
# digit 0 if P = 0, the prefix slots of "0." and -L - 1 zeros (all five from
# L = -4 down) and the exponent slots if L < -4, 18 to 24 slots; with P >= 1,
# 28 + P. Rare scientific cells (L < -4) of a column of P <= 0 widen no cell.
_F_WIDTH = 44
_F_DIGIT0 = 6
_E_MIN, _E_MAX = -6, 16
# A column with an exact cell in fewer than one row in _SPARSE of a block is
# sparse: no digits, and a 3-byte cell, room for nan and +-0. The numbers the
# digits leave (a sparse column's, infinities, |x| <= 1e-6, |x| >= 1e17) are
# formatted one at a time: laid out in the cell widened to _F_TEXT when in
# at least one row in _SPARSE, else spliced into the text.
_SPARSE = 8
_F_TEXT = 24  # the longest text of format(x, ".17g"), as in "-2.2250738585072014e-308"


# By E - _E_MIN: 10**(16 - E) (an exact double), and its two halves of at
# most 26 bits by Veltkamp's split, as _scaled splits its factor
_POW10 = np.array([10.0 ** (16 - e) for e in range(_E_MIN, _E_MAX + 1)])
_POW10 = np.array([_POW10, _POW10 * 134217729.0 - (_POW10 * 134217729.0 - _POW10)])
_POW10 = np.array([*_POW10, _POW10[0] - _POW10[1]])
# Codes of the text table's rows: ((E - _E_MIN) * 2 + m) * 2 + s for an
# exact cell of exponent E and sign bit s, m 1 if a digit the cell keeps
# follows its point slot (the one after digit E, or after digit 0 if E < 0),
# then nan, 0, -0 and an empty cell (every byte NUL)
_NAN_CODE = (_E_MAX - _E_MIN + 1) * 4


@functools.lru_cache(maxsize=None)
def _digit_tables() -> tuple:
    """_digits' tables, built on first use. By the exponent field f of a
    double a >= 0 (its bits >> 52): E - _E_MIN for the decimal exponent E of
    2**(f - 1023) clamped to [_E_MIN, _E_MAX] ((f - 1023) * log10(2) is at
    least 1e-4 from an integer but at 0), and 10**(E + 1), from which on a's
    exponent is E + 1. By E - _E_MIN, per digit word (digits 1-8, 9-16, the
    first in the highest byte): the byte of the digit after the point slot,
    and those of digits 1..E."""
    field = np.clip(np.floor((np.arange(2048) - 1023) * math.log10(2.0)), _E_MIN, _E_MAX)
    field = field.astype(np.int64) - _E_MIN
    tens = np.array([float(f"1e{e + 1}") for e in range(_E_MIN, _E_MAX + 1)])
    j = np.arange(16)  # digit j + 1: in word j // 8, at byte 7 - j % 8
    byte = np.left_shift(np.uint64(0xFF), (56 - 8 * (j % 8)).astype(np.uint64))
    e = np.arange(_E_MIN, _E_MAX + 1)[:, None]
    after, upto = ((byte * c).reshape(-1, 2, 8).sum(axis=2).T.copy() for c in (j == np.maximum(e, 0), j < e))
    return field, tens.take(field), after, upto


@functools.lru_cache(maxsize=None)
def _float_text_table() -> np.ndarray:
    """The widest cell's text per code. A code's row holds the bytes its
    cells keep that the digits do not set: the sign, the "0." prefix and
    its zeros, the point and "e-0d", and "0" in the first digit's slot, to
    which the digit is added. Every other slot, the other digit slots
    included, is NUL. Built on first use, so commands that write no CSV do
    not pay for it."""
    e = np.arange(_E_MIN, _E_MAX + 1)[:, None, None]
    more = np.arange(2)[None, :, None] == 1
    pos = np.arange(_F_WIDTH)
    i, is_point = np.divmod(pos - _F_DIGIT0, 2)  # slot of digit i, or the point after it
    scientific = e < -4
    point = more & (is_point == 1) & (((e >= 0) & (i == e)) | (scientific & (i == 0)))
    sign = _F_DIGIT0 - 1 - np.where((e < 0) & ~scientific, 1 - e, 0)  # "0." and -E-1 zeros follow it
    exponent = scientific & (pos >= _F_WIDTH - 4)
    const = np.frombuffer(b"\0" * 6 + b"0." + b"\0." * 16 + b"e-0\0", np.uint8)
    unsigned = const * (point | exponent | (pos == _F_DIGIT0))
    prefix = (pos > sign) & (pos < _F_DIGIT0)
    unsigned += np.uint8(48) * prefix - np.uint8(2) * (prefix & (pos == sign + 2))  # "0", and "." at 46
    unsigned[: -4 - _E_MIN, :, -1] = 48 - e[: -4 - _E_MIN, :, 0]  # the d of "e-0d"
    table = np.stack((unsigned, unsigned), axis=2)
    table[:, :, 1] += np.uint8(45) * (pos == sign)  # "-"
    special = np.zeros((4, _F_WIDTH), dtype=np.uint8)  # nan, 0, -0, empty
    special[0, _F_DIGIT0 : _F_DIGIT0 + 6 : 2] = np.frombuffer(b"nan", np.uint8)
    special[1:3, _F_DIGIT0] = 48  # "0"
    special[2, _F_DIGIT0 - 1] = 45  # "-"
    return np.concatenate([table.reshape(-1, _F_WIDTH), special])


@functools.lru_cache(maxsize=None)
def _float_layout(lo: Optional[int], p: int) -> tuple:
    """The cell of a column whose exact cells have exponents from lo <= 0
    (-5 for any below -4) to p (-1 when all are in [-4, -1]), as the widest
    cell's slots it keeps: its width, its first digit's slot, its nan, 0,
    -0 and empty cells, and per code up to exponent max(p, 0) either its
    first 8 bytes and, with an exponent, its last 4 as little-endian words
    (p <= 0), or its whole text (p >= 1, lo -5), the rest None. lo None is
    a sparse column's 3-byte cell."""
    if lo is None:
        return 3, 0, np.frombuffer(b"nan0\0\0-0\0\0\0\0", np.uint8).reshape(4, 3), None, None, None
    width = 1 - max(lo, -4) if lo < 0 else 0  # of the prefix
    points = _F_DIGIT0 + 2 * p + 2
    exponent = _F_WIDTH - 4 if lo < -4 else _F_WIDTH
    slots = [*range(_F_DIGIT0 - 1 - width, points), *range(points, _F_DIGIT0 + 34, 2), *range(exponent, _F_WIDTH)]
    text = _float_text_table()
    specials = np.ascontiguousarray(text[_NAN_CODE:][:, slots])
    text = text[: (max(p, 0) - _E_MIN + 1) * 4]
    if p > 0:
        return len(slots), 1 + width, specials, None, None, np.ascontiguousarray(text[:, slots])
    head = np.ascontiguousarray(text[:, slots[:8]]).view(_dtype("<u8"))[:, 0]
    tail = np.ascontiguousarray(text[:, slots[-4:]]).view(_dtype("<u4"))[:, 0] if lo < -4 else None
    return len(slots), 1 + width, specials, head, tail, None


def _scaled(a: np.ndarray, e: np.ndarray) -> np.ndarray:
    """The integer nearest a * 10**(16 - E), ties to even, e = E - _E_MIN:
    Dekker's two-product gives a * b exactly as hi + lo from the halves of
    a and of b = 10**(16 - E), whose split is taken once, above, and
    gathered with b."""
    b, b_hi, b_lo = (p.take(e) for p in _POW10)
    hi = a * b
    a_hi = np.multiply(a, 134217729.0, out=b)  # Veltkamp's split, 134217729 = 2**27 + 1
    a_lo = a_hi - a
    a_hi -= a_lo
    np.subtract(a, a_hi, out=a_lo)
    lo = a_hi * b_hi  # lo = ((a_hi * b_hi - hi) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    lo -= hi
    a_hi *= b_lo
    lo += a_hi
    b_hi *= a_lo
    lo += b_hi
    a_lo *= b_lo
    lo += a_lo
    # hi is an even integer above 2**53, so adding rint(lo) rounds half to even
    d = hi.astype(np.int64)
    d += np.rint(lo, out=lo).astype(np.int64)
    return d


def _significands(a: np.ndarray):
    """E - _E_MIN for the decimal exponent E, and the 17-digit significand
    D, of each 1e-6 < a < 1e17: the correctly rounded integer nearest
    a * 10**(16 - E), 10**16 <= D < 10**17. E, read from a's binary exponent
    and the power of ten above it, can miss by one next to a power of ten
    that is not a double; D shows that: in this range the largest double
    below each power of ten scales to at least 8.3 below 10**17, so an E one
    too high gives a D below 10**16, one too low a D of at least 10**17, and
    the right E never rounds D up to 10**17."""
    field, tens = _digit_tables()[:2]
    exponent = a.view(np.int64) >> 52
    e = field.take(exponent)
    e += a >= tens.take(exponent)
    del exponent
    d = _scaled(a, e)
    fix = ((d - 10**16).view(np.uint64) >= 9 * 10**16).nonzero()[0]  # D outside [10**16, 10**17)
    if fix.size:
        e[fix] += np.where(d[fix] < 10**16, -1, 1)
        d[fix] = _scaled(a[fix], e[fix])
    return e, d


def _swar(w: np.ndarray) -> np.ndarray:
    """Each uint64 word of w, an integer below 10**8, into its 8 decimal
    digit values (0-9), in place, the first digit in the highest byte; the
    scratch array it used, of w's shape, is returned for reuse.

    Each word becomes its digits at once (SWAR): it is split into two
    4-digit lanes of 32 bits, each lane into two 2-digit lanes of 16 bits,
    each of those into two digit bytes. The later splits work on w as
    uint32 and uint16 items, so no lane can carry into the next.
    """
    # a split of lane x at 10**h into b-bit halves, the quotient q high, is
    # x - q * 10**h + (q << b) = x + q * (2**b - 10**h)
    q = w // 10**4
    q *= (1 << 32) - 10**4
    w += q
    lanes, q32 = w.view(np.uint32), q.view(np.uint32)
    np.floor_divide(lanes, 100, out=q32)
    q32 *= (1 << 16) - 100
    lanes += q32
    lanes, q16 = w.view(np.uint16), q.view(np.uint16)
    np.multiply(lanes, 103, out=q16)  # then x // 10 for x < 179
    q16 >>= 10
    q16 *= (1 << 8) - 10
    lanes += q16
    return q


_dtype = functools.lru_cache(maxsize=None)(np.dtype)


def _cells(a: np.ndarray) -> np.ndarray:
    """The rows of an (n, w) byte array whose rows are contiguous, as n items
    of w bytes, which numpy copies and gathers whole instead of byte by byte."""
    return a.view(_dtype((np.void, a.shape[1])))[:, 0]


def _store(text: np.ndarray, at: int, words: np.ndarray, order: str = "<") -> None:
    """Words into each row of an (n, w) byte array from byte at of the row
    on, little-endian, or big-endian if order is ">"."""
    text[:, at : at + words.itemsize].view(_dtype(f"{order}u{words.itemsize}"))[:, 0] = words


def _digits(xs: Sequence[np.ndarray], ints: Sequence[tuple], n: int) -> Tuple[List[tuple], list]:
    """The float columns of a block, and the digits of its int columns of
    more than one digit, formed in one SWAR pass over all their words.

    ints holds (v, k) per such int column, v its values >= 0 (the int64
    minimum reads 2**63) and k their largest digit count; each comes back as
    (n, k) ASCII digits, leading zeros NUL, a view of contiguous rows. A
    float column with too few non-nan cells to be dense is sparse without
    further passes. Per float column: x as float64; the rows left to
    _other_cells (a sparse column's non-nan rows, a dense one's cells outside
    the exact range and rare scientific cells); its layout key, (None, 0) if
    sparse; and if dense, per row its text code, first digit and the two
    words of the other 16 in ASCII, NUL past the last one the cell keeps,
    computed for a row outside the exact range as if it held 1.0 (exponent
    0, which adds at most the point slot after digit 0 to the layout)."""
    columns, maybe = [], []
    for x in xs:
        x = x.astype(np.float64, copy=False)
        known = x == x  # False for nan
        if _SPARSE * np.count_nonzero(known) >= n:
            maybe.append(len(columns))
        columns.append((x, known, (None, 0), None))
    x = np.stack([columns[j][0] for j in maybe]) if len(maybe) > 1 else (
        columns[maybe[0]][0][None] if maybe else np.empty((0, n)))
    a = np.abs(x)
    exact = (a > 1e-6) & (a < 1e17)
    counts = [np.count_nonzero(cells) for cells in exact]
    pick = [i for i, count in enumerate(counts) if _SPARSE * count >= n]
    if len(pick) < len(maybe):
        x, a, exact = x[pick], a[pick], exact[pick]
    m = len(pick)
    if sum(counts[i] for i in pick) < m * n:
        a = np.where(exact, a, 1.0)
    e, d = (v.reshape(m, n) for v in _significands(a.reshape(-1)))
    del a
    keys, left = [], ~exact
    ids = (e + np.arange(0, 23 * m, 23)[:, None]) if m > 1 else e
    for i, h in enumerate(np.bincount(ids.reshape(-1), minlength=23 * m).reshape(m, 23).tolist()):
        present = [k + _E_MIN for k, count in enumerate(h) if count]
        lo, hi = present[0], present[-1]
        if hi <= 0 and lo < -4 and _SPARSE * (h[0] + h[1]) < counts[pick[i]]:
            left[i] |= e[i] < -4 - _E_MIN  # rare scientific cells go
            lo = next(k for k in present if k >= -4)
        keys.append((-5, hi) if hi > 0 else (max(lo, -5), 0 if hi == 0 or lo < -4 else -1))
    groups = [-(-k // 8) for _, k in ints]
    w = np.empty((2 * m + sum(groups), n), dtype=np.uint64)
    w1, w2 = w[:m], w[m : 2 * m]  # digits 1-8 and 9-16 of the dense columns; the ints' then
    d = d.view(np.uint64)
    q = d // 10**8
    np.subtract(d, q * 10**8, out=w2)
    first = q // 10**8
    np.subtract(q, first * 10**8, out=w1)
    del d, q
    at = 2 * m
    for (v, k), g in zip(ints, groups):  # an int column's groups of 8 digits
        w[at + g - 1] = v
        for j in range(at + g - 1, at, -1):
            np.floor_divide(w[j], 10**8, out=w[j - 1])
            w[j] -= w[j - 1] * 10**8
        at += g
    scratch = _swar(w)
    w[2 * m :].byteswap(inplace=True)  # an int word's first digit in its lowest byte
    # -w sets every bit from w's lowest set bit up, below bit 4 in a digit
    # byte: "0" goes into a float word's bytes from its last nonzero digit to
    # its first, an int word's from its first nonzero digit to its last, and
    # every byte of a word before a nonzero float or after a nonzero int word
    lead = np.negative(w, out=scratch)
    lead[:m] |= np.negative(w2 != 0, dtype=np.uint64)
    at = 2 * m
    for g in groups:
        for j in range(1, g):
            lead[at + j, (w[at : at + j] != 0).any(axis=0)] = ~np.uint64(0)
        at += g
    more = None  # whether a digit the cell keeps follows its point slot
    if any(key[1] > 0 for key in keys):  # the digits of fixed notation up to the point are kept
        after, upto = _digit_tables()[2:]
        more = ((lead[:m] & after[0].take(e)) | (lead[m : 2 * m] & after[1].take(e))) != 0
        lead[:m] |= upto[0].take(e)
        lead[m : 2 * m] |= upto[1].take(e)
    elif any(key[1] == 0 for key in keys):  # a point slot after digit 0
        more = lead[:m] != 0
    lead &= 0x3030303030303030  # "0" is 0x30
    w |= lead
    code = np.left_shift(e, 2, out=e)
    code += np.signbit(x)
    if more is not None:
        np.add(code, 2, out=code, where=more)
    for i, j in enumerate(pick):
        columns[maybe[j]] = (x[i], left[i], keys[i], (code[i], first[i], w1[i], w2[i]))
    digits = []
    at = 2 * m
    for (_, k), g in zip(ints, groups):
        w[at + g - 1] |= 0x30 << 56  # the last digit's byte
        digits.append(np.ascontiguousarray(w[at : at + g].T).view(np.uint8)[:, 8 * g - k :])
        at += g
    return columns, digits


def _exact_text(key: tuple, code, first, w1, w2, text: np.ndarray) -> None:
    """Cells of the layout key from their codes and digits into text, an
    (n, w) byte array of one cell per row: as whole words where no point
    slot lies among the digits (P <= 0), else gathered byte by byte. The
    words render the bench's runs-CSV blocks in 0.83-0.93 of the gather's
    time (one pinned CPU)."""
    width, c0, _, head, tail, table = _float_layout(*key)
    p = key[1]
    if head is not None:
        _store(text, 0, head.take(code) | first << 8 * c0)
        _store(text, c0 + 2 + p, w1, ">")
        _store(text, c0 + 10 + p, w2, ">")
        if tail is not None:
            _store(text, width - 4, tail.take(code))
        return
    _cells(text)[:] = _cells(table).take(code)
    text[:, c0] += first.astype(np.uint8)
    slots = [c0 + 2 * i if i <= p else c0 + p + 1 + i for i in range(1, 17)]
    text[:, slots] = np.stack((w1, w2), axis=1).astype(">u8").view(np.uint8)


def _other_cells(column: tuple, n: int) -> tuple:
    """A _digits column's key, digits and cell width, and the cells its
    digits leave: their rows, each one's row of the layout's specials (nan,
    0, -0, or a number's empty cell), and the rows of the numbers among them
    with their text by format(x, ".17g"), as an S array laid out in the cell
    widened to _F_TEXT if in at least one row in _SPARSE, else as bytes to
    splice."""
    x, left, key, digits = column
    width = _float_layout(*key)[0]
    other = left.nonzero()[0]
    if not other.size:
        return key, digits, width, other, None, other, []
    values = x[other]
    zero = values == 0
    number = ~zero if digits is None else ~zero & (values == values)  # nan cells, written over by the digits
    code, rows = 3, other  # a number's empty cell
    if not number.all():
        code = np.where(number, 3, np.where(zero, 1 + np.signbit(values), 0))
        rows, values = other[number], values[number]
    # format(x, ".17g") of each, formatted in one call
    texts = ("%.17g\n" * rows.size % tuple(values.tolist())).encode("ascii").split() if rows.size else []
    if _SPARSE * rows.size >= n:
        texts = np.array(texts, dtype=f"S{_F_TEXT}")
        width = max(width, _F_TEXT)
    return key, digits, width, other, code, rows, texts


def _put_floats(column: tuple, text: np.ndarray, cell_at: int, splices: list) -> None:
    """An _other_cells column into the text from byte cell_at of each row
    on, where the row template holds the nan cell: a dense column's digits
    into every row, then the rows they leave; numbers to splice go to
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


def _put_ints(v: np.ndarray, signed: bool, digits: Optional[np.ndarray], text: np.ndarray) -> None:
    """Integer cells into an (n, signed + digit count) view, their digits
    from _digits if more than one."""
    if signed:
        np.multiply(v < 0, np.uint8(45), out=text[:, 0])  # "-"
        text = text[:, 1:]
    if digits is None:  # 0 to 9
        np.add(np.abs(v) if signed else v, 48, out=text[:, 0], casting="unsafe")  # "0" is 48
    else:
        _cells(text)[:] = _cells(digits)


def _int_layout(v: np.ndarray) -> Tuple[bool, int]:
    """Whether an int column needs a sign slot, and its largest digit count."""
    low, top = int(np.minimum.reduce(v)), int(np.maximum.reduce(v))
    return low < 0, len(str(max(top, -low)))


def _laid_out(columns: Sequence[np.ndarray]) -> Tuple[np.ndarray, list]:
    """csv_block's rows at fixed width, every byte it drops NUL, and the
    cells to splice into them as (offsets, texts). A step of its own, so
    the float columns' digit arithmetic is freed before csv_block copies
    the text to bytes."""
    n = len(columns[0])
    kinds = [c.dtype.kind for c in columns]
    layouts = [_int_layout(c) if kind in "biu" else None for c, kind in zip(columns, kinds)]
    wide = [j for j, lay in enumerate(layouts) if lay and lay[1] > 1]  # of more than one digit
    ints = [(np.abs(columns[j].astype(np.int64)) if layouts[j][0] else columns[j], layouts[j][1]) for j in wide]
    floats, digits = _digits([c for c, kind in zip(columns, kinds) if kind == "f"], ints, n)
    floats, digits = iter([_other_cells(column, n) for column in floats]), dict(zip(wide, digits))
    layouts = [next(floats) if kind == "f" else lay for kind, lay in zip(kinds, layouts)]
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
    for j, (col, kind, lay, cell) in enumerate(zip(columns, kinds, layouts, cells)):
        w = len(cell)
        if kind == "S":
            view = text[:, at : at + w]
            view[:] = np.ascontiguousarray(col).view(np.uint8).reshape(n, w)
            view *= np.logical_and.accumulate(view != 0, axis=1)
        elif kind in "biu":
            _put_ints(col, lay[0], digits.get(j), text[:, at : at + w])
        else:
            _put_floats(lay, text, at, splices)
        at += w + 1
    text[-1, -1] = 0  # the last row's newline
    return text, splices


def _joined(text: np.ndarray, splices: list) -> bytes:
    """The laid-out text as bytes, each spliced cell inserted at its offset."""
    if not splices:
        return text.tobytes()
    offsets = [o for offsets, _ in splices for o in offsets.tolist()]
    texts = [t for _, texts in splices for t in texts]
    if len(splices) > 1:
        offsets, texts = zip(*sorted(zip(offsets, texts)))
    flat = memoryview(text.reshape(-1))
    parts = [b""] * (2 * len(texts) + 1)
    parts[::2] = [flat[start:stop] for start, stop in zip((0, *offsets), (*offsets, text.size))]
    parts[1::2] = texts
    return b"".join(parts)


def csv_block(columns: Sequence[np.ndarray]) -> bytes:
    """CSV data lines of equal-length columns, joined by newlines, as ASCII.

    Integer and bool columns (int64 range) render as decimal integers, text
    columns (dtype S) as their bytes up to the first NUL, so b"" is an empty
    cell, and float columns as format(x, ".17g") renders their values
    ("nan", "inf" and "-inf" for the non-finite ones). A column of any other
    dtype kind is a TypeError.
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
    noise value below 1) is laid out in 37 to 39 bytes and keeps about 35.
    Returning bytes lets a caller write each block to a binary file as soon
    as it is rendered. The working memory, the digit arithmetic or the text
    beside its copy as bytes, peaks (tracemalloc) at 104-112 B per row at
    4096 rows of the runs CSV's columns, 201 B when both float columns are
    exact in every row; a caller bounds it by the rows it passes.
    """
    for j, c in enumerate(columns):
        if c.dtype.kind not in "biufS":
            raise TypeError(f"csv_block cannot render column {j} of dtype {c.dtype}")
    if not len(columns[0]):
        return b""
    return _joined(*_laid_out(columns)).translate(None, b"\0")
