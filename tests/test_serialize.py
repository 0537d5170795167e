import json
import math
import struct
import timeit
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hal import serialize
from hal.fock_core import DensityOperator, coherent_state
from hal.serialize import (
    csv_block,
    dumps,
    state_to_jsonable,
)


def _float_cell(x):
    """A float's CSV cell: 17 significant digits, "nan", "inf", "-inf"."""
    return format(float(x), ".17g")


def test_dumps_is_valid_json():
    doc = dumps({"a": 1, "b": [1.5, None, True], "c": "x\"y\n"})
    assert json.loads(doc) == {"a": 1, "b": [1.5, None, True], "c": "x\"y\n"}


def test_dumps_key_order_is_insertion_order():
    doc = dumps({"z": 1, "a": 2, "m": 3})
    assert doc.index('"z"') < doc.index('"a"') < doc.index('"m"')


def test_dumps_nonfinite_becomes_null():
    doc = dumps({"x": float("nan"), "y": float("inf")})
    assert json.loads(doc) == {"x": None, "y": None}


def test_dumps_complex_as_re_im():
    assert json.loads(dumps(0.1 + 0.2j)) == {"re": 0.1, "im": 0.2}
    assert json.loads(dumps(np.complex128(0.3 - 0.4j))) == {"re": 0.3, "im": -0.4}


def test_dumps_floats_keep_17_digits():
    x = 0.1 + 0.2  # 0.30000000000000004
    assert json.loads(dumps([x]))[0] == x


def test_dumps_numpy_scalars():
    doc = json.loads(dumps({"i": np.int64(3), "f": np.float64(0.5), "b": np.bool_(True)}))
    assert doc == {"i": 3, "f": 0.5, "b": True}


def test_state_to_jsonable_pure():
    psi = coherent_state(0.1, 6)
    doc = state_to_jsonable(psi)
    assert doc["kind"] == "pure"
    assert doc["cutoff"] == 6
    assert len(doc["amplitudes"]) == 7
    doc = json.loads(dumps(doc))
    a0 = doc["amplitudes"][0]
    assert a0["re"] == float(psi.amplitudes[0].real) and a0["im"] == 0.0


def test_state_to_jsonable_mixed():
    rho = DensityOperator(np.diag([0.0, 1.0, 0.0]), 2)
    doc = json.loads(dumps(state_to_jsonable(rho)))
    assert doc["kind"] == "mixed"
    assert doc["diagonal"] == [0.0, 1.0, 0.0]
    assert doc["matrix"][1][1] == {"re": 1.0, "im": 0.0}


def _reference_cell(v):
    """The per-cell rendering csv_block must reproduce: str(int),
    _float_cell, text as is."""
    if isinstance(v, bytes):
        return v.decode("ascii")
    return str(int(v)) if isinstance(v, int) else _float_cell(v)


def _reference_block(*columns):
    rows = zip(*(c.tolist() for c in columns))
    return "\n".join(",".join(_reference_cell(v) for v in row) for row in rows)


def _assert_block(*columns):
    assert csv_block(columns) == _reference_block(*columns).encode("ascii")


INT64 = st.integers(min_value=-(2**63), max_value=2**63 - 1)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(INT64, st.floats(), st.floats()), min_size=1, max_size=40))
def test_csv_block_matches_per_cell_rendering(rows):
    # st.floats() draws nan, +-inf, +-0, subnormals and boundary values
    ints, xs, ys = zip(*rows)
    _assert_block(np.array(ints, dtype=np.int64), np.array(xs), np.array(ys))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(min_value=1e-7, max_value=1e18), min_size=1, max_size=200))
def test_csv_block_matches_fmt_float_near_the_exact_range(xs):
    x = np.array(xs)
    _assert_block(x, -x)


def test_csv_block_round_half_even_ties():
    # x = odd / 2**(17 - E) in decade E puts x * 10**(16 - E) exactly halfway
    # between two integers: the 17th digit must round to even
    rng = np.random.default_rng(3)
    ties = []
    for e in range(-6, 16):
        scale = 2.0 ** -(17 - e)
        lo = max(int(10.0**e / scale), 1) // 2
        hi = min(int(10.0 ** (e + 1) / scale), 2**53) // 2
        odd = rng.integers(lo, hi, size=200) * 2 + 1
        x = odd * scale
        ties.append(x[(x >= 10.0**e) & (x < 10.0 ** (e + 1))])
    x = np.concatenate(ties)
    assert len(x) > 3000
    _assert_block(x, -x)


def test_csv_block_power_of_ten_boundaries():
    values = []
    for k in range(-8, 19):
        p = 10.0**k
        values += [p, np.nextafter(p, 0.0), np.nextafter(p, np.inf)]
    for p in (1e-6, 1e-4, 1e16, 1e17):  # the range ends and the notation switches
        below, above = np.nextafter(p, 0.0), np.nextafter(p, np.inf)
        values += [np.nextafter(below, 0.0), np.nextafter(above, np.inf)]
    x = np.array(values)
    _assert_block(x, -x)


def test_csv_block_special_columns():
    n = 50
    zeros = np.zeros(n)
    _assert_block(zeros, -zeros, np.full(n, np.nan))
    assert csv_block((np.array([0.0, -0.0]),)) == b"0\n-0"
    # every value outside the exact range: the per-cell fallback alone
    rng = np.random.default_rng(4)
    fallback = np.concatenate([
        rng.normal(0.0, 1e-9, n), [np.inf, -np.inf, 5e-324, -2.2e-308, 1e17, -3e300, 1e-6],
    ])
    _assert_block(fallback, fallback[::-1].copy())


def test_csv_block_integer_columns():
    ints = np.array([0, -1, 7, -10, 1000, -123456789, 10**18 - 1, 10**18, -(2**63), 2**63 - 1])
    _assert_block(ints, ints[::-1].copy(), np.arange(len(ints)))
    _assert_block(np.array([1, 0, 1], dtype=np.int8), np.array([True, False, True]))
    assert csv_block((np.array([0, 9, 10]), np.array([-5, 5, 0]))) == b"0,-5\n9,5\n10,0"


def test_csv_block_text_columns():
    # ASCII text (dtype S) of mixed lengths, empty cells included, next to
    # int, bool and float columns; a reversed view is not contiguous
    text = np.array([b"", b"validation", b"x", b"", b"truncation", b"ab"])
    n = len(text)
    _assert_block(text, np.arange(n) - 3, np.arange(n) % 2 == 0, np.linspace(-1, 1, n), text[::-1])
    assert csv_block((np.array([b"", b""]),)) == b"\n"
    codes = np.array([b"", b"impossible"])
    assert csv_block((codes, np.array([0.25, np.nan]))) == b",0.25\nimpossible,nan"
    cells = (np.array([b"truncation"]), np.array([7]), np.array([True]), np.array([False]),
             np.array([0.25]), np.array([np.nan]))
    assert csv_block(cells) == b"truncation,7,1,0,0.25,nan"
    # a cell is its bytes up to the first NUL
    assert csv_block((np.array([b"a\x00b", b"cd"]), np.array([1, 2]))) == b"a,1\ncd,2"


RAW_DOUBLES = st.integers(min_value=0, max_value=2**64 - 1).map(
    lambda bits: struct.unpack("<d", struct.pack("<Q", bits))[0]
)
SPECIAL_DOUBLES = st.sampled_from([
    math.nan, -math.nan, 0.0, -0.0, math.inf, -math.inf, 5e-324, -1e-310,
    2.2250738585072014e-308, 1e-6, -1e-7, 1e17, -1.7976931348623157e308,
])


def _in_decade(e, bits, negative):
    """A double in [10**e, 10**(e + 1)], its 53 low mantissa bits from bits."""
    x = 10.0**e * (1.0 + 9.0 * (bits / 2**53))
    return -x if negative else x


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(RAW_DOUBLES, RAW_DOUBLES), min_size=1, max_size=64))
def test_csv_block_matches_format_on_raw_bit_patterns(rows):
    xs, ys = (np.array(c) for c in zip(*rows))
    _assert_block(xs, ys)


@pytest.mark.parametrize("p", range(17))
@settings(max_examples=6, deadline=None)
@given(data=st.data())
def test_csv_block_matches_format_at_every_point_layout(p, data):
    # a float cell holds point slots after digits 0..P only, P the largest
    # fixed-notation exponent among its column's exact cells in the block:
    # one column has exactly P, next to columns that mix exact cells with
    # nan, +-0, +-inf, subnormal and fallback cells
    n = data.draw(st.integers(min_value=1, max_value=40))
    draws = st.tuples(st.integers(min_value=-7, max_value=p), st.integers(0, 2**53 - 1), st.booleans())
    forced = [_in_decade(min(e, p - 1), bits, neg) for e, bits, neg in
              data.draw(st.lists(draws, min_size=n - 1, max_size=n - 1))]
    forced.insert(data.draw(st.integers(min_value=0, max_value=n - 1)), -1.5 * 10.0**p)
    mixed = st.one_of(RAW_DOUBLES, SPECIAL_DOUBLES, draws.map(lambda d: _in_decade(*d)))
    others = [np.array(data.draw(st.lists(mixed, min_size=n, max_size=n))) for _ in range(2)]
    _assert_block(np.array(forced), others[0], np.arange(n) - 20, others[1])


def test_csv_block_working_memory():
    # one 4096-row block of the runs CSV's columns (replica, attempt_index,
    # heralded, a mostly nan x_sample and a noise value): 115 B per row of
    # peak, in the noise column's digit arithmetic; the bound leaves 1.3x
    rows = 4096
    rng = np.random.default_rng(11)
    replica, attempt_index = np.divmod(np.arange(rows) + 10**5, 1000)
    heralded = (rng.random(rows) < 0.01).astype(np.int8)
    columns = (replica, attempt_index, heralded,
               np.where(heralded == 1, rng.normal(size=rows), np.nan), rng.normal(scale=0.05, size=rows))
    expected = csv_block(columns)  # builds the cached layouts first
    tracemalloc.start()
    try:
        text = csv_block(columns)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert text == expected
    assert peak < 150 * rows


def _heralded(pattern, rows, rng):
    h = np.zeros(rows, dtype=np.int8)
    if pattern == "first":
        h[0] = 1
    elif pattern == "last":
        h[-1] = 1
    elif pattern == "one-percent":
        h[rng.random(rows) < 0.01] = 1
    elif pattern == "adjacent":
        h[100:103] = h[2000:2002] = 1
    elif pattern == "every":
        h[:] = 1
    return h


def _noise(kind, rows, rng):
    # fixed-notation cells from E = -3 up, then, by kind, cells of E = -4,
    # scientific cells (1e-6 < |x| < 1e-4) and fallback cells (|x| <= 1e-6);
    # or fallback cells in every row (tiny), or in about two rows in three
    # beside scientific ones, infinities and zeros (straddle)
    if kind == "tiny":
        return rng.normal(0.0, 1e-9, rows)
    if kind == "straddle":
        v = rng.normal(0.0, 1e-6, rows)
        v[rng.choice(rows, 6, replace=False)] = [np.inf, -np.inf, 0.0, -0.0, np.nan, 5e-324]
        return v
    v = rng.uniform(1e-3, 0.5, rows) * rng.choice([-1.0, 1.0], rows)
    at = rng.choice(rows, 40, replace=False)
    if kind in ("e-4", "scientific", "fallback"):
        v[at[:10]] = rng.uniform(1e-4, 1e-3, 10)
    if kind in ("scientific", "fallback"):
        v[at[10:20]] = -rng.uniform(1e-6, 1e-4, 10)
    if kind == "fallback":
        v[at[20:26]] = [0.0, -0.0, 5e-324, 1e-6, -1e-7, 1e-300]
    return v


@pytest.mark.parametrize("noise", ["plain", "e-4", "scientific", "fallback", "tiny", "straddle"])
@pytest.mark.parametrize("pattern", ["none", "first", "last", "one-percent", "adjacent", "every"])
def test_csv_block_runs_layouts_at_block_size(pattern, noise):
    # one 4096-row block of the runs CSV's columns: x_sample exact in no
    # row, one row at either end, about 1% of rows, a few adjacent rows or
    # every row (sparse and dense layouts), next to a noise column whose
    # exponents do or do not reach E = -4, scientific and fallback cells,
    # or whose fallback cells are too many to splice
    rows = 4096
    rng = np.random.default_rng(list(f"{pattern}/{noise}".encode()))
    replica, attempt_index = np.divmod(np.arange(rows) + 10**5 - 7, 10**5)
    heralded = _heralded(pattern, rows, rng)
    x_sample = np.where(heralded == 1, rng.normal(0.14, 0.7, rows), np.nan)
    _assert_block(replica, attempt_index, heralded, x_sample, _noise(noise, rows, rng))


def test_csv_block_lays_out_fallback_cells_when_many():
    # a noise column of fallback cells only (a runs CSV with sigma_tech
    # 1e-9) is laid out whole, not spliced cell by cell, so its block costs
    # about what formatting its cells one by one does (0.9-1.0x measured;
    # 1.3-1.5x when they were spliced)
    rows = 4096
    replica, attempt_index = np.divmod(np.arange(rows), 10**5)
    noise = np.random.default_rng(11).normal(0.0, 1e-9, rows)
    columns = (replica, attempt_index, np.zeros(rows, np.int8), np.full(rows, np.nan), noise)
    assert not serialize._laid_out(columns)[1]  # nothing to splice
    _assert_block(*columns)
    render, formatting = [], []
    for _ in range(9):
        render.append(timeit.timeit(lambda: csv_block(columns), number=1))
        formatting.append(timeit.timeit(lambda: [_float_cell(v) for v in noise.tolist()], number=1))
    assert min(render) < 1.2 * min(formatting)
