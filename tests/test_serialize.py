import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from hal.fock_core import DensityOperator, coherent_state
from hal.serialize import (
    csv_block,
    dumps,
    fmt_float,
    state_to_jsonable,
)


def test_fmt_float_round_trips():
    for x in (0.1, 1.0 / 3.0, 0.010000000000000002, 1e-308, -2.5e17, 0.0):
        assert float(fmt_float(x)) == x
    assert fmt_float(float("nan")) == "nan"
    assert fmt_float(float("inf")) == "inf"
    assert fmt_float(float("-inf")) == "-inf"


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
    """The per-cell rendering csv_block must reproduce: str(int), fmt_float,
    text as is."""
    if isinstance(v, bytes):
        return v.decode("ascii")
    return str(int(v)) if isinstance(v, int) else fmt_float(v)


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
