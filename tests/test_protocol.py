import ast
import inspect
import itertools
import math
import sys
import textwrap
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import hal
from hal import fock_core
from hal.errors import ImpossibleOutcomeError, TruncationError, ValidationError
from hal.fock_core import (
    TAIL_THRESHOLD,
    DensityOperator,
    PureState,
    coherent_state,
    fidelity,
    number_state,
)
from hal.metrology import quadrature_pdf
from hal.optics_ops import HeraldModel
from hal.protocol import (
    MAX_CUTOFF,
    ProtocolConfig,
    ROW_COLUMNS,
    SWEEP_BATCH_BYTES,
    RegimeWarning,
    _target,
    run_exact,
    run_first_order,
    sweep,
)
from hal.spin_ensemble import (
    EnsembleSpec,
    collective_expectations,
    embed_as_fock,
    oscillator_approximation,
    rotated_product_state,
)
from hal.validate import dense_bs_matrix

# reference values for alpha=0.01, t=0.1 (truncated input, ideal herald),
# computed with the dense matrix-exponential oracle in hal.validate
P_REF = 0.01009503049695031
C0_REF = 0.99523231428662884
C1_REF = 0.097532766800089626
P_COHERENT_REF = 0.010095030640504260


def test_config_validation():
    with pytest.raises(ValidationError):
        ProtocolConfig(alpha=0.01, t=0.0)
    with pytest.raises(ValidationError):
        ProtocolConfig(alpha=0.01, t=1.0)
    # below the smallest normal double 1/t overflows: rejected, naming the bound
    for t in (4e-324, 1e-320):
        with pytest.raises(ValidationError, match=repr(sys.float_info.min)):
            ProtocolConfig(alpha=0.01, t=t)
    assert ProtocolConfig(alpha=0.01, t=sys.float_info.min).t == sys.float_info.min
    with pytest.raises(ValidationError):
        ProtocolConfig(alpha=0.01, t=0.1, input_kind="squeezed")
    with pytest.raises(ValidationError):
        ProtocolConfig(alpha=0.01, t=0.1, source_efficiency=1.2)
    assert ProtocolConfig(alpha=0.01, t=0.1, cutoff=MAX_CUTOFF).cutoff == MAX_CUTOFF
    for cutoff in (MAX_CUTOFF + 1, 10**9):
        with pytest.raises(ValidationError, match="exceeds the limit"):
            ProtocolConfig(alpha=0.01, t=0.1, cutoff=cutoff)
    cfg = ProtocolConfig(alpha=0.01 + 0.002j, t=0.1)
    assert cfg.alpha.imag == 0.002
    assert cfg.in_recommended_regime
    assert not ProtocolConfig(alpha=0.05, t=0.1).in_recommended_regime
    assert not ProtocolConfig(alpha=0.01, t=0.5).in_recommended_regime


def test_regime_warning():
    with pytest.warns(RegimeWarning):
        run_first_order(0.09, 0.1)
    with pytest.warns(RegimeWarning):
        run_exact(ProtocolConfig(alpha=0.002, t=0.5))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        run_first_order(0.01, 0.1)  # in regime: must stay silent


def test_first_order_closed_form():
    res = run_first_order(0.01, 0.1)
    assert res.gain == 10.0  # 1/t, exact
    assert abs(res.success_probability - 0.0101) < 1e-15
    assert res.fidelity_to_target == 1.0
    assert res.leading_order.gain == 10.0
    assert abs(res.leading_order.p - 0.01) < 1e-15
    c = res.conditional_state.amplitudes
    assert abs(c[1] / c[0] - 0.1) < 1e-15  # alpha/t


def test_first_order_vacuum_input():
    res = run_first_order(0.0, 0.2)
    assert abs(res.success_probability - 0.04) < 1e-15
    assert abs(res.conditional_state.amplitudes[0] - 1.0) < 1e-15
    assert res.gain == 5.0


def test_first_order_gain_thirty():
    res = run_first_order(0.0005, 1.0 / 30.0)
    assert abs(res.success_probability - (1.0 / 900.0 + 0.0005 ** 2)) < 1e-15
    assert abs(res.gain - 30.0) < 1e-12


def test_exact_truncated_reference_point():
    res = run_exact(ProtocolConfig(alpha=0.01, t=0.1))
    assert abs(res.success_probability - P_REF) < 1e-15
    c = res.conditional_state.amplitudes
    assert abs(c[0] - C0_REF) < 1e-13
    assert abs(c[1] - C1_REF) < 1e-13
    assert abs(res.gain * 0.1 - 0.98) < 1e-12


def test_exact_gain_law():
    res = run_exact(ProtocolConfig(alpha=0.02, t=0.2))
    assert abs(res.gain * 0.2 - (1.0 - 2.0 * 0.04)) < 1e-9


def test_exact_coherent_input():
    res = run_exact(ProtocolConfig(alpha=0.01, t=0.1, input_kind="coherent"))
    assert abs(res.success_probability - P_COHERENT_REF) < 1e-14
    assert abs(res.gain * 0.1 - 0.98) < 1e-9
    assert res.fidelity_to_target >= 1.0 - 10.0 * (0.1 ** 2 + 0.01 ** 2) ** 2


def test_exact_probability_matches_independent_povm_path():
    # run_exact must agree to 1e-12 with Tr[(|1><1| x I) rho], the ideal
    # herald's POVM element on mode A applied to the dense kron-space density
    config = ProtocolConfig(alpha=0.01, t=0.1)
    assert config.herald == HeraldModel() and config.source_efficiency == 1.0
    p_pure = run_exact(config).success_probability
    d = config.cutoff + 1
    amp = np.zeros(d, dtype=np.complex128)
    amp[0], amp[1] = 1.0, config.alpha
    amp /= np.linalg.norm(amp)
    one = np.zeros(d)
    one[1] = 1.0
    psi = _oracle_bs(config.cutoff, config.t) @ np.kron(amp, one)
    rho = np.outer(psi, psi.conj())
    povm = np.kron(np.diag(one), np.eye(d))
    p_dens = float(np.trace(povm @ rho).real)
    assert abs(p_pure - p_dens) < 1e-12


def test_vacuum_amplifies_to_vacuum():
    res = run_exact(ProtocolConfig(alpha=0.0, t=0.1))
    assert abs(res.success_probability - 0.01) < 1e-12
    assert math.isnan(res.gain)
    assert abs(res.fidelity_to_target - 1.0) < 1e-12


def test_source_vacuum_transparency():
    # p1 < 1, no dark counts, alpha = 0: a click can only come from the
    # source photon, so the conditional state is exactly vacuum
    herald = HeraldModel(read_efficiency=0.7, dark_count=0.0)
    res = run_exact(ProtocolConfig(alpha=0.0, t=0.1, source_efficiency=0.6, herald=herald))
    vac = number_state(0, 12)
    assert abs(res.fidelity_to_target - 1.0) < 1e-10
    assert abs(fidelity(res.conditional_state, vac) - 1.0) < 1e-10


def test_source_efficiency_probability_formula():
    # at alpha = 0, resolving eta = 1: p = p1 t^2 (1 - p_d) + p_d (1 - p1 t^2)
    p1, pd, t = 0.9, 1e-5, 0.1
    herald = HeraldModel(read_efficiency=1.0, dark_count=pd)
    res = run_exact(ProtocolConfig(alpha=0.0, t=t, source_efficiency=p1, herald=herald))
    want = p1 * t * t * (1 - pd) + pd * (1 - p1 * t * t)
    assert abs(res.success_probability - want) < 1e-12


def test_dark_count_admixture_stays_normalized():
    herald = HeraldModel(read_efficiency=0.5, dark_count=0.01)
    res = run_exact(ProtocolConfig(alpha=0.01, t=0.1, source_efficiency=0.95, herald=herald))
    assert abs(res.conditional_state.trace() - 1.0) < 1e-12
    assert 0.0 <= res.success_probability <= 1.0
    assert 0.0 <= res.fidelity_to_target <= 1.0


def test_impossible_herald():
    # no photon anywhere and no dark counts: the click event has measure zero
    herald = HeraldModel(read_efficiency=0.5, dark_count=0.0)
    with pytest.raises(ImpossibleOutcomeError):
        run_exact(ProtocolConfig(alpha=0.0, t=0.1, source_efficiency=0.0, herald=herald))


def test_first_order_agreement_bound():
    # |exact - first_order| relative, for p and gain, <= c (t^2 + |alpha/t|^2)
    worst = 0.0
    for t in (0.05, 0.1, 0.2):
        for ratio in (0.05, 0.1, 0.2):
            alpha = ratio * t
            ex = run_exact(ProtocolConfig(alpha=alpha, t=t))
            fo = run_first_order(alpha, t)
            scale = t * t + ratio * ratio
            dp = abs(ex.success_probability - fo.success_probability) / fo.success_probability
            dg = abs(ex.gain - fo.gain) / fo.gain
            worst = max(worst, dp / scale, dg / scale)
    assert worst <= 3.0


def test_gain_convergence_as_t_shrinks():
    ts = [0.2, 0.1, 0.05, 0.02]
    gains = []
    fids = []
    for t in ts:
        res = run_exact(ProtocolConfig(alpha=0.1 * t, t=t))
        gains.append(res.gain * t)
        fids.append(res.fidelity_to_target)
    assert all(b > a for a, b in zip(gains, gains[1:]))
    assert all(b >= a for a, b in zip(fids, fids[1:]))
    assert abs(gains[-1] - 1.0) < 2e-3
    assert fids[-1] > 1.0 - 1e-6


def _target_state(alpha, t, cutoff):
    """The normalized target |0> + (alpha/t)|1> on occupations 0..cutoff."""
    amplitudes = np.zeros(cutoff + 1, dtype=np.complex128)
    amplitudes[:2] = _target(np.array([complex(alpha)]), np.array([t]))[0]
    return PureState(amplitudes, cutoff).normalized()


def test_target_state():
    psi = _target_state(0.01, 0.1, cutoff=3)
    assert abs(psi.norm() - 1.0) < 1e-15
    assert abs(psi.amplitudes[1] / psi.amplitudes[0] - 0.1) < 1e-15


def test_sweep_single_point_equals_run_exact():
    base = ProtocolConfig(alpha=0.01, t=0.1)
    rows = sweep(base, {"t": [0.1]})
    assert len(rows) == 1
    res = run_exact(base)
    assert rows[0]["success_prob"] == res.success_probability
    assert rows[0]["gain"] == res.gain
    assert rows[0]["error_code"] == ""
    assert rows.dtype.names == ROW_COLUMNS


def test_sweep_row_major_order():
    base = ProtocolConfig(alpha=0.0, t=0.1)
    rows = sweep(base, {"t": [0.1, 0.2], "alpha": [0.0, 0.01]})
    got = [(r["t"], r["alpha_re"]) for r in rows]
    assert got == [(0.1, 0.0), (0.1, 0.01), (0.2, 0.0), (0.2, 0.01)]


def test_sweep_t_axis_probability_law():
    base = ProtocolConfig(alpha=0.0, t=0.1)
    rows = sweep(base, {"t": [0.05, 0.1, 0.2]})
    for row in rows:
        assert abs(row["success_prob"] - row["t"] ** 2) < 1e-12
        assert row["leading_p"] == row["t"] ** 2


def test_sweep_records_errors_in_row():
    base = ProtocolConfig(alpha=0.01, t=0.1, source_efficiency=0.0,
                          herald=HeraldModel(dark_count=0.0))
    rows = sweep(base, {"alpha": [0.01, 0.0]})
    assert rows[0]["error_code"] == ""
    assert rows[1]["error_code"] == "impossible"
    assert math.isnan(rows[1]["success_prob"])
    assert rows[1]["leading_gain"] == 10.0


def test_sweep_rows_with_a_complex_base_alpha():
    base = ProtocolConfig(alpha=0.01 + 0.003j, t=0.1)
    # alpha not swept: every row carries the whole complex base value
    rows = sweep(base, {"t": [0.1, 0.2], "p1": [1.0, 1.5]})
    assert [(r["alpha_re"], r["alpha_im"]) for r in rows] == [(0.01, 0.003)] * 4
    assert rows[2]["success_prob"] == run_exact(replace(base, t=0.2)).success_probability
    # a validation row keeps its swept parameter values
    bad = rows[3]
    assert (bad["t"], bad["p1"], bad["error_code"]) == (0.2, 1.5, "validation")
    assert math.isnan(bad["success_prob"]) and bad["leading_p"] == 0.2 ** 2
    # an alpha axis replaces the whole complex value, imaginary part included
    rows = sweep(base, {"alpha": [0.02]})
    assert (rows[0]["alpha_re"], rows[0]["alpha_im"]) == (0.02, 0.0)
    assert rows[0]["gain"] == run_exact(replace(base, alpha=0.02)).gain


def test_sweep_rejects_unknown_axis():
    with pytest.raises(ValidationError):
        sweep(ProtocolConfig(alpha=0.0, t=0.1), {"frequency": [1.0]})


def test_sweep_herald_axes():
    base = ProtocolConfig(alpha=0.01, t=0.1)
    rows = sweep(base, {"eta_r": [1.0, 0.5], "p_d": [0.0, 1e-4]})
    assert len(rows) == 4
    assert rows[0]["eta_r"] == 1.0 and rows[0]["p_d"] == 0.0
    assert rows[3]["eta_r"] == 0.5 and rows[3]["p_d"] == 1e-4
    # lower read efficiency cannot increase the click probability
    assert rows[2]["success_prob"] < rows[0]["success_prob"]


def test_sweep_is_quiet(recwarn):
    sweep(ProtocolConfig(alpha=0.0, t=0.1), {"t": [0.5, 0.6]})
    assert not [w for w in recwarn.list if issubclass(w.category, RegimeWarning)]


def test_sweep_holds_one_table_row_per_point():
    # each point writes its row of one preallocated table (136 B); a row
    # dict per point held about 650 B after return and peaked near 930 B
    base = ProtocolConfig(alpha=0.01, t=0.1, cutoff=3)
    axes = {"t": np.linspace(0.05, 0.3, 40).tolist(), "alpha": np.linspace(0, 0.02, 50).tolist()}
    sweep(base, {"t": [0.1, 0.2]})  # warm the caches outside the trace
    tracemalloc.start()
    try:
        rows = sweep(base, axes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 256 * 2000, peak / 2000
    assert rows.shape == (2000,) and rows.dtype.names == ROW_COLUMNS
    assert not rows["error_code"].any()


_RUN_EXACT_CODES = (
    (TruncationError, "truncation"),
    (ImpossibleOutcomeError, "impossible"),
    (ValidationError, "validation"),
)


def _same(a, b):
    """a and b are the same double, the sign of zero included (NaN is NaN)."""
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


def _point(base, row, axes):
    """The ProtocolConfig of one sweep row, built the way a user would, or the
    ValidationError that building it raises."""
    alpha = complex(row["alpha_re"], row["alpha_im"]) if "alpha" in axes else base.alpha
    herald = replace(base.herald, read_efficiency=float(row["eta_r"]), dark_count=float(row["p_d"]))
    return replace(
        base,
        alpha=alpha,
        t=float(row["t"]),
        cutoff=row["cutoff"],
        source_efficiency=float(row["p1"]),
        herald=herald,
    )


def _mp_figures(config):
    """run_exact's gain and fidelity_to_target in mpmath (40 digits).

    The splitter's images are expanded in full: U takes a^dag to
    r a^dag - t b^dag and b^dag to t a^dag + r b^dag, so the signal
    sum_k (alpha^k / k!) a^dag^k |0> (k <= 1 for the two-term signal) leaves
    as a polynomial in a^dag and b^dag, times t a^dag + r b^dag for the
    photon branch. Entries past the cutoff in either mode are dropped, and
    the read mode's occupation n weighs each branch's rows by w(n). The
    signal's normalization is common to both branches and cancels.
    """
    import mpmath

    with mpmath.workdps(40):
        alpha = mpmath.mpc(config.alpha.real, config.alpha.imag)
        t = mpmath.mpf(config.t)
        r = mpmath.sqrt(1 - t * t)
        cutoff, herald = config.cutoff, config.herald
        eta, pd = mpmath.mpf(herald.read_efficiency), mpmath.mpf(herald.dark_count)
        vacuum = {}  # coefficient of a^dag^m b^dag^n
        for k in range((cutoff if config.input_kind == "coherent" else 1) + 1):
            for m in range(k + 1):
                term = alpha**k / mpmath.factorial(k) * mpmath.binomial(k, m) * r**m * (-t) ** (k - m)
                vacuum[m, k - m] = vacuum.get((m, k - m), 0) + term
        photon = {}
        for (m, n), x in vacuum.items():
            for key, factor in (((m + 1, n), t), ((m, n + 1), r)):
                photon[key] = photon.get(key, 0) + factor * x

        def w(n):
            if not herald.resolving:
                return 1 - (1 - pd) * (1 - eta) ** n
            return pd if n == 0 else (1 - pd) * n * eta * (1 - eta) ** (n - 1) + pd * (1 - eta) ** n

        read = 0 if herald.mode == "A" else 1
        p1 = mpmath.mpf(config.source_efficiency)
        corner = [[mpmath.mpc(0)] * 2 for _ in range(2)]  # rho on occupations 0, 1
        trace = mpmath.mpf(0)
        for weight, branch in ((p1, photon), (1 - p1, vacuum)):
            rows = {}  # read occupation -> {other occupation: amplitude}
            for key, x in branch.items():
                if max(key) <= cutoff:
                    amplitude = x * mpmath.sqrt(mpmath.factorial(key[0]) * mpmath.factorial(key[1]))
                    rows.setdefault(key[read], {})[key[1 - read]] = amplitude
            for n, row in rows.items():
                scale = weight * w(n)
                trace += scale * mpmath.fsum(abs(x) ** 2 for x in row.values())
                for i, j in itertools.product((0, 1), repeat=2):
                    corner[i][j] += scale * row.get(i, 0) * mpmath.conj(row.get(j, 0))
        gain = mpmath.sqrt(corner[1][1].real / corner[0][0].real) / abs(alpha)
        v = (1, alpha / t)
        overlap = mpmath.fsum(
            mpmath.conj(v[i]) * corner[i][j] * v[j] for i, j in itertools.product((0, 1), repeat=2)
        )
        return float(gain), float(overlap.real / (1 + abs(v[1]) ** 2) / trace)


@pytest.mark.parametrize(
    "alpha, t, cutoff, input_kind, p1, herald",
    [
        (0.01, 0.2, 12, "truncated", 1.0, HeraldModel()),
        (0.01 + 0.02j, 0.2, 12, "truncated", 0.9, HeraldModel(read_efficiency=0.9)),
        (-0.3j, 0.7, 2, "truncated", 1.0, HeraldModel(mode="B", resolving=False)),
        (0.5 - 0.25j, 0.1, 30, "coherent", 1.0, HeraldModel()),
        (2.0, 0.3, 40, "coherent", 0.9, HeraldModel(dark_count=1e-4)),
        # |alpha / t|^2 overflows, so the target's norm is taken rescaled
        (1e5, 1e-150, 3, "truncated", 1.0, HeraldModel()),
        (1e5 + 1e5j, 1e-150, 3, "truncated", 0.9, HeraldModel(read_efficiency=0.9)),
    ],
)
@pytest.mark.filterwarnings("ignore::hal.protocol.RegimeWarning")
def test_figures_match_mpmath(alpha, t, cutoff, input_kind, p1, herald):
    # gain and fidelity against _mp_figures; at (1e5, 1e-150) |alpha / t|^2
    # overflows, so the target's norm is taken rescaled (a double-precision
    # oracle's np.linalg.norm overflows there). The bounds are about ten
    # times the largest error measured on these points: 5.6e-15 relative for
    # the gain (at t = 0.7, where gain * t = r^2 - t^2 cancels) and 3.1e-16
    # for the fidelity.
    config = ProtocolConfig(alpha=alpha, t=t, cutoff=cutoff, input_kind=input_kind,
                            source_efficiency=p1, herald=herald)
    result = run_exact(config)
    gain, fid = _mp_figures(config)
    assert abs(result.gain - gain) <= 5e-14 * gain
    assert abs(result.fidelity_to_target - fid) <= 3e-15


@pytest.mark.parametrize("coherent", [False, True])
@pytest.mark.parametrize("mode", ["A", "B"])
@pytest.mark.parametrize("resolving", [True, False])
def test_sweep_rows_are_run_exact_bit_for_bit(coherent, mode, resolving):
    # a grid across all six axes, each with values run_exact rejects or that
    # fail inside it; cutoffs 1 and 2 are where the two-term signal's support
    # meets the cutoff. Every valid row is run_exact at its point, bit for
    # bit; every error row carries the code of the error run_exact raises.
    axes = {
        "alpha": [0.0, 0.01, 0.3],
        "t": [0.05, 0.2, 0.7, 1.0],
        "p1": [0.0, 0.9, 1.0, 1.2],
        "eta_r": [0.6, 1.0],
        "p_d": [0.0, 1e-4],
        "cutoff": [1, 2, 12, 30],
    }
    base = ProtocolConfig(
        alpha=0.02 - 0.01j, t=0.1, input_kind="coherent" if coherent else "truncated",
        herald=HeraldModel(mode=mode, resolving=resolving),
    )
    # and a complex base alpha, not swept
    grids = [(axes, sweep(base, axes))]
    unswept = {name: values for name, values in axes.items() if name not in ("alpha", "p_d")}
    grids.append((unswept, sweep(base, unswept)))
    codes = set()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RegimeWarning)
        for grid, rows in grids:
            for row in rows:
                t = float(row["t"])
                leading = (t ** 2, 1.0 / t) if sys.float_info.min <= t < 1.0 else (math.nan, math.nan)
                assert _same(row["leading_p"], leading[0]) and _same(row["leading_gain"], leading[1])
                try:
                    result = run_exact(_point(base, row, grid))
                except (TruncationError, ImpossibleOutcomeError, ValidationError) as exc:
                    code = next(c for cls, c in _RUN_EXACT_CODES if isinstance(exc, cls))
                    assert row["error_code"] == code, (row, exc)
                    assert all(math.isnan(row[name]) for name in ("success_prob", "gain", "fidelity"))
                    codes.add(code)
                    continue
                assert row["error_code"] == "", row
                for name, value in (
                    ("success_prob", result.success_probability),
                    ("gain", result.gain),
                    ("fidelity", result.fidelity_to_target),
                    ("leading_p", result.leading_order.p),
                    ("leading_gain", result.leading_order.gain),
                ):
                    assert _same(row[name], value), (name, row, value)
    assert codes == {"validation", "truncation", "impossible"}


def test_sweep_checks_each_axis_value_once(monkeypatch):
    # ProtocolConfig and HeraldModel check one field each, so the sweep asks
    # them once per axis value, not once per point
    calls = []
    post_init = ProtocolConfig.__post_init__

    def counted(self):
        calls.append(self)
        post_init(self)

    monkeypatch.setattr(ProtocolConfig, "__post_init__", counted)
    base = ProtocolConfig(alpha=0.01, t=0.1)
    calls.clear()
    rows = sweep(base, {"t": [0.1, 0.2, 1.5], "alpha": np.linspace(0, 0.02, 30).tolist()})
    assert len(calls) == 3 + 30
    assert [r["error_code"] for r in rows[-30:]] == ["validation"] * 30


@pytest.mark.filterwarnings("ignore::hal.protocol.RegimeWarning")
def test_coherent_sweep_takes_one_tail_per_alpha_and_cutoff(monkeypatch):
    # the sweep computes each (alpha, cutoff) pair's Poisson tail once and
    # hands it to herald_click, which computes none of its own
    calls = []
    tail_beyond = fock_core.tail_beyond

    def counted(*args):
        calls.append(args)
        return tail_beyond(*args)

    monkeypatch.setattr(fock_core, "tail_beyond", counted)
    base = ProtocolConfig(alpha=0.5, t=0.2, input_kind="coherent", source_efficiency=0.9,
                          herald=HeraldModel(0.9, 1e-4))
    axes = {"alpha": np.linspace(0.25, 4.0, 16).tolist(), "t": [0.1, 0.2, 0.3, 0.4],
            "cutoff": [30, 60, 100, 200]}
    rows = sweep(base, axes)
    assert len(rows) == 256 and len(calls) == 64
    assert set(rows["error_code"]) == {"", "truncation"}
    # run_exact checks its one tail at the boundary: past TAIL_THRESHOLD it
    # raises, whatever the beam splitter would leak
    calls.clear()
    with pytest.raises(TruncationError, match="coherent tail mass") as caught:
        run_exact(replace(base, alpha=4.0, cutoff=30))
    assert caught.value.tail_mass > TAIL_THRESHOLD and len(calls) == 1


def test_coherent_sweep_batches_by_bytes(monkeypatch):
    # at cutoff 200 one coherent point's temporaries pass SWEEP_BATCH_BYTES,
    # so a batch holds that one point: 100 points peak within their table
    # and the batch constant of one point's peak (a batch sized in points
    # would hold many of these 3.5 MB at once)
    monkeypatch.setenv("HAL_THREADS", "1")
    base = ProtocolConfig(alpha=0.5, t=0.2, cutoff=200, input_kind="coherent",
                          source_efficiency=0.9, herald=HeraldModel(0.9, 1e-4))
    axes = {"t": np.linspace(0.05, 0.3, 10).tolist(), "alpha": np.linspace(0.1, 2.0, 10).tolist()}
    peaks = []
    for grid in ({"t": [0.3], "alpha": [2.0]}, axes):
        sweep(base, {"t": [0.1]})  # warm the caches outside the trace
        tracemalloc.start()
        try:
            rows = sweep(base, grid)
            peaks.append(tracemalloc.get_traced_memory()[1] - rows.nbytes)
        finally:
            tracemalloc.stop()
    assert peaks[0] > SWEEP_BATCH_BYTES
    assert peaks[1] <= peaks[0] + SWEEP_BATCH_BYTES, peaks
    assert not rows["error_code"].any()


def test_threaded_sweep_leaves_the_warning_filters_alone(recwarn, monkeypatch):
    # catch_warnings is not thread-safe: entered in each worker, two workers
    # that interleave restore each other's filters, which can leave an
    # "ignore RegimeWarning" behind or let one through. A tiny switch
    # interval makes the workers interleave on nearly every point.
    regime = [w for w in recwarn.list if issubclass(w.category, RegimeWarning)]
    monkeypatch.setenv("HAL_THREADS", "2")
    before = list(warnings.filters)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        # 400 points, every one out of the regime (t > 0.3)
        axes = {"alpha": np.linspace(0.0, 0.4, 20).tolist(),
                "t": np.linspace(0.4, 0.9, 20).tolist()}
        sweep(ProtocolConfig(alpha=0.0, t=0.5, cutoff=4), axes)
    finally:
        sys.setswitchinterval(interval)
    assert warnings.filters == before
    assert [w for w in recwarn.list if issubclass(w.category, RegimeWarning)] == regime
    run_exact(ProtocolConfig(alpha=0.002, t=0.5))  # out of regime: must still warn
    assert len([w for w in recwarn.list if issubclass(w.category, RegimeWarning)]) == 1


def _oracle_bs(cutoff, t):
    """The exact beam splitter restricted to the truncated two-mode basis.

    validate.dense_bs_matrix (the matrix exponential of the full two-mode
    generator) at cutoff 2*cutoff is exact on every sector that a state with
    both occupations <= cutoff reaches. Keeping only the rows and columns
    inside `cutoff` gives the documented truncated splitter, sub-unitary on
    the partial sectors. dense_bs_matrix at `cutoff` itself would differ
    there, by up to the input's amplitude at the cutoff.
    """
    n = np.arange(2 * cutoff + 1)
    inside = ((n[:, None] <= cutoff) & (n[None, :] <= cutoff)).reshape(-1)
    return dense_bs_matrix(2 * cutoff, t)[np.ix_(inside, inside)]


def _oracle(config, u):
    """Click probability, gain, fidelity and conditional state of `config`
    through a dense kron pipeline that shares no code with run_exact.

    u is _oracle_bs for the config's cutoff and t. The input, the source
    mixture, the click weights and the partial trace are all written out
    here.
    """
    d = config.cutoff + 1
    a = config.alpha
    if config.input_kind == "coherent":
        amp = np.array([a ** k / math.sqrt(math.factorial(k)) for k in range(d)])
    else:
        amp = np.zeros(d, dtype=np.complex128)
        amp[0], amp[1] = 1.0, a
    amp = amp / np.linalg.norm(amp)
    src = np.zeros((d, d))
    src[1, 1] = config.source_efficiency
    src[0, 0] = 1.0 - config.source_efficiency
    rho = u @ np.kron(np.outer(amp, amp.conj()), src) @ u.conj().T
    eta, pd = config.herald.read_efficiency, config.herald.dark_count
    n = np.arange(d, dtype=float)
    if config.herald.resolving:
        w = (1.0 - pd) * n * eta * (1.0 - eta) ** np.maximum(n - 1.0, 0.0) + pd * (1.0 - eta) ** n
        w[0] = pd
    else:
        w = 1.0 - (1.0 - pd) * (1.0 - eta) ** n
    r4 = rho.reshape(d, d, d, d)  # (m, n, m', n')
    spec = "n,nanb->ab" if config.herald.mode == "A" else "n,anbn->ab"
    cond = np.einsum(spec, w, r4)
    p = float(np.trace(cond).real)
    cond = cond / p
    gain = math.sqrt(cond[1, 1].real / cond[0, 0].real) / abs(a)
    target = np.zeros(d, dtype=np.complex128)
    target[0], target[1] = 1.0, a / config.t
    target /= np.linalg.norm(target)
    fid = float(np.vdot(target, cond @ target).real)
    return p, gain, fid, cond


@pytest.mark.filterwarnings("ignore::hal.protocol.RegimeWarning")
def test_run_exact_matches_dense_kron_oracle():
    heralds = [
        HeraldModel(read_efficiency=eta, dark_count=pd, mode=mode, resolving=resolving)
        for eta, pd, resolving, mode in itertools.product(
            (1.0, 0.6), (0.0, 1e-4), (True, False), ("A", "B")
        )
    ]
    configs = [
        ProtocolConfig(
            alpha=0.02 + 0.01j, t=0.2, cutoff=cutoff, input_kind=kind, source_efficiency=p1,
            herald=herald,
        )
        for cutoff, p1, herald, kind in itertools.product(
            (6, 12), (0.0, 0.5, 0.9, 1.0), heralds, ("truncated", "coherent")
        )
    ]
    # at cutoff 6, t = 0.7, where mode B's swap of t and r is far from
    # symmetric, and a large complex alpha; the coherent state at alpha
    # 0.5 - 0.3j leaves a tail of 1e-7 past cutoff 6, so it is truncated only
    configs += [
        ProtocolConfig(
            alpha=alpha, t=t, cutoff=6, input_kind=kind, source_efficiency=p1, herald=herald,
        )
        for alpha, t, kind in (
            (0.02 + 0.01j, 0.7, "truncated"),
            (0.02 + 0.01j, 0.7, "coherent"),
            (0.5 - 0.3j, 0.2, "truncated"),
            (0.5 - 0.3j, 0.7, "truncated"),
        )
        for p1, herald in itertools.product((0.0, 0.9, 1.0), heralds)
    ]
    # the documented working point: truncated input, ideal source and herald
    configs.append(ProtocolConfig(alpha=0.01, t=0.1))
    oracle_bs = {}
    worst = 0.0
    for config in configs:
        key = (config.cutoff, config.t)
        if key not in oracle_bs:
            oracle_bs[key] = _oracle_bs(*key)
        u = oracle_bs[key]
        res = run_exact(config)
        p, gain, fid, cond = _oracle(config, u)
        state = res.conditional_state
        if isinstance(state, PureState):
            got = np.outer(state.amplitudes, state.amplitudes.conj())
        else:
            got = state.matrix
        for value, ref in (
            (res.success_probability, p), (res.gain, gain), (res.fidelity_to_target, fid),
        ):
            worst = max(worst, abs(value - ref) / max(1.0, abs(ref)))
        worst = max(worst, float(np.max(np.abs(got - cond))))
    assert worst <= 1e-14


def test_vacuum_branch_without_click_is_not_impossible():
    # at alpha = 0 the p1 = 0.9 source's vacuum branch cannot click on its
    # own; only the total click probability decides impossibility
    res = run_exact(ProtocolConfig(alpha=0.0, t=0.1, source_efficiency=0.9))
    assert math.isfinite(res.success_probability)
    assert abs(res.success_probability - 0.9 * 0.1 ** 2) < 1e-15
    assert math.isnan(res.gain)


@pytest.mark.parametrize("alpha", [0.01, 1e-100])
def test_vacuum_source_one_excitation_population(alpha):
    # a vacuum source read without dark counts: the click takes the
    # two-term signal's one quantum, so rho_11 is exactly 0 and the gain 0
    # at any alpha; a coherent signal's rho_11 is about t^2 r^2 |alpha|^4,
    # which underflows to zero at alpha = 1e-100, where the gain is about t
    config = ProtocolConfig(alpha=alpha, t=0.1, cutoff=5, source_efficiency=0.0)
    assert run_exact(config).gain == 0.0
    coherent = replace(config, input_kind="coherent")
    rows = sweep(coherent, {"alpha": [alpha], "cutoff": [1, 5]})
    if alpha == 0.01:
        assert abs(run_exact(coherent).gain - 0.1) < 1e-6
        assert rows["error_code"].tolist() == ["truncation", ""]
    else:
        # at cutoff 1 the coherent signal holds one quantum too
        assert run_exact(replace(coherent, cutoff=1)).gain == 0.0
        with pytest.raises(ValidationError, match="one-excitation population"):
            run_exact(coherent)
        assert rows["error_code"].tolist() == ["", "validation"]


@pytest.mark.filterwarnings("ignore::hal.protocol.RegimeWarning")
def test_truncation_threshold_applies_to_weighted_leakage():
    base = ProtocolConfig(alpha=0.3, t=0.2, cutoff=6, input_kind="coherent")
    # the entries a cutoff-6 splitter drops: the same input run at cutoff 7,
    # whose images all fit, read off on row and column 7
    sig = np.zeros(8, dtype=complex)
    sig[:7] = coherent_state(0.3, 6).amplitudes
    out = (_oracle_bs(7, 0.2) @ np.kron(sig, np.eye(8)[1])).reshape(8, 8)
    photon_leak = float(np.sum(np.abs(out[7]) ** 2) + np.sum(np.abs(out[:7, 7]) ** 2))
    # the photon branch alone leaks past the threshold; the vacuum branch
    # stays inside the cutoff, so p1 scales the leakage
    assert 0.7 * photon_leak > TAIL_THRESHOLD > 0.6 * photon_leak
    with pytest.raises(TruncationError):
        run_exact(replace(base, source_efficiency=0.7))
    res = run_exact(replace(base, source_efficiency=0.6))
    assert abs(res.leakage - 0.6 * photon_leak) <= 1e-14 * photon_leak
    rows = sweep(base, {"p1": [0.7, 0.6]})
    assert [r["error_code"] for r in rows] == ["truncation", ""]


def _mp_photon_leakage(alpha, t, cutoff):
    """Leakage of the p1 = 1 branch in mpmath (30 digits): the truncated,
    renormalized coherent amplitude at the cutoff c, squared, times the
    probability of the entries of U|c, 1> that fall past the cutoff, with
    U|c, 1> = (t a^dag + r b^dag) sum_m sqrt(C(c, m)) r^m (-t)^(c-m) |m, c-m>
    expanded in full."""
    import mpmath

    with mpmath.workdps(30):
        t = mpmath.mpf(t)
        r = mpmath.sqrt(1 - t * t)
        mu = mpmath.mpf(alpha) ** 2
        weights = [mu ** n / mpmath.factorial(n) for n in range(cutoff + 1)]
        top = weights[-1] / mpmath.fsum(weights)
        image = [mpmath.mpf(0)] * (cutoff + 2)  # amplitude on |m, c + 1 - m>
        for m in range(cutoff + 1):
            a = mpmath.sqrt(mpmath.binomial(cutoff, m)) * r ** m * (-t) ** (cutoff - m)
            image[m + 1] += t * mpmath.sqrt(m + 1) * a
            image[m] += r * mpmath.sqrt(cutoff - m + 1) * a
        assert abs(mpmath.fsum(x * x for x in image) - 1) < mpmath.mpf(10) ** -25
        return float(top * (image[0] ** 2 + image[-1] ** 2))


@pytest.mark.filterwarnings("ignore::hal.protocol.RegimeWarning")
@pytest.mark.parametrize("alpha, t, cutoff", [(0.5, 0.2, 12), (2.0, 0.5, 40), (0.01, 0.1, 3)])
def test_leakage_matches_mpmath(alpha, t, cutoff):
    # the dropped entries' probability, not the norm deficit, whose rounding
    # floor (about 2e-16 at the first point) is above the true value
    want = _mp_photon_leakage(alpha, t, cutoff)
    assert 1e-300 < want < TAIL_THRESHOLD
    for p1 in (1.0, 0.9):
        cfg = ProtocolConfig(alpha=alpha, t=t, cutoff=cutoff, input_kind="coherent",
                             source_efficiency=p1)
        assert abs(run_exact(cfg).leakage - p1 * want) <= 1e-13 * want


def test_leakage_field():
    assert run_first_order(0.01, 0.1).leakage == 0.0
    # the truncated input never reaches past total occupation 2
    assert 0.0 <= run_exact(ProtocolConfig(alpha=0.01, t=0.1, source_efficiency=0.9)).leakage < 1e-15
    assert run_exact(ProtocolConfig(alpha=0.01, t=0.1, cutoff=3, input_kind="coherent")).leakage > 0.0


@pytest.mark.parametrize(
    "p1, herald, kind",
    [
        (1.0, HeraldModel(), PureState),
        (1.0, HeraldModel(mode="B"), PureState),
        (0.9, HeraldModel(), DensityOperator),
        (1.0, HeraldModel(resolving=False), DensityOperator),
        (1.0, HeraldModel(read_efficiency=0.9), DensityOperator),
        (1.0, HeraldModel(dark_count=1e-4), DensityOperator),
        (0.0, HeraldModel(), DensityOperator),
    ],
)
def test_conditional_state_kind(p1, herald, kind):
    config = ProtocolConfig(alpha=0.01, t=0.1, source_efficiency=p1, herald=herald)
    assert type(run_exact(config).conditional_state) is kind


def _mp_click_probability(alpha, t, cutoff, p1, eta, pd):
    """run_exact's click probability for a coherent input, in mpmath (30 digits).

    Built from the binomial expansion of the splitter's images: with
    r^2 = 1 - t^2, U|k, 0> has amplitude sqrt(C(k, m)) r^m (-t)^(k-m) on
    |m, k-m>, and U|k, 1> = (t a^dag + r b^dag) U|k, 0>. Mode A is read by
    the number-resolving herald; images past the cutoff are dropped.
    """
    import mpmath

    with mpmath.workdps(30):
        t, eta, pd = mpmath.mpf(t), mpmath.mpf(eta), mpmath.mpf(pd)
        r2, t2 = 1 - t * t, t * t
        mu = mpmath.mpf(alpha) ** 2
        poisson = [mpmath.exp(-mu) * mu**k / mpmath.factorial(k) for k in range(cutoff + 1)]
        norm = mpmath.fsum(poisson)
        w = [pd] + [
            (1 - pd) * n * eta * (1 - eta) ** (n - 1) + pd * (1 - eta) ** n
            for n in range(1, cutoff + 1)
        ]
        r2_pow = [r2**i for i in range(cutoff + 2)]
        t2_pow = [t2**i for i in range(cutoff + 2)]

        def a0(k, m):
            # |<m, k-m| U |k, 0>|, zero outside 0 <= m <= k
            if not 0 <= m <= k:
                return mpmath.mpf(0)
            return mpmath.sqrt(math.comb(k, m) * r2_pow[m] * t2_pow[k - m])

        branch = [mpmath.mpf(0), mpmath.mpf(0)]
        for k in range(cutoff + 1):
            for m in range(min(k + 1, cutoff) + 1):
                # the two terms of U|k, 1> have opposite signs
                one = mpmath.sqrt(r2 * (k + 1 - m)) * a0(k, m) - mpmath.sqrt(t2 * m) * a0(k, m - 1)
                zero = a0(k, m)
                if k + 1 - m <= cutoff:
                    branch[1] += w[m] * poisson[k] * one**2
                branch[0] += w[m] * poisson[k] * zero**2
        return (p1 * branch[1] + (1 - mpmath.mpf(p1)) * branch[0]) / norm


def test_tiny_click_probability_matches_mpmath():
    # Coherent alpha 9 puts about 81 photons in mode A; a single click needs
    # nearly all of them moved to mode B, so p ~ 9e-29. Rounding of order
    # 1e-16 of a column's norm would swamp it; the closed-form images keep it
    # to a relative error near machine precision.
    cutoff, alpha, t, p1, eta, pd = 170, 9.0, 0.2, 0.9, 0.9, 1e-4
    herald = HeraldModel(read_efficiency=eta, dark_count=pd)
    config = ProtocolConfig(
        alpha=alpha, t=t, cutoff=cutoff, input_kind="coherent", source_efficiency=p1, herald=herald
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RegimeWarning)
        got = run_exact(config).success_probability
    want = _mp_click_probability(alpha, t, cutoff, p1, eta, pd)
    assert abs(got - want) <= 1e-12 * want


def test_cutoff_400_point_memory_is_bounded():
    # the coherent alpha = 15 point fills every sector up to cutoff 400; the
    # closed form needs a few (cutoff + 1)^2 arrays, no two-mode state
    herald = HeraldModel(read_efficiency=0.9, dark_count=1e-4)
    config = ProtocolConfig(
        alpha=15.0, t=0.2, cutoff=400, input_kind="coherent", source_efficiency=0.9, herald=herald
    )
    tracemalloc.start()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RegimeWarning)
            run_exact(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 << 20


HAL_SOURCES = str(Path(hal.__file__).parent)


def _hal_code_run_by(fn):
    """The code objects of every function in hal's sources that fn runs."""
    seen = set()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(HAL_SOURCES):
            seen.add(frame.f_code)

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return seen


def test_result_path_makes_no_blas_call(monkeypatch):
    # no matrix product or LAPACK routine on the protocol or the ensemble
    # result path, so no BLAS thread count can change its rounding: the numpy
    # entry points raise, and no function that runs holds an @ or a .dot() call
    def blas(*args, **kwargs):
        raise AssertionError("a BLAS or LAPACK routine was called")

    for name in ("matmul", "dot", "vdot"):
        monkeypatch.setattr(np, name, blas)
    for name in np.linalg.__all__:
        if not isinstance(getattr(np.linalg, name), type):
            monkeypatch.setattr(np.linalg, name, blas)
    configs = [
        ProtocolConfig(alpha=0.01, t=0.1, cutoff=12),  # pure
        ProtocolConfig(alpha=0.01, t=0.1, cutoff=12, source_efficiency=0.9,
                       herald=HeraldModel(read_efficiency=0.9, dark_count=1e-4)),
        ProtocolConfig(alpha=0.3 - 0.2j, t=0.2, cutoff=30, input_kind="coherent",
                       herald=HeraldModel(mode="B", resolving=False)),
    ]

    def run():
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RegimeWarning)
            for config in configs:
                state = run_exact(config).conditional_state
                fidelity(state, _target_state(config.alpha, config.t, config.cutoff))
                for phase in (0.0, 0.5):
                    quadrature_pdf(state, phase)
        # the `hal ensemble` report
        for spec, cutoff in ((EnsembleSpec(10**9, 3e-6), 12), (EnsembleSpec(10**4, 1e-3), 12)):
            state = rotated_product_state(spec, k_max=min(spec.N, cutoff))
            collective_expectations(state)
            fidelity(embed_as_fock(state, cutoff), oscillator_approximation(spec, cutoff))

    code = _hal_code_run_by(run)
    assert {c.co_name for c in code} >= {
        "run_exact", "herald_click", "fidelity", "quadrature_pdf", "rotated_product_state",
        "collective_expectations", "embed_as_fock", "oscillator_approximation", "coherent_state",
    }
    for c in code:
        tree = ast.parse(textwrap.dedent(inspect.getsource(c)))
        for node in ast.walk(tree):
            assert not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult)), c
            assert not (isinstance(node, ast.Attribute) and node.attr in ("dot", "vdot")), c
