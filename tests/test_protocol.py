import itertools
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from hal.errors import ImpossibleOutcomeError, TruncationError, ValidationError
from hal.fock_core import (
    TAIL_THRESHOLD,
    DensityOperator,
    PureState,
    coherent_state,
    fidelity,
    number_state,
    to_density,
    tensor_product,
)
from hal.optics_ops import BeamSplitter, HeraldModel, apply_beam_splitter, herald_click
from hal.protocol import (
    ProtocolConfig,
    ROW_COLUMNS,
    RegimeWarning,
    run_exact,
    run_first_order,
    sweep,
    target_state,
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
    with pytest.raises(ValidationError):
        ProtocolConfig(alpha=0.01, t=0.1, input_kind="squeezed")
    with pytest.raises(ValidationError):
        ProtocolConfig(alpha=0.01, t=0.1, source_efficiency=1.2)
    cfg = ProtocolConfig(alpha=0.01 + 0.002j, t=0.1)
    assert cfg.alpha.im == 0.002
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
    # run_exact must agree with the density-operator herald to 1e-12
    config = ProtocolConfig(alpha=0.01, t=0.1)
    p_pure = run_exact(config).success_probability
    psi = tensor_product(
        _signal(config.alpha.as_complex(), config.cutoff), number_state(1, config.cutoff)
    )
    rho = apply_beam_splitter(to_density(psi), BeamSplitter(config.t))
    p_dens, _ = herald_click(rho, config.herald)
    assert abs(p_pure - p_dens) < 1e-12


def _signal(alpha, cutoff):
    amp = np.zeros(cutoff + 1, dtype=np.complex128)
    amp[0] = 1.0
    amp[1] = alpha
    from hal.fock_core import PureState

    return PureState(amp, cutoff, 1).normalized()


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


def test_target_state():
    psi = target_state(0.01, 0.1, cutoff=3)
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
    assert list(rows[0].keys()) == list(ROW_COLUMNS)


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
    a = config.alpha.as_complex()
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


def test_run_exact_matches_dense_kron_oracle():
    alpha, t = 0.02 + 0.01j, 0.2
    worst = 0.0
    for cutoff in (6, 12):
        u = _oracle_bs(cutoff, t)
        for p1, eta, pd, resolving, mode, kind in itertools.product(
            (0.0, 0.5, 0.9, 1.0), (1.0, 0.6), (0.0, 1e-4), (True, False), ("A", "B"),
            ("truncated", "coherent"),
        ):
            herald = HeraldModel(read_efficiency=eta, dark_count=pd, mode=mode, resolving=resolving)
            config = ProtocolConfig(
                alpha=alpha, t=t, cutoff=cutoff, input_kind=kind, source_efficiency=p1,
                herald=herald,
            )
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


@pytest.mark.filterwarnings("ignore::hal.protocol.RegimeWarning")
def test_truncation_threshold_applies_to_weighted_leakage():
    base = ProtocolConfig(alpha=0.3, t=0.2, cutoff=6, input_kind="coherent")
    psi = tensor_product(coherent_state(0.3, 6), number_state(1, 6))
    _, photon_leak = apply_beam_splitter(
        psi, BeamSplitter(0.2), leakage_threshold=math.inf, return_leakage=True
    )
    # the photon branch alone leaks past the threshold; the vacuum branch
    # stays inside the cutoff, so p1 scales the leakage
    assert 0.7 * photon_leak > TAIL_THRESHOLD > 0.6 * photon_leak
    with pytest.raises(TruncationError):
        run_exact(replace(base, source_efficiency=0.7))
    res = run_exact(replace(base, source_efficiency=0.6))
    assert abs(res.leakage - 0.6 * photon_leak) < 1e-25
    rows = sweep(base, {"p1": [0.7, 0.6]})
    assert [r["error_code"] for r in rows] == ["truncation", ""]


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


def test_run_exact_builds_only_single_mode_density_operators(monkeypatch):
    modes = []
    init = DensityOperator.__init__

    def spy(self, matrix, cutoff, mode_count=1):
        modes.append(mode_count)
        init(self, matrix, cutoff, mode_count)

    monkeypatch.setattr(DensityOperator, "__init__", spy)
    herald = HeraldModel(read_efficiency=0.6, dark_count=1e-4, resolving=False)
    for config in (
        ProtocolConfig(alpha=0.01, t=0.1),
        ProtocolConfig(alpha=0.01, t=0.1, source_efficiency=0.9, herald=herald),
        ProtocolConfig(alpha=0.01, t=0.1, cutoff=20, input_kind="coherent", source_efficiency=0.5),
    ):
        run_exact(config)
    assert modes and set(modes) == {1}
