import math

import numpy as np
import pytest

from hal.errors import ImpossibleOutcomeError, TruncationError, ValidationError
from hal.fock_core import (
    PureState,
    coherent_state,
    fidelity,
    number_state,
    tensor_product,
    to_density,
)
from hal.optics_ops import (
    BeamSplitter,
    HeraldModel,
    apply_beam_splitter,
    beam_splitter_matrix,
    herald_click,
    herald_no_click,
    loss_channel,
    partial_trace,
    project_number,
    total_occupation,
)

CUTOFF = 6


def test_beam_splitter_parameter_range():
    with pytest.raises(ValidationError):
        BeamSplitter(0.0)
    with pytest.raises(ValidationError):
        BeamSplitter(1.0)
    bs = BeamSplitter(0.6)
    assert abs(bs.r - 0.8) < 1e-15
    assert abs(math.sin(bs.theta) - 0.6) < 1e-15


def test_single_photon_splitting_amplitudes():
    # |0,1> -> r|0,1> + t|1,0> under the documented convention
    bs = BeamSplitter(0.3)
    psi = tensor_product(number_state(0, CUTOFF), number_state(1, CUTOFF))
    out = apply_beam_splitter(psi, bs)
    assert abs(out.amplitudes[out.index(0, 1)] - bs.r) < 1e-15
    assert abs(out.amplitudes[out.index(1, 0)] - bs.t) < 1e-12
    # |1,0> -> r|1,0> - t|0,1>
    psi2 = tensor_product(number_state(1, CUTOFF), number_state(0, CUTOFF))
    out2 = apply_beam_splitter(psi2, bs)
    assert abs(out2.amplitudes[out2.index(1, 0)] - bs.r) < 1e-15
    assert abs(out2.amplitudes[out2.index(0, 1)] + bs.t) < 1e-12


def test_beam_splitter_unitary_on_full_sectors():
    w = beam_splitter_matrix(CUTOFF, BeamSplitter(0.45))
    n = np.arange(CUTOFF + 1)
    totals = (n[:, None] + n[None, :]).reshape(-1)
    keep = totals <= CUTOFF
    block = w[np.ix_(keep, keep)]
    assert np.max(np.abs(block.T @ block - np.eye(block.shape[0]))) < 1e-12


def test_beam_splitter_number_conservation():
    w = beam_splitter_matrix(CUTOFF, BeamSplitter(0.45))
    n = np.arange(CUTOFF + 1)
    totals = (n[:, None] + n[None, :]).reshape(-1)
    cross = np.abs(w)[totals[:, None] != totals[None, :]]
    assert np.max(cross) == 0.0


def test_inverse_round_trip():
    bs = BeamSplitter(0.37)
    psi = tensor_product(coherent_state(0.3, CUTOFF), number_state(1, CUTOFF))
    # zero the partial sectors so the round trip stays in closed subspace
    grid = psi.as_two_mode_matrix().copy()
    n = np.arange(CUTOFF + 1)
    grid[(n[:, None] + n[None, :]) > CUTOFF] = 0.0
    psi = PureState(grid.reshape(-1), CUTOFF, 2).normalized()
    back = apply_beam_splitter(apply_beam_splitter(psi, bs), bs, inverse=True)
    assert np.max(np.abs(back.amplitudes - psi.amplitudes)) < 1e-12


def test_hong_ou_mandel_null():
    bs = BeamSplitter(math.sqrt(0.5))
    psi = tensor_product(number_state(1, CUTOFF), number_state(1, CUTOFF))
    out = apply_beam_splitter(psi, bs)
    assert abs(out.amplitudes[out.index(1, 1)]) < 1e-12
    # the photons bunch: all weight on |2,0> and |0,2>
    p = out.probabilities()
    assert abs(p[out.index(2, 0)] + p[out.index(0, 2)] - 1.0) < 1e-12


def test_total_occupation_preserved():
    bs = BeamSplitter(0.52)
    psi = tensor_product(number_state(2, CUTOFF), number_state(1, CUTOFF))
    out = apply_beam_splitter(psi, bs)
    dist_in = total_occupation(psi)
    dist_out = total_occupation(out)
    assert np.max(np.abs(dist_in - dist_out)) < 1e-12


def test_leakage_raises_and_reports():
    # support on total occupation 4 > cutoff 2 leaks under the splitter
    amp = np.zeros(9, dtype=np.complex128)
    amp[2 * 3 + 2] = 1.0
    psi = PureState(amp, 2, 2)
    with pytest.raises(TruncationError):
        apply_beam_splitter(psi, BeamSplitter(0.5))
    out, leak = apply_beam_splitter(
        psi, BeamSplitter(0.5), leakage_threshold=1.0, return_leakage=True
    )
    assert leak > 0.1
    assert abs((1.0 - out.norm() ** 2) - leak) < 1e-12


def test_density_path_matches_pure_path():
    bs = BeamSplitter(0.3)
    psi = tensor_product(coherent_state(0.1, 5), number_state(1, 5))
    out_pure = apply_beam_splitter(psi, bs)
    out_rho = apply_beam_splitter(to_density(psi), bs)
    want = np.outer(out_pure.amplitudes, out_pure.amplitudes.conj())
    assert np.max(np.abs(out_rho.matrix - want)) < 1e-12


def test_project_number_normalizes_and_reports_probability():
    bs = BeamSplitter(0.1)
    psi = tensor_product(number_state(0, 4), number_state(1, 4))
    out = apply_beam_splitter(psi, bs)
    p, cond = project_number(out, "A", 1)
    assert abs(p - 0.1 ** 2) < 1e-12
    assert abs(cond.norm() - 1.0) < 1e-12
    assert abs(fidelity(cond, number_state(0, 4)) - 1.0) < 1e-12


def test_project_number_impossible_outcome():
    psi = tensor_product(number_state(0, 3), number_state(0, 3))
    with pytest.raises(ImpossibleOutcomeError):
        project_number(psi, "A", 1)


def test_click_weights_ideal_resolving_is_projector():
    model = HeraldModel(read_efficiency=1.0, dark_count=0.0, resolving=True)
    w = model.click_weights(5)
    want = np.zeros(6)
    want[1] = 1.0
    assert np.max(np.abs(w - want)) < 1e-15


def test_click_weights_threshold():
    model = HeraldModel(read_efficiency=1.0, dark_count=0.0, resolving=False)
    w = model.click_weights(5)
    assert w[0] == 0.0
    assert np.all(w[1:] == 1.0)
    lossy = HeraldModel(read_efficiency=0.25, dark_count=0.01, resolving=False)
    w = lossy.click_weights(5)
    for n in range(6):
        want = 1.0 - (1.0 - 0.01) * (1.0 - 0.25) ** n
        assert abs(w[n] - want) < 1e-15


def test_click_weights_resolving_formula():
    model = HeraldModel(read_efficiency=0.4, dark_count=1e-3, resolving=True)
    w = model.click_weights(6)
    assert abs(w[0] - 1e-3) < 1e-18
    for n in range(1, 7):
        want = (1 - 1e-3) * n * 0.4 * 0.6 ** (n - 1) + 1e-3 * 0.6 ** n
        assert abs(w[n] - want) < 1e-15
    assert np.all(w >= 0.0) and np.all(w <= 1.0)


def test_herald_completeness_on_mixed_state():
    bs = BeamSplitter(0.2)
    psi = tensor_product(coherent_state(0.1, 5), number_state(1, 5))
    rho = apply_beam_splitter(to_density(psi), bs)
    for resolving in (True, False):
        model = HeraldModel(read_efficiency=0.6, dark_count=1e-3, resolving=resolving)
        p_click, cond_click = herald_click(rho, model)
        p_none, cond_none = herald_no_click(rho, model)
        assert abs(p_click + p_none - 1.0) < 1e-12
        assert abs(cond_click.trace() - 1.0) < 1e-12
        assert abs(cond_none.trace() - 1.0) < 1e-12


def test_dark_count_click_on_vacuum():
    rho = to_density(tensor_product(number_state(0, 3), number_state(0, 3)))
    model = HeraldModel(read_efficiency=0.8, dark_count=0.05)
    p, cond = herald_click(rho, model)
    assert abs(p - 0.05) < 1e-15
    assert abs(fidelity(cond, number_state(0, 3)) - 1.0) < 1e-12


def test_herald_impossible_without_dark_counts():
    rho = to_density(tensor_product(number_state(0, 3), number_state(0, 3)))
    model = HeraldModel(read_efficiency=0.8, dark_count=0.0)
    with pytest.raises(ImpossibleOutcomeError):
        herald_click(rho, model)


def test_herald_mode_b():
    bs = BeamSplitter(0.2)
    psi = tensor_product(number_state(1, 4), number_state(0, 4))
    rho = apply_beam_splitter(to_density(psi), bs)
    model = HeraldModel(mode="B")
    p, cond = herald_click(rho, model)
    # photon starts in A; reflection into B happens with probability t^2
    assert abs(p - 0.2 ** 2) < 1e-12
    assert abs(fidelity(cond, number_state(0, 4)) - 1.0) < 1e-12


def test_loss_channel_on_coherent_state():
    eta = 0.6
    rho = loss_channel(to_density(coherent_state(0.3, 10)), "A", eta)
    assert abs(rho.trace() - 1.0) < 1e-12
    want = coherent_state(0.3 * math.sqrt(eta), 10)
    assert abs(fidelity(rho, want) - 1.0) < 1e-10


def test_loss_channel_two_mode_trace_preserving():
    psi = tensor_product(coherent_state(0.1, 4), number_state(1, 4))
    rho = loss_channel(to_density(psi), "B", 0.5)
    assert abs(rho.trace() - 1.0) < 1e-12


def test_partial_trace_of_product_state():
    psi = tensor_product(coherent_state(0.1, 4), number_state(1, 4))
    rho_a = partial_trace(to_density(psi), keep="A")
    rho_b = partial_trace(to_density(psi), keep="B")
    assert abs(fidelity(rho_a, coherent_state(0.1, 4)) - 1.0) < 1e-12
    assert abs(fidelity(rho_b, number_state(1, 4)) - 1.0) < 1e-12


def test_partial_trace_of_entangled_output_is_mixed():
    bs = BeamSplitter(math.sqrt(0.5))
    psi = tensor_product(number_state(1, 4), number_state(1, 4))
    out = apply_beam_splitter(psi, bs)
    rho_a = partial_trace(to_density(out), keep="A")
    assert abs(rho_a.trace() - 1.0) < 1e-12
    assert rho_a.purity() < 1.0 - 1e-3


def test_mixed_state_purity_after_balanced_splitter():
    # |1,1> on a balanced splitter: reduced mode A is diag(1/2, 0, 1/2)-ish
    bs = BeamSplitter(math.sqrt(0.5))
    psi = tensor_product(number_state(1, 4), number_state(1, 4))
    rho_a = partial_trace(to_density(apply_beam_splitter(psi, bs)), keep="A")
    d = rho_a.diagonal()
    assert abs(d[0] - 0.5) < 1e-12
    assert abs(d[2] - 0.5) < 1e-12
    assert abs(d[1]) < 1e-12


def test_herald_click_on_pure_state_matches_its_projector():
    bs = BeamSplitter(0.3)
    psi = apply_beam_splitter(
        tensor_product(coherent_state(0.2 + 0.1j, 5), number_state(1, 5)), bs, leakage_threshold=1.0
    )
    for mode in ("A", "B"):
        for resolving in (True, False):
            model = HeraldModel(read_efficiency=0.7, dark_count=1e-3, mode=mode, resolving=resolving)
            for outcome in (herald_click, herald_no_click):
                p_pure, cond_pure = outcome(psi, model)
                p_dens, cond_dens = outcome(to_density(psi), model)
                assert abs(p_pure - p_dens) < 1e-15
                assert np.max(np.abs(cond_pure.matrix - cond_dens.matrix)) < 1e-14


def test_density_input_uses_the_same_splitter():
    # the partial sectors leak; both paths must agree on what is lost
    bs = BeamSplitter(0.45)
    psi = tensor_product(coherent_state(0.3, CUTOFF), number_state(1, CUTOFF))
    for inverse in (False, True):
        kwargs = dict(inverse=inverse, leakage_threshold=1.0, return_leakage=True)
        out, leak = apply_beam_splitter(psi, bs, **kwargs)
        rho, leak_rho = apply_beam_splitter(to_density(psi), bs, **kwargs)
        assert leak > 1e-10
        assert np.max(np.abs(rho.matrix - to_density(out).matrix * out.norm() ** 2)) < 1e-14
        assert abs(leak - leak_rho) < 1e-15
