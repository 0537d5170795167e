import math

import numpy as np
import pytest

from hal.errors import ImpossibleOutcomeError, ShapeError, ValidationError
from hal.fock_core import (
    DensityOperator,
    PureState,
    coherent_state,
    fidelity,
    number_state,
    tensor_product,
)
from hal.optics_ops import (
    BeamSplitter,
    HeraldModel,
    apply_beam_splitter,
    herald_operator,
    project_number,
    _block,
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


def _splitter_matrix(cutoff, bs):
    """The matrix apply_beam_splitter applies, built column by column."""
    dim = (cutoff + 1) ** 2
    w = np.zeros((dim, dim), dtype=np.complex128)
    for j in range(dim):
        basis = np.zeros(dim, dtype=np.complex128)
        basis[j] = 1.0
        w[:, j] = apply_beam_splitter(PureState(basis, cutoff, 2), bs).amplitudes
    return w


def test_beam_splitter_unitary_on_full_sectors():
    w = _splitter_matrix(CUTOFF, BeamSplitter(0.45))
    n = np.arange(CUTOFF + 1)
    totals = (n[:, None] + n[None, :]).reshape(-1)
    keep = totals <= CUTOFF
    block = w[np.ix_(keep, keep)]
    assert np.max(np.abs(block.conj().T @ block - np.eye(block.shape[0]))) < 1e-12


def test_beam_splitter_number_conservation():
    w = _splitter_matrix(CUTOFF, BeamSplitter(0.45))
    n = np.arange(CUTOFF + 1)
    totals = (n[:, None] + n[None, :]).reshape(-1)
    cross = np.abs(w)[totals[:, None] != totals[None, :]]
    assert np.max(cross) == 0.0


def test_hong_ou_mandel_null():
    bs = BeamSplitter(math.sqrt(0.5))
    psi = tensor_product(number_state(1, CUTOFF), number_state(1, CUTOFF))
    out = apply_beam_splitter(psi, bs)
    assert abs(out.amplitudes[out.index(1, 1)]) < 1e-12
    # the photons bunch: all weight on |2,0> and |0,2>
    p = np.abs(out.amplitudes) ** 2
    assert abs(p[out.index(2, 0)] + p[out.index(0, 2)] - 1.0) < 1e-12


def test_leaked_amplitude_is_dropped_not_renormalized():
    # |2,2> sits in the total-4 sector, of which cutoff 2 keeps only |2,2>;
    # the splitter keeps that one exact amplitude and drops the rest
    amp = np.zeros(9, dtype=np.complex128)
    amp[2 * 3 + 2] = 1.0
    bs = BeamSplitter(0.5)
    out = apply_beam_splitter(PureState(amp, 2, 2), bs)
    kept = _mp_sector_block(4, bs.theta)[2, 2]
    assert abs(out.amplitudes[2 * 3 + 2] - kept) < 1e-14
    assert np.count_nonzero(out.amplitudes) == 1
    assert 1.0 - out.norm() ** 2 > 0.1


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


def _herald(state, weights, mode):
    """Outcome probability and normalized conditional state of a herald."""
    blocks = herald_operator(state.as_two_mode_matrix(), weights, mode)
    p = float(np.trace(blocks).real)
    return p, DensityOperator(blocks / p, state.cutoff)


def test_herald_completeness_on_mixed_state():
    # a lossy, noisy herald leaves mixed conditional states on the pure output
    bs = BeamSplitter(0.2)
    psi = tensor_product(coherent_state(0.1, 5), number_state(1, 5))
    out = apply_beam_splitter(psi, bs)
    for resolving in (True, False):
        w = HeraldModel(read_efficiency=0.6, dark_count=1e-3, resolving=resolving).click_weights(5)
        p_click, cond_click = _herald(out, w, "A")
        p_none, cond_none = _herald(out, 1.0 - w, "A")
        # click and no-click split the output's norm, leaked mass excluded
        assert abs(p_click + p_none - out.norm() ** 2) < 1e-15
        assert abs(p_click + p_none - 1.0) < 1e-12
        assert abs(cond_click.trace() - 1.0) < 1e-12
        assert abs(cond_none.trace() - 1.0) < 1e-12


def test_dark_count_click_on_vacuum():
    psi = tensor_product(number_state(0, 3), number_state(0, 3))
    model = HeraldModel(read_efficiency=0.8, dark_count=0.05)
    p, cond = _herald(psi, model.click_weights(3), model.mode)
    assert abs(p - 0.05) < 1e-15
    assert abs(fidelity(cond, number_state(0, 3)) - 1.0) < 1e-12


def test_herald_mode_b():
    bs = BeamSplitter(0.2)
    psi = tensor_product(number_state(1, 4), number_state(0, 4))
    out = apply_beam_splitter(psi, bs)
    model = HeraldModel(mode="B")
    p, cond = _herald(out, model.click_weights(4), model.mode)
    # photon starts in A; reflection into B happens with probability t^2
    assert abs(p - 0.2 ** 2) < 1e-12
    assert abs(fidelity(cond, number_state(0, 4)) - 1.0) < 1e-12


def test_herald_operator_matches_its_projector():
    bs = BeamSplitter(0.3)
    psi = apply_beam_splitter(
        tensor_product(coherent_state(0.2 + 0.1j, 5), number_state(1, 5)), bs
    )
    d = psi.cutoff + 1
    v = psi.amplitudes
    r4 = np.outer(v, v.conj()).reshape(d, d, d, d)  # (m, n, m', n')
    for mode in ("A", "B"):
        spec = "n,nanb->ab" if mode == "A" else "n,anbn->ab"
        for resolving in (True, False):
            model = HeraldModel(read_efficiency=0.7, dark_count=1e-3, mode=mode, resolving=resolving)
            click = model.click_weights(psi.cutoff)
            for weights in (click, 1.0 - click):
                got = herald_operator(psi.as_two_mode_matrix(), weights, mode)
                ref = np.einsum(spec, weights, r4)
                assert abs(np.trace(got) - np.trace(ref)) < 1e-15
                assert np.max(np.abs(got - ref)) < 1e-15


def test_herald_operator_rejects_lowercase_mode():
    amp = tensor_product(number_state(0, 2), number_state(1, 2)).as_two_mode_matrix()
    with pytest.raises(ValidationError):
        herald_operator(amp, np.ones(3), "a")


def test_two_mode_density_operator_is_rejected():
    psi = tensor_product(coherent_state(0.1, 4), number_state(1, 4))
    with pytest.raises(ShapeError):
        DensityOperator(np.outer(psi.amplitudes, psi.amplitudes.conj()), 4)
    rho = DensityOperator(np.diag([0.5, 0.5, 0.0, 0.0, 0.0]), 4)
    with pytest.raises(ValidationError):
        apply_beam_splitter(rho, BeamSplitter(0.3))
    with pytest.raises(ValidationError):
        project_number(rho, "A", 1)


def _mp_sector_block(total, theta):
    """Sector block of exp(theta (a^dag b - a b^dag)) in mpmath (60 digits).

    U a^dag U^dag = r a^dag - t b^dag and U b^dag U^dag = t a^dag + r b^dag,
    so U|l, n-l> is the binomial expansion of
    (r a^dag - t b^dag)^l (t a^dag + r b^dag)^(n-l) |0> / sqrt(l! (n-l)!):
    integer coefficients and powers of r and t, no matrix exponential.
    """
    import mpmath

    n = total
    with mpmath.workdps(60):
        r, t = mpmath.cos(mpmath.mpf(theta)), mpmath.sin(mpmath.mpf(theta))
        r_pow = [r**i for i in range(n + 1)]
        t_pow = [t**i for i in range(n + 1)]
        out = np.empty((n + 1, n + 1))
        for l in range(n + 1):
            for k in range(n + 1):
                acc = mpmath.mpf(0)
                for p in range(max(0, k - (n - l)), min(l, k) + 1):
                    q = k - p
                    term = math.comb(l, p) * math.comb(n - l, q)
                    term *= r_pow[p + n - l - q] * t_pow[l - p + q]
                    acc += -term if (l - p) % 2 else term
                scale = mpmath.mpf(math.factorial(k) * math.factorial(n - k)) / (
                    math.factorial(l) * math.factorial(n - l)
                )
                out[k, l] = float(acc * mpmath.sqrt(scale))
        return out


def test_sector_block_reference_is_the_generator_exponential():
    import mpmath

    theta = BeamSplitter(0.7).theta
    with mpmath.workdps(40):
        gen = mpmath.zeros(6, 6)
        for m in range(5):
            coupling = mpmath.sqrt((m + 1) * (5 - m))
            gen[m + 1, m], gen[m, m + 1] = coupling, -coupling
        ref = np.array(mpmath.expm(mpmath.mpf(theta) * gen).tolist(), dtype=float)
    assert np.max(np.abs(_mp_sector_block(5, theta) - ref)) <= 1e-16


@pytest.mark.parametrize("t", [0.1, 0.7])
def test_sector_block_matches_mpmath(t):
    bs = BeamSplitter(t)
    for total in (12, 24, 40, 60):
        ref = _mp_sector_block(total, bs.theta)
        assert np.max(np.abs(_block(total, bs.theta) - ref)) <= 1e-14, total
        # the closed-form images of |total - l, l>, l = 0, 1, which the
        # protocol's branches are made of
        m = np.arange(total + 1)
        for l in (0, 1):
            amp = np.zeros((total + 1, total + 1))
            amp[total - l, l] = 1.0
            out = apply_beam_splitter(PureState(amp, total, 2), bs).as_two_mode_matrix()
            assert np.max(np.abs(out[m, total - m] - ref[:, total - l])) <= 1e-14, (total, l)
