import math

import numpy as np
import pytest

from hal.errors import ImpossibleOutcomeError, ShapeError, ValidationError
from hal.fock_core import (
    DensityOperator,
    PureState,
    _coherent_tail,
    coherent_state,
    fidelity,
    number_state,
)
from hal.optics_ops import HeraldModel, herald_click, support_size
from hal.protocol import ProtocolConfig, run_exact
from hal.validate import dense_bs_matrix

CUTOFF = 6


def _click(alpha, t, cutoff, coherent, p1, weights, mode):
    """herald_click at one point, as a batch of one, with its state and row
    padded with zeros from the signal's support to occupations 0..cutoff;
    weights are given on 0..cutoff."""
    d = support_size(cutoff, coherent)
    tail = _coherent_tail(alpha, cutoff) if coherent else 0.0
    rho, row, leak = herald_click(
        np.array([alpha], dtype=complex), np.array([tail]), np.array([t]), cutoff, coherent,
        np.array([p1]), np.asarray(weights, dtype=float)[None, :d], mode,
    )
    full = np.zeros((cutoff + 1, cutoff + 1), dtype=complex)
    full[:d, :d] = rho[0]
    full_row = np.zeros(cutoff + 1, dtype=complex)
    full_row[:d] = row[0]
    return full, full_row, float(leak[0])


def _photon(alpha, t, mode="A", cutoff=CUTOFF, coherent=False):
    """herald_click's photon branch alone (p1 = 1) under the ideal detector."""
    return _click(alpha, t, cutoff, coherent, 1.0, np.eye(cutoff + 1)[1], mode)


def test_beam_splitter_parameter_range():
    for t in (0.0, 1.0, -0.5, 1.5, float("nan"), float("inf")):
        with pytest.raises(ValidationError, match="transmission amplitude"):
            ProtocolConfig(alpha=0.0, t=t)
    # |0,1> -> r|0,1> + t|1,0>: one click on A with probability t^2, on B r^2
    for mode, p in (("A", 0.36), ("B", 0.64)):
        assert abs(np.trace(_photon(0.0, 0.6, mode)[0]).real - p) < 1e-15


def test_single_photon_splitting_amplitudes():
    t = 0.3
    r = math.sqrt(1.0 - t * t)
    # |0,1> -> r|0,1> + t|1,0> under the documented convention: a click on A
    # leaves B in |0> with amplitude t, a click on B leaves A in |0> with r
    assert abs(_photon(0.0, t, "A")[1][0] - t) < 1e-15
    assert abs(_photon(0.0, t, "B")[1][0] - r) < 1e-15
    # |1,0> -> r|1,0> - t|0,1>: the signal's photon (alpha = 1, weight 1/2)
    # against the source's vacuum clicks on A with r^2 / 2, on B with t^2 / 2
    for mode, p in (("A", r * r / 2.0), ("B", t * t / 2.0)):
        rho = _click(1.0, t, CUTOFF, False, 0.0, np.eye(CUTOFF + 1)[1], mode)[0]
        assert abs(np.trace(rho).real - p) < 1e-15
    # with the photon, |1,1> keeps the amplitude r^2 - t^2 (the signs of the
    # two paths differ), the gain law gain * t = 1 - 2 t^2
    row = _photon(0.01, t)[1]
    assert abs(row[1] / row[0] - 0.01 * (r * r - t * t) / t) < 1e-15


def test_beam_splitter_unitary_on_full_sectors():
    # the splitter loses no probability: the click and no-click states of
    # both branches, with what leaks past the cutoff, hold the whole input
    for coherent, alpha in ((False, 0.7 - 0.4j), (True, 0.25 - 0.1j), (True, 0.0)):
        for mode in "AB":
            w = HeraldModel(read_efficiency=0.45, dark_count=1e-3, mode=mode).click_weights(CUTOFF)
            for p1 in (0.0, 0.3, 1.0):
                click, _, leak = _click(alpha, 0.45, CUTOFF, coherent, p1, w, mode)
                none, _, _ = _click(alpha, 0.45, CUTOFF, coherent, p1, 1.0 - w, mode)
                assert abs(np.trace(click + none).real + leak - 1.0) < 1e-15


def test_beam_splitter_number_conservation():
    # the two-term signal and the source photon hold at most two excitations,
    # so reading j of them leaves at most 2 - j in the other mode (the vacuum
    # branch at most 1 - j), and nothing past that
    n = np.arange(CUTOFF + 1)
    for mode in "AB":
        for j in range(CUTOFF + 1):
            for p1, total in ((1.0, 2), (0.0, 1)):
                read_j = np.eye(CUTOFF + 1)[j]
                rho = _click(0.6 + 0.3j, 0.45, CUTOFF, False, p1, read_j, mode)[0]
                beyond = (n[:, None] > total - j) | (n[None, :] > total - j)
                assert np.all(rho[beyond] == 0.0)
                assert (np.trace(rho).real > 0.0) == (j <= total)


def test_hong_ou_mandel_null():
    # the signal's |1> and the photon on a balanced splitter never exit as
    # |1,1>: the one-click row has no |1> entry, for either read mode
    t = math.sqrt(0.5)
    for mode in "AB":
        assert abs(_photon(1.0, t, mode)[1][1]) < 1e-15
    # they bunch: the signal's |1> (weight 1/2) reads two on A or on B
    two = np.eye(CUTOFF + 1)[2]
    p = [np.trace(_click(1.0, t, CUTOFF, False, 1.0, two, m)[0]).real for m in "AB"]
    assert abs(sum(p) - 0.5) < 1e-15


def test_leaked_amplitude_is_dropped_not_renormalized():
    # a coherent signal at cutoff 2: the photon branch's |3,0> and |0,3> fall
    # past the cutoff. Their probability, read off the dense splitter at
    # cutoff 4, is the leakage and is missing from the state, not rescaled in
    alpha, t = 0.02 + 0.01j, 0.5
    rho, _, leak = _click(alpha, t, 2, True, 1.0, np.ones(3), "A")
    sig = np.zeros(5, dtype=complex)
    sig[:3] = coherent_state(alpha, 2).amplitudes
    out = (dense_bs_matrix(4, t) @ np.kron(sig, np.eye(5)[1])).reshape(5, 5)
    dropped = abs(out[3, 0]) ** 2 + abs(out[0, 3]) ** 2
    assert 1e-9 < leak and abs(leak - dropped) <= 1e-12 * dropped
    assert abs(np.trace(rho).real - (1.0 - leak)) < 1e-15


def test_project_number_normalizes_and_reports_probability():
    # the ideal herald projects mode A onto one excitation: for the vacuum
    # signal that happens with probability t^2 and leaves mode B in |0>
    res = run_exact(ProtocolConfig(alpha=0.0, t=0.1, cutoff=4))
    assert abs(res.success_probability - 0.1 ** 2) < 1e-12
    state = res.conditional_state
    assert isinstance(state, PureState)
    assert abs(state.norm() - 1.0) < 1e-12
    # the state is held on the signal's support; zero-padded to the cutoff
    padded = PureState(np.pad(state.amplitudes, (0, 4 - state.cutoff)), 4)
    assert abs(fidelity(padded, number_state(0, 4)) - 1.0) < 1e-12


def test_project_number_impossible_outcome():
    # vacuum signal, vacuum source: one excitation is never read out
    with pytest.raises(ImpossibleOutcomeError):
        run_exact(ProtocolConfig(alpha=0.0, t=0.1, cutoff=3, source_efficiency=0.0))


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


def _herald(alpha, t, cutoff, p1, weights, mode, coherent=False):
    """Outcome probability and normalized conditional state of a herald."""
    rho = _click(alpha, t, cutoff, coherent, p1, weights, mode)[0]
    p = float(np.trace(rho).real)
    return p, DensityOperator(rho / p, cutoff)


def test_herald_completeness_on_mixed_state():
    # a lossy, noisy herald leaves mixed conditional states on the pure output
    for resolving in (True, False):
        w = HeraldModel(read_efficiency=0.6, dark_count=1e-3, resolving=resolving).click_weights(5)
        p_click, cond_click = _herald(0.1, 0.2, 5, 1.0, w, "A", coherent=True)
        p_none, cond_none = _herald(0.1, 0.2, 5, 1.0, 1.0 - w, "A", coherent=True)
        # click and no-click split the output's probability, leaked mass excluded
        leak = _click(0.1, 0.2, 5, True, 1.0, w, "A")[2]
        assert abs(p_click + p_none + leak - 1.0) < 1e-15
        assert abs(p_click + p_none - 1.0) < 1e-12
        assert abs(cond_click.trace() - 1.0) < 1e-12
        assert abs(cond_none.trace() - 1.0) < 1e-12


def test_dark_count_click_on_vacuum():
    model = HeraldModel(read_efficiency=0.8, dark_count=0.05)
    p, cond = _herald(0.0, 0.2, 3, 0.0, model.click_weights(3), model.mode)
    assert abs(p - 0.05) < 1e-15
    assert abs(fidelity(cond, number_state(0, 3)) - 1.0) < 1e-12


def test_herald_mode_b():
    model = HeraldModel(mode="B")
    # the signal's photon (alpha = 1, weight 1/2) against the source's
    # vacuum reaches B with probability t^2 and leaves A empty
    p, cond = _herald(1.0, 0.2, 4, 0.0, model.click_weights(4), model.mode)
    assert abs(p - 0.2 ** 2 / 2.0) < 1e-12
    assert abs(fidelity(cond, number_state(0, 4)) - 1.0) < 1e-12


def _dense_branch(alpha, t, cutoff, coherent, photons):
    """A branch's two-mode amplitudes (m, n), m, n <= cutoff, through the dense
    splitter at 2 cutoff, which is exact on every sector the input reaches."""
    big = 2 * cutoff + 1
    sig = np.zeros(big, dtype=complex)
    if coherent:
        sig[: cutoff + 1] = coherent_state(alpha, cutoff).amplitudes
    else:
        sig[0], sig[1] = 1.0, alpha
        sig /= np.linalg.norm(sig)
    out = dense_bs_matrix(2 * cutoff, t) @ np.kron(sig, np.eye(big)[photons])
    return out.reshape(big, big)[: cutoff + 1, : cutoff + 1]


def test_herald_operator_matches_its_projector():
    # sum_n w(n) <n|_read |psi><psi| |n>_read on the dense two-mode branches
    cutoff, t = 5, 0.3
    for coherent, alpha in ((False, 0.4 - 0.3j), (True, 0.2 + 0.1j)):
        photon, vacuum = (_dense_branch(alpha, t, cutoff, coherent, k) for k in (1, 0))
        for mode in ("A", "B"):
            spec = "n,na,nb->ab" if mode == "A" else "n,an,bn->ab"
            for resolving in (True, False):
                model = HeraldModel(0.7, 1e-3, mode, resolving)
                click = model.click_weights(cutoff)
                for weights in (click, 1.0 - click):
                    for p1 in (0.0, 0.6, 1.0):
                        rho, row, _ = _click(alpha, t, cutoff, coherent, p1, weights, mode)
                        ref = sum(
                            p * np.einsum(spec, weights, psi, psi.conj())
                            for p, psi in ((p1, photon), (1.0 - p1, vacuum))
                        )
                        assert np.max(np.abs(rho - ref)) < 1e-14
            one_click = photon[1] if mode == "A" else photon[:, 1]
            assert np.max(np.abs(row - one_click)) < 1e-14


def test_herald_operator_rejects_lowercase_mode():
    with pytest.raises(ValidationError):
        HeraldModel(mode="a")


def test_two_mode_density_operator_is_rejected():
    # states are single-mode: a two-mode vector or matrix does not fit the basis
    psi = np.kron(coherent_state(0.1, 4).amplitudes, number_state(1, 4).amplitudes)
    with pytest.raises(ShapeError):
        DensityOperator(np.outer(psi, psi.conj()), 4)
    with pytest.raises(ShapeError):
        PureState(psi, 4)


def _mp_sector_entry(total, k, l, t):
    """<k, total-k| U |l, total-l> for U = exp(theta (a^dag b - a b^dag)),
    theta = arcsin(t), in mpmath (60 digits).

    U a^dag U^dag = r a^dag - t b^dag and U b^dag U^dag = t a^dag + r b^dag,
    so U|l, n-l> is the binomial expansion of
    (r a^dag - t b^dag)^l (t a^dag + r b^dag)^(n-l) |0> / sqrt(l! (n-l)!):
    integer coefficients and powers of r and t, no matrix exponential.
    """
    import mpmath

    n = total
    with mpmath.workdps(60):
        theta = mpmath.mpf(math.asin(t))
        r, t = mpmath.cos(theta), mpmath.sin(theta)
        acc = mpmath.mpf(0)
        for p in range(max(0, k - (n - l)), min(l, k) + 1):
            q = k - p
            term = math.comb(l, p) * math.comb(n - l, q) * r ** (p + n - l - q) * t ** (l - p + q)
            acc += -term if (l - p) % 2 else term
        scale = mpmath.mpf(math.factorial(k) * math.factorial(n - k)) / (
            math.factorial(l) * math.factorial(n - l)
        )
        return float(acc * mpmath.sqrt(scale))


def _mp_sector_block(total, t):
    """The total-occupation sector's block of U, basis (m, total-m) by m."""
    return np.array([[_mp_sector_entry(total, k, l, t) for l in range(total + 1)]
                     for k in range(total + 1)])


def test_sector_block_reference_is_the_generator_exponential():
    import mpmath

    with mpmath.workdps(40):
        gen = mpmath.zeros(6, 6)
        for m in range(5):
            coupling = mpmath.sqrt((m + 1) * (5 - m))
            gen[m + 1, m], gen[m, m + 1] = coupling, -coupling
        ref = np.array(mpmath.expm(mpmath.mpf(math.asin(0.7)) * gen).tolist(), dtype=float)
    assert np.max(np.abs(_mp_sector_block(5, 0.7) - ref)) <= 1e-16


@pytest.mark.parametrize("t", [0.1, 0.7])
def test_sector_block_matches_mpmath(t):
    # the photon branch of a coherent signal c is sum_k c_k U|k, 1>, so one
    # click on A keeps <1, k| U |k, 1> c_k and one on B <k, 1| U |k, 1> c_k:
    # entries of the total-(k + 1) sector block, for every k to cutoff 60
    cutoff = 60
    c = coherent_state(2.0 - 1.0j, cutoff).amplitudes
    k = np.arange(cutoff + 1)
    for mode, row_of in (("A", lambda k: 1), ("B", lambda k: k)):
        ref = c * [_mp_sector_entry(j + 1, row_of(j), j, t) for j in k]
        row = _photon(2.0 - 1.0j, t, mode, cutoff=cutoff, coherent=True)[1]
        assert np.all(np.abs(row - ref) <= 1e-13 * np.abs(ref)), mode


@pytest.mark.parametrize("coherent, cutoff", [(False, 1), (False, 2), (False, 9), (True, 9)])
def test_herald_batch_points_are_independent(coherent, cutoff):
    # a point's state, row and leakage are the same bits in any batch
    rng = np.random.default_rng(5)
    n = 24
    alpha = (rng.random(n) - 0.5) * 0.6 + 1j * (rng.random(n) - 0.5) * 0.3
    alpha[::5] = 0.0
    t = rng.uniform(0.05, 0.95, n)
    p1 = rng.choice([0.0, 0.4, 1.0], n)
    d = support_size(cutoff, coherent)
    weights = np.array([HeraldModel(e, pd, "B", False).click_weights(d - 1)
                        for e, pd in zip(rng.choice([0.5, 1.0], n), rng.choice([0.0, 1e-3], n))])
    tail = np.array([_coherent_tail(a, cutoff) if coherent else 0.0 for a in alpha])
    batch = herald_click(alpha, tail, t, cutoff, coherent, p1, weights, "B")
    for k in range(n):
        alone = herald_click(alpha[k:k + 1], tail[k:k + 1], t[k:k + 1], cutoff, coherent,
                             p1[k:k + 1], weights[k:k + 1], "B")
        for got, want in zip(batch, alone):
            assert got[k].tobytes() == want[0].tobytes()
