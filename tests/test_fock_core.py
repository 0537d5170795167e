import math

import numpy as np
import pytest

from hal.errors import ShapeError, TruncationError, ValidationError
from hal.fock_core import (
    TAIL_THRESHOLD,
    DensityOperator,
    PureState,
    coherent_state,
    fidelity,
    number_state,
)
from hal.protocol import ProtocolConfig
from hal.spin_ensemble import EnsembleSpec


# finite, but |amplitude|^2 overflows a double
HUGE_AMPLITUDES = (1e300, complex(0.0, 1e200), complex(1e308, 1e308))


def test_amplitudes_are_plain_complex_numbers():
    assert ProtocolConfig(alpha=0.25, t=0.1).alpha == complex(0.25, 0.0)
    assert type(ProtocolConfig(alpha=0.25, t=0.1).alpha) is complex
    assert ProtocolConfig(alpha=1 + 2j, t=0.1).alpha == 1 + 2j
    spec = EnsembleSpec(4, 3.0 - 4.0j)
    assert spec.epsilon == 3.0 - 4.0j and abs(spec.epsilon) == 5.0
    assert spec.alpha == 2.0 * (3.0 - 4.0j)


def test_amplitudes_must_be_finite_where_they_enter():
    for value in (float("nan"), complex(0, float("inf")), float("-inf"), "x") + HUGE_AMPLITUDES:
        with pytest.raises(ValidationError, match="alpha"):
            ProtocolConfig(alpha=value, t=0.1)
        with pytest.raises(ValidationError, match="epsilon"):
            EnsembleSpec(100, value)
        with pytest.raises(ValidationError, match="alpha"):
            coherent_state(value, 12)


def test_ensemble_alpha_must_have_a_finite_square():
    # epsilon^2 = 1e200 is finite, but alpha^2 = N epsilon^2 is not
    with pytest.raises(ValidationError, match=r"sqrt\(N\) epsilon"):
        EnsembleSpec(10**200, 1e100)
    assert EnsembleSpec(100, 1e100).alpha == pytest.approx(1e101, rel=1e-15)
    with pytest.raises(ValidationError, match="atom count"):
        EnsembleSpec(10**400, 1e-300)


def test_pure_state_norm_survives_overflowing_squares(recwarn):
    # the plain sum of squares overflows; the rescaled norm does not
    psi = PureState([3e200, 4e200j], 1)
    assert psi.norm() == pytest.approx(5e200, rel=1e-15)
    np.testing.assert_allclose(np.abs(psi.normalized().amplitudes), [0.6, 0.8], rtol=1e-15)
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
    # ordinary states keep the plain norm, bit for bit
    amp = np.array([0.3, 0.4j, 0.5])
    assert PureState(amp, 2).norm() == float(np.linalg.norm(amp))


def test_number_state_basics():
    psi = number_state(3, 5)
    assert psi.cutoff == 5
    assert psi.mode_count == 1
    probs = np.abs(psi.amplitudes) ** 2
    assert probs[3] == 1.0
    assert probs.sum() == 1.0


def test_number_state_above_cutoff():
    with pytest.raises(ValidationError):
        number_state(7, 5)


def test_coherent_amplitudes_match_closed_form():
    alpha = 0.3
    psi = coherent_state(alpha, 12)
    # c_n = alpha^n exp(-|alpha|^2/2)/sqrt(n!)
    for n in range(6):
        want = alpha ** n * math.exp(-0.5 * alpha * alpha) / math.sqrt(math.factorial(n))
        assert abs(psi.amplitudes[n] - want) < 1e-14


def test_coherent_norm_and_overlap_law():
    a = coherent_state(0.15, 12)
    b = coherent_state(0.05, 12)
    assert abs(a.norm() - 1.0) < 1e-12
    got = abs(a.overlap(b)) ** 2
    assert abs(got - math.exp(-0.1 ** 2)) < 1e-9


def test_coherent_complex_amplitude():
    alpha = 0.1 + 0.2j
    psi = coherent_state(alpha, 12)
    assert abs(psi.amplitudes[1] / psi.amplitudes[0] - alpha) < 1e-14


def test_coherent_tail_guard():
    # |alpha|^2 = 9 has heavy weight beyond n = 4
    with pytest.raises(TruncationError):
        coherent_state(3.0, 4)
    # same amplitude is fine with room to decay
    coherent_state(3.0, 40)


def _coherent_tail(alpha, cutoff, threshold=0.0):
    """The tail coherent_state computes; threshold 0 makes any nonzero tail raise."""
    try:
        coherent_state(alpha, cutoff, tail_threshold=threshold)
    except TruncationError as exc:
        return exc.tail_mass
    return None


def _mp_poisson_tail(cutoff, mu):
    """P(N > cutoff) for N ~ Poisson(mu), to 50 digits at the double mu."""
    import mpmath

    with mpmath.workdps(50):
        return mpmath.gammainc(cutoff + 1, 0, mpmath.mpf(mu), regularized=True)


def test_coherent_tail_matches_mpmath():
    # mpmath is the accuracy reference; scipy is imported here only, as a
    # second opinion and for the root finder
    from scipy.optimize import brentq
    from scipy.special import pdtrc

    alphas = [0.0, 1e-150, 1e-8, 0.3 + 0.4j, -2.5j] + list(np.geomspace(1e-4, 12.0, 60))
    seen = []
    for cutoff in (1, 2, 4, 8, 12, 20, 30, 60, 150):
        for alpha in alphas:
            mu = abs(complex(alpha)) ** 2
            ref = _mp_poisson_tail(cutoff, mu)
            got = _coherent_tail(alpha, cutoff)
            if ref < 1e-300:
                # below the tested range only underflow is allowed
                assert got is None or got <= 1e-300, (cutoff, alpha, got)
                continue
            assert got is not None, (cutoff, alpha)
            assert abs(got - ref) <= 2e-14 * ref, (cutoff, alpha, got, float(ref))
            if ref <= 1e-3:
                assert abs(got - pdtrc(cutoff, mu)) <= 3e-13 * ref, (cutoff, alpha)
            seen.append(float(ref))
    assert min(seen) < 1e-250 and max(seen) > 0.99  # the grid spans 1e-300..1

    # either side of TAIL_THRESHOLD at the default threshold
    for cutoff in (4, 12, 30):
        mu_star = brentq(
            lambda m: float(_mp_poisson_tail(cutoff, m)) - TAIL_THRESHOLD, 1e-6, 50.0, xtol=1e-15
        )
        for mu in (mu_star * (1 - 1e-9), mu_star * (1 + 1e-9)):
            got = _coherent_tail(math.sqrt(mu), cutoff, TAIL_THRESHOLD)
            assert (got is not None) == (_mp_poisson_tail(cutoff, mu) > TAIL_THRESHOLD)


def test_coherent_tail_past_exp_underflow():
    # exp(-mu) is below the normal doubles, so the pmf comes from summed logs;
    # that path holds about 1e-16 * mu relative, not the 2e-14 above
    for cutoff, mu in ((1000, 800.0), (750, 720.0), (2000, 1500.0)):
        ref = _mp_poisson_tail(cutoff, mu)
        got = _coherent_tail(math.sqrt(mu), cutoff)
        assert abs(got - ref) <= 1e-11 * ref, (cutoff, mu)


def test_pure_state_is_immutable_and_validates():
    psi = number_state(0, 3)
    with pytest.raises(AttributeError):
        psi.cutoff = 7
    with pytest.raises(ValidationError):
        PureState(np.zeros(4, dtype=np.complex128), 3)
    with pytest.raises(ShapeError):
        PureState(np.ones(5, dtype=np.complex128), 3)


def test_pure_state_normalized():
    raw = PureState(np.array([3.0, 4.0], dtype=np.complex128), 1)
    assert abs(raw.norm() - 5.0) < 1e-12
    unit = raw.normalized()
    assert abs(unit.norm() - 1.0) < 1e-15
    assert abs(unit.amplitudes[0] - 0.6) < 1e-15


def test_density_operator_validation():
    v = coherent_state(0.2, 6).amplitudes
    good = DensityOperator(np.outer(v, v.conj()), 6)
    assert abs(good.trace() - 1.0) < 1e-12
    assert good.mode_count == 1
    bad = np.zeros((7, 7), dtype=np.complex128)
    bad[0, 1] = 1.0  # not Hermitian
    with pytest.raises(ValidationError):
        DensityOperator(bad, 6)
    neg = np.diag([1.5, -0.5] + [0.0] * 5).astype(np.complex128)
    with pytest.raises(ValidationError):
        DensityOperator(neg, 6)


def test_fidelity_pure_pure():
    a = coherent_state(0.1, 12)
    b = coherent_state(0.1, 12)
    assert abs(fidelity(a, b) - 1.0) < 1e-12
    c = number_state(1, 12)
    v = number_state(0, 12)
    assert fidelity(c, v) == 0.0


def test_fidelity_mixed_pure():
    rho = DensityOperator(np.diag([0.5, 0.5, 0.0, 0.0, 0.0]), 4)
    assert abs(fidelity(rho, number_state(0, 4)) - 0.5) < 1e-12


def test_fidelity_normalizes_and_clamps():
    a = PureState(np.array([2.0, 0.0], dtype=np.complex128), 1)
    b = PureState(np.array([1.0, 0.0], dtype=np.complex128), 1)
    f = fidelity(a, b)
    assert abs(f - 1.0) < 1e-12
    assert 0.0 <= f <= 1.0


def test_fidelity_rejects_zero_state():
    a = number_state(0, 2)
    with pytest.raises(ValidationError):
        fidelity(a, PureState(np.array([1e-320, 0.0, 0.0], dtype=np.complex128), 2))
