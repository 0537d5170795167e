import math

import numpy as np
import pytest

from hal.errors import ShapeError, TruncationError, ValidationError
from hal.fock_core import TAIL_THRESHOLD, coherent_state, fidelity
from hal.spin_ensemble import (
    DickeState,
    EnsembleSpec,
    collective_expectations,
    embed_as_fock,
    oscillator_approximation,
    rotated_product_state,
)

# reference values computed once with the dense oracles below and the exact
# binomial overlap sum
FID_N100_A01 = 0.999999998718713
FID_N10000_A01 = 0.999999999999873


def test_spec_validation_and_alpha():
    spec = EnsembleSpec(10000, 0.001)
    assert abs(spec.alpha.real - 0.1) < 1e-15
    assert spec.alpha.imag == 0.0
    with pytest.raises(ValidationError):
        EnsembleSpec(0, 0.1)


def test_two_atom_expansion_matches_tensor_product():
    eps = 0.3
    single = np.array([1.0, eps]) / math.sqrt(1.0 + eps * eps)
    pair = np.kron(single, single)
    sym = np.array([pair[0], (pair[1] + pair[2]) / math.sqrt(2.0), pair[3]])
    state = rotated_product_state(EnsembleSpec(2, eps), k_max=2)
    assert np.max(np.abs(state.amplitudes - sym)) < 1e-14


def test_binomial_coefficients_small_n():
    eps = 0.2
    n = 5
    state = rotated_product_state(EnsembleSpec(n, eps), k_max=5)
    norm = (1.0 + eps * eps) ** (n / 2.0)
    for k in range(6):
        want = math.sqrt(math.comb(n, k)) * eps ** k / norm
        assert abs(state.amplitudes[k] - want) < 1e-14


def test_large_n_log_domain():
    # N = 1e9 at alpha ~ 0.1 must not overflow; c1/c0 = sqrt(N) eps
    n = 10 ** 9
    eps = 0.1 / math.sqrt(n)
    state = rotated_product_state(EnsembleSpec(n, eps), k_max=12)
    assert abs(np.linalg.norm(state.amplitudes) - 1.0) < 1e-12
    ratio = state.amplitudes[1] / state.amplitudes[0]
    assert abs(ratio - 0.1) < 1e-9


def test_tail_guard():
    with pytest.raises(TruncationError):
        rotated_product_state(EnsembleSpec(50, 0.3), k_max=5)
    state = rotated_product_state(EnsembleSpec(50, 0.3), k_max=30)
    assert state.tail_mass < 1e-10


def _dicke_tail(spec, k_max):
    """The tail rotated_product_state computes: its state's tail_mass, or
    its TruncationError's past TAIL_THRESHOLD."""
    try:
        return rotated_product_state(spec, k_max=k_max).tail_mass
    except TruncationError as exc:
        assert exc.tail_mass > exc.threshold == TAIL_THRESHOLD
        return exc.tail_mass


def _mp_binom_tail(n, eps, k_max):
    """P(K > k_max) for K ~ Binomial(N, r^2 / (1 + r^2)), r = |eps|, to 50
    digits at the double r."""
    import mpmath

    if k_max >= n:
        return mpmath.mpf(0)
    with mpmath.workdps(50):
        r2 = mpmath.mpf(abs(complex(eps))) ** 2
        return mpmath.betainc(k_max + 1, n - k_max, 0, r2 / (1 + r2), regularized=True)


def test_dicke_tail_matches_mpmath():
    # mpmath is the accuracy reference; scipy is imported here only, as a
    # second opinion and for the root finder
    from scipy.optimize import brentq
    from scipy.special import betainc

    seen = []
    for n in (2, 1000, 10**6, 10**9):
        # k_max = N keeps the full state in memory, so only for the small N
        k_maxes = {1, 2, 12, 40} | ({n - 1, n} if n <= 1000 else set())
        for k_max in sorted(k for k in k_maxes if 1 <= k <= n):
            # alpha = 2 at N = 1e9, k_max = 2 is a tail of 0.762, where
            # betainc is off by 4.3e-9 relative
            for alpha in (0.0, 1e-6, 1e-3, 0.05, 0.3, 1.0, 2.0, 3.0):
                eps = alpha / math.sqrt(n)
                for e in (eps, -eps, 1j * eps):
                    ref = _mp_binom_tail(n, e, k_max)
                    got = _dicke_tail(EnsembleSpec(n, e), k_max)
                    if ref < 1e-300:
                        assert 0.0 <= got <= 1e-300, (n, k_max, e, got)
                        continue
                    assert abs(got - ref) <= 2e-14 * ref, (n, k_max, e, got, float(ref))
                    if ref <= 1e-3:
                        r = abs(e)
                        q = r * r / (1.0 + r * r)
                        assert abs(got - betainc(k_max + 1, n - k_max, q)) <= 3e-13 * ref
                    seen.append(float(ref))
    assert min(seen) < 1e-250 and max(seen) > 0.99  # the grid spans 1e-300..1

    # either side of TAIL_THRESHOLD
    for n, k_max in ((1000, 12), (10**9, 12), (10**6, 20)):
        a_star = brentq(
            lambda a: float(_mp_binom_tail(n, a / math.sqrt(n), k_max)) - TAIL_THRESHOLD,
            1e-3, 10.0, xtol=1e-15,
        )
        for a in (a_star * (1 - 1e-9), a_star * (1 + 1e-9)):
            eps = a / math.sqrt(n)
            got = _dicke_tail(EnsembleSpec(n, eps), k_max)
            expected = _mp_binom_tail(n, eps, k_max)
            assert abs(got - expected) <= 2e-14 * expected
            assert (got > TAIL_THRESHOLD) == (expected > TAIL_THRESHOLD)


def test_dicke_tail_past_exp_underflow():
    # (1 - q)^N is below the normal doubles, so the pmf comes from summed
    # logs; that path holds about 1e-16 * N |log(1 - q)| relative
    for n, k_max, eps in ((1000, 999, 2.0), (1000, 990, 2.0), (1000, 900, 3.0)):
        ref = _mp_binom_tail(n, eps, k_max)
        got = _dicke_tail(EnsembleSpec(n, eps), k_max)
        assert abs(got - ref) <= 1e-11 * ref, (n, k_max, eps)


def test_epsilon_zero_is_ground():
    state = rotated_product_state(EnsembleSpec(100, 0.0), k_max=4)
    assert state.amplitudes[0] == 1.0
    assert np.all(state.amplitudes[1:] == 0.0)
    ex = collective_expectations(state)
    assert abs(ex.var_x - 0.5) < 1e-12
    assert abs(ex.var_p - 0.5) < 1e-12
    assert ex.commutator_deviation < 1e-15


def _dense_collective(n, coeffs):
    """Expectations via explicit n-qubit operators (independent oracle)."""
    sx = 0.5 * np.diag([1.0, -1.0]).astype(complex)
    sy = 0.5 * np.array([[0, 1], [1, 0]], dtype=complex)
    sz = 0.5 * np.array([[0, -1j], [1j, 0]], dtype=complex)

    def collective(op):
        total = np.zeros((2 ** n, 2 ** n), dtype=complex)
        for i in range(n):
            factors = [np.eye(2, dtype=complex)] * n
            factors[i] = op
            term = factors[0]
            for f in factors[1:]:
                term = np.kron(term, f)
            total += term
        return total

    jx, jy, jz = collective(sx), collective(sy), collective(sz)
    # symmetric k-excitation basis vectors
    basis = np.zeros((2 ** n, n + 1), dtype=complex)
    for idx in range(2 ** n):
        k = bin(idx).count("1")
        basis[idx, k] = 1.0
    basis /= np.linalg.norm(basis, axis=0)
    psi = basis @ np.asarray(coeffs, dtype=complex)

    def ev(op):
        return complex(np.vdot(psi, op @ psi))

    half = n / 2.0
    return {
        "jx": ev(jx).real,
        "jy": ev(jy).real,
        "jz": ev(jz).real,
        "var_x": (ev(jy @ jy).real - ev(jy).real ** 2) / half,
        "var_p": (ev(jz @ jz).real - ev(jz).real ** 2) / half,
        "comm": 1j * ev(jx) / half,
    }


def test_expectations_against_dense_three_qubit_oracle():
    coeffs = np.array([0.8, 0.5, 0.3j, 0.1], dtype=complex)
    coeffs /= np.linalg.norm(coeffs)
    state = DickeState(coeffs, N=3)
    got = collective_expectations(state)
    want = _dense_collective(3, coeffs)
    assert abs(got.jx - want["jx"]) < 1e-12
    assert abs(got.jy - want["jy"]) < 1e-12
    assert abs(got.jz - want["jz"]) < 1e-12
    assert abs(got.var_x - want["var_x"]) < 1e-12
    assert abs(got.var_p - want["var_p"]) < 1e-12
    assert abs(got.commutator_xp - want["comm"]) < 1e-12


def test_rotated_state_expectations_against_oracle():
    eps = 0.25
    state = rotated_product_state(EnsembleSpec(3, eps), k_max=3)
    got = collective_expectations(state)
    want = _dense_collective(3, state.amplitudes)
    assert abs(got.jy - want["jy"]) < 1e-12
    assert abs(got.var_x - want["var_x"]) < 1e-12


def test_expectations_match_mpmath():
    # the same amplitudes through the ladder elements at 50 digits
    import mpmath

    state = rotated_product_state(EnsembleSpec(1000, 0.05 * np.exp(0.3j)), k_max=40)
    got = collective_expectations(state)
    with mpmath.workdps(50):
        n = mpmath.mpf(1000)
        c = [mpmath.mpc(complex(a)) for a in state.amplitudes] + [mpmath.mpc(0)]
        lower = [mpmath.sqrt((k + 1) * (n - k)) for k in range(len(c) - 1)]
        minus = [mpmath.mpc(0)] + [l * a for l, a in zip(lower, c[:-1])]
        plus = [l * a for l, a in zip(lower, c[1:])] + [mpmath.mpc(0)]
        yv = [(p + m) / 2 for p, m in zip(plus, minus)]
        zv = [(p - m) / 2j for p, m in zip(plus, minus)]

        def dot(a, b):
            return mpmath.fsum(mpmath.conj(x) * y for x, y in zip(a, b)).real

        jx = mpmath.fsum((n / 2 - k) * abs(a) ** 2 for k, a in enumerate(c))
        jy, jz = dot(c, yv), dot(c, zv)
        want = {
            "jx": jx,
            "jy": jy,
            "jz": jz,
            "var_x": (dot(yv, yv) - jy**2) / (n / 2),
            "var_p": (dot(zv, zv) - jz**2) / (n / 2),
        }
    for name, ref in want.items():
        assert abs(getattr(got, name) - float(ref)) <= 1e-14 * abs(float(ref)), name


def test_expectations_memory_is_linear_in_k_max():
    # J+ and J- are tridiagonal; a dense (k_max+2)^2 matrix would take 256 MB here
    import tracemalloc

    state = rotated_product_state(EnsembleSpec(10**6, 0.001), k_max=4000)
    tracemalloc.start()
    try:
        collective_expectations(state)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_commutator_deviation_closed_form():
    # deviation = 2<k>/N = 2 eps^2/(1+eps^2) for the rotated product state
    spec = EnsembleSpec(10 ** 4, 0.001)
    state = rotated_product_state(spec)
    dev = collective_expectations(state).commutator_deviation
    q = 0.001 ** 2 / (1.0 + 0.001 ** 2)
    assert abs(dev - 2.0 * q) < 1e-12
    assert dev < 1e-3


def test_oscillator_fidelity_frozen_values():
    for n, want in ((100, FID_N100_A01), (10 ** 4, FID_N10000_A01)):
        spec = EnsembleSpec(n, 0.1 / math.sqrt(n))
        state = rotated_product_state(spec)
        fid = fidelity(embed_as_fock(state, 12), oscillator_approximation(spec, 12))
        assert abs(fid - want) < 1e-12
        assert fid >= 0.999


def test_oscillator_approximation_is_coherent():
    spec = EnsembleSpec(400, 0.005)
    psi = oscillator_approximation(spec, 12)
    want = coherent_state(0.1, 12)
    assert np.max(np.abs(psi.amplitudes - want.amplitudes)) < 1e-14


def test_embed_as_fock_layout():
    state = rotated_product_state(EnsembleSpec(10, 0.05), k_max=4)
    psi = embed_as_fock(state, 8)
    assert psi.cutoff == 8
    assert np.max(np.abs(psi.amplitudes[:5] - state.amplitudes)) == 0.0
    assert np.all(psi.amplitudes[5:] == 0.0)
    with pytest.raises(ShapeError):
        embed_as_fock(state, 3)


def test_dicke_state_requires_normalization():
    with pytest.raises(ValidationError):
        DickeState(np.array([0.5, 0.5], dtype=complex), N=4)
