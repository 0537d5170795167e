from hal.fock_core import PureState
from hal.optics_ops import apply_beam_splitter
from hal.validate import dense_bs_matrix, run_checks

EXPECTED = {
    "bs_unitarity",
    "bs_number_conservation",
    "bs_dense_oracle_magnitudes",
    "bs_hom_null",
    "bs_composition_with_oracle",
    "coherent_overlap_law",
    "two_atom_dicke_expansion",
    "povm_completeness",
    "herald_probability_consistency",
    "cutoff_insensitivity",
    "quadrature_convention",
    "gain_law",
}


def test_fresh_suite_passes():
    results = run_checks()
    assert {r.name for r in results} == EXPECTED
    for r in results:
        assert r.passed, f"{r.name}: {r.measured:.3e} > {r.tolerance:.1e}"
        assert r.measured <= r.tolerance


def test_dense_oracle_is_unitary():
    import numpy as np

    u = dense_bs_matrix(5, 0.4)
    assert np.max(np.abs(u @ u.conj().T - np.eye(u.shape[0]))) < 1e-12


def _swap_modes(state):
    return PureState(state.as_two_mode_matrix().T, state.cutoff, 2)


def test_sign_flip_caught_only_by_composition():
    # a beam splitter with the conjugate convention keeps every magnitude
    # intact; only the oracle round-trip composition check can see it.
    # Swapping the modes around the splitter gives exactly that convention.
    def flipped(state, bs):
        return _swap_modes(apply_beam_splitter(_swap_modes(state), bs))

    results = {r.name: r for r in run_checks(bs_apply=flipped)}
    assert not results["bs_composition_with_oracle"].passed
    for name in EXPECTED - {"bs_composition_with_oracle"}:
        assert results[name].passed, name


def test_dense_oracle_matches_scipy_expm():
    # scipy is imported here only, as a reference for the oracle's own
    # scaling-and-squaring exponential
    import math

    import numpy as np
    from scipy.linalg import expm

    from hal.validate import _dense_ladder

    for cutoff in range(1, 9):
        a = _dense_ladder(cutoff)
        eye = np.eye(cutoff + 1)
        big_a, big_b = np.kron(a, eye), np.kron(eye, a)
        gen = big_a.T @ big_b - big_b.T @ big_a
        for t in (0.1, 0.3, 0.5, 0.9):
            ref = expm(math.asin(t) * gen)
            assert np.max(np.abs(dense_bs_matrix(cutoff, t) - ref)) <= 1e-13, (cutoff, t)
