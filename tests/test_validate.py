from hal import optics_ops
from hal.optics_ops import herald_click
from hal.validate import dense_bs_matrix, run_checks

EXPECTED = {
    "herald_oracle_truncated",
    "herald_oracle_coherent",
    "herald_row_oracle",
    "herald_leakage_oracle",
    "herald_hom_null",
    "coherent_overlap_law",
    "two_atom_dicke_expansion",
    "povm_completeness",
    "herald_probability_consistency",
    "cutoff_insensitivity",
    "quadrature_convention",
    "gain_law",
}

# the checks that compare the injected closed form's state with the oracle's
ORACLE_CHECKS = {"herald_oracle_truncated", "herald_oracle_coherent", "herald_row_oracle"}


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


def _failed(closed_form=None):
    return {r.name for r in run_checks(closed_form) if not r.passed}


def test_faulted_closed_forms_are_caught(monkeypatch):
    # t's sign flipped: the conjugate convention. Every probability and
    # magnitude is intact, and only the phase-sensitive oracle checks see it.
    def flipped(alpha, tail, t, *rest):
        return herald_click(alpha, tail, -t, *rest)

    assert _failed(flipped) == ORACLE_CHECKS

    # mode B read without swapping u with v and t with r: mode A's formula
    def unswapped(*args):
        return herald_click(*args[:-1], "A")

    assert _failed(unswapped) == ORACLE_CHECKS

    # every prefix sum read one entry short, in run_exact's closed form too;
    # the one-click row reads no prefix sum
    prefix = optics_ops._prefix
    monkeypatch.setattr(optics_ops, "_prefix", lambda terms, index: prefix(terms, index - 1))
    assert _failed() == {
        "herald_oracle_truncated",
        "herald_oracle_coherent",
        "povm_completeness",
        "herald_probability_consistency",
    }


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
