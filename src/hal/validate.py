"""Independent oracle suite for the main numerical paths.

Every check here recomputes its reference value through a route that shares
no code with the implementation under test: the beam splitter against a
dense matrix exponential of the full two-mode generator (a Taylor series
with scaling and squaring, not the closed-form images or sector blocks of
optics_ops), state overlaps against closed-form laws, the collective-spin
expansion against an explicit two-atom tensor product. Checks that involve applying a beam
splitter accept an injectable apply function so a deliberately faulted
variant can be probed; all comparisons except the composition check are
magnitude-level and convention-independent, while the composition check
(oracle inverse after implementation forward) pins the documented sign
convention itself. The suite needs numpy only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from .fock_core import PureState, coherent_state, number_state, tensor_product
from .metrology import quadrature_pdf
from .optics_ops import BeamSplitter, HeraldModel, apply_beam_splitter, herald_operator
from .protocol import ProtocolConfig, run_exact
from .spin_ensemble import EnsembleSpec, rotated_product_state

ApplyFn = Callable[..., PureState]

_BS_CUTOFF = 6
_BS_T = 0.3


@dataclass(frozen=True)
class CheckResult:
    """One oracle comparison: measured deviation against its tolerance."""

    name: str
    measured: float
    tolerance: float
    passed: bool


def _check(name: str, measured: float, tolerance: float) -> CheckResult:
    return CheckResult(name, float(measured), tolerance, bool(measured <= tolerance))


def _dense_ladder(cutoff: int) -> np.ndarray:
    a = np.zeros((cutoff + 1, cutoff + 1))
    n = np.arange(1, cutoff + 1)
    a[n - 1, n] = np.sqrt(n)
    return a


def _expm(a: np.ndarray) -> np.ndarray:
    """exp(a) of a real matrix by scaling and squaring (Moler & Van Loan,
    SIAM Rev. 45, 2003): halve a until its 1-norm is at most 1/2, sum the
    Taylor series until no entry of the last term reaches 2^-53 (with that
    norm, the rest of the series is smaller still), then square back.
    """
    norm = float(np.max(np.sum(np.abs(a), axis=0), initial=0.0))
    squarings = max(0, math.ceil(math.log2(norm / 0.5))) if norm > 0.0 else 0
    x = a / 2.0**squarings
    result = term = np.eye(a.shape[0])
    k = 0
    while np.max(np.abs(term)) > 2.0**-53:
        k += 1
        term = term @ x / k
        result = result + term
    for _ in range(squarings):
        result = result @ result
    return result


def dense_bs_matrix(cutoff: int, t: float) -> np.ndarray:
    """Oracle beam splitter: the exponential of the full two-mode generator.

    Built on the kron-product space with no sector decomposition, and
    exponentiated by a Taylor series with scaling and squaring rather than
    the pipeline's binomial images and sector blocks, so it shares nothing
    with the implementation beyond the documented convention
    a -> ra + tb, b -> -ta + rb.
    """
    a = _dense_ladder(cutoff)
    eye = np.eye(cutoff + 1)
    big_a = np.kron(a, eye)
    big_b = np.kron(eye, a)
    gen = big_a.T @ big_b - big_b.T @ big_a
    return _expm(math.asin(t) * gen)


def _total_occupation(cutoff: int) -> np.ndarray:
    n = np.arange(cutoff + 1)
    return (n[:, None] + n[None, :]).reshape(-1)


def _impl_matrix(bs_apply: ApplyFn, cutoff: int, t: float) -> np.ndarray:
    """Column-by-column image of the injectable apply function.

    Only columns with total occupation <= cutoff are populated; the rest
    would leak probability out of the truncated space by construction and
    are excluded from every comparison.
    """
    dim = (cutoff + 1) ** 2
    bs = BeamSplitter(t)
    out = np.zeros((dim, dim), dtype=np.complex128)
    totals = _total_occupation(cutoff)
    for j in range(dim):
        if totals[j] > cutoff:
            continue
        basis = np.zeros(dim, dtype=np.complex128)
        basis[j] = 1.0
        out[:, j] = bs_apply(PureState(basis, cutoff, 2), bs).amplitudes
    return out


def run_checks(bs_apply: Optional[ApplyFn] = None) -> List[CheckResult]:
    """Run every oracle comparison; the returned list drives the CLI table."""
    if bs_apply is None:
        bs_apply = apply_beam_splitter
    checks: List[CheckResult] = []
    cutoff = _BS_CUTOFF
    keep = _total_occupation(cutoff) <= cutoff
    w_impl = _impl_matrix(bs_apply, cutoff, _BS_T)[np.ix_(keep, keep)]
    w_oracle = dense_bs_matrix(cutoff, _BS_T)[np.ix_(keep, keep)]

    # Unitarity on the full sectors: columns orthonormal.
    gram = w_impl.conj().T @ w_impl
    checks.append(
        _check("bs_unitarity", np.max(np.abs(gram - np.eye(gram.shape[0]))), 1e-10)
    )

    # Number conservation: no amplitude crosses total-occupation sectors.
    totals = _total_occupation(cutoff)[keep]
    cross = np.abs(w_impl)[totals[:, None] != totals[None, :]]
    checks.append(_check("bs_number_conservation", float(np.max(cross)), 1e-10))

    # Elementwise magnitudes against the dense oracle (convention-blind).
    checks.append(
        _check(
            "bs_dense_oracle_magnitudes",
            float(np.max(np.abs(np.abs(w_impl) - np.abs(w_oracle)))),
            1e-10,
        )
    )

    # Hong-Ou-Mandel null: |1,1> on a balanced splitter never exits as |1,1>.
    balanced = BeamSplitter(math.sqrt(0.5))
    psi_hom = tensor_product(number_state(1, cutoff), number_state(1, cutoff))
    out_hom = bs_apply(psi_hom, balanced)
    idx_11 = psi_hom.index(1, 1)
    checks.append(_check("bs_hom_null", abs(out_hom.amplitudes[idx_11]), 1e-12))

    # Composition: oracle inverse undoes the implementation forward. This is
    # the one sign-sensitive check; a flipped convention passes everything
    # above but lands on the wrong state here.
    probe = np.zeros((cutoff + 1) ** 2, dtype=np.complex128)
    for m, n, amp in ((0, 1, 1.0), (1, 0, 0.8), (1, 1, 0.6j), (2, 1, 0.4), (0, 3, 0.2)):
        probe[m * (cutoff + 1) + n] = amp
    probe /= np.linalg.norm(probe)
    forward = bs_apply(PureState(probe, cutoff, 2), BeamSplitter(_BS_T)).amplitudes
    round_trip = dense_bs_matrix(cutoff, _BS_T).T @ forward
    checks.append(
        _check("bs_composition_with_oracle", float(np.max(np.abs(round_trip - probe))), 1e-10)
    )

    # Coherent overlap law |<beta|alpha>|^2 = exp(-|alpha-beta|^2).
    dev = 0.0
    for alpha, beta in ((0.1, 0.0), (0.15, 0.05), (0.2, -0.1)):
        got = abs(coherent_state(alpha, 12).overlap(coherent_state(beta, 12))) ** 2
        dev = max(dev, abs(got - math.exp(-abs(alpha - beta) ** 2)))
    checks.append(_check("coherent_overlap_law", dev, 1e-9))

    # Two-atom collective expansion against the explicit tensor product.
    eps = 0.3
    single = np.array([1.0, eps]) / math.sqrt(1.0 + eps * eps)
    pair = np.kron(single, single)
    sym = np.array([pair[0], (pair[1] + pair[2]) / math.sqrt(2.0), pair[3]])
    dicke = rotated_product_state(EnsembleSpec(2, eps), k_max=2)
    checks.append(
        _check("two_atom_dicke_expansion", float(np.max(np.abs(dicke.amplitudes - sym))), 1e-12)
    )

    # POVM completeness: click and no-click probabilities sum to one on a
    # genuinely mixed protocol output state, taken as its p1-weighted pure
    # branches.
    config = ProtocolConfig(alpha=0.02, t=0.2, source_efficiency=0.9)
    branches = _protocol_output_branches(config)
    dev = 0.0
    for resolving in (True, False):
        model = HeraldModel(read_efficiency=0.6, dark_count=1e-3, resolving=resolving)
        w = model.click_weights(config.cutoff)
        total = 0.0
        for weight, psi in branches:
            amp = psi.as_two_mode_matrix()
            for outcome in (w, 1.0 - w):
                total += weight * float(np.trace(herald_operator(amp, outcome, model.mode)).real)
        dev = max(dev, abs(total - 1.0))
        dev = max(dev, float(np.max(np.maximum(-w, w - 1.0), initial=0.0)))
    checks.append(_check("povm_completeness", dev, 1e-10))

    # Herald probability against an all-dense independent pipeline.
    herald = HeraldModel(read_efficiency=0.6, dark_count=1e-4)
    lossy = ProtocolConfig(alpha=0.01, t=0.1, source_efficiency=0.97, herald=herald)
    p_impl = run_exact(lossy).success_probability
    checks.append(
        _check(
            "herald_probability_consistency",
            abs(p_impl - _oracle_click_probability(lossy)),
            1e-12,
        )
    )

    # Truncation insensitivity of the working point.
    p4 = run_exact(ProtocolConfig(alpha=0.01, t=0.1, cutoff=4, input_kind="coherent"))
    p12 = run_exact(ProtocolConfig(alpha=0.01, t=0.1, cutoff=12, input_kind="coherent"))
    checks.append(
        _check(
            "cutoff_insensitivity",
            abs(p4.success_probability - p12.success_probability),
            1e-10,
        )
    )

    # Quadrature convention: coherent mean sqrt(2) Re(alpha), vacuum var 1/2.
    pdf_c = quadrature_pdf(coherent_state(0.1, 12))
    pdf_v = quadrature_pdf(number_state(0, 12))
    dev = max(
        abs(pdf_c.mean() - math.sqrt(2.0) * 0.1),
        abs(pdf_v.variance() - 0.5),
    )
    checks.append(_check("quadrature_convention", dev, 1e-6))

    # Amplified-gain law gain*t = 1 - 2t^2 at the documented working point.
    res = run_exact(ProtocolConfig(alpha=0.02, t=0.2))
    checks.append(
        _check("gain_law", abs(res.gain * 0.2 - (1.0 - 2.0 * 0.2 ** 2)), 1e-9)
    )

    return checks


def _protocol_output_branches(config: ProtocolConfig) -> List[Tuple[float, PureState]]:
    """Post-splitter (weight, two-mode state) branches, before any heralding.

    The imperfect source is |1> with weight p1 and |0> with weight 1 - p1.
    """
    amp = np.zeros(config.cutoff + 1, dtype=np.complex128)
    amp[0] = 1.0
    amp[1] = config.alpha.as_complex()
    signal = PureState(amp, config.cutoff, 1).normalized()
    p1 = config.source_efficiency
    bs = BeamSplitter(config.t)
    return [
        (weight, apply_beam_splitter(tensor_product(signal, number_state(k, config.cutoff)), bs))
        for weight, k in ((p1, 1), (1.0 - p1, 0))
    ]


def _oracle_click_probability(config: ProtocolConfig) -> float:
    """Success probability through a dense kron pipeline, POVM from scratch."""
    cutoff = config.cutoff
    dim = cutoff + 1
    amp = np.zeros(dim, dtype=np.complex128)
    amp[0] = 1.0
    amp[1] = config.alpha.as_complex()
    amp /= np.linalg.norm(amp)
    sig = np.outer(amp, amp.conj())
    src = np.zeros((dim, dim))
    src[1, 1] = config.source_efficiency
    src[0, 0] = 1.0 - config.source_efficiency
    u = dense_bs_matrix(cutoff, config.t)
    rho = u @ np.kron(sig, src) @ u.conj().T
    # occupation distribution of mode A: sum the joint diagonal over mode B
    p_read = np.real(np.diag(rho)).reshape(dim, dim).sum(axis=1)
    eta, pd = config.herald.read_efficiency, config.herald.dark_count
    n = np.arange(dim, dtype=float)
    if config.herald.resolving:
        w = (1.0 - pd) * n * eta * (1.0 - eta) ** np.maximum(n - 1, 0.0) + pd * (1.0 - eta) ** n
        w[0] = pd
    else:
        w = 1.0 - (1.0 - pd) * (1.0 - eta) ** n
    return float(np.dot(w, p_read))
