"""Independent oracle suite for the main numerical paths.

Every check here recomputes its reference value through a route that shares
no code with the implementation under test: the heralded state against a
dense kron-space pipeline (the beam splitter as the exponential of the full
two-mode generator, by a Taylor series with scaling and squaring, and the
detector's click weights and partial trace written out from scratch), state
overlaps against closed-form laws, the collective-spin expansion against an
explicit two-atom tensor product. The checks of the heralded state take an
injectable closed form, so a deliberately faulted variant can be probed.
They compare complex conditional states and amplitudes, which pins the
documented sign convention as well as every magnitude. The suite needs
numpy only.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .fock_core import _coherent_tail, coherent_state, number_state
from .metrology import quadrature_pdf
from .optics_ops import HeraldModel, herald_click, support_size
from .protocol import ProtocolConfig, run_exact
from .spin_ensemble import EnsembleSpec, rotated_product_state

#: herald_click's signature: (alpha, tail, t, cutoff, coherent, p1, weights,
#: mode) -> (rho, row, leakage), with a leading batch axis on alpha, tail, t,
#: p1, weights and the results, and the states on the signal's support.
ClosedForm = Callable[..., Tuple[np.ndarray, np.ndarray, np.ndarray]]

# The oracle's splitter is dense_bs_matrix(2 * _HERALD_CUTOFF, _HERALD_T),
# a 169 x 169 matrix; _HERALD_ALPHA's coherent tail past the cutoff is 2e-12.
_HERALD_CUTOFF = 6
_HERALD_T = 0.3
_HERALD_ALPHA = 0.25 - 0.1j


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
    exponentiated by a Taylor series with scaling and squaring, so it shares
    nothing with the pipeline's closed form beyond the documented convention
    a -> ra + tb, b -> -ta + rb.
    """
    a = _dense_ladder(cutoff)
    eye = np.eye(cutoff + 1)
    big_a = np.kron(a, eye)
    big_b = np.kron(eye, a)
    gen = big_a.T @ big_b - big_b.T @ big_a
    return _expm(math.asin(t) * gen)


def _oracle_branches(
    alpha: complex, coherent: bool, cutoff: int, u: np.ndarray
) -> List[np.ndarray]:
    """The photon and vacuum branches after the splitter, as (m, n) amplitude
    matrices on occupations 0..2 cutoff.

    u is dense_bs_matrix(2 cutoff, t), exact on every sector an input with
    both occupations <= cutoff reaches, so the entries past `cutoff` are the
    ones the truncated protocol drops.
    """
    big = 2 * cutoff + 1
    sig = np.zeros(big, dtype=np.complex128)
    if coherent:
        sig[: cutoff + 1] = [alpha**k / math.sqrt(math.factorial(k)) for k in range(cutoff + 1)]
    else:
        sig[0], sig[1] = 1.0, alpha
    sig /= np.linalg.norm(sig)
    return [(u @ np.kron(sig, np.eye(big)[photons])).reshape(big, big) for photons in (1, 0)]


def _oracle_herald(
    branches: Sequence[np.ndarray], cutoff: int, p1: float, herald: HeraldModel
) -> Tuple[np.ndarray, np.ndarray, float]:
    """herald_click's (rho, row, leakage) from the dense branches, with the
    click weights and the partial trace over the read mode written out."""
    eta, pd = herald.read_efficiency, herald.dark_count
    n = np.arange(cutoff + 1, dtype=float)
    if herald.resolving:
        w = (1.0 - pd) * n * eta * (1.0 - eta) ** np.maximum(n - 1.0, 0.0) + pd * (1.0 - eta) ** n
        w[0] = pd
    else:
        w = 1.0 - (1.0 - pd) * (1.0 - eta) ** n
    # inside the cutoff, read mode first
    boxes = [psi[: cutoff + 1, : cutoff + 1] for psi in branches]
    boxes = boxes if herald.mode == "A" else [box.T for box in boxes]
    rho = sum(
        weight * np.einsum("j,ja,jb->ab", w, box, box.conj())
        for weight, box in zip((p1, 1.0 - p1), boxes)
    )
    outside = np.ones(branches[0].shape, dtype=bool)
    outside[: cutoff + 1, : cutoff + 1] = False
    leakage = p1 * float(np.sum(np.abs(branches[0][outside]) ** 2))
    return rho, boxes[0][1], leakage


def _heralds(
    closed_form: ClosedForm,
    alpha: complex,
    t: float,
    cutoff: int,
    coherent: bool,
    p1: float,
    weights: Sequence[np.ndarray],
    mode: str,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """closed_form on one batch, a point per entry of weights (click weights
    on occupations 0..cutoff): the (cutoff+1)^2 conditional states and the
    one-click rows, zero past the support, and the leakages."""
    d = support_size(cutoff, coherent)
    n = len(weights)
    rho, row, leakage = closed_form(
        np.full(n, alpha, dtype=np.complex128),
        np.full(n, _coherent_tail(alpha, cutoff) if coherent else 0.0),
        np.full(n, t),
        cutoff,
        coherent,
        np.full(n, p1),
        np.array([w[:d] for w in weights]),
        mode,
    )
    full_rho = np.zeros((n, cutoff + 1, cutoff + 1), dtype=np.complex128)
    full_rho[:, :d, :d] = rho
    full_row = np.zeros((n, cutoff + 1), dtype=np.complex128)
    full_row[:, :d] = row
    return full_rho, full_row, leakage


def run_checks(closed_form: Optional[ClosedForm] = None) -> List[CheckResult]:
    """Run every oracle comparison; the returned list drives the CLI table."""
    if closed_form is None:
        closed_form = herald_click
    checks: List[CheckResult] = []
    cutoff, t, alpha = _HERALD_CUTOFF, _HERALD_T, _HERALD_ALPHA
    u = dense_bs_matrix(2 * cutoff, t)

    # The heralded state against the dense oracle: the complex conditional
    # state, phases included, of a p1 = 0.9 source for both inputs, both read
    # modes and both detector kinds; the one-click row of the photon branch;
    # and the leakage against the probability the oracle puts past the cutoff.
    rho_dev = {False: 0.0, True: 0.0}
    row_dev = leak_dev = 0.0
    for coherent in (False, True):
        branches = _oracle_branches(alpha, coherent, cutoff, u)
        for mode in "AB":
            # both detector kinds as one batch
            heralds = [HeraldModel(0.7, 1e-3, mode, resolving) for resolving in (True, False)]
            got = _heralds(
                closed_form, alpha, t, cutoff, coherent, 0.9,
                [herald.click_weights(cutoff) for herald in heralds], mode,
            )
            for herald, rho, row, leak in zip(heralds, *got):
                ref_rho, ref_row, ref_leak = _oracle_herald(branches, cutoff, 0.9, herald)
                rho_dev[coherent] = max(rho_dev[coherent], float(np.max(np.abs(rho - ref_rho))))
                row_dev = max(row_dev, float(np.max(np.abs(row - ref_row))))
                leak_dev = max(leak_dev, abs(leak - ref_leak) / ref_leak if ref_leak else abs(leak))
    checks.append(_check("herald_oracle_truncated", rho_dev[False], 1e-12))
    checks.append(_check("herald_oracle_coherent", rho_dev[True], 1e-12))
    checks.append(_check("herald_row_oracle", row_dev, 1e-12))
    checks.append(_check("herald_leakage_oracle", leak_dev, 1e-12))

    # Hong-Ou-Mandel null: on a balanced splitter the signal's |1> and the
    # photon never exit as |1, 1>, so the one-click row has no |1> entry.
    hom = 0.0
    for coherent, mode in itertools.product((False, True), "AB"):
        w = HeraldModel(mode=mode).click_weights(cutoff)
        row = _heralds(closed_form, alpha, math.sqrt(0.5), cutoff, coherent, 1.0, [w], mode)[1][0]
        hom = max(hom, abs(row[1]))
    checks.append(_check("herald_hom_null", hom, 1e-12))

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
    # genuinely mixed protocol output (a p1 = 0.9 source and the two-term
    # signal, which leaks nothing past cutoff 12).
    dev = 0.0
    clicks = [
        HeraldModel(read_efficiency=0.6, dark_count=1e-3, resolving=resolving).click_weights(12)
        for resolving in (True, False)
    ]
    # both outcomes of both detector kinds as one batch
    outcomes = [outcome for w in clicks for outcome in (w, 1.0 - w)]
    rhos = _heralds(closed_form, 0.02, 0.2, 12, False, 0.9, outcomes, "A")[0]
    for k, w in enumerate(clicks):
        total = sum(float(np.trace(rho).real) for rho in rhos[2 * k : 2 * k + 2])
        dev = max(dev, abs(total - 1.0))
        dev = max(dev, float(np.max(np.maximum(-w, w - 1.0), initial=0.0)))
    checks.append(_check("povm_completeness", dev, 1e-10))

    # run_exact's click probability against the dense oracle's.
    herald = HeraldModel(read_efficiency=0.6, dark_count=1e-4)
    lossy = ProtocolConfig(alpha=0.01, t=t, cutoff=cutoff, source_efficiency=0.97, herald=herald)
    ref_rho = _oracle_herald(_oracle_branches(0.01, False, cutoff, u), cutoff, 0.97, herald)[0]
    checks.append(
        _check(
            "herald_probability_consistency",
            abs(run_exact(lossy).success_probability - np.trace(ref_rho).real),
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

