"""The herald: detector model and the heralded state in closed form.

Beam splitter convention (fixed, shared by every module and documented once
here): the unitary is U = exp(theta (a^dag b - a b^dag)) with theta =
arcsin(t), which transforms the mode operators as

    a -> r a + t b,      b -> -t a + r b,      r = sqrt(1 - t^2),

mode A (first, atomic) and mode B (second, optical). U conserves the total
occupation.

The protocol only ever sends a signal, |0> + alpha|1> or a coherent state,
against a single photon or, when the source fails, vacuum. For these inputs
the output needs no splitter matrix. A coherent state splits into a product
(Gerry & Knight, Introductory Quantum Optics, ch. 6), so the vacuum branch
is sum u_m v_n |m, n> with u_m = (r alpha)^m / sqrt(m!) and v_n =
(-t alpha)^n / sqrt(n!), over m + n <= K (K = 1 for the two-term signal).
The photon branch is that product with U b^dag U^dag = t a^dag + r b^dag
applied (Agarwal & Tara, PRA 43, 492, 1991). herald_click reads one mode of
both branches out with the detector's click weights in O(cutoff^2): the
off-diagonal entries from three prefix sums over the read mode, the diagonal
from the photon branch's amplitudes. Only the single-mode conditional state
is ever formed; no two-mode state is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .errors import ValidationError
from .fock_core import _coherent_tail

#: Probabilities below this are treated as genuinely impossible outcomes.
IMPOSSIBLE_PROBABILITY = 1e-300


@dataclass(frozen=True)
class HeraldModel:
    """Detector model for reading out the stored excitation.

    Parameters
    ----------
    read_efficiency : float in [0, 1]
        Probability that a stored excitation is converted and detected.
    dark_count : float in [0, 1)
        Probability of a spurious click per readout window.
    mode : {"A", "B"}
        Which mode is read out (A is the atomic mode).
    resolving : bool
        Number-resolving click statistics (default) versus threshold.
    """

    read_efficiency: float = 1.0
    dark_count: float = 0.0
    mode: str = "A"
    resolving: bool = True

    def __post_init__(self):
        if not (0.0 <= self.read_efficiency <= 1.0):
            raise ValidationError(f"read efficiency must be in [0,1], got {self.read_efficiency!r}")
        if not (0.0 <= self.dark_count < 1.0):
            raise ValidationError(f"dark count must be in [0,1), got {self.dark_count!r}")
        if self.mode not in ("A", "B"):
            raise ValidationError(f"read mode must be 'A' or 'B', got {self.mode!r}")

    def click_weights(self, cutoff: int) -> np.ndarray:
        """Click probability w(n) given n stored excitations, n = 0..cutoff.

        Threshold: w(n) = 1 - (1 - p_d)(1 - eta)^n. Number-resolving: a
        single click comes from exactly one converted excitation or, mutually
        exclusively to first order in p_d, from a dark count with none
        converted: w(n) = (1-p_d) n eta (1-eta)^(n-1) + p_d (1-eta)^n.
        """
        eta, pd = self.read_efficiency, self.dark_count
        n = np.arange(cutoff + 1, dtype=float)
        if not self.resolving:
            return 1.0 - (1.0 - pd) * (1.0 - eta) ** n
        w = np.empty(cutoff + 1)
        w[0] = pd
        w[1:] = (1.0 - pd) * n[1:] * eta * (1.0 - eta) ** (n[1:] - 1.0) + pd * (
            1.0 - eta
        ) ** n[1:]
        return w




def _prefix(terms: np.ndarray, index: np.ndarray) -> np.ndarray:
    """terms[0] + ... + terms[index] at every entry of index, 0 where index < 0."""
    sums = np.concatenate(([0.0], np.cumsum(terms)))
    return sums[np.maximum(index, -1) + 1]


def herald_click(
    alpha: complex,
    t: float,
    cutoff: int,
    coherent: bool,
    p1: float,
    weights: np.ndarray,
    mode: str,
) -> Tuple[np.ndarray, np.ndarray, float]:
    """The herald on the splitter's output, in closed form.

    The signal (coherent, or |0> + alpha|1> normalized) enters mode A and a
    source that emits one photon with probability p1, vacuum otherwise,
    enters mode B. With N the signal's normalization, the vacuum branch is
    N u_m v_n on |m, n>, m + n <= K, and the photon branch is N (t sqrt(m)
    u_(m-1) v_n + r sqrt(n) u_m v_(n-1)), m + n <= K + 1 and m, n <= cutoff.
    Reading mode A with weights w, entry (i, i') of the conditional state is
    v_i v_i'* C[K - max(i, i')] for the vacuum branch and

        t^2 v_i v_i'* A[L] + t r (v_i y_i'* B[L] + y_i v_i'* B[L]*)
            + r^2 y_i y_i'* C[L],     L = min(cutoff, K + 1 - max(i, i')),

    for the photon one, with y_i = sqrt(i) v_(i-1) and the prefix sums
    A[k] = sum_(j<=k) w_j j |u_(j-1)|^2, B[k] = sum w_j sqrt(j) u_(j-1) u_j*
    and C[k] = sum w_j |u_j|^2. Reading mode B swaps u with v and t with r.
    The photon branch's diagonal is summed from its amplitudes instead, since
    its expanded terms cancel where t sqrt(j) u_(j-1) v_i nearly offsets
    r sqrt(i) u_j v_(i-1). Each of u and v carries N^(1/2) and, for the
    coherent input, its share of exp(-|alpha|^2 / 2), so every factor stays
    bounded.

    Returns
    -------
    rho : (cutoff+1, cutoff+1) complex array
        The p1-weighted conditional state of the unread mode, unnormalized:
        its trace is the click probability.
    row : (cutoff+1,) complex array
        The photon branch's amplitudes on the unread mode when the read mode
        holds exactly one excitation (the pure conditional state, unnormalized).
    leakage : float
        p1 times the probability of the photon branch's two entries |K+1, 0>
        and |0, K+1>, which fall past the cutoff when K = cutoff.

    Raises
    ------
    TruncationError
        If the coherent signal's tail past the cutoff exceeds TAIL_THRESHOLD.
    """
    r = math.sqrt(1.0 - t * t)
    if coherent:
        top, scale = cutoff, (1.0 - _coherent_tail(alpha, cutoff)) ** -0.25
    else:
        top, scale = 1, (1.0 + abs(alpha) ** 2) ** -0.25
    root = np.sqrt(np.arange(cutoff + 1))

    def factor(amp: complex) -> np.ndarray:
        out = np.zeros(cutoff + 1, dtype=np.complex128)
        first = scale * math.exp(-0.5 * abs(amp) ** 2) if coherent else scale
        out[: top + 1] = np.cumprod(np.concatenate(([first], amp / root[1 : top + 1])))
        return out

    u, v = factor(r * alpha), factor(-t * alpha)
    leakage = 0.0
    if top == cutoff:
        dropped = t * t * abs(u[top] * v[0]) ** 2 + r * r * abs(u[0] * v[top]) ** 2
        leakage = p1 * (top + 1) * dropped
    if mode == "B":
        u, v, t, r = v, u, r, t
    x = np.concatenate(([0.0], root[1:] * u[:-1]))
    y = np.concatenate(([0.0], root[1:] * v[:-1]))
    i = np.arange(cutoff + 1)
    # the photon branch on |j, i>, read mode first
    phi = t * np.outer(x, v) + r * np.outer(u, y)
    phi[np.add.outer(i, i) > top + 1] = 0.0
    far = np.maximum.outer(i, i)
    rho = np.zeros((cutoff + 1, cutoff + 1), dtype=np.complex128)
    if p1 < 1.0:
        rho += (1.0 - p1) * np.outer(v, v.conj()) * _prefix(weights * np.abs(u) ** 2, top - far)
    if p1 > 0.0:
        reach = np.minimum(cutoff, top + 1 - far)
        cross = t * r * np.outer(v, y.conj()) * _prefix(weights * x * u.conj(), reach)
        photon = (
            t * t * np.outer(v, v.conj()) * _prefix(weights * np.abs(x) ** 2, reach)
            + cross
            + cross.conj().T
            + r * r * np.outer(y, y.conj()) * _prefix(weights * np.abs(u) ** 2, reach)
        )
        # the click probability and the gain are read off this diagonal; an
        # elementwise sum, so no BLAS thread count changes its rounding
        np.fill_diagonal(photon, (weights[:, None] * np.abs(phi) ** 2).sum(axis=0))
        rho += p1 * photon
    return rho, phi[1], leakage
