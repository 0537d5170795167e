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
applied (Agarwal & Tara, PRA 43, 492, 1991). So both branches hold at most
K + 1 quanta per mode: the conditional state lives on the signal's support,
occupations 0..min(cutoff, K + 1), which is three levels for the two-term
signal at every cutoff >= 2 and 0..cutoff for the coherent one
(support_size).

herald_click evaluates a batch of points at once, with a leading batch axis
on alpha, t, the source efficiency and the click weights, on that support:
O(B d^2) for d support levels. A coherent signal's tail past the cutoff,
which sets its normalization, comes from the caller, which has checked it
against the truncation threshold once per (alpha, cutoff) pair; herald_click
neither computes nor checks it. It reads one mode of both branches out with
the detector's click weights: the off-diagonal entries from three prefix
sums over the read mode, the diagonal from the photon branch's amplitudes.
Only the single-mode conditional state is ever formed; no two-mode state
is. A point's numbers are the same bits in any batch, a batch of one
included, which is how run_exact calls it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .errors import ValidationError

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




def support_size(cutoff: int, coherent: bool) -> int:
    """The number of occupations, 0..min(cutoff, K + 1), that a herald's
    conditional state and one-click row can hold: cutoff + 1 for the
    coherent signal, min(cutoff, 2) + 1 for the two-term one (K = 1)."""
    return cutoff + 1 if coherent else min(cutoff, 2) + 1


def _prefix(terms: np.ndarray, index: np.ndarray) -> np.ndarray:
    """terms[b, 0] + ... + terms[b, index] for every point b and every entry
    of index, 0 where index < 0."""
    sums = np.zeros((len(terms), terms.shape[1] + 1), dtype=terms.dtype)
    np.cumsum(terms, axis=1, out=sums[:, 1:])
    return sums[:, np.maximum(index, -1) + 1]


def _term(factor: np.ndarray, a: np.ndarray, b: np.ndarray, prefix=None) -> np.ndarray:
    """factor * np.outer(a[k], b[k]) * prefix[k] for every point k: the same
    roundings, computed in place in one (B, d, d) array."""
    out = a[:, :, None] * b[:, None, :]
    out *= factor
    if prefix is not None:
        out *= prefix
    return out


def _abs2_of_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """abs(a * b) ** 2 entrywise, in Python's scalar arithmetic: the product
    with no fused multiply-add, and the square by pow, as a single point's
    scalar code computes it."""
    re = a.real * b.real - a.imag * b.imag
    im = a.real * b.imag + a.imag * b.real
    return np.reshape([h ** 2 for h in np.hypot(re, im).ravel().tolist()], re.shape)


def herald_click(
    alpha: np.ndarray,
    tail: np.ndarray,
    t: np.ndarray,
    cutoff: int,
    coherent: bool,
    p1: np.ndarray,
    weights: np.ndarray,
    mode: str,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The herald on the splitter's output, in closed form, for a batch of points.

    Every point b has its own signal amplitude alpha[b], the coherent
    signal's tail tail[b] past the cutoff, transmission t[b], source
    efficiency p1[b] and click weights weights[b]; the cutoff, the
    input kind and the read mode are shared. The signal (coherent, or
    |0> + alpha|1> normalized) enters mode A and a source that emits one
    photon with probability p1, vacuum otherwise, enters mode B. With N the
    signal's normalization, the vacuum branch is N u_m v_n on |m, n>,
    m + n <= K, and the photon branch is N (t sqrt(m) u_(m-1) v_n + r sqrt(n)
    u_m v_(n-1)), m + n <= K + 1 and m, n <= cutoff. So both branches live on
    occupations 0..S, S = min(cutoff, K + 1), in either mode: d =
    support_size(cutoff, coherent) levels, three for the two-term signal at
    any cutoff >= 2. Reading mode A with weights w, entry (i, i') of the
    conditional state is v_i v_i'* C[K - max(i, i')] for the vacuum branch and

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

    Each point's numbers do not depend on the other points of its batch: the
    per-point scalars (the normalization, the coherent vacuum amplitude, the
    leakage) are taken in Python's scalar arithmetic and the rest elementwise.

    Parameters
    ----------
    alpha : (B,) complex array
    tail : (B,) float array
        The coherent signal's Poisson tail P(N > cutoff; |alpha|^2), which
        sets its normalization; the caller has checked it against
        TAIL_THRESHOLD. Unread for the two-term signal (pass zeros).
    t : (B,) float array, each in (0, 1)
    p1 : (B,) float array, each in [0, 1]
    weights : (B, d) float array
        Click weights on the read mode's occupations 0..d-1.

    Returns
    -------
    rho : (B, d, d) complex array
        The p1-weighted conditional state of the unread mode, unnormalized:
        its trace is the click probability. Every entry past occupation d-1
        of a (cutoff+1)^2 state is zero.
    row : (B, d) complex array
        The photon branch's amplitudes on the unread mode when the read mode
        holds exactly one excitation (the pure conditional state, unnormalized).
    leakage : (B,) float array
        p1 times the probability of the photon branch's two entries |K+1, 0>
        and |0, K+1>, which fall past the cutoff when K = cutoff.
    """
    d = support_size(cutoff, coherent)
    top = cutoff if coherent else 1
    if coherent:
        scale = [(1.0 - s) ** -0.25 for s in tail.tolist()]
    else:
        scale = [(1.0 + abs(a) ** 2) ** -0.25 for a in alpha.tolist()]
    r = np.sqrt(1.0 - t * t)
    root = np.sqrt(np.arange(d))

    def factor(amp: np.ndarray) -> np.ndarray:
        if coherent:
            first = [s * math.exp(-0.5 * abs(a) ** 2) for s, a in zip(scale, amp.tolist())]
        else:
            first = scale
        steps = np.empty((len(amp), top + 1), dtype=np.complex128)
        steps[:, 0] = first
        np.divide(amp[:, None], root[1 : top + 1], out=steps[:, 1:])
        out = np.zeros((len(amp), d), dtype=np.complex128)
        np.cumprod(steps, axis=1, out=out[:, : top + 1])
        return out

    u, v = factor(r * alpha), factor(-t * alpha)
    leakage = np.zeros(len(alpha))
    if top == cutoff:
        lost = _abs2_of_product(u[:, [top, 0]], v[:, [0, top]])
        leakage = p1 * (top + 1) * (t * t * lost[:, 0] + r * r * lost[:, 1])
    if mode == "B":
        u, v, t, r = v, u, r, t
    x = np.zeros_like(u)
    x[:, 1:] = root[1:] * u[:, :-1]
    y = np.zeros_like(v)
    y[:, 1:] = root[1:] * v[:, :-1]
    t3, r3 = t[:, None, None], r[:, None, None]
    i = np.arange(d)
    # the photon branch on |j, i>, read mode first
    phi = _term(t3, x, v)
    phi += _term(r3, u, y)
    phi[:, np.add.outer(i, i) > top + 1] = 0.0
    row = phi[:, 1].copy()
    # the click probability and the gain are read off the photon branch's
    # diagonal; an elementwise sum, so no BLAS thread count changes its rounding
    clicks = np.abs(phi)
    del phi
    clicks *= clicks
    clicks *= weights[:, :, None]
    diagonal = clicks.sum(axis=1)
    del clicks
    far = np.maximum.outer(i, i)
    rho = np.zeros((len(alpha), d, d), dtype=np.complex128)
    if (p1 < 1.0).any():
        vacuum = _prefix(weights * np.abs(u) ** 2, top - far)
        rho += _term((1.0 - p1)[:, None, None], v, v.conj(), vacuum)
    if (p1 > 0.0).any():
        reach = np.minimum(cutoff, top + 1 - far)
        photon = _term(t3 * t3, v, v.conj(), _prefix(weights * np.abs(x) ** 2, reach))
        cross = _term(t3 * r3, v, y.conj(), _prefix(weights * x * u.conj(), reach))
        photon += cross
        photon += np.conjugate(cross, out=cross).transpose(0, 2, 1)
        del cross
        photon += _term(r3 * r3, y, y.conj(), _prefix(weights * np.abs(u) ** 2, reach))
        photon[:, i, i] = diagonal
        photon *= p1[:, None, None]
        rho += photon
    return rho, row, leakage
