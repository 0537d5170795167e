"""Linear-optical channels and measurements on truncated Fock states.

Beam splitter convention (fixed, shared by every module and documented once
here): the unitary is U = exp(theta (a^dag b - a b^dag)) with theta =
arcsin(t), which transforms the mode operators as

    a -> r a + t b,      b -> -t a + r b,      r = sqrt(1 - t^2),

mode A (first, atomic) and mode B (second, optical). U conserves the total
occupation. The protocol only sends columns |k, 0> and |k, 1> through it (a
signal against a single-photon ancilla or, when the source fails, vacuum),
and their images are binomial expansions in r and t, built in closed form:
U|k, 0> by a recurrence in k whose terms never cancel, U|k, 1> by one more
two-term step. Any other column |k, l>, l >= 2, goes through the exact
unitary of its total-occupation sector. Images that extend past the cutoff
are truncated: the lost probability is the output's norm deficit, which
protocol.run_exact reports as leakage.

Two-mode states are always PureStates here. A mixed input, such as the
imperfect single-photon source, is a weighted sum of pure branches that the
caller runs one by one (see protocol.run_exact); only the single-mode
conditional state of a herald is a DensityOperator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .errors import ImpossibleOutcomeError, ShapeError, ValidationError
from .fock_core import PureState

#: Probabilities below this are treated as genuinely impossible outcomes.
IMPOSSIBLE_PROBABILITY = 1e-300


@dataclass(frozen=True)
class BeamSplitter:
    """Beam splitter with real transmission amplitude t in (0, 1)."""

    t: float

    def __post_init__(self):
        if not (0.0 < self.t < 1.0) or not np.isfinite(self.t):
            raise ValidationError(f"transmission amplitude must be in (0,1), got {self.t!r}")

    @property
    def r(self) -> float:
        return math.sqrt(1.0 - self.t * self.t)

    @property
    def theta(self) -> float:
        return math.asin(self.t)


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


def _mode_axis(mode: str) -> int:
    if mode not in ("A", "B"):
        raise ValidationError(f"mode must be 'A' or 'B', got {mode!r}")
    return "AB".index(mode)


def _column_images(top: int, bs: BeamSplitter) -> np.ndarray:
    """images[l, s, m] = <m, s - m| U |s - l, l> for l = 0, 1 and s - l = 0..top.

    U a^dag U^dag = r a^dag - t b^dag and U b^dag U^dag = t a^dag + r b^dag,
    so U|k, 0> = (r a^dag - t b^dag) U|k-1, 0> / sqrt(k), a binomial
    expansion with entries sqrt(C(k, m)) r^m (-t)^(k-m). The two terms of
    each recurrence step have the same sign, so the recurrence neither
    cancels nor overflows and forms no factorial. U|k, 1> is then one
    application of (t a^dag + r b^dag). Every other entry, the padding row
    s = top + 2 included, is zero.
    """
    root = np.sqrt(np.arange(top + 2))
    r_root, t_root = bs.r * root, bs.t * root
    images = np.zeros((2, top + 3, top + 2))
    a0 = images[0]
    a0[0, 0] = 1.0
    for k in range(1, top + 1):
        a0[k, 1 : k + 1] = r_root[1 : k + 1] * a0[k - 1, :k]
        a0[k, :k] -= t_root[k:0:-1] * a0[k - 1, :k]
        a0[k, : k + 1] /= root[k]
    s_minus_m = np.maximum(np.arange(1, top + 2)[:, None] - np.arange(top + 2), 0)
    images[1, 1:-1, 1:] = t_root[1:] * a0[: top + 1, :-1]
    images[1, 1:-1] += r_root[s_minus_m] * a0[: top + 1]
    return images


def _block(total: int, theta: float) -> np.ndarray:
    """Exact unitary on the full total-occupation sector, basis (m, total-m)
    ordered by m = 0..total.

    The generator G (real, antisymmetric, tridiagonal with couplings
    sqrt((m+1)(total-m))) equals -i D J D^-1, where J is the symmetric
    tridiagonal matrix with the same couplings and D = diag(i^m). J is twice
    the spin-total/2 J_x, so its eigenvalues are exactly the integers
    -total, -total+2, ..., total; those replace the computed ones. Entry
    (k, l) of exp(theta G) = D exp(-i theta J) D^-1 is then
    Re(i^(k-l)) [V cos(theta L) V^T]_kl + Im(i^(k-l)) [V sin(theta L) V^T]_kl.
    """
    m = np.arange(total)
    lower = np.sqrt((m + 1.0) * (total - m))
    vectors = np.linalg.eigh(np.diag(lower, -1) + np.diag(lower, 1))[1]
    angle = theta * np.arange(-total, total + 1, 2, dtype=float)
    phase = np.subtract.outer(np.arange(total + 1), np.arange(total + 1)) % 4
    re_phase = np.array([1.0, 0.0, -1.0, 0.0])[phase]
    im_phase = np.array([0.0, 1.0, 0.0, -1.0])[phase]
    return re_phase * ((vectors * np.cos(angle)) @ vectors.T) + im_phase * (
        (vectors * np.sin(angle)) @ vectors.T
    )


def _require_two_mode(state: PureState, name: str) -> None:
    if not isinstance(state, PureState):
        raise ValidationError(f"{name} takes a two-mode PureState")
    if state.mode_count != 2:
        raise ShapeError(f"{name} requires a two-mode state")


def apply_beam_splitter(state: PureState, bs: BeamSplitter) -> PureState:
    """Apply the beam splitter to a two-mode pure state, column by column.

    Input columns |k, l> with l <= 1 are mapped by their closed-form images
    (`_column_images`), built only up to the largest occupied k. Columns with
    l >= 2 go through the exact sector block of their total occupation, and
    only the sectors that hold such a column are built. Amplitude that the
    splitter moves past the cutoff is dropped, not renormalized: the output's
    norm deficit is the leakage, which the caller accounts for (see
    protocol.run_exact).

    Raises
    ------
    ValidationError
        For anything but a two-mode PureState (ShapeError for one mode).
    """
    _require_two_mode(state, "apply_beam_splitter")
    cutoff = state.cutoff
    amp = state.as_two_mode_matrix()
    out = np.zeros_like(amp)
    low = amp[:, :2]
    occupied = np.flatnonzero(low.any(axis=1))
    if occupied.size:
        top = int(occupied[-1])
        coef = np.zeros((2, top + 3), dtype=amp.dtype)
        for l in range(low.shape[1]):
            coef[l, l : l + top + 1] = low[: top + 1, l]
        # image[s, m]: amplitude on |m, s - m>, zero from row top + 2 on
        image = (coef[:, :, None] * _column_images(top, bs)).sum(axis=0)
        m = np.arange(min(top + 2, cutoff + 1))
        out[: m.size, : m.size] = image[np.minimum(m[:, None] + m, top + 2), m[:, None]]
    ks, ls = np.nonzero(amp[:, 2:])
    for total in np.flatnonzero(np.bincount(ks + ls)) + 2:
        lo, hi = max(0, total - cutoff), min(total, cutoff)
        rows, cols = np.arange(lo, hi + 1), np.arange(lo, min(hi, total - 2) + 1)
        block = _block(int(total), bs.theta)[lo : hi + 1, lo : cols[-1] + 1]
        out[rows, total - rows] += block @ amp[cols, total - cols]
    return PureState(out, cutoff, 2)


def project_number(state: PureState, mode: str, n: int) -> Tuple[float, PureState]:
    """Project one mode of a two-mode pure state onto occupation n.

    Returns the outcome probability and the renormalized conditional state of
    the other mode.

    Raises
    ------
    ImpossibleOutcomeError
        If the outcome probability is below 1e-300.
    """
    _require_two_mode(state, "project_number")
    if not 0 <= n <= state.cutoff:
        raise ValidationError(f"occupation {n} outside 0..{state.cutoff}")
    mat = state.as_two_mode_matrix()
    vec = mat[n, :] if _mode_axis(mode) == 0 else mat[:, n]
    prob = float(np.vdot(vec, vec).real)
    if prob < IMPOSSIBLE_PROBABILITY:
        raise ImpossibleOutcomeError(
            f"occupation {n} on mode {mode} has probability {prob:.3e}", prob
        )
    return prob, PureState(vec / math.sqrt(prob), state.cutoff, 1)


def herald_operator(amp: np.ndarray, weights: np.ndarray, mode: str) -> np.ndarray:
    """sum_n w(n) <n|_read |psi><psi| |n>_read for a two-mode amplitude matrix.

    amp[m, n] is the amplitude of |m>_A |n>_B. Returns the unnormalized
    operator on the other mode, M^T diag(w) M* with M the amplitude matrix
    oriented read mode first; its trace is the outcome probability.
    """
    m = amp if _mode_axis(mode) == 0 else amp.T
    return (m.T * weights) @ m.conj()

