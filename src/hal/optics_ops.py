"""Linear-optical channels and measurements on truncated Fock states.

Beam splitter convention (fixed, shared by every module and documented once
here): the unitary is U = exp(theta (a^dag b - a b^dag)) with theta =
arcsin(t), which transforms the mode operators as

    a -> r a + t b,      b -> -t a + r b,      r = sqrt(1 - t^2),

mode A (first, atomic) and mode B (second, optical). U is block-diagonal in
total occupation; blocks fully inside the cutoff are exact, and blocks that
extend past it are truncated: the lost probability is the output's norm
deficit, which protocol.run_exact reports as leakage.

Two-mode states are always PureStates here. A mixed input, such as the
imperfect single-photon source, is a weighted sum of pure branches that the
caller runs one by one (see protocol.run_exact); only the single-mode
conditional state of a herald is a DensityOperator.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Tuple

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


class _ByteBoundedCache:
    """A least-recently-used map from keys to arrays that holds at most
    `budget` bytes of arrays (an array larger than the budget is returned
    but not kept).

    Thread-safe: a missing value is computed outside the lock, so two
    threads may both compute it and the second copy is dropped.
    """

    def __init__(self, budget: int):
        self.budget = budget
        self.held = 0
        self._items: "OrderedDict[object, np.ndarray]" = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key, compute: Callable[[], np.ndarray]) -> np.ndarray:
        with self._lock:
            value = self._items.get(key)
            if value is not None:
                self._items.move_to_end(key)
                return value
        value = compute()
        with self._lock:
            if key not in self._items:
                self._items[key] = value
                self.held += value.nbytes
                while self.held > self.budget:
                    self.held -= self._items.popitem(last=False)[1].nbytes
        return value


#: Byte budget of each of the two large-sector caches below. The sectors of
#: one protocol point at cutoff 400 (totals up to 401) take 174 MB of
#: eigenvectors and, past total _SMALL_TOTAL, 173 MB of blocks per theta, so
#: one point's worth fits and a sweep reuses the eigenvectors across theta.
_CACHE_BYTES = 192 << 20

#: Sectors up to this total, the ones every protocol point uses, are cached
#: by `_sector_block`: at most 512 blocks of 64 x 64 floats, 16 MB.
_SMALL_TOTAL = 63

_eigenvector_cache = _ByteBoundedCache(_CACHE_BYTES)
_large_block_cache = _ByteBoundedCache(_CACHE_BYTES)


def _sector_eigenvectors(total: int) -> np.ndarray:
    """Eigenvectors V of the symmetric sector matrix J (see `_block`).

    They do not depend on theta, so they are cached by total, within
    _CACHE_BYTES.
    """

    def compute():
        m = np.arange(total)
        lower = np.sqrt((m + 1.0) * (total - m))
        return np.linalg.eigh(np.diag(lower, -1) + np.diag(lower, 1))[1]

    return _eigenvector_cache.get(total, compute)


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
    if total == 0:
        return np.ones((1, 1))
    s, c = math.sin(theta), math.cos(theta)
    if total == 1:
        # closed form keeps single-photon amplitudes bit-exact in (r, t)
        return np.array([[c, -s], [s, c]])
    vectors = _sector_eigenvectors(total)
    angle = theta * np.arange(-total, total + 1, 2, dtype=float)
    phase = np.subtract.outer(np.arange(total + 1), np.arange(total + 1)) % 4
    re_phase = np.array([1.0, 0.0, -1.0, 0.0])[phase]
    im_phase = np.array([0.0, 1.0, 0.0, -1.0])[phase]
    return re_phase * ((vectors * np.cos(angle)) @ vectors.T) + im_phase * (
        (vectors * np.sin(angle)) @ vectors.T
    )


@lru_cache(maxsize=512)
def _sector_block(total: int, theta: float) -> np.ndarray:
    """`_block`, cached for the small sectors (total <= _SMALL_TOTAL)."""
    return _block(total, theta)


def _sector_unitary(total: int, theta: float) -> np.ndarray:
    """`_block` from the cache of its size class: `_sector_block` for small
    totals, a byte-bounded cache for larger ones."""
    if total <= _SMALL_TOTAL:
        return _sector_block(total, theta)
    return _large_block_cache.get((total, theta), lambda: _block(total, theta))


@lru_cache(maxsize=64)
def _sectors(cutoff: int) -> Tuple[Tuple[int, int, np.ndarray], ...]:
    """The total-occupation sectors of the truncated two-mode basis.

    Entry `total` is (lo, hi, idx): the mode-A occupations lo..hi that fit
    inside the cutoff and their flat basis indices. Sectors with total <=
    cutoff are complete; higher ones keep only the states inside the cutoff,
    so the beam splitter is sub-unitary there (the deficit is the leakage).
    """
    d = cutoff + 1
    sectors = []
    for total in range(2 * cutoff + 1):
        lo, hi = max(0, total - cutoff), min(total, cutoff)
        ms = np.arange(lo, hi + 1)
        idx = ms * d + (total - ms)
        idx.setflags(write=False)
        sectors.append((lo, hi, idx))
    return tuple(sectors)


def _require_two_mode(state: PureState, name: str) -> None:
    if not isinstance(state, PureState):
        raise ValidationError(f"{name} takes a two-mode PureState")
    if state.mode_count != 2:
        raise ShapeError(f"{name} requires a two-mode state")


def apply_beam_splitter(state: PureState, bs: BeamSplitter) -> PureState:
    """Apply the beam splitter to a two-mode pure state, sector by sector.

    Only sectors that hold amplitude are visited, so the blocks of empty
    sectors are never built. Amplitude that the splitter moves past the
    cutoff is dropped, not renormalized: the output's norm deficit is the
    leakage, which the caller accounts for (see protocol.run_exact).

    Raises
    ------
    ValidationError
        For anything but a two-mode PureState (ShapeError for one mode).
    """
    _require_two_mode(state, "apply_beam_splitter")
    amp, cutoff = state.amplitudes, state.cutoff
    d = cutoff + 1
    nonzero = np.flatnonzero(amp)
    sectors = _sectors(cutoff)
    out = np.zeros_like(amp)
    for total in np.flatnonzero(np.bincount(nonzero // d + nonzero % d)):
        lo, hi, idx = sectors[total]
        out[idx] = _sector_unitary(int(total), bs.theta)[lo : hi + 1, lo : hi + 1] @ amp[idx]
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

