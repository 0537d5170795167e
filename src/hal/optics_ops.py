"""Linear-optical channels and measurements on truncated Fock states.

Beam splitter convention (fixed, shared by every module and documented once
here): the unitary is U = exp(theta (a^dag b - a b^dag)) with theta =
arcsin(t), which transforms the mode operators as

    a -> r a + t b,      b -> -t a + r b,      r = sqrt(1 - t^2),

mode A (first, atomic) and mode B (second, optical). U is block-diagonal in
total occupation; blocks fully inside the cutoff are exact, and blocks that
extend past it are truncated with the lost probability reported as leakage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Tuple, Union

import numpy as np
from scipy.linalg import expm

from .errors import (
    ImpossibleOutcomeError,
    ShapeError,
    TruncationError,
    ValidationError,
)
from .fock_core import TAIL_THRESHOLD, DensityOperator, PureState, to_density

#: Probabilities below this are treated as genuinely impossible outcomes.
IMPOSSIBLE_PROBABILITY = 1e-300

State = Union[PureState, DensityOperator]


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
    if mode in ("A", "a"):
        return 0
    if mode in ("B", "b"):
        return 1
    raise ValidationError(f"mode must be 'A' or 'B', got {mode!r}")


@lru_cache(maxsize=512)
def _sector_block(total: int, theta: float) -> np.ndarray:
    """Exact unitary on the full total-occupation sector, basis (m, total-m)
    ordered by m = 0..total."""
    if total == 0:
        return np.ones((1, 1))
    s, c = math.sin(theta), math.cos(theta)
    if total == 1:
        # closed form keeps single-photon amplitudes bit-exact in (r, t)
        return np.array([[c, -s], [s, c]])
    m = np.arange(total)
    lower = np.sqrt((m + 1.0) * (total - m))
    gen = np.diag(lower, -1) - np.diag(lower, 1)
    return expm(theta * gen)


@lru_cache(maxsize=64)
def _sectors(cutoff: int) -> Tuple[Tuple[int, int, np.ndarray], ...]:
    """The total-occupation sectors of the truncated two-mode basis.

    Entry `total` is (lo, hi, idx): the mode-A occupations lo..hi that fit
    inside the cutoff and their flat basis indices. Sectors with total <=
    cutoff are complete; higher ones keep only the states inside the cutoff,
    so the beam splitter is sub-unitary there (the deficit is the reported
    leakage).
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


def beam_splitter_matrix(cutoff: int, bs: BeamSplitter, inverse: bool = False) -> np.ndarray:
    """The (sub-)unitary matrix applied by :func:`apply_beam_splitter`.

    Assembled from the sector blocks on every call and not cached: it has
    (cutoff+1)**4 entries.
    """
    d = cutoff + 1
    w = np.zeros((d * d, d * d))
    for total, (lo, hi, idx) in enumerate(_sectors(cutoff)):
        w[np.ix_(idx, idx)] = _sector_block(total, bs.theta)[lo : hi + 1, lo : hi + 1]
    return w.T if inverse else w


def _split_amplitudes(amp: np.ndarray, cutoff: int, theta: float, inverse: bool) -> np.ndarray:
    """Beam splitter on a two-mode amplitude vector, one sector at a time.

    Only sectors that hold amplitude are visited, so the blocks of empty
    sectors are never built.
    """
    d = cutoff + 1
    nonzero = np.flatnonzero(amp)
    sectors = _sectors(cutoff)
    out = np.zeros_like(amp)
    for total in np.unique(nonzero // d + nonzero % d):
        lo, hi, idx = sectors[total]
        block = _sector_block(int(total), theta)[lo : hi + 1, lo : hi + 1]
        out[idx] = (block.T if inverse else block) @ amp[idx]
    return out


def apply_beam_splitter(
    state: State,
    bs: BeamSplitter,
    inverse: bool = False,
    leakage_threshold: float = TAIL_THRESHOLD,
    return_leakage: bool = False,
):
    """Apply the beam splitter to a two-mode state.

    Pure states are transformed sector by sector; density operators through
    the assembled :func:`beam_splitter_matrix`.

    Parameters
    ----------
    inverse : bool
        Apply the inverse rotation (angle -theta) instead.
    leakage_threshold : float
        Maximum probability allowed to leave the truncated basis.
    return_leakage : bool
        Also return the leaked probability.

    Returns
    -------
    state, or (state, leakage) when requested. The output is not
    renormalized; its norm deficit equals the leakage.

    Raises
    ------
    ShapeError
        For single-mode input.
    TruncationError
        If the leakage exceeds the threshold.
    """
    if state.mode_count != 2:
        raise ShapeError("apply_beam_splitter requires a two-mode state")
    if isinstance(state, PureState):
        out = _split_amplitudes(state.amplitudes, state.cutoff, bs.theta, inverse)
        leakage = float(np.vdot(state.amplitudes, state.amplitudes).real - np.vdot(out, out).real)
        result: State = PureState(out, state.cutoff, 2)
    elif isinstance(state, DensityOperator):
        w = beam_splitter_matrix(state.cutoff, bs, inverse)
        mat = w @ state.matrix @ w.T
        leakage = float(np.trace(state.matrix).real - np.trace(mat).real)
        result = DensityOperator(mat, state.cutoff, 2)
    else:
        raise ValidationError("state must be a PureState or DensityOperator")
    leakage = max(leakage, 0.0)
    if leakage > leakage_threshold:
        raise TruncationError(
            f"beam-splitter leakage {leakage:.3e} exceeds threshold {leakage_threshold:.1e}",
            tail_mass=leakage,
            threshold=leakage_threshold,
        )
    if return_leakage:
        return result, leakage
    return result


def project_number(state: State, mode: str, n: int) -> Tuple[float, State]:
    """Project one mode of a two-mode state onto occupation n.

    Returns the outcome probability and the renormalized conditional state of
    the other mode.

    Raises
    ------
    ImpossibleOutcomeError
        If the outcome probability is below 1e-300.
    """
    if state.mode_count != 2:
        raise ShapeError("project_number requires a two-mode state")
    if not 0 <= n <= state.cutoff:
        raise ValidationError(f"occupation {n} outside 0..{state.cutoff}")
    axis = _mode_axis(mode)
    d = state.cutoff + 1
    if isinstance(state, PureState):
        mat = state.as_two_mode_matrix()
        vec = mat[n, :] if axis == 0 else mat[:, n]
        prob = float(np.vdot(vec, vec).real)
        if prob < IMPOSSIBLE_PROBABILITY:
            raise ImpossibleOutcomeError(
                f"occupation {n} on mode {mode} has probability {prob:.3e}", prob
            )
        return prob, PureState(vec / math.sqrt(prob), state.cutoff, 1)
    if isinstance(state, DensityOperator):
        r4 = state.matrix.reshape(d, d, d, d)  # (m, n, m', n')
        block = r4[n, :, n, :] if axis == 0 else r4[:, n, :, n]
        prob = float(np.trace(block).real)
        if prob < IMPOSSIBLE_PROBABILITY:
            raise ImpossibleOutcomeError(
                f"occupation {n} on mode {mode} has probability {prob:.3e}", prob
            )
        return prob, DensityOperator(block / prob, state.cutoff, 1)
    raise ValidationError("state must be a PureState or DensityOperator")


def herald_operator(amp: np.ndarray, weights: np.ndarray, mode: str) -> np.ndarray:
    """sum_n w(n) <n|_read |psi><psi| |n>_read for a two-mode amplitude matrix.

    amp[m, n] is the amplitude of |m>_A |n>_B. Returns the unnormalized
    operator on the other mode, M^T diag(w) M* with M the amplitude matrix
    oriented read mode first; its trace is the outcome probability.
    """
    m = amp if _mode_axis(mode) == 0 else amp.T
    return (m.T * weights) @ m.conj()


def _herald_outcome(
    state: State, weights: np.ndarray, mode: str, name: str
) -> Tuple[float, DensityOperator]:
    if state.mode_count != 2:
        raise ShapeError(f"herald_{name} requires a two-mode state")
    if isinstance(state, PureState):
        blocks = herald_operator(state.as_two_mode_matrix() / state.norm(), weights, mode)
    elif isinstance(state, DensityOperator):
        d = state.cutoff + 1
        r4 = state.matrix.reshape(d, d, d, d)  # (m, n, m', n')
        if _mode_axis(mode) == 0:
            blocks = np.einsum("n,nanb->ab", weights, r4)
        else:
            blocks = np.einsum("n,anbn->ab", weights, r4)
    else:
        raise ValidationError("state must be a PureState or DensityOperator")
    prob = float(np.trace(blocks).real)
    if prob < IMPOSSIBLE_PROBABILITY:
        raise ImpossibleOutcomeError(
            f"herald {name.replace('_', '-')} has probability {prob:.3e}", prob
        )
    return prob, DensityOperator(blocks / prob, state.cutoff, 1)


def herald_click(state: State, model: HeraldModel) -> Tuple[float, DensityOperator]:
    """Click POVM of the herald detector on the read mode.

    The POVM element is diagonal in the read mode's occupation with weights
    from :meth:`HeraldModel.click_weights`; the no-click element is its
    complement, so the pair is complete by construction. A pure input is
    normalized first. Returns the click probability and the conditional
    reduced state of the other mode.

    Raises
    ------
    ImpossibleOutcomeError
        If the click probability is below 1e-300.
    """
    return _herald_outcome(state, model.click_weights(state.cutoff), model.mode, "click")


def herald_no_click(state: State, model: HeraldModel) -> Tuple[float, DensityOperator]:
    """Complementary no-click outcome of :func:`herald_click`."""
    return _herald_outcome(
        state, 1.0 - model.click_weights(state.cutoff), model.mode, "no_click"
    )


@lru_cache(maxsize=64)
def _loss_kraus(cutoff: int, eta: float) -> Tuple[np.ndarray, ...]:
    d = cutoff + 1
    ops = []
    for j in range(d):
        k = np.zeros((d, d))
        for n in range(j, d):
            k[n - j, n] = math.sqrt(math.comb(n, j) * eta ** (n - j) * (1.0 - eta) ** j)
        ops.append(k)
    return tuple(ops)


def loss_channel(state: State, mode: str | None, eta: float) -> DensityOperator:
    """Pure-loss channel with transmissivity eta on the chosen mode.

    Accepts single-mode states (mode may be None or 'A') and two-mode states
    (mode 'A' or 'B'). Always returns a density operator; the map is trace
    preserving on the truncated space.
    """
    if not (0.0 <= eta <= 1.0):
        raise ValidationError(f"transmissivity must be in [0,1], got {eta!r}")
    rho = to_density(state) if isinstance(state, PureState) else state
    if not isinstance(rho, DensityOperator):
        raise ValidationError("state must be a PureState or DensityOperator")
    kraus = _loss_kraus(rho.cutoff, float(eta))
    d = rho.cutoff + 1
    if rho.mode_count == 1:
        if mode not in (None, "A", "a"):
            raise ValidationError("single-mode state has only mode 'A'")
        out = sum(k @ rho.matrix @ k.T for k in kraus)
        return DensityOperator(out, rho.cutoff, 1)
    axis = _mode_axis(mode if mode is not None else "A")
    eye = np.eye(d)
    out = np.zeros((d * d, d * d), dtype=np.complex128)
    for k in kraus:
        full = np.kron(k, eye) if axis == 0 else np.kron(eye, k)
        out += full @ rho.matrix @ full.T
    return DensityOperator(out, rho.cutoff, 2)


def partial_trace(rho: DensityOperator, keep: str) -> DensityOperator:
    """Trace out one mode of a two-mode density operator, keeping `keep`."""
    if not isinstance(rho, DensityOperator):
        raise ValidationError("partial_trace takes a DensityOperator")
    if rho.mode_count != 2:
        raise ShapeError("partial_trace requires a two-mode state")
    d = rho.cutoff + 1
    r4 = rho.matrix.reshape(d, d, d, d)
    axis = _mode_axis(keep)
    reduced = np.einsum("anbn->ab", r4) if axis == 0 else np.einsum("nanb->ab", r4)
    return DensityOperator(reduced, rho.cutoff, 1)


def total_occupation(state: State) -> float:
    """Expected total occupation of a two-mode state (norm/trace weighted)."""
    if state.mode_count != 2:
        raise ShapeError("total_occupation requires a two-mode state")
    d = state.cutoff + 1
    m = np.arange(d)
    totals = (m[:, None] + m[None, :]).reshape(-1)
    if isinstance(state, PureState):
        return float(np.sum(totals * state.probabilities()))
    return float(np.sum(totals * state.matrix.diagonal().real))
