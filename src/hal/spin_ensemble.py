"""Exact collective-spin (Dicke) states of a rotated ensemble and their
mapping onto a truncated oscillator mode.

Conventions. Each atom has levels g and s with sigma_x = |g><g| - |s><s|, so
the unrotated ensemble (all atoms in g) is the maximal eigenstate of the
collective J_x. The symmetric state with k atoms in s is written |k>. With
j = N/2 and m_x = N/2 - k, the ladder operators that move k are

    J_+ |k> = sqrt(k (N - k + 1)) |k-1>,
    J_- |k> = sqrt((k + 1)(N - k)) |k+1>,

and J_y = (J_+ + J_-)/2, J_z = (J_+ - J_-)/(2i) satisfy [J_y, J_z] = i J_x.
The oscillator quadratures are X = J_y / sqrt(N/2) and P = J_z / sqrt(N/2),
so [X, P] = i J_x / (N/2), which equals i up to the depletion of J_x. The
axis labels follow the level convention above; relabeling them would change
no measurable output.

The Dicke-to-Fock embedding identifies |k> with the oscillator number state
|n=k> directly; corrections to that identification show up only through
fidelity measurements, never through a corrected map.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ShapeError, TruncationError, ValidationError
from .fock_core import (
    DEFAULT_CUTOFF,
    TAIL_THRESHOLD,
    PureState,
    _finite_amplitude,
    _norm,
    _normalized,
    coherent_state,
    tail_beyond,
)

_NORM_TOL = 1e-12

#: Largest cutoff `hal ensemble` accepts. Its arrays are one-dimensional in
#: the cutoff: at 1e6 the command took 0.3 s and peaked at 161 MB (31 MB at
#: cutoff 400), for N = 1e9 at alpha 0.32 and at alpha 31.6. Above the
#: protocol's MAX_CUTOFF, because a large ensemble rotation needs a cutoff
#: of about |alpha|^2 plus a few |alpha|.
MAX_ENSEMBLE_CUTOFF = 10**6


@dataclass(frozen=True)
class EnsembleSpec:
    """Atom count and per-atom rotation, with the derived oscillator amplitude.

    alpha = sqrt(N) * epsilon is the amplitude of the oscillator-picture
    coherent state the rotated ensemble approximates. Both epsilon and
    alpha must have a finite squared magnitude.
    """

    N: int
    epsilon: complex

    def __post_init__(self):
        if not isinstance(self.N, (int, np.integer)) or not 1 <= self.N <= sys.float_info.max:
            raise ValidationError(
                f"atom count must be an integer in 1..{sys.float_info.max:.2g}, got {self.N!r}"
            )
        object.__setattr__(self, "epsilon", _finite_amplitude(self.epsilon, "epsilon"))
        _finite_amplitude(self.alpha, "sqrt(N) epsilon")

    @property
    def alpha(self) -> complex:
        return math.sqrt(self.N) * self.epsilon


class DickeState:
    """Amplitudes c_k over symmetric excitation number k = 0..k_max."""

    __slots__ = ("amplitudes", "N", "k_max", "tail_mass")

    def __init__(self, amplitudes, N: int, tail_mass: float = 0.0):
        amp = np.asarray(amplitudes, dtype=np.complex128).reshape(-1).copy()
        if amp.shape[0] < 1 or amp.shape[0] > N + 1:
            raise ShapeError(f"k_max must satisfy 0 <= k_max <= N, got {amp.shape[0] - 1}")
        if not np.all(np.isfinite(amp.view(np.float64))):
            raise ValidationError("amplitudes must be finite")
        norm = float(_norm(amp[None])[0])
        if abs(norm - 1.0) > _NORM_TOL:
            raise ValidationError(f"Dicke amplitudes must be normalized, norm={norm!r}")
        amp.setflags(write=False)
        object.__setattr__(self, "amplitudes", amp)
        object.__setattr__(self, "N", int(N))
        object.__setattr__(self, "k_max", int(amp.shape[0] - 1))
        object.__setattr__(self, "tail_mass", float(tail_mass))

    def __setattr__(self, name, value):
        raise AttributeError("DickeState is immutable")

    def __repr__(self):
        return f"DickeState(N={self.N}, k_max={self.k_max})"


def rotated_product_state(
    spec: EnsembleSpec,
    k_max: Optional[int] = None,
    tail_threshold: float = TAIL_THRESHOLD,
) -> DickeState:
    """Collective state of N atoms each rotated by epsilon, exact to all orders.

    The symmetric-sector amplitudes are
    c_k = sqrt(C(N,k)) epsilon^k / (1 + |epsilon|^2)^(N/2), evaluated in the
    log domain so N up to 1e9 cannot overflow. The discarded mass beyond
    k_max is the exact binomial tail with success probability
    |epsilon|^2 / (1 + |epsilon|^2).
    """
    if k_max is None:
        k_max = min(spec.N, DEFAULT_CUTOFF)
    if not 1 <= k_max <= spec.N:
        raise ValidationError(f"k_max must be in 1..N, got {k_max}")
    eps = spec.epsilon
    if eps == 0:
        amp = np.zeros(k_max + 1, dtype=np.complex128)
        amp[0] = 1.0
        return DickeState(amp, spec.N, 0.0)
    n, r = float(spec.N), abs(eps)
    odds = r * r
    # P(K > k_max) for K ~ Binomial(N, q), q = r^2 / (1 + r^2), with odds
    # q / (1 - q) = r^2; the terms are a running product from (1 - q)^N, so
    # no log C(N, k) of size ~k log N has to cancel at N ~ 1e9
    tail = 0.0
    if k_max < spec.N:
        tail = tail_beyond(k_max, -n * math.log1p(odds), lambda j: (n - j) / (j + 1.0) * odds)
    if tail > tail_threshold:
        raise TruncationError(
            f"Dicke tail mass {tail:.3e} beyond k_max {k_max} exceeds "
            f"threshold {tail_threshold:.1e}",
            tail_mass=tail,
            threshold=tail_threshold,
        )
    k = np.arange(k_max + 1, dtype=float)
    # log C(N,k) as a short cumulative sum: gammaln differences at N ~ 1e9
    # cancel catastrophically, this stays exact to machine precision
    j = np.arange(1, k_max + 1, dtype=float)
    log_binom = np.concatenate(([0.0], np.cumsum(np.log((n - j + 1.0) / j))))
    log_mag = 0.5 * log_binom + k * math.log(r) - (n / 2.0) * math.log1p(r * r)
    amp = np.exp(log_mag) * np.exp(1j * k * np.angle(eps))
    return DickeState(_normalized(amp[None])[0], spec.N, tail)


def oscillator_approximation(spec: EnsembleSpec, cutoff: int = DEFAULT_CUTOFF) -> PureState:
    """Oscillator-picture stand-in for the rotated ensemble: the coherent
    state with amplitude sqrt(N) * epsilon."""
    return coherent_state(spec.alpha, cutoff)


def embed_as_fock(state: DickeState, cutoff: int = DEFAULT_CUTOFF) -> PureState:
    """Embed |k> -> |n=k| into a single-mode Fock space (leading-order map)."""
    if cutoff < state.k_max:
        raise ShapeError(f"cutoff {cutoff} cannot hold k_max {state.k_max}")
    amp = np.zeros(cutoff + 1, dtype=np.complex128)
    amp[: state.k_max + 1] = state.amplitudes
    return PureState(amp, cutoff)


@dataclass(frozen=True)
class CollectiveExpectations:
    """Exact symmetric-sector expectations of a Dicke state.

    commutator_xp is the operator identity value <[X, P]> = i <J_x> / (N/2);
    commutator_deviation is the deviation of its magnitude from 1.
    """

    jx: float
    jy: float
    jz: float
    var_x: float
    var_p: float
    commutator_xp: complex
    commutator_deviation: float


def collective_expectations(state: DickeState) -> CollectiveExpectations:
    """Compute J_x, J_y, J_z means, quadrature variances, and the X-P
    commutator from exact ladder matrix elements."""
    n = float(state.N)
    k_hold = state.k_max + 2  # one workspace slot so J_- from k_max stays exact
    k_hold = min(k_hold, state.N + 1)
    c = np.zeros(k_hold, dtype=np.complex128)
    c[: state.k_max + 1] = state.amplitudes
    k = np.arange(k_hold, dtype=float)
    # lower[k] couples |k> -> |k+1| with sqrt((k+1)(N-k)); J_- and J_+ are
    # tridiagonal, so they act as shifted products, in O(k_max) memory
    lower = np.sqrt((k[:-1] + 1.0) * (n - k[:-1]))
    minus = np.zeros_like(c)
    minus[1:] = lower * c[:-1]
    plus = np.zeros_like(c)
    plus[:-1] = lower * c[1:]
    jx_diag = n / 2.0 - k

    jx = float(np.sum(jx_diag * np.abs(c) ** 2))
    yv = (plus + minus) / 2.0
    zv = (plus - minus) / 2.0j
    # elementwise sums, as in fock_core.fidelity: no BLAS call
    jy = float(np.sum(c.conj() * yv).real)
    jz = float(np.sum(c.conj() * zv).real)
    jy2 = float(np.sum(yv.conj() * yv).real)
    jz2 = float(np.sum(zv.conj() * zv).real)
    half_n = n / 2.0
    var_x = (jy2 - jy * jy) / half_n
    var_p = (jz2 - jz * jz) / half_n
    comm = 1j * jx / half_n
    return CollectiveExpectations(
        jx=jx,
        jy=jy,
        jz=jz,
        var_x=var_x,
        var_p=var_p,
        commutator_xp=comm,
        commutator_deviation=abs(abs(comm) - 1.0),
    )
