"""Value types and elementary algebra for truncated bosonic Fock spaces.

States live on one mode, on occupations n = 0..cutoff: the protocol's
two-mode output is never formed (see optics_ops), only the conditional state
of the unread mode.

All values are immutable after construction and all operations are pure
functions; everything here is safe to share across threads.
"""

from __future__ import annotations

import math
from typing import Callable, Union

import numpy as np

from .errors import ShapeError, TruncationError, ValidationError

#: Default per-mode occupation cutoff.
DEFAULT_CUTOFF = 12

#: Default ceiling on probability mass lost to truncation.
TAIL_THRESHOLD = 1e-10

_HERMITIAN_TOL = 1e-10
_EIGENVALUE_FLOOR = -1e-9

# Below this log-probability exp() leaves the normal doubles (about 1e-304).
_LOG_NORMAL_FLOOR = -700.0


def _finite_amplitude(value, name: str) -> complex:
    """value as a complex number whose squared magnitude is a finite double.

    This is where an amplitude enters: ProtocolConfig, EnsembleSpec and
    coherent_state check theirs here, so nothing downstream meets a NaN, an
    infinity or an |amplitude|^2 that overflows.
    """
    try:
        z = complex(value)
        finite = math.isfinite(abs(z) ** 2)
    except (TypeError, ValueError, OverflowError):
        finite = False
    if not finite:
        raise ValidationError(
            f"{name} must be a complex number with finite |{name}|^2, got {value!r}"
        )
    return z


def _sum_of_squares(amp: np.ndarray) -> float:
    return float(np.sum(amp.real * amp.real) + np.sum(amp.imag * amp.imag))


def _norm(amp: np.ndarray) -> float:
    """Euclidean norm of finite amplitudes, an elementwise sum of squares
    (no BLAS), rescaled by the largest magnitude only when it overflows."""
    with np.errstate(over="ignore"):
        n = math.sqrt(_sum_of_squares(amp))
    if n == math.inf:
        peak = float(np.max(np.abs(amp)))
        n = peak * math.sqrt(_sum_of_squares(amp / peak))
    return n


def _check_cutoff(cutoff: int) -> None:
    if not isinstance(cutoff, (int, np.integer)) or cutoff < 0:
        raise ValidationError(f"cutoff must be a non-negative integer, got {cutoff!r}")


class PureState:
    """Complex amplitude vector over a truncated single-mode Fock basis.

    Parameters
    ----------
    amplitudes : array_like of complex
        Length cutoff+1.
    cutoff : int
        Largest occupation.

    Notes
    -----
    The constructor requires a finite, nonzero norm but does not rescale;
    use :meth:`normalized` (the factory functions below always return
    normalized states).
    """

    __slots__ = ("amplitudes", "cutoff")

    mode_count = 1

    def __init__(self, amplitudes, cutoff: int):
        _check_cutoff(cutoff)
        amp = np.asarray(amplitudes, dtype=np.complex128).reshape(-1).copy()
        if amp.shape[0] != cutoff + 1:
            raise ShapeError(
                f"amplitude vector has length {amp.shape[0]}, "
                f"expected {cutoff + 1} for cutoff {cutoff}"
            )
        if not np.all(np.isfinite(amp.view(np.float64))):
            raise ValidationError("amplitudes must be finite")
        n = _norm(amp)
        if not np.isfinite(n) or n <= 0.0:
            raise ValidationError("state norm must be finite and positive")
        amp.setflags(write=False)
        object.__setattr__(self, "amplitudes", amp)
        object.__setattr__(self, "cutoff", int(cutoff))

    def __setattr__(self, name, value):  # immutable value type
        raise AttributeError("PureState is immutable")

    def norm(self) -> float:
        return _norm(self.amplitudes)

    def normalized(self) -> "PureState":
        return PureState(self.amplitudes / self.norm(), self.cutoff)

    def overlap(self, other: "PureState") -> complex:
        """Inner product <self|other> (no normalization applied)."""
        self._require_same_basis(other)
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def _require_same_basis(self, other: "PureState") -> None:
        if self.cutoff != other.cutoff:
            raise ShapeError(f"basis mismatch: cutoff {self.cutoff} vs cutoff {other.cutoff}")

    def __repr__(self):
        return f"PureState(cutoff={self.cutoff})"


class DensityOperator:
    """Complex matrix over a truncated single-mode Fock basis, for mixed states.

    The conditional state of a herald is mixed when the source or the
    detector is imperfect; it is the only mixed state hal forms, and no
    two-mode state is formed at all. Construction validates hermiticity (1e-10
    entrywise), finiteness, a positive finite trace, and eigenvalues >= -1e-9;
    run_exact, whose conditional state is one by construction, skips that.
    """

    __slots__ = ("matrix", "cutoff")

    mode_count = 1

    def __init__(self, matrix, cutoff: int):
        _check_cutoff(cutoff)
        mat = np.asarray(matrix, dtype=np.complex128).copy()
        if mat.shape != (cutoff + 1, cutoff + 1):
            raise ShapeError(
                f"matrix has shape {mat.shape}, expected "
                f"({cutoff + 1}, {cutoff + 1}) for cutoff {cutoff}"
            )
        if not np.all(np.isfinite(mat.view(np.float64))):
            raise ValidationError("matrix entries must be finite")
        if np.max(np.abs(mat - mat.conj().T)) > _HERMITIAN_TOL:
            raise ValidationError("matrix is not Hermitian within 1e-10")
        tr = float(np.trace(mat).real)
        if not np.isfinite(tr) or tr <= 0.0:
            raise ValidationError("trace must be finite and positive")
        # smallest eigenvalue may round slightly negative; beyond -1e-9 it is a bug
        low = float(np.linalg.eigvalsh(mat)[0])
        if low < _EIGENVALUE_FLOOR:
            raise ValidationError(f"matrix has eigenvalue {low:.3e} below -1e-9")
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "cutoff", int(cutoff))

    @classmethod
    def _unchecked(cls, matrix: np.ndarray, cutoff: int) -> "DensityOperator":
        """A density operator from a matrix that is one by construction (the
        protocol's conditional state), without the O(d^3) validation."""
        state = object.__new__(cls)
        mat = np.array(matrix, dtype=np.complex128)
        mat.setflags(write=False)
        object.__setattr__(state, "matrix", mat)
        object.__setattr__(state, "cutoff", int(cutoff))
        return state

    def __setattr__(self, name, value):
        raise AttributeError("DensityOperator is immutable")

    def trace(self) -> float:
        return float(np.trace(self.matrix).real)

    def diagonal(self) -> np.ndarray:
        return self.matrix.diagonal().real.copy()

    def __repr__(self):
        return f"DensityOperator(cutoff={self.cutoff})"


def tail_beyond(k: int, log_p0: float, ratio: Callable) -> float:
    """P(X > k) for a unimodal integer distribution given by its recursion.

    p_0 = exp(log_p0) and p_(j+1) = p_j ratio(j); ratio takes a float or an
    array of j and stays below 1 past the mode. p_0..p_(k+1) are a running
    product, a few roundings per step; only when p_0 is below the normal
    doubles are they summed logs instead. If the mode is at most k+1, the
    tail is the direct series p_(k+1) (1 + ratio(k+1) + ratio(k+1)
    ratio(k+2) + ...), summed to machine precision; every term is
    positive, so it is accurate down to the smallest normal double. Past
    that mode the tail is at least about one half and
    1 - (p_0 + ... + p_k) loses nothing to cancellation.
    """
    j = np.arange(k + 1, dtype=float)
    if log_p0 > _LOG_NORMAL_FLOOR:
        pmf = np.cumprod(np.concatenate(([math.exp(log_p0)], ratio(j))))
    else:
        with np.errstate(divide="ignore"):
            pmf = np.exp(log_p0 + np.concatenate(([0.0], np.cumsum(np.log(ratio(j))))))
    if ratio(k + 1.0) >= 1.0:
        return 1.0 - float(np.sum(pmf[:-1]))
    term = total = 1.0
    i = k + 1.0
    while term > total * 2.0**-53:
        term *= ratio(i)
        total += term
        i += 1.0
    return float(pmf[-1] * total)


def _coherent_tail(alpha: complex, cutoff: int, tail_threshold: float = TAIL_THRESHOLD) -> float:
    """The Poisson tail P(N > cutoff; |alpha|^2) a truncated coherent state
    discards.

    Raises
    ------
    TruncationError
        If the tail exceeds ``tail_threshold``.
    """
    mu = abs(alpha) ** 2
    tail = tail_beyond(cutoff, -mu, lambda j: mu / (j + 1.0)) if mu else 0.0
    if tail > tail_threshold:
        raise TruncationError(
            f"coherent tail mass {tail:.3e} beyond cutoff {cutoff} exceeds "
            f"threshold {tail_threshold:.1e}",
            tail_mass=tail,
            threshold=tail_threshold,
        )
    return tail


def coherent_state(
    alpha: complex,
    cutoff: int = DEFAULT_CUTOFF,
    tail_threshold: float = TAIL_THRESHOLD,
) -> PureState:
    """Truncated coherent state with amplitude alpha, renormalized.

    Amplitudes follow c_n = exp(-|alpha|^2/2) alpha^n / sqrt(n!) up to the
    cutoff. The discarded tail mass is the exact Poisson tail
    P(N > cutoff; |alpha|^2); construction fails if it exceeds
    ``tail_threshold``.

    Raises
    ------
    TruncationError
        If the cutoff is too small for the requested tail mass.
    """
    a = _finite_amplitude(alpha, "alpha")
    if cutoff < 1:
        raise ValidationError("coherent_state requires cutoff >= 1")
    _coherent_tail(a, cutoff, tail_threshold)
    mu = abs(a) ** 2
    n = np.arange(cutoff + 1)
    if a == 0:
        amp = np.zeros(cutoff + 1, dtype=np.complex128)
        amp[0] = 1.0
        return PureState(amp, cutoff)
    # log-domain magnitudes avoid overflow in alpha^n / sqrt(n!)
    log_factorial = np.concatenate(([0.0], np.cumsum(np.log(n[1:]))))
    log_mag = n * np.log(abs(a)) - 0.5 * log_factorial - mu / 2.0
    amp = np.exp(log_mag) * np.exp(1j * n * np.angle(a))
    amp /= _norm(amp)
    return PureState(amp, cutoff)


def number_state(n: int, cutoff: int) -> PureState:
    """Fock state |n> on a single mode with the given cutoff."""
    if not isinstance(n, (int, np.integer)) or n < 0:
        raise ValidationError(f"occupation must be a non-negative integer, got {n!r}")
    if n > cutoff:
        raise ValidationError(f"occupation {n} exceeds cutoff {cutoff}")
    amp = np.zeros(cutoff + 1, dtype=np.complex128)
    amp[n] = 1.0
    return PureState(amp, cutoff)


def fidelity(a: Union[PureState, DensityOperator], b: PureState) -> float:
    """|<a|b>|^2 for pure a, <b|rho|b> for mixed a; inputs normalized first.

    Both are elementwise sums, so no BLAS thread count changes their rounding.
    """
    if not isinstance(b, PureState):
        raise ValidationError("second argument must be a pure state")
    if isinstance(a, PureState):
        if a.cutoff != b.cutoff:
            raise ShapeError("fidelity requires a common basis")
        an, bn = a.norm(), b.norm()
        if an < 1e-300 or bn < 1e-300:
            raise ValidationError("fidelity of a zero-norm state is undefined")
        val = abs(np.sum(a.amplitudes.conj() * b.amplitudes)) ** 2 / (an * bn) ** 2
    elif isinstance(a, DensityOperator):
        if a.cutoff != b.cutoff:
            raise ShapeError("fidelity requires a common basis")
        bn = b.norm()
        if bn < 1e-300:
            raise ValidationError("fidelity of a zero-norm state is undefined")
        v = b.amplitudes / bn
        rho_v = np.sum(a.matrix * v, axis=1)
        val = float(np.sum(v.conj() * rho_v).real) / a.trace()
    else:
        raise ValidationError("first argument must be a PureState or DensityOperator")
    # clamp floating-point spill just outside [0, 1]
    return float(min(max(val, 0.0), 1.0))

