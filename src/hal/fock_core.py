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

#: Ceiling on probability mass lost to truncation, everywhere in the package.
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


def _sum_of_squares(amplitudes: np.ndarray) -> np.ndarray:
    re, im = amplitudes.real, amplitudes.imag
    return np.add.reduce(re * re, axis=1) + np.add.reduce(im * im, axis=1)


def _norm(amplitudes: np.ndarray) -> np.ndarray:
    """The Euclidean norm of every row of a (B, d) array of finite
    amplitudes: an elementwise sum of squares (no BLAS), rescaled by the
    row's largest magnitude only where it overflows."""
    with np.errstate(over="ignore"):
        norm = np.sqrt(_sum_of_squares(amplitudes))
    if math.inf in norm.tolist():  # cheaper than an ndarray method on one point
        big = norm == math.inf
        peak = np.abs(amplitudes[big]).max(axis=1)
        norm[big] = peak * np.sqrt(_sum_of_squares(amplitudes[big] / peak[:, None]))
    return norm


def _normalized(amplitudes: np.ndarray) -> np.ndarray:
    """Every row of a (B, d) array divided by its norm."""
    return amplitudes / _norm(amplitudes)[:, None]


def _trace(matrices: np.ndarray) -> np.ndarray:
    """The complex trace of every (d, d) matrix of a (B, d, d) stack."""
    return np.add.reduce(matrices.diagonal(axis1=1, axis2=2), axis=1)


def _clamped(values) -> np.ndarray:
    """values clamped to [0, 1], the floating-point spill of a fidelity."""
    return np.minimum(np.maximum(values, 0.0), 1.0)


def _pure_fidelity(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """|<a|b>|^2 / (|a| |b|)^2 for the rows of a (B, d) a and a (B, k) b,
    k <= d, b read as zero past its k levels. The squares and the quotient
    are Python's scalar arithmetic, so a row's bits do not depend on its batch.
    """
    overlap = np.add.reduce(a[:, : b.shape[1]].conj() * b, axis=1)
    scale = _norm(a) * _norm(b)
    magnitude = np.hypot(overlap.real, overlap.imag)
    return _clamped([s ** 2 / q ** 2 for s, q in zip(magnitude.tolist(), scale.tolist())])


def _mixed_fidelity(matrices: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """<v|rho|v> / tr rho for the (d, d) matrices rho of a (B, d, d) stack and
    the rows of a (B, k) array, k <= d, normalized to v and read as zero past
    their k levels. The entries read (the k x k corner and the diagonal) are
    divided by the trace first, so rho need not be normalized."""
    k = vectors.shape[1]
    trace = _trace(matrices).real[:, None]
    v = _normalized(vectors)
    corner = matrices[:, :k, :k] / trace[:, :, None]
    rho_v = np.add.reduce(corner * v[:, None, :], axis=2)
    overlap = np.add.reduce(v.conj() * rho_v, axis=1).real
    diagonal = matrices.diagonal(axis1=1, axis2=2) / trace
    return _clamped(overlap / np.add.reduce(diagonal, axis=1).real)


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
        n = _norm(amp[None])[0]
        if not np.isfinite(n) or n <= 0.0:
            raise ValidationError("state norm must be finite and positive")
        amp.setflags(write=False)
        object.__setattr__(self, "amplitudes", amp)
        object.__setattr__(self, "cutoff", int(cutoff))

    def __setattr__(self, name, value):  # immutable value type
        raise AttributeError("PureState is immutable")

    def norm(self) -> float:
        return float(_norm(self.amplitudes[None])[0])

    def normalized(self) -> "PureState":
        return PureState(_normalized(self.amplitudes[None])[0], self.cutoff)

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
        tr = float(_trace(mat[None])[0].real)
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
        """A density operator from a complex128 matrix that is one by
        construction (the protocol's conditional state), without the O(d^3)
        validation. The state keeps the matrix it is handed, read-only, so
        the caller gives it up."""
        state = object.__new__(cls)
        matrix.setflags(write=False)
        object.__setattr__(state, "matrix", matrix)
        object.__setattr__(state, "cutoff", int(cutoff))
        return state

    def __setattr__(self, name, value):
        raise AttributeError("DensityOperator is immutable")

    def trace(self) -> float:
        return float(_trace(self.matrix[None])[0].real)

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


def _coherent_tail(alpha: complex, cutoff: int) -> float:
    """The Poisson tail P(N > cutoff; |alpha|^2) a truncated coherent state
    discards."""
    mu = abs(alpha) ** 2
    return tail_beyond(cutoff, -mu, lambda j: mu / (j + 1.0)) if mu else 0.0


def _checked_tail(tail: float, cutoff: int) -> float:
    """A coherent tail past the cutoff, returned if it is at most TAIL_THRESHOLD.

    Raises
    ------
    TruncationError
        If the tail exceeds TAIL_THRESHOLD.
    """
    if tail > TAIL_THRESHOLD:
        raise TruncationError(
            f"coherent tail mass {tail:.3e} beyond cutoff {cutoff} exceeds "
            f"threshold {TAIL_THRESHOLD:.1e}",
            tail_mass=tail,
            threshold=TAIL_THRESHOLD,
        )
    return tail


def coherent_state(alpha: complex, cutoff: int = DEFAULT_CUTOFF) -> PureState:
    """Truncated coherent state with amplitude alpha, renormalized.

    Amplitudes follow c_n = exp(-|alpha|^2/2) alpha^n / sqrt(n!) up to the
    cutoff. The discarded tail mass is the exact Poisson tail
    P(N > cutoff; |alpha|^2); construction fails if it exceeds
    TAIL_THRESHOLD.

    Raises
    ------
    TruncationError
        If the cutoff is too small for the requested tail mass.
    """
    a = _finite_amplitude(alpha, "alpha")
    if cutoff < 1:
        raise ValidationError("coherent_state requires cutoff >= 1")
    _checked_tail(_coherent_tail(a, cutoff), cutoff)
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
    return PureState(_normalized(amp[None])[0], cutoff)


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
        formula, values, norms = _pure_fidelity, a.amplitudes, (a.norm(), b.norm())
    elif isinstance(a, DensityOperator):
        formula, values, norms = _mixed_fidelity, a.matrix, (b.norm(),)
    else:
        raise ValidationError("first argument must be a PureState or DensityOperator")
    if a.cutoff != b.cutoff:
        raise ShapeError("fidelity requires a common basis")
    if min(norms) < 1e-300:
        raise ValidationError("fidelity of a zero-norm state is undefined")
    return float(formula(values[None], b.amplitudes[None])[0])
