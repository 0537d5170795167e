"""Heralded amplification of a small coherent amplitude.

Pipeline: a weak signal (|0> + alpha|1>, or the full coherent state) enters
mode A, a single photon from an imperfect source enters mode B, the two
interfere on a beam splitter of transmission amplitude t, and a detector on
mode A heralds on reading out exactly one excitation. Conditioned on the
herald, mode B carries the signal with its one-excitation amplitude scaled
up by approximately 1/t, at success probability approximately t^2.

Two evaluation modes are provided. run_first_order keeps only the dominant
interference terms and returns the closed-form result (conditional state
proportional to t|0> + alpha|1>, success probability t^2 + |alpha|^2, gain
exactly 1/t). run_exact is exact in truncated Fock space, with source
inefficiency, detector loss and dark counts, so all higher-order corrections
(notably gain*t = 1 - 2t^2 for an ideal setup) appear in the numbers rather
than in an error term.

run_exact has a single pipeline. The imperfect source is a mixture of a
photon and a vacuum branch, and the herald POVM is diagonal in the read
mode's occupation, so the conditional state is exactly rho = sum_b p_b
sum_n w(n) v_{b,n} v_{b,n}^dag, with v_{b,n} the other mode's amplitudes
when the read mode holds n. optics_ops.herald_click evaluates this sum in
closed form, for a batch of points; no two-mode state is ever formed.
run_exact calls it as a batch of one and sweep() batch by batch, and both
read the success probability, gain and fidelity off its result through one
routine (_figures), so a sweep row is run_exact's result bit for bit.
_figures takes the norms, traces and fidelities from fock_core, the one copy
of that algebra, which PureState, DensityOperator and fidelity() use too.
The coherent signal's tail past the cutoff is computed once per (alpha,
cutoff) pair by the caller, checked there (run_exact raises TruncationError,
sweep() writes a truncation row) and handed to herald_click.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass, field, replace
from typing import Mapping, Sequence, Tuple, Union

import numpy as np

from ._parallel import map_indexed
from .errors import (
    ImpossibleOutcomeError,
    TruncationError,
    ValidationError,
)
from .fock_core import (
    DEFAULT_CUTOFF,
    TAIL_THRESHOLD,
    DensityOperator,
    PureState,
    _checked_tail,
    _coherent_tail,
    _finite_amplitude,
    _mixed_fidelity,
    _normalized,
    _pure_fidelity,
    _trace,
)
from .optics_ops import IMPOSSIBLE_PROBABILITY, HeraldModel, herald_click, support_size

State = Union[PureState, DensityOperator]

#: Operational reading of |alpha| << t << 1 for the recommended-regime flag.
REGIME_ALPHA_FRACTION = 0.2
REGIME_T_MAX = 0.3


#: Largest Fock cutoff per mode a ProtocolConfig accepts. run_exact's
#: closed form runs on the signal's support: O(1) for the two-term signal
#: and O(cutoff^2) time and memory for a coherent one (its mixed conditional
#: state skips DensityOperator's O(cutoff^3) eigenvalue check, being one by
#: construction). hal protocol then writes a (cutoff+1)^2 conditional
#: state, which dominates. One hal protocol process (t 0.2, p1 0.9, read
#: efficiency 0.9, dark count 1e-4; one CPU of a 2-vCPU x86 VM, 3 runs) at
#: cutoff 400 took 0.36-0.39 s and 53 MB peak RSS for alpha 0.01, and
#: 0.50-0.54 s and 59-60 MB for a coherent input at alpha 15, which fills
#: every occupation. At cutoff 700, measured with the eigenvalue check
#: still made, these were 1.4-2.2 s / 112 MB and 1.9-2.4 s / 118 MB.
MAX_CUTOFF = 400


class RegimeWarning(UserWarning):
    """The requested parameters sit outside |alpha| << t << 1."""


@dataclass(frozen=True)
class ProtocolConfig:
    """Full parameter set for one protocol evaluation.

    input_kind selects the signal: "truncated" is |0> + alpha|1> normalized,
    "coherent" is the full coherent state at the same alpha.
    source_efficiency p1 mixes the ancilla as p1|1><1| + (1-p1)|0><0|.
    """

    alpha: complex
    t: float
    cutoff: int = DEFAULT_CUTOFF
    input_kind: str = "truncated"
    source_efficiency: float = 1.0
    herald: HeraldModel = field(default_factory=HeraldModel)

    def __post_init__(self):
        object.__setattr__(self, "alpha", _finite_amplitude(self.alpha, "alpha"))
        # |alpha|^2 subnormal: with a dark count the gain, about 1/|alpha|,
        # overflows; without one rho_11 is subnormal too (see _figures)
        if 0.0 < abs(self.alpha) ** 2 < sys.float_info.min:
            raise ValidationError(
                f"|alpha|^2 must be 0 or at least {sys.float_info.min!r}, got alpha={self.alpha!r}"
            )
        # t in (0, 1), and normal: below sys.float_info.min 1/t overflows
        if not (isinstance(self.t, (int, float)) and sys.float_info.min <= self.t < 1.0):
            raise ValidationError(
                f"transmission amplitude must be in [{sys.float_info.min!r}, 1), got {self.t!r}"
            )
        if not (isinstance(self.cutoff, (int, np.integer)) and self.cutoff >= 1):
            raise ValidationError(f"cutoff must be a positive integer, got {self.cutoff!r}")
        if self.cutoff > MAX_CUTOFF:
            raise ValidationError(f"cutoff {self.cutoff} exceeds the limit of {MAX_CUTOFF}")
        if self.input_kind not in ("truncated", "coherent"):
            raise ValidationError(
                f"input_kind must be truncated|coherent, got {self.input_kind!r}"
            )
        if not (0.0 <= self.source_efficiency <= 1.0):
            raise ValidationError(
                f"source efficiency must be in [0,1], got {self.source_efficiency!r}"
            )
        if not isinstance(self.herald, HeraldModel):
            raise ValidationError("herald must be a HeraldModel")

    @property
    def in_recommended_regime(self) -> bool:
        """True when |alpha| <= 0.2 t and t <= 0.3 (the working regime)."""
        return abs(self.alpha) <= REGIME_ALPHA_FRACTION * self.t and self.t <= REGIME_T_MAX


@dataclass(frozen=True)
class LeadingOrder:
    """The closed-form leading-order prediction p ~ t^2, gain ~ 1/t."""

    p: float
    gain: float


@dataclass(frozen=True)
class HeraldResult:
    """Outcome of one protocol evaluation.

    gain is the one-excitation/vacuum amplitude-magnitude ratio of the
    conditional state divided by the same ratio |alpha| of the input; for
    mixed conditional states the ratio is sqrt(rho_11/rho_00). It is NaN at
    alpha = 0, where the input ratio vanishes. fidelity_to_target compares
    against the normalized |0> + (alpha/t)|1>. leakage is the probability
    the beam splitter moved out of the truncated basis, weighted over the
    source terms; it is at most TAIL_THRESHOLD.
    """

    success_probability: float
    conditional_state: State
    gain: float
    fidelity_to_target: float
    leading_order: LeadingOrder
    leakage: float


def _warn_if_out_of_regime(config: ProtocolConfig) -> None:
    if not config.in_recommended_regime:
        warnings.warn(
            f"parameters |alpha|={abs(config.alpha):.4g}, t={config.t:.4g} are outside "
            f"the working regime |alpha| <= {REGIME_ALPHA_FRACTION} t <= {REGIME_T_MAX}; "
            "results are exact but the leading-order picture degrades",
            RegimeWarning,
            stacklevel=3,
        )


def run_first_order(alpha, t: float) -> HeraldResult:
    """Closed-form dominant-terms evaluation (ideal source and herald).

    The conditional state is proportional to t|0> + alpha|1>, the success
    probability is t^2 + |alpha|^2, and the gain is 1/t exactly in this
    truncation. The conditional state coincides with the target by
    construction, so the fidelity is exactly 1.
    """
    config = ProtocolConfig(alpha=alpha, t=t, cutoff=1)
    a = config.alpha
    _warn_if_out_of_regime(config)
    p = t * t + abs(a) ** 2
    conditional = PureState(np.array([t, a], dtype=np.complex128), 1).normalized()
    return HeraldResult(
        success_probability=p,
        conditional_state=conditional,
        gain=1.0 / t,
        fidelity_to_target=1.0,
        leading_order=LeadingOrder(p=t * t, gain=1.0 / t),
        leakage=0.0,
    )


def _target(alpha: np.ndarray, t: np.ndarray) -> np.ndarray:
    """The target's amplitudes 1 and alpha / t (Python's complex / float),
    unnormalized: a (B, 2) complex array, inf where alpha / t overflows."""
    target = np.zeros((len(t), 2), dtype=np.complex128)
    target[:, 0] = 1.0
    with np.errstate(over="ignore"):
        target[:, 1].real = (alpha.real + alpha.imag * 0.0) / t
        target[:, 1].imag = (alpha.imag - alpha.real * 0.0) / t
    return target


def _figures(
    rho: np.ndarray,
    row: np.ndarray,
    leakage: np.ndarray,
    alpha: np.ndarray,
    t: np.ndarray,
    p1: np.ndarray,
    weights: np.ndarray,
    one_quantum: bool,
) -> Tuple[np.ndarray, ...]:
    """Success probability, gain and target fidelity of herald_click's batch.

    Returns (p, gain, fidelity, code, pure), one entry per point. p is the
    click probability, the trace of rho; gain and fidelity are NaN where the
    point failed, and code is "" or the name in _ERROR_CODES of how it
    failed. In this order of precedence a point fails on leakage above
    TAIL_THRESHOLD ("truncation"), on a click probability below
    IMPOSSIBLE_PROBABILITY ("impossible"), and on a target amplitude
    alpha / t that overflows or, at alpha != 0, an unnormalized rho_11 below
    sys.float_info.min ("validation"): rho_11 is about p1 w(1) |alpha|^2
    without dark counts, and once it is subnormal the gain loses digits, or
    all of them where it underflows to zero. Only a signal of one_quantum
    (K = 1: the two-term one, or any at cutoff 1) has an exact zero there,
    when a vacuum source (p1 = 0) is read without dark counts: the click
    takes the quantum, and the gain is 0. pure marks a perfect source under
    the n = 1 projector, whose conditional state is the one-click row (and
    rho_11 its |row_1|^2).

    The gain is the one-excitation/vacuum amplitude-magnitude ratio of the
    normalized conditional state, sqrt(rho_11/rho_00) when it is mixed,
    divided by |alpha|; NaN at alpha = 0. The fidelity is fock_core's, to
    the normalized target |0> + (alpha/t)|1>, whose two levels are all it
    reads of the state besides its norm or trace; its rounding is the same
    whatever the batch.
    """
    batch = len(p1)
    click = _trace(rho).real
    code = np.full(batch, "", dtype=_ROW_DTYPE["error_code"])
    code[leakage > TAIL_THRESHOLD] = "truncation"
    code[(code == "") & (click < IMPOSSIBLE_PROBABILITY)] = "impossible"
    projector = (p1 == 1.0) & (weights[:, 1] == 1.0) & ((weights != 0.0).sum(axis=1) == 1)
    gain = np.full(batch, math.nan)
    fid = np.full(batch, math.nan)
    ok = np.flatnonzero(code == "")
    target = _target(alpha[ok], t[ok])
    bounded = np.isfinite(target[:, 1].real) & np.isfinite(target[:, 1].imag)
    exact_zero = one_quantum & (p1[ok] == 0.0) & (weights[ok, 0] == 0.0)
    resolved = (alpha[ok] == 0.0) | (rho[ok, 1, 1].real >= sys.float_info.min) | exact_zero
    code[ok[~(bounded & resolved)]] = "validation"
    ok, target = ok[bounded & resolved], _normalized(target[bounded & resolved])
    on_row = projector[ok]
    pure, mixed = ok[on_row], ok[~on_row]
    if len(pure):
        c = _normalized(row[pure])
        c0 = np.hypot(c[:, 0].real, c[:, 0].imag)
        c1 = np.hypot(c[:, 1].real, c[:, 1].imag)
        mag = np.hypot(alpha[pure].real, alpha[pure].imag)
        # |c0| |alpha| is about t / |1 - 2t^2| for large alpha, a normal double
        # for every accepted t; the quotient |c1| / |c0| alone can overflow
        defined = (mag != 0.0) & (c0 != 0.0)
        gain[pure] = np.divide(c1, c0 * mag, out=np.full(len(pure), math.nan), where=defined)
        fid[pure] = _pure_fidelity(c, target[on_row])
    if len(mixed):
        states = rho if len(mixed) == batch else rho[mixed]
        d0, d1 = (states[:, [0, 1], [0, 1]] / click[mixed, None]).real.T
        mag = np.hypot(alpha[mixed].real, alpha[mixed].imag)
        defined = (mag != 0.0) & (d0 > 0.0)
        ratio = np.divide(d1, d0, out=np.zeros(len(mixed)), where=defined)
        gain[mixed] = np.divide(np.sqrt(ratio), mag, out=np.full(len(mixed), math.nan), where=defined)
        fid[mixed] = _mixed_fidelity(states, target[~on_row])
    return click, gain, fid, code, projector


def run_exact(config: ProtocolConfig) -> HeraldResult:
    """Evaluate the protocol exactly in truncated Fock space.

    The source terms signal x |1> (weight p1) and signal x |0> (weight
    1 - p1) are the branches. optics_ops.herald_click, called as a batch of
    one, gives their weighted sum, reduced on the read mode by the herald's
    click weights w, as an unnormalized conditional state on the signal's
    support (occupations 0..min(cutoff, K + 1)) whose trace is the click
    probability; it is embedded here in the (cutoff+1)^2 state, whose other
    entries are zero. The photon branch loses the two entries its splitter
    moves past the cutoff; their probability is the leakage (the vacuum
    branch loses none). The figures come from the routine sweep() uses, so
    a sweep row is this result bit for bit.

    The conditional state is a PureState when the source is perfect and the
    herald is the n = 1 projector (a lossless, dark-count-free,
    number-resolving detector), and a DensityOperator otherwise.

    Raises
    ------
    TruncationError
        If the coherent signal's tail past the cutoff, or the leakage
        weighted over the branches, exceeds TAIL_THRESHOLD.
    ImpossibleOutcomeError
        If the total click probability is below 1e-300. A branch that cannot
        click on its own (the vacuum branch at alpha = 0) is not an error.
    ValidationError
        If the target's alpha / t overflows, or, at alpha != 0, the
        unnormalized rho_11 is below sys.float_info.min (see _figures).
    """
    _warn_if_out_of_regime(config)
    cutoff = config.cutoff
    coherent = config.input_kind == "coherent"
    tail = _checked_tail(_coherent_tail(config.alpha, cutoff), cutoff) if coherent else 0.0
    d = support_size(cutoff, coherent)
    weights = config.herald.click_weights(d - 1)[None]
    alpha = np.array([config.alpha])
    t = np.array([float(config.t)])
    p1 = np.array([float(config.source_efficiency)])
    rho, row, leakage = herald_click(
        alpha, np.array([tail]), t, cutoff, coherent, p1, weights, config.herald.mode
    )
    p, gain, fid, code, pure = _figures(
        rho, row, leakage, alpha, t, p1, weights, not coherent or cutoff == 1
    )
    leak, p = float(leakage[0]), float(p[0])
    if code[0] == "truncation":
        raise TruncationError(
            f"beam-splitter leakage {leak:.3e} exceeds threshold {TAIL_THRESHOLD:.1e}",
            tail_mass=leak,
            threshold=TAIL_THRESHOLD,
        )
    if code[0] == "impossible":
        raise ImpossibleOutcomeError(f"herald click has probability {p:.3e}", p)
    if code[0] == "validation":
        if not np.isfinite(_target(alpha, t)).all():
            raise ValidationError("amplitudes must be finite")
        raise ValidationError(
            f"the conditional state's one-excitation population {rho[0, 1, 1].real:.3e} "
            f"is below {sys.float_info.min!r}, so the gain at alpha={config.alpha!r} "
            "is not resolved"
        )
    if pure[0]:
        # the photon branch alone under the n = 1 projector stays pure
        amplitudes = np.zeros((1, cutoff + 1), dtype=np.complex128)
        amplitudes[0, :d] = row[0]
        conditional = PureState(_normalized(amplitudes)[0], cutoff)
    else:
        matrix = np.zeros((cutoff + 1, cutoff + 1), dtype=np.complex128)
        matrix[:d, :d] = rho[0]
        conditional = DensityOperator._unchecked(matrix / p, cutoff)
    return HeraldResult(
        success_probability=p,
        conditional_state=conditional,
        gain=float(gain[0]),
        fidelity_to_target=float(fid[0]),
        leading_order=LeadingOrder(p=config.t ** 2, gain=1.0 / config.t),
        leakage=leak,
    )


#: Field order of sweep()'s table, which is the sweep CSV's column order.
ROW_COLUMNS = (
    "alpha_re",
    "alpha_im",
    "t",
    "p1",
    "eta_r",
    "p_d",
    "cutoff",
    "success_prob",
    "gain",
    "fidelity",
    "leading_p",
    "leading_gain",
    "error_code",
)

#: Sweepable axis names and how they rewrite a ProtocolConfig.
SWEEP_AXES = ("alpha", "t", "p1", "eta_r", "p_d", "cutoff")

#: A sweep row's error_code names the error run_exact raises at its point:
#: a TruncationError, an ImpossibleOutcomeError or a ValidationError.
_ERROR_CODES = ("truncation", "impossible", "validation")

_FIELD_TYPES = {"cutoff": object, "error_code": f"U{max(len(code) for code in _ERROR_CODES)}"}
_ROW_DTYPE = np.dtype([(name, _FIELD_TYPES.get(name, np.float64)) for name in ROW_COLUMNS])

#: Bytes of temporaries one sweep batch may hold: a batch takes as many
#: points of one cutoff as _point_bytes says fit, and at least one.
SWEEP_BATCH_BYTES = 1 << 16


def _point_bytes(levels: int) -> int:
    """One point's share of a batch's temporaries when the signal's support
    has `levels` occupations, as tracemalloc measures a batch's peak: six or
    so (levels, levels) complex arrays and a few dozen smaller ones."""
    return 640 + 48 * levels + 100 * levels * levels


def _with_axis(base: ProtocolConfig, name: str, value) -> ProtocolConfig:
    """base with one sweep axis (a name of SWEEP_AXES) set to value."""
    if name == "eta_r":
        return replace(base, herald=replace(base.herald, read_efficiency=value))
    if name == "p_d":
        return replace(base, herald=replace(base.herald, dark_count=value))
    return replace(base, **{"source_efficiency" if name == "p1" else name: value})


def _accepted(base: ProtocolConfig, name: str, values: Sequence) -> np.ndarray:
    """Whether ProtocolConfig and HeraldModel accept each value of one axis."""
    ok = np.ones(len(values), dtype=bool)
    for k, value in enumerate(values):
        try:
            _with_axis(base, name, value)
        except ValidationError:
            ok[k] = False
    return ok


def sweep(base: ProtocolConfig, axes: Mapping[str, Sequence[float]]) -> np.ndarray:
    """Evaluate run_exact over a cartesian grid into one table, a row per point.

    The table is a structured array with the fields of ROW_COLUMNS: float64
    numbers, the cutoff as an object (a grid's int may lie beyond int64) and
    the error code as text as wide as the longest code. Rows follow
    row-major order over the axes in their declared order (the last-declared
    axis varies fastest). A point whose run_exact would raise a validation,
    truncation, or impossible-outcome error yields a row with NaN results
    and that error's code; the sweep itself never aborts, and it never warns.

    Each row is run_exact's result at its point, bit for bit, but no point
    runs run_exact. Every check ProtocolConfig and HeraldModel make reads one
    field, so each axis value is checked once and a point is valid when all
    of its values are; a coherent signal's tail is computed and checked once
    per (alpha, cutoff) pair, and herald_click reads it from there. The
    valid points of one cutoff are evaluated in batches whose temporaries
    stay near SWEEP_BATCH_BYTES (one point at least): one herald_click call
    and one pass of the figures routine run_exact uses per batch, which
    writes its rows as one block of the table. So the sweep
    holds 136 B per point plus a batch's temporaries per running thread.
    map_indexed runs the batches.
    """
    for name in axes:
        if name not in SWEEP_AXES:
            raise ValidationError(
                f"unknown sweep axis {name!r}; valid axes: {', '.join(SWEEP_AXES)}"
            )
    # an alpha axis takes real amplitudes and replaces the whole complex value
    cast = {"alpha": lambda v: complex(float(v)), "cutoff": int}
    grids = {name: [cast.get(name, float)(v) for v in axes[name]] for name in axes}
    for name, grid in grids.items():
        if not grid:
            raise ValidationError(f"sweep axis {name!r} is empty")
    base_values = {
        "alpha": base.alpha,
        "t": base.t,
        "p1": base.source_efficiency,
        "eta_r": base.herald.read_efficiency,
        "p_d": base.herald.dark_count,
        "cutoff": base.cutoff,
    }
    # each axis's values: its grid where swept, base's value otherwise
    values = {name: grids.get(name, [base_values[name]]) for name in SWEEP_AXES}
    accepted = {
        name: _accepted(base, name, values[name]) if name in grids else np.ones(1, dtype=bool)
        for name in SWEEP_AXES
    }
    numbers = {
        name: np.array(values[name], dtype=np.complex128 if name == "alpha" else np.float64)
        for name in ("alpha", "t", "p1", "eta_r", "p_d")
    }
    leading = np.array([
        (t ** 2, 1.0 / t) if ok else (math.nan, math.nan)
        for t, ok in zip(values["t"], accepted["t"])
    ])
    cutoffs = values["cutoff"]
    coherent = base.input_kind == "coherent"
    # the coherent signal's tail at each (alpha, cutoff) pair, 0 where either is rejected
    tails = {
        c: np.array([
            _coherent_tail(a, cutoff) if ok else 0.0
            for a, ok in zip(values["alpha"], accepted["alpha"])
        ])
        for c, cutoff in enumerate(cutoffs)
        if coherent and accepted["cutoff"][c]
    }

    names = list(grids)
    shape = tuple(len(grids[name]) for name in names)
    rows = np.empty(math.prod(shape), dtype=_ROW_DTYPE)
    # the table as (points before the cutoff axis, cutoff, points after it)
    axis = names.index("cutoff") if "cutoff" in grids else len(names)
    outer, inner = math.prod(shape[:axis]), math.prod(shape[axis + 1 :])
    blocks = rows.reshape(outer, len(cutoffs), inner)
    batches = []
    for c, cutoff in enumerate(cutoffs):
        levels = support_size(cutoff, coherent) if accepted["cutoff"][c] else 1
        cap = max(1, SWEEP_BATCH_BYTES // _point_bytes(levels))
        if inner >= cap:
            batches += [
                (c, o, o + 1, i, min(i + cap, inner))
                for o in range(outer)
                for i in range(0, inner, cap)
            ]
        else:
            step = cap // inner
            batches += [(c, o, min(o + step, outer), 0, inner) for o in range(0, outer, step)]
    herald = base.herald
    swept = [name for name in SWEEP_AXES if name in grids and name != "cutoff"]

    def weights_at(levels: int, eta: np.ndarray, pd: np.ndarray) -> np.ndarray:
        """Click weights at each point, made once per distinct (eta_r, p_d) pair."""
        pairs, pair_of = np.unique(np.stack([eta, pd], axis=1), axis=0, return_inverse=True)
        weights = np.array([
            replace(
                herald, read_efficiency=values["eta_r"][e], dark_count=values["p_d"][d]
            ).click_weights(levels - 1)
            for e, d in pairs.tolist()
        ])
        return weights[pair_of.reshape(-1)]

    def evaluate(batch) -> None:
        c, o0, o1, i0, i1 = batch
        block = blocks[o0:o1, c, i0:i1]
        n = block.size
        flat = (np.arange(o0, o1)[:, None] * len(cutoffs) + c) * inner + np.arange(i0, i1)
        index = dict(zip(names, np.unravel_index(flat.ravel(), shape)))
        # each axis's values at the batch's points: an array where swept, a scalar otherwise
        at = {
            name: column[index[name]] if name in index else column[0]
            for name, column in numbers.items()
        }
        code = np.full(n, "", dtype=_ROW_DTYPE["error_code"])
        valid = np.full(n, bool(accepted["cutoff"][c]))
        for name in swept:
            valid &= accepted[name][index[name]]
        code[~valid] = "validation"
        tail = np.zeros(n)
        if c in tails:
            tail = np.broadcast_to(tails[c][index["alpha"] if "alpha" in index else 0], n)
            code[valid & (tail > TAIL_THRESHOLD)] = "truncation"
            valid &= tail <= TAIL_THRESHOLD
        outcome = np.full((3, n), math.nan)
        k = np.flatnonzero(valid)
        if len(k):
            levels = support_size(cutoffs[c], coherent)
            if "eta_r" in index or "p_d" in index:
                zero = np.zeros(n, dtype=np.intp)
                weights = weights_at(levels, index.get("eta_r", zero)[k], index.get("p_d", zero)[k])
            else:
                weights = np.broadcast_to(herald.click_weights(levels - 1), (len(k), levels))
            alpha, t, p1 = (np.broadcast_to(at[name], n)[k] for name in ("alpha", "t", "p1"))
            heralded = herald_click(
                alpha, tail[k], t, cutoffs[c], coherent, p1, weights, herald.mode
            )
            figures = _figures(*heralded, alpha, t, p1, weights, not coherent or cutoffs[c] == 1)
            outcome[:, k], code[k] = figures[:3], figures[3]
            outcome[0, k[code[k] != ""]] = math.nan
        lead = leading[index["t"]] if "t" in index else leading[0]
        # ROW_COLUMNS: alpha split in two, the other axes in SWEEP_AXES order, the outcome
        for name, column in (
            ("alpha_re", at["alpha"].real),
            ("alpha_im", at["alpha"].imag),
            ("t", at["t"]),
            ("p1", at["p1"]),
            ("eta_r", at["eta_r"]),
            ("p_d", at["p_d"]),
            ("success_prob", outcome[0]),
            ("gain", outcome[1]),
            ("fidelity", outcome[2]),
            ("leading_p", lead[..., 0]),
            ("leading_gain", lead[..., 1]),
            ("error_code", code),
        ):
            block[name] = np.reshape(column, block.shape) if np.ndim(column) else column
        block["cutoff"] = cutoffs[c]

    map_indexed(evaluate, batches)
    return rows
