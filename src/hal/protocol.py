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
closed form; no two-mode state is ever formed.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass, field, replace
from typing import Mapping, Sequence, Union

import numpy as np

from ._parallel import map_indexed
from .errors import (
    HalError,
    ImpossibleOutcomeError,
    TruncationError,
    ValidationError,
)
from .fock_core import (
    DEFAULT_CUTOFF,
    TAIL_THRESHOLD,
    DensityOperator,
    PureState,
    _finite_amplitude,
    fidelity,
)
from .optics_ops import IMPOSSIBLE_PROBABILITY, HeraldModel, herald_click

State = Union[PureState, DensityOperator]

#: Operational reading of |alpha| << t << 1 for the recommended-regime flag.
REGIME_ALPHA_FRACTION = 0.2
REGIME_T_MAX = 0.3


#: Largest Fock cutoff per mode a ProtocolConfig accepts. run_exact's
#: closed form takes O(cutoff^2) time and memory (its mixed conditional
#: state skips DensityOperator's O(cutoff^3) eigenvalue check, being one by
#: construction), and hal protocol then writes a (cutoff+1)^2 conditional
#: state, which dominates. One hal protocol process (t 0.2, p1 0.9, read
#: efficiency 0.9, dark count 1e-4; one CPU of a 2-vCPU x86 VM, 3 runs, with
#: that check still made) at cutoff 400 took 0.63-0.82 s and 59 MB peak RSS
#: for alpha 0.01, and 0.86-0.93 s and 67 MB for a coherent input at alpha
#: 15, which fills every occupation. At cutoff 700 these were 1.4-2.2 s /
#: 112 MB and 1.9-2.4 s / 118 MB.
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


def target_state(alpha: complex, t: float, cutoff: int = 1) -> PureState:
    """The ideal amplified state: |0> + (alpha/t)|1> normalized."""
    amp = np.zeros(cutoff + 1, dtype=np.complex128)
    amp[0] = 1.0
    amp[1] = complex(alpha) / t
    return PureState(amp, cutoff).normalized()


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


def _pure_gain(conditional: PureState, alpha_mag: float) -> float:
    c = conditional.amplitudes
    if alpha_mag == 0.0 or abs(c[0]) == 0.0:
        return float("nan")
    # |c0| |alpha| is about t / |1 - 2t^2| for large alpha, a normal double
    # for every accepted t; the quotient |c1| / |c0| alone can overflow
    return float(abs(c[1]) / (abs(c[0]) * alpha_mag))


def _mixed_gain(conditional: DensityOperator, alpha_mag: float) -> float:
    d = conditional.diagonal()
    if alpha_mag == 0.0 or d[0] <= 0.0:
        return float("nan")
    return float(math.sqrt(d[1] / d[0]) / alpha_mag)


def run_exact(config: ProtocolConfig) -> HeraldResult:
    """Evaluate the protocol exactly in truncated Fock space.

    The source terms signal x |1> (weight p1) and signal x |0> (weight
    1 - p1) are the branches; a zero-weight term is skipped.
    optics_ops.herald_click gives their weighted sum, reduced on the read
    mode by the herald's click weights w, as an unnormalized conditional
    state whose trace is the click probability. The photon branch loses the
    two entries its splitter moves past the cutoff; their probability is
    the leakage (the vacuum branch loses none).

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
    """
    _warn_if_out_of_regime(config)
    cutoff = config.cutoff
    w = config.herald.click_weights(cutoff)
    p1 = config.source_efficiency
    rho, row, leakage = herald_click(
        config.alpha, config.t, cutoff, config.input_kind == "coherent", p1, w, config.herald.mode
    )
    if leakage > TAIL_THRESHOLD:
        raise TruncationError(
            f"beam-splitter leakage {leakage:.3e} exceeds threshold {TAIL_THRESHOLD:.1e}",
            tail_mass=leakage,
            threshold=TAIL_THRESHOLD,
        )
    p = float(np.trace(rho).real)
    if p < IMPOSSIBLE_PROBABILITY:
        raise ImpossibleOutcomeError(f"herald click has probability {p:.3e}", p)
    alpha_mag = abs(config.alpha)
    if p1 == 1.0 and w[1] == 1.0 and np.count_nonzero(w) == 1:
        # the photon branch alone under the n = 1 projector stays pure
        conditional = PureState(row, cutoff).normalized()
        gain = _pure_gain(conditional, alpha_mag)
    else:
        conditional = DensityOperator._unchecked(rho / p, cutoff)
        gain = _mixed_gain(conditional, alpha_mag)
    fid = fidelity(conditional, target_state(config.alpha, config.t, cutoff))
    return HeraldResult(
        success_probability=p,
        conditional_state=conditional,
        gain=gain,
        fidelity_to_target=fid,
        leading_order=LeadingOrder(p=config.t ** 2, gain=1.0 / config.t),
        leakage=leakage,
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

#: A sweep row's error_code: the first entry the point's error is an instance of.
_ERROR_CODES = (
    (TruncationError, "truncation"),
    (ImpossibleOutcomeError, "impossible"),
    (ValidationError, "validation"),
    (HalError, "error"),
)

_FIELD_TYPES = {"cutoff": object, "error_code": f"U{max(len(code) for _, code in _ERROR_CODES)}"}
_ROW_DTYPE = np.dtype([(name, _FIELD_TYPES.get(name, np.float64)) for name in ROW_COLUMNS])


def _point_config(base: ProtocolConfig, params: Mapping[str, object]) -> ProtocolConfig:
    """base with every sweep parameter rewritten from params (keyed by SWEEP_AXES)."""
    herald = replace(base.herald, read_efficiency=params["eta_r"], dark_count=params["p_d"])
    return replace(
        base,
        alpha=params["alpha"],
        t=params["t"],
        cutoff=params["cutoff"],
        source_efficiency=params["p1"],
        herald=herald,
    )


def sweep(base: ProtocolConfig, axes: Mapping[str, Sequence[float]]) -> np.ndarray:
    """Evaluate run_exact over a cartesian grid into one table, a row per point.

    The table is a structured array with the fields of ROW_COLUMNS: float64
    numbers, the cutoff as an object (a grid's int may lie beyond int64) and
    the error code as text as wide as the longest code. Rows follow
    row-major order over the axes in their declared order (the last-declared
    axis varies fastest); point i takes its axis values from i and writes
    row i, so the sweep holds 136 B per point. A point that raises a
    validation, truncation, or impossible-outcome error yields a row with
    NaN results and a nonempty error_code; the sweep itself never aborts.
    """
    for name in axes:
        if name not in SWEEP_AXES:
            raise ValidationError(
                f"unknown sweep axis {name!r}; valid axes: {', '.join(SWEEP_AXES)}"
            )
    # an alpha axis takes real amplitudes and replaces the whole complex value
    cast = {"alpha": lambda v: complex(float(v)), "cutoff": int}
    grids = [[cast.get(name, float)(v) for v in axes[name]] for name in axes]
    for name, grid in zip(axes, grids):
        if not grid:
            raise ValidationError(f"sweep axis {name!r} is empty")
    base_params = {
        "alpha": base.alpha,
        "t": base.t,
        "p1": base.source_efficiency,
        "eta_r": base.herald.read_efficiency,
        "p_d": base.herald.dark_count,
        "cutoff": base.cutoff,
    }
    shape = tuple(len(grid) for grid in grids)
    rows = np.empty(math.prod(shape), dtype=_ROW_DTYPE)

    def evaluate(i: int) -> None:
        at = np.unravel_index(i, shape)
        params = {**base_params, **{name: grid[k] for name, grid, k in zip(axes, grids, at)}}
        t = params["t"]
        try:
            result = run_exact(_point_config(base, params))
            outcome = (
                result.success_probability,
                result.gain,
                result.fidelity_to_target,
                result.leading_order.p,
                result.leading_order.gain,
                "",
            )
        except HalError as exc:
            leading = (t ** 2, 1.0 / t) if sys.float_info.min <= t < 1.0 else (math.nan, math.nan)
            code = next(c for cls, c in _ERROR_CODES if isinstance(exc, cls))
            outcome = (math.nan, math.nan, math.nan, *leading, code)
        alpha = params["alpha"]
        # ROW_COLUMNS: alpha split in two, the other axes in SWEEP_AXES order, the outcome
        rows[i] = (alpha.real, alpha.imag, *(params[name] for name in SWEEP_AXES[1:]), *outcome)

    # catch_warnings is not thread-safe: it is entered once, here, around
    # every worker, never inside one
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RegimeWarning)
        map_indexed(evaluate, range(len(rows)))
    return rows
