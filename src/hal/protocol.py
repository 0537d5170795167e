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
exactly 1/t). run_exact simulates the full unitary in truncated Fock space
with source inefficiency, detector loss and dark counts, so all higher-order
corrections (notably gain*t = 1 - 2t^2 for an ideal setup) appear in the
numbers rather than in an error term.

run_exact has a single pipeline. The imperfect source is a mixture of pure
inputs, and the herald POVM is diagonal in the read mode's occupation, so
the conditional state is exactly rho = sum_b p_b sum_n w(n) v_{b,n} v_{b,n}^dag:
each source term b is a pure branch sent through the beam splitter, and
v_{b,n} is the other mode's amplitude vector when the read mode holds n. No
two-mode density matrix is ever formed.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace
from typing import Dict, List, Mapping, Sequence, Union

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
    ComplexAmplitude,
    DensityOperator,
    PureState,
    coherent_state,
    fidelity,
    number_state,
    tensor_product,
)
from .optics_ops import (
    IMPOSSIBLE_PROBABILITY,
    BeamSplitter,
    HeraldModel,
    apply_beam_splitter,
    herald_operator,
    project_number,
)

State = Union[PureState, DensityOperator]

#: Operational reading of |alpha| << t << 1 for the recommended-regime flag.
REGIME_ALPHA_FRACTION = 0.2
REGIME_T_MAX = 0.3


#: Largest Fock cutoff per mode a ProtocolConfig accepts. Per branch,
#: run_exact builds the splitter images of two input columns, O(cutoff^2),
#: and one O(cutoff^3) herald product; hal protocol then writes a
#: (cutoff+1)^2 conditional state. One hal protocol process (t 0.2, p1 0.9,
#: read efficiency 0.9, dark count 1e-4; 2-vCPU x86 machine) at cutoff 400
#: took 0.4 s and 59 MB peak RSS for alpha 0.01, and 0.65 s and 68 MB for a
#: coherent input at alpha 15, which fills every sector. At cutoff 700 these
#: were 1.6 s / 110 MB and 1.7 s / 129 MB.
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

    alpha: ComplexAmplitude
    t: float
    cutoff: int = DEFAULT_CUTOFF
    input_kind: str = "truncated"
    source_efficiency: float = 1.0
    herald: HeraldModel = field(default_factory=HeraldModel)

    def __post_init__(self):
        object.__setattr__(self, "alpha", ComplexAmplitude.of(self.alpha))
        if not (isinstance(self.t, (int, float)) and 0.0 < self.t < 1.0):
            raise ValidationError(f"transmission amplitude must be in (0,1), got {self.t!r}")
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
    return PureState(amp, cutoff, 1).normalized()


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
    a = ComplexAmplitude.of(alpha).as_complex()
    config = ProtocolConfig(alpha=a, t=t, cutoff=1)
    _warn_if_out_of_regime(config)
    p = t * t + abs(a) ** 2
    conditional = PureState(np.array([t, a], dtype=np.complex128), 1, 1).normalized()
    return HeraldResult(
        success_probability=p,
        conditional_state=conditional,
        gain=1.0 / t,
        fidelity_to_target=1.0,
        leading_order=LeadingOrder(p=t * t, gain=1.0 / t),
        leakage=0.0,
    )


def _signal_state(config: ProtocolConfig) -> PureState:
    a = config.alpha.as_complex()
    if config.input_kind == "coherent":
        return coherent_state(a, config.cutoff)
    amp = np.zeros(config.cutoff + 1, dtype=np.complex128)
    amp[0] = 1.0
    amp[1] = a
    return PureState(amp, config.cutoff, 1).normalized()


def _pure_gain(conditional: PureState, alpha_mag: float) -> float:
    c = conditional.amplitudes
    if alpha_mag == 0.0 or abs(c[0]) == 0.0:
        return float("nan")
    return float(abs(c[1]) / abs(c[0]) / alpha_mag)


def _mixed_gain(conditional: DensityOperator, alpha_mag: float) -> float:
    d = conditional.diagonal()
    if alpha_mag == 0.0 or d[0] <= 0.0:
        return float("nan")
    return float(math.sqrt(d[1] / d[0]) / alpha_mag)


def _photon_leakage(signal: PureState, t: float) -> float:
    """The probability that the splitter moves |signal>|1> past the cutoff c.

    A column |k, 0> keeps its total k <= c and |k, 1> its total k + 1, so
    only |c, 1> leaks. Of its image (t a^dag + r b^dag) U|c, 0> the splitter
    drops the two entries |c + 1, 0> and |0, c + 1>, whose amplitudes are
    sqrt(c + 1) t r^c and sqrt(c + 1) r (-t)^c (see
    optics_ops._column_images); r^(2c) is taken as exp(c log1p(-t^2)).
    """
    c = signal.cutoff
    dropped = (c + 1) * (t * t * math.exp(c * math.log1p(-t * t)) + (1.0 - t * t) * t ** (2 * c))
    return float(abs(signal.amplitudes[c])) ** 2 * dropped


def run_exact(config: ProtocolConfig) -> HeraldResult:
    """Evaluate the protocol exactly in truncated Fock space.

    The source terms signal x |1> (weight p1) and signal x |0> (weight
    1 - p1) are the branches; a zero-weight term is skipped. Each branch
    goes through the beam splitter as a pure state, losing the image
    entries past the cutoff (their probability is the leakage, see
    `_photon_leakage`; the vacuum branch loses none), and the herald's click
    weights w reduce it on the read mode to an operator on the other mode.
    The weighted sum of these is the unnormalized conditional state, and its
    trace is the click probability.

    The conditional state is a PureState when the source is perfect and the
    herald is the n = 1 projector (a lossless, dark-count-free,
    number-resolving detector), and a DensityOperator otherwise.

    Raises
    ------
    TruncationError
        If the leakage, weighted over the branches, exceeds TAIL_THRESHOLD.
    ImpossibleOutcomeError
        If the total click probability is below 1e-300. A branch that cannot
        click on its own (the vacuum branch at alpha = 0) is not an error.
    """
    _warn_if_out_of_regime(config)
    bs = BeamSplitter(config.t)
    signal = _signal_state(config)
    cutoff = config.cutoff
    herald = config.herald
    w = herald.click_weights(cutoff)
    p1 = config.source_efficiency
    branches = [(p, n) for p, n in ((p1, 1), (1.0 - p1, 0)) if p > 0.0]
    rho = np.zeros((cutoff + 1, cutoff + 1), dtype=np.complex128)
    leakage = 0.0
    for weight, photons in branches:
        psi_in = tensor_product(signal, number_state(photons, cutoff))
        out = apply_beam_splitter(psi_in, bs)
        rho += weight * herald_operator(out.as_two_mode_matrix(), w, herald.mode)
        if photons:
            leakage += weight * _photon_leakage(signal, config.t)
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
    if branches == [(1.0, 1)] and np.array_equal(w, np.eye(cutoff + 1)[1]):
        # a single branch under the n = 1 projector stays pure
        _, conditional = project_number(out, herald.mode, 1)
        gain = _pure_gain(conditional, alpha_mag)
    else:
        conditional = DensityOperator(rho / p, cutoff)
        gain = _mixed_gain(conditional, alpha_mag)
    fid = fidelity(conditional, target_state(config.alpha.as_complex(), config.t, cutoff))
    return HeraldResult(
        success_probability=p,
        conditional_state=conditional,
        gain=gain,
        fidelity_to_target=fid,
        leading_order=LeadingOrder(p=config.t ** 2, gain=1.0 / config.t),
        leakage=leakage,
    )


#: Column order for serialized sweep rows (CSV header and JSON key order).
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

_ERROR_CODES = (
    (TruncationError, "truncation"),
    (ImpossibleOutcomeError, "impossible"),
    (ValidationError, "validation"),
    (HalError, "error"),
)


def _point_config(base: ProtocolConfig, point: Mapping[str, float]) -> ProtocolConfig:
    """Rebuild a config with axis values substituted.

    The alpha axis takes real amplitudes and replaces the whole complex
    value; eta_r and p_d rewrite the herald model in place. Axis names are
    checked by sweep before any point is built.
    """
    kwargs: Dict[str, object] = {}
    herald_kwargs: Dict[str, float] = {}
    for name, value in point.items():
        if name == "alpha":
            kwargs["alpha"] = ComplexAmplitude.of(float(value))
        elif name == "t":
            kwargs["t"] = float(value)
        elif name == "p1":
            kwargs["source_efficiency"] = float(value)
        elif name == "cutoff":
            kwargs["cutoff"] = int(value)
        elif name == "eta_r":
            herald_kwargs["read_efficiency"] = float(value)
        elif name == "p_d":
            herald_kwargs["dark_count"] = float(value)
    if herald_kwargs:
        kwargs["herald"] = replace(base.herald, **herald_kwargs)
    return replace(base, **kwargs)


def _row_skeleton(base: ProtocolConfig, point: Mapping[str, float]) -> Dict[str, object]:
    """Row parameter fields, taken from the substituted values or the base."""

    def pick(name, fallback):
        return float(point[name]) if name in point else fallback

    alpha = complex(point["alpha"]) if "alpha" in point else base.alpha.as_complex()
    return {
        "alpha_re": alpha.real,
        "alpha_im": alpha.imag,
        "t": pick("t", base.t),
        "p1": pick("p1", base.source_efficiency),
        "eta_r": pick("eta_r", base.herald.read_efficiency),
        "p_d": pick("p_d", base.herald.dark_count),
        "cutoff": int(point["cutoff"]) if "cutoff" in point else base.cutoff,
        "success_prob": float("nan"),
        "gain": float("nan"),
        "fidelity": float("nan"),
        "leading_p": float("nan"),
        "leading_gain": float("nan"),
        "error_code": "",
    }


def _error_code(exc: HalError) -> str:
    for cls, code in _ERROR_CODES:
        if isinstance(exc, cls):
            return code
    return "error"


def sweep(
    base: ProtocolConfig, axes: Mapping[str, Sequence[float]]
) -> List[Dict[str, object]]:
    """Evaluate run_exact over a cartesian grid, one row dict per point.

    Rows follow row-major order over the axes in their declared order (the
    last-declared axis varies fastest). A point that raises a validation,
    truncation, or impossible-outcome error yields a row with NaN results
    and a nonempty error_code; the sweep itself never aborts. Rows carry the
    fields in ROW_COLUMNS order.
    """
    for name in axes:
        if name not in SWEEP_AXES:
            raise ValidationError(
                f"unknown sweep axis {name!r}; valid axes: {', '.join(SWEEP_AXES)}"
            )
    names = list(axes.keys())
    value_lists = [list(axes[n]) for n in names]
    for name, values in zip(names, value_lists):
        if len(values) == 0:
            raise ValidationError(f"sweep axis {name!r} is empty")
    points: List[Dict[str, float]] = []
    total = 1
    for values in value_lists:
        total *= len(values)
    for flat in range(total):
        rem = flat
        point = {}
        for axis in range(len(names) - 1, -1, -1):
            rem, k = divmod(rem, len(value_lists[axis]))
            point[names[axis]] = value_lists[axis][k]
        points.append(point)

    def evaluate(point: Dict[str, float]) -> Dict[str, object]:
        row = _row_skeleton(base, point)
        try:
            result = run_exact(_point_config(base, point))
        except HalError as exc:
            row["error_code"] = _error_code(exc)
            if 0.0 < row["t"] < 1.0:
                row["leading_p"] = row["t"] ** 2
                row["leading_gain"] = 1.0 / row["t"]
            return row
        row["success_prob"] = result.success_probability
        row["gain"] = result.gain
        row["fidelity"] = result.fidelity_to_target
        row["leading_p"] = result.leading_order.p
        row["leading_gain"] = result.leading_order.gain
        return row

    # catch_warnings is not thread-safe: it is entered once, here, around
    # every worker, never inside one
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RegimeWarning)
        return map_indexed(evaluate, points)
