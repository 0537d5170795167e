"""Heralded amplification of small coherent amplitudes, simulated exactly.

The package covers the full chain: truncated-Fock-space states and linear
optics, the heralded amplification protocol with imperfections, the mapping
from a collectively rotated spin ensemble onto an oscillator mode, and Monte
Carlo homodyne-estimation campaigns comparing the direct and amplified
measurement schemes under white, correlated, and systematic noise.
"""

__version__ = "1.0.0"

from .errors import (
    GridError,
    HalError,
    ImpossibleOutcomeError,
    NoSuccessError,
    ShapeError,
    TruncationError,
    ValidationError,
)
from .fock_core import (
    DEFAULT_CUTOFF,
    TAIL_THRESHOLD,
    DensityOperator,
    PureState,
    coherent_state,
    fidelity,
    number_state,
)
from .optics_ops import HeraldModel
from .spin_ensemble import (
    CollectiveExpectations,
    DickeState,
    EnsembleSpec,
    collective_expectations,
    embed_as_fock,
    oscillator_approximation,
    rotated_product_state,
)
from .protocol import (
    ROW_COLUMNS,
    HeraldResult,
    LeadingOrder,
    ProtocolConfig,
    RegimeWarning,
    run_exact,
    run_first_order,
    sweep,
)
from .metrology import (
    CampaignConfig,
    CampaignSummary,
    NoiseModel,
    TimeBudget,
    estimate_alpha,
    noise_series,
    quadrature_pdf,
    run_campaign,
    sample_homodyne,
    time_budget,
)
from .validate import CheckResult, run_checks

__all__ = [
    "__version__",
    "GridError",
    "HalError",
    "ImpossibleOutcomeError",
    "NoSuccessError",
    "ShapeError",
    "TruncationError",
    "ValidationError",
    "DEFAULT_CUTOFF",
    "TAIL_THRESHOLD",
    "DensityOperator",
    "PureState",
    "coherent_state",
    "fidelity",
    "number_state",
    "HeraldModel",
    "CollectiveExpectations",
    "DickeState",
    "EnsembleSpec",
    "collective_expectations",
    "embed_as_fock",
    "oscillator_approximation",
    "rotated_product_state",
    "ROW_COLUMNS",
    "HeraldResult",
    "LeadingOrder",
    "ProtocolConfig",
    "RegimeWarning",
    "run_exact",
    "run_first_order",
    "sweep",
    "CampaignConfig",
    "CampaignSummary",
    "NoiseModel",
    "TimeBudget",
    "estimate_alpha",
    "noise_series",
    "quadrature_pdf",
    "run_campaign",
    "sample_homodyne",
    "time_budget",
    "CheckResult",
    "run_checks",
]
