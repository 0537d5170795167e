"""The per-attempt direct engine, kept as a reference for the closed form.

Before `hal.metrology` drew a direct replica in closed form, it sampled every
attempt: R uniforms inverted through the tabulated homodyne density of the
coherent state |true_alpha> at cutoff 12, then R values of `noise_series`,
both from the replica stream in that order, and it estimated alpha as
mean(quad + noise)/sqrt(2). The engine streamed those two sums over chunks
of 65536 draws; this unstreamed form matched it to 5e-15 per estimate.
"""

from typing import List, Tuple

import numpy as np

from hal.fock_core import DEFAULT_CUTOFF, coherent_state
from hal.metrology import (
    CampaignConfig,
    _InverseCdf,
    _replica_rng,
    _sample_from_density,
    estimate_alpha,
    noise_series,
    quadrature_pdf,
)


Records = List[Tuple[np.ndarray, np.ndarray]]


def reference_direct(config: CampaignConfig) -> Tuple[np.ndarray, Records]:
    """Per-replica estimates and (quad + noise, noise) records of a direct
    campaign, every attempt drawn."""
    table = _InverseCdf.of(quadrature_pdf(coherent_state(config.true_alpha, DEFAULT_CUTOFF), 0.0))
    estimates, records = [], []
    for replica in range(config.replicas):
        rng = _replica_rng(config.seed, replica)
        quad = _sample_from_density(table, config.attempts, rng)
        noise = noise_series(config.noise, config.attempts, rng)
        quad += noise
        estimates.append(estimate_alpha(quad, "direct"))
        records.append((quad, noise))
    return np.array(estimates), records
