import math
import tracemalloc

import numpy as np
import pytest

from hal.errors import GridError, NoSuccessError, ValidationError
from hal.fock_core import DEFAULT_CUTOFF, DensityOperator, coherent_state, number_state
from hal.metrology import (
    MAX_ATTEMPTS,
    MAX_RECORDED_ATTEMPTS,
    MAX_TOTAL_ATTEMPTS,
    CampaignConfig,
    NoiseModel,
    _SAMPLE_CHUNK,
    _InverseCdf,
    _ar1_tail_weights,
    _direct_replica,
    _drive,
    _noise_sum,
    _replica_rng,
    _sample_from_density,
    default_grid,
    estimate_alpha,
    hermite_functions,
    noise_series,
    quadrature_pdf,
    run_campaign,
    sample_homodyne,
    time_budget,
)
from hal.protocol import HeraldModel, ProtocolConfig, run_exact

SQRT2 = math.sqrt(2.0)


def analytic_mean_x(state):
    amp = state.amplitudes / state.norm()
    n = np.arange(len(amp) - 1)
    return SQRT2 * float(np.real(np.sum(np.conj(amp[:-1]) * amp[1:] * np.sqrt(n + 1))))


def test_hermite_orthonormality():
    x = default_grid()
    u = hermite_functions(12, x)
    gram = np.trapezoid(u[:, None, :] * u[None, :, :], x, axis=-1)
    assert np.max(np.abs(gram - np.eye(13))) < 1e-8


def test_vacuum_pdf_closed_form():
    pdf = quadrature_pdf(number_state(0, 8))
    want = np.exp(-pdf.x ** 2) / math.sqrt(math.pi)
    assert np.max(np.abs(pdf.density - want)) < 1e-12
    assert abs(pdf.mean()) < 1e-12
    assert abs(pdf.variance() - 0.5) < 1e-9


def test_single_photon_pdf_closed_form():
    pdf = quadrature_pdf(number_state(1, 8))
    want = 2.0 * pdf.x ** 2 * np.exp(-pdf.x ** 2) / math.sqrt(math.pi)
    assert np.max(np.abs(pdf.density - want)) < 1e-12
    assert abs(pdf.variance() - 1.5) < 1e-9


def test_coherent_pdf_mean():
    pdf = quadrature_pdf(coherent_state(0.1, 12))
    assert abs(pdf.mean() - SQRT2 * 0.1) < 1e-6
    assert abs(pdf.variance() - 0.5) < 1e-6


def test_phase_quarter_turn_kills_real_displacement():
    pdf = quadrature_pdf(coherent_state(0.1, 12), phase=math.pi / 2)
    assert abs(pdf.mean()) < 1e-9


def test_mixed_pdf_is_weighted_sum():
    rho = DensityOperator(np.diag([0.7, 0.3, 0.0, 0.0, 0.0, 0.0, 0.0]), 6)
    pdf = quadrature_pdf(rho)
    p0 = quadrature_pdf(number_state(0, 6))
    p1 = quadrature_pdf(number_state(1, 6))
    assert np.max(np.abs(pdf.density - (0.7 * p0.density + 0.3 * p1.density))) < 1e-12


def test_mixed_pdf_matches_pure_for_pure_density():
    psi = coherent_state(0.2, 10)
    a = quadrature_pdf(psi)
    b = quadrature_pdf(DensityOperator(np.outer(psi.amplitudes, psi.amplitudes.conj()), 10))
    assert np.max(np.abs(a.density - b.density)) < 1e-12


def test_grid_too_narrow_raises():
    with pytest.raises(GridError):
        quadrature_pdf(number_state(0, 4), grid=np.linspace(-1.0, 1.0, 2001))


def test_grid_too_coarse_raises():
    with pytest.raises(GridError):
        quadrature_pdf(number_state(3, 8), grid=np.linspace(-8.0, 8.0, 9))


def test_grid_must_increase():
    with pytest.raises(GridError):
        quadrature_pdf(number_state(0, 4), grid=np.array([0.0, 0.0, 1.0]))


def test_sampling_is_deterministic_per_seed():
    state = coherent_state(0.1, 10)
    a = sample_homodyne(state, 0.0, 500, np.random.Generator(np.random.Philox(5)))
    b = sample_homodyne(state, 0.0, 500, np.random.Generator(np.random.Philox(5)))
    assert np.array_equal(a, b)


def test_vacuum_sample_mean_clt():
    n = 100_000
    xs = sample_homodyne(number_state(0, 6), 0.0, n, np.random.Generator(np.random.Philox(11)))
    assert abs(xs.mean()) < 5.0 * math.sqrt(0.5 / n)


def test_coherent_sample_variance():
    n = 1_000_000
    xs = sample_homodyne(coherent_state(0.3, 12), 0.0, n,
                         np.random.Generator(np.random.Philox(12)))
    assert abs(xs.var() - 0.5) < 0.005
    assert abs(xs.mean() - SQRT2 * 0.3) < 5.0 * math.sqrt(0.5 / n)


def _interp_reference(pdf, count, rng):
    # the sampler as it was before the guide table: np.interp on a per-call CDF
    x, dens = pdf.x, pdf.density
    cdf = np.concatenate(([0.0], np.cumsum(0.5 * (dens[1:] + dens[:-1]) * np.diff(x))))
    cdf /= cdf[-1]
    return np.interp(rng.random(count), cdf, x)


def _mixed_conditional_state():
    herald = HeraldModel(read_efficiency=0.9, dark_count=1e-4)
    proto = ProtocolConfig(alpha=0.01, t=0.1, source_efficiency=0.9, herald=herald)
    return run_exact(proto).conditional_state


SAMPLER_STATES = {
    "coherent-0": lambda: coherent_state(0.0, 30),
    "coherent-0.01": lambda: coherent_state(0.01, 30),
    "coherent-1": lambda: coherent_state(1.0, 30),
    "coherent-2": lambda: coherent_state(2.0, 30),
    "mixed-conditional": _mixed_conditional_state,
}


@pytest.mark.parametrize("name", sorted(SAMPLER_STATES))
def test_sampler_matches_interp_oracle_bit_for_bit(name):
    state = SAMPLER_STATES[name]()
    pdf = quadrature_pdf(state, 0.0)
    table = _InverseCdf.of(pdf)
    for seed, count in enumerate((0, 1, 7, 2**16 - 1, 2**16, 2**16 + 1, 10**6)):
        ref_rng = np.random.Generator(np.random.Philox(100 + seed))
        rng = np.random.Generator(np.random.Philox(100 + seed))
        expected = _interp_reference(pdf, count, ref_rng)
        got = _sample_from_density(table, count, rng)
        assert got.shape == (count,)
        assert np.array_equal(got, expected), (name, count)
        # the draws that follow come from the same place in the stream
        assert np.array_equal(rng.standard_normal(8), ref_rng.standard_normal(8))
        if count <= 2**16 + 1:
            again = sample_homodyne(state, 0.0, count, np.random.Generator(np.random.Philox(100 + seed)))
            assert np.array_equal(again, expected), (name, count)


class _FixedUniforms:
    """A stand-in generator whose random() hands out given values in order."""

    def __init__(self, u):
        self.u, self.pos = u, 0

    def random(self, count):
        self.pos += count
        return self.u[self.pos - count : self.pos]


def test_sampler_matches_interp_on_grid_points_and_flat_tails():
    # on [-40, 40] the vacuum density underflows to 0: flat cdf steps with
    # infinite slopes at both ends, and uniforms equal to cdf grid values
    pdf = quadrature_pdf(number_state(0, 4), grid=np.linspace(-40.0, 40.0, 8001))
    table = _InverseCdf.of(pdf)
    cdf = table.cdf
    u = np.concatenate((cdf[:-1], 0.5 * (cdf[1:] + cdf[:-1]), np.nextafter(cdf[:-1], 1.0)))
    u = u[u < 1.0]
    assert np.count_nonzero(u == 0.0) > 1 and np.any(np.isinf(table.slopes))
    with np.errstate(all="raise"):
        got = _sample_from_density(table, u.shape[0], _FixedUniforms(u))
    expected = np.interp(u, cdf, table.x)
    assert got.tobytes() == expected.tobytes()


def test_direct_campaign_draws_are_sample_homodyne_draws():
    # one sampler: with no noise a direct replica records exactly the draws
    # sample_homodyne makes from the same replica stream
    cfg = CampaignConfig(scheme="direct", true_alpha=0.02, total_time=7000.0,
                         noise=NoiseModel(), seed=5, replicas=2)
    s = run_campaign(cfg, record_runs=True)
    for rec in s.run_records:
        rng = _replica_rng(5, rec.replica)
        quad = sample_homodyne(coherent_state(0.02, DEFAULT_CUTOFF), 0.0, cfg.attempts, rng)
        assert np.array_equal(rec.x_sample, quad)


def _philox(seed):
    return np.random.Generator(np.random.Philox(seed))


DIRECT_NOISES = {
    "white": NoiseModel(kind="white", sigma_tech=0.3),
    "ar1-0": NoiseModel(kind="ar1", sigma_tech=0.3, lam=0.0),
    "ar1-0.5": NoiseModel(kind="ar1", sigma_tech=0.3, lam=0.5),
    "ar1-0.99": NoiseModel(kind="ar1", sigma_tech=0.3, lam=0.99),
    "ar1-0.9999": NoiseModel(kind="ar1", sigma_tech=0.3, lam=0.9999),
    "systematic": NoiseModel(kind="systematic", offset=0.2),
    "zero": NoiseModel(),
}
DIRECT_COUNTS = (1, 2, _SAMPLE_CHUNK - 1, _SAMPLE_CHUNK, _SAMPLE_CHUNK + 1, 3 * _SAMPLE_CHUNK + 7)


@pytest.mark.parametrize("name", sorted(DIRECT_NOISES))
def test_streamed_direct_estimate_matches_the_sample_mean(name):
    # the two streamed sums give estimate_alpha of quad + noise_series drawn
    # from the same stream; the largest difference measured over these
    # cases is 1.4e-15 (ar1 at lambda 0.9999), all of it rounding
    model = DIRECT_NOISES[name]
    table = _InverseCdf.of(quadrature_pdf(coherent_state(0.01, DEFAULT_CUTOFF), 0.0))
    draws_noise = model.kind != "systematic" and model.sigma_tech > 0.0
    for seed, count in enumerate(DIRECT_COUNTS):
        tail = _ar1_tail_weights(model, count)
        rng = _philox(seed)
        est, quad, noise = _direct_replica(table, model, tail, count, rng, False)
        assert quad is None and noise is None
        ref_rng = _philox(seed)
        ref_quad = _sample_from_density(table, count, ref_rng)
        ref_noise = noise_series(model, count, ref_rng)
        assert abs(est - estimate_alpha(ref_quad + ref_noise, "direct")) <= 5e-15, count
        # recording copies the same chunks out and changes nothing else
        rec_rng = _philox(seed)
        rec_est, rec_quad, rec_noise = _direct_replica(table, model, tail, count, rec_rng, True)
        assert rec_est == est
        assert rec_quad.tobytes() == ref_quad.tobytes()
        assert rec_noise.tobytes() == ref_noise.tobytes()
        # the stream sits where count uniforms and count normals leave it
        raw = _philox(seed)
        raw.random(count)
        if draws_noise:
            raw.standard_normal(count)
        nxt = raw.random(4)
        assert np.array_equal(rng.random(4), nxt)
        assert np.array_equal(rec_rng.random(4), nxt)


@pytest.mark.parametrize("lam", [0.5, 0.99, 0.9999])
def test_ar1_closed_form_sum_matches_the_recurrence(lam):
    model = NoiseModel(kind="ar1", sigma_tech=0.3, lam=lam)
    for count in (1, 2, 1000, 3 * _SAMPLE_CHUNK + 7):
        tail = _ar1_tail_weights(model, count)
        total, series = _noise_sum(model, tail, count, _philox(count), False)
        assert series is None
        drive = _drive(model, _philox(count).standard_normal(count), True)
        y, ys = 0.0, []
        for d in drive.tolist():
            y = lam * y + d
            ys.append(y)
        # relative to the sum's scale; 1.6e-17 measured, as for the sum of
        # the blocked scan's values
        scale = float(np.sum(np.abs(drive))) / (1.0 - lam)
        assert abs(total - math.fsum(ys)) <= 1e-16 * scale, count
    # the weights beyond the stored tail are 1 exactly
    size = _ar1_tail_weights(model, 10**7).shape[0]
    assert size == math.ceil(54.0 * math.log(2.0) / -math.log(lam))
    assert -math.expm1((size + 1) * math.log(lam)) == 1.0
    white = NoiseModel(kind="white", sigma_tech=0.3)
    for model in (white, NoiseModel(kind="ar1", sigma_tech=0.3)):
        assert _ar1_tail_weights(model, 10**7).shape == (0,)


@pytest.mark.parametrize("name", sorted(DIRECT_NOISES))
def test_direct_summary_does_not_depend_on_recording(name):
    attempts = 2 * _SAMPLE_CHUNK + 3
    cfg = CampaignConfig(scheme="direct", true_alpha=0.01, total_time=attempts * 0.1 + 0.05,
                         noise=DIRECT_NOISES[name], seed=19, replicas=2)
    assert cfg.attempts == attempts
    plain, recorded = run_campaign(cfg), run_campaign(cfg, record_runs=True)
    assert plain.run_records is None and len(recorded.run_records) == 2
    fields = ("estimate_mean", "bias", "variance", "rmse", "per_replica_estimates", "successes")
    for field in fields:
        assert getattr(plain, field) == getattr(recorded, field), field


def test_unrecorded_direct_replica_memory_is_flat():
    # 1e6 attempts would be 8 MB per float array; the streamed replica holds
    # a few chunks of temporaries (4.2 MB measured) and the tail weights
    model = NoiseModel(kind="ar1", sigma_tech=0.1, lam=0.99)
    table = _InverseCdf.of(quadrature_pdf(coherent_state(0.01, DEFAULT_CUTOFF), 0.0))
    tail = _ar1_tail_weights(model, 10**6)
    rng = _philox(1)
    tracemalloc.start()
    try:
        _direct_replica(table, model, tail, 10**6, rng, False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * _SAMPLE_CHUNK * 8 + tail.nbytes < 10**6 * 8


@pytest.mark.parametrize("lam", [0.0, 0.5, 0.99, 0.9999])
def test_ar1_noise_matches_lfilter_oracle(lam):
    from scipy.signal import lfilter

    sigma = 0.3
    for n in (1, 2, 3, 99, 100, 101, 100_000):
        model = NoiseModel(kind="ar1", sigma_tech=sigma, lam=lam)
        w = noise_series(model, n, np.random.Generator(np.random.Philox(n)))
        xi = np.random.Generator(np.random.Philox(n)).standard_normal(n)
        drive = math.sqrt(1.0 - lam * lam) * sigma * xi
        drive[0] = sigma * xi[0]
        y = lfilter([1.0], [1.0, -lam], drive)
        assert w.shape == (n,)
        assert np.max(np.abs(w - y)) <= 1e-12 * np.max(np.abs(y)), (lam, n)


def test_noise_model_validation():
    with pytest.raises(ValidationError):
        NoiseModel(kind="pink")
    with pytest.raises(ValidationError):
        NoiseModel(sigma_tech=-0.1)
    with pytest.raises(ValidationError):
        NoiseModel(kind="ar1", sigma_tech=0.1, lam=1.0)
    # a nonzero field the kind ignores contradicts the kind
    for kind, field in (("white", "lam"), ("white", "offset"), ("ar1", "offset"),
                        ("systematic", "sigma_tech"), ("systematic", "lam")):
        with pytest.raises(ValidationError, match="does not use"):
            NoiseModel(kind=kind, **{field: 0.5})
    assert NoiseModel(kind="ar1", lam=0.5).correlation_time == -1.0 / math.log(0.5)
    assert NoiseModel().correlation_time == 0.0


def test_zero_sigma_consumes_no_rng():
    rng = np.random.Generator(np.random.Philox(3))
    before = rng.bit_generator.state
    out = noise_series(NoiseModel(kind="white", sigma_tech=0.0), 50, rng)
    assert np.all(out == 0.0)
    np.testing.assert_equal(rng.bit_generator.state, before)
    # systematic noise is deterministic and also leaves the stream untouched
    out = noise_series(NoiseModel(kind="systematic", offset=0.2), 50, rng)
    assert np.all(out == 0.2)
    np.testing.assert_equal(rng.bit_generator.state, before)


def test_systematic_noise_is_exact_shift():
    samples = np.array([0.0, 1.0, -2.0])
    rng = np.random.Generator(np.random.Philox(0))
    out = samples + noise_series(NoiseModel(kind="systematic", offset=0.1), 3, rng)
    assert np.array_equal(out, samples + 0.1)


def test_white_noise_statistics():
    rng = np.random.Generator(np.random.Philox(21))
    w = noise_series(NoiseModel(kind="white", sigma_tech=0.3), 200_000, rng)
    assert abs(w.std() - 0.3) < 0.003
    lag1 = np.corrcoef(w[1:], w[:-1])[0, 1]
    assert abs(lag1) < 0.01


def test_ar1_autocorrelation_and_stationarity():
    lam, sigma, n = 0.99, 0.2, 100_000
    rng = np.random.Generator(np.random.Philox(22))
    w = noise_series(NoiseModel(kind="ar1", sigma_tech=sigma, lam=lam), n, rng)
    lag1 = np.corrcoef(w[1:], w[:-1])[0, 1]
    assert abs(lag1 - lam) < 0.01
    # stationary marginal has variance sigma^2; tolerance widened because
    # correlated samples carry far fewer effective degrees of freedom
    assert abs(w.var() - sigma * sigma) < 0.15 * sigma * sigma


def test_ar1_first_sample_is_stationary():
    lam, sigma = 0.9, 1.0
    firsts = []
    for k in range(4000):
        rng = np.random.Generator(np.random.Philox(k))
        firsts.append(noise_series(NoiseModel(kind="ar1", sigma_tech=sigma, lam=lam), 2, rng)[0])
    v = np.var(firsts)
    assert abs(v - sigma * sigma) < 5.0 * sigma * sigma * math.sqrt(2.0 / 4000)


def test_estimate_alpha():
    assert estimate_alpha([SQRT2], "direct") == pytest.approx(1.0, abs=1e-15)
    assert estimate_alpha([SQRT2], "amplified", t=0.1) == pytest.approx(0.1, abs=1e-15)
    with pytest.raises(NoSuccessError):
        estimate_alpha([], "direct")
    with pytest.raises(ValidationError):
        estimate_alpha([1.0], "amplified")
    with pytest.raises(ValidationError):
        estimate_alpha([1.0], "sideways")


def _sized(scheme, attempts, replicas):
    proto = ProtocolConfig(alpha=0.01, t=0.1) if scheme == "amplified" else None
    return CampaignConfig(scheme=scheme, true_alpha=0.01, total_time=float(attempts),
                          noise=NoiseModel(), seed=1, replicas=replicas, run_period=1.0,
                          protocol=proto)


def test_campaign_size_limits_reject_before_running(monkeypatch):
    def no_run(*args):
        raise AssertionError("a refused campaign ran")

    monkeypatch.setattr("hal.metrology.run_exact", no_run)
    monkeypatch.setattr("hal.metrology.map_indexed", no_run)
    with pytest.raises(ValidationError, match="per replica"):
        _sized("direct", 10**15, 1)
    with pytest.raises(ValidationError, match="per replica"):
        _sized("direct", MAX_ATTEMPTS + 1, 1)
    with pytest.raises(ValidationError, match="replicas exceed"):
        _sized("direct", MAX_ATTEMPTS, MAX_TOTAL_ATTEMPTS // MAX_ATTEMPTS + 1)
    big = _sized("amplified", MAX_RECORDED_ATTEMPTS // 4 + 1, 4)
    with pytest.raises(ValidationError, match="recorded attempts"):
        run_campaign(big, record_runs=True)


def test_campaign_size_limits_accept_the_benchmark_inputs(monkeypatch):
    # the benchmark's direct 1e6 x 32 and amplified 1e5 x 4 with a runs CSV
    # reach the replica workers
    class Reached(Exception):
        pass

    def stop(*args):
        raise Reached

    monkeypatch.setattr("hal.metrology.map_indexed", stop)
    for scheme, attempts, replicas, record in (
        ("direct", 10**6, 32, False), ("amplified", 10**5, 4, True),
    ):
        with pytest.raises(Reached):
            run_campaign(_sized(scheme, attempts, replicas), record_runs=record)
    _sized("direct", MAX_ATTEMPTS, MAX_TOTAL_ATTEMPTS // MAX_ATTEMPTS)


def test_campaign_config_validation():
    noise = NoiseModel()
    proto = ProtocolConfig(alpha=0.01, t=0.1)
    with pytest.raises(ValidationError):
        CampaignConfig(scheme="amplified", true_alpha=0.01, total_time=1.0,
                       noise=noise, seed=1, replicas=2)
    with pytest.raises(ValidationError):
        CampaignConfig(scheme="direct", true_alpha=0.01, total_time=1.0,
                       noise=noise, seed=1, replicas=2, protocol=proto)
    with pytest.raises(ValidationError):
        CampaignConfig(scheme="direct", true_alpha=0.01, total_time=0.01,
                       noise=noise, seed=1, replicas=2)  # under one run period
    cfg = CampaignConfig(scheme="direct", true_alpha=0.01, total_time=10.05,
                         noise=noise, seed=1, replicas=2)
    assert cfg.attempts == 100  # floor of 10.05 / 0.1


def test_amplified_protocol_alpha_must_equal_true_alpha():
    # bias is reported against true_alpha, so the amplified protocol must
    # carry that same amplitude, including a zero imaginary part
    noise = NoiseModel()
    for alpha in (0.02, 0.01 + 0.001j, 0.0100000001):
        with pytest.raises(ValidationError, match="true_alpha"):
            CampaignConfig(scheme="amplified", true_alpha=0.01, total_time=1.0, noise=noise,
                           seed=1, replicas=2, protocol=ProtocolConfig(alpha=alpha, t=0.1))
    cfg = CampaignConfig(scheme="amplified", true_alpha=0.01, total_time=1.0, noise=noise,
                         seed=1, replicas=2, protocol=ProtocolConfig(alpha=0.01, t=0.1))
    assert cfg.protocol.alpha.as_complex() == 0.01


def test_direct_campaign_unbiased_and_rmse_identity():
    cfg = CampaignConfig(scheme="direct", true_alpha=0.05, total_time=200.0,
                         noise=NoiseModel(), seed=9, replicas=24)
    s = run_campaign(cfg)
    assert s.attempts == 2000
    assert s.successes == 2000 * 24
    assert s.no_success_replicas == ()
    est = np.array(s.per_replica_estimates, dtype=float)
    assert s.estimate_mean == pytest.approx(est.mean(), abs=0.0)
    assert s.bias == pytest.approx(est.mean() - 0.05, abs=0.0)
    assert s.rmse == pytest.approx(math.sqrt(s.bias ** 2 + s.variance), abs=0.0)
    # sem of the mean over all samples: sqrt(0.5/(2000*24)) in x units
    assert abs(s.bias) < 5.0 * math.sqrt(0.5 / (2000 * 24)) / SQRT2
    assert s.elapsed_model_time == pytest.approx(200.0)


def test_campaign_is_deterministic():
    cfg = CampaignConfig(scheme="direct", true_alpha=0.02, total_time=20.0,
                         noise=NoiseModel(kind="white", sigma_tech=0.1),
                         seed=123, replicas=4)
    a = run_campaign(cfg)
    b = run_campaign(cfg)
    assert a.per_replica_estimates == b.per_replica_estimates
    assert a.rmse == b.rmse


def test_amplified_campaign_estimates_effective_alpha():
    proto = ProtocolConfig(alpha=0.01, t=0.1)
    cfg = CampaignConfig(scheme="amplified", true_alpha=0.01, total_time=1e4,
                         noise=NoiseModel(), seed=7, replicas=16, protocol=proto)
    s = run_campaign(cfg)
    res = run_exact(proto)
    expected = 0.1 * analytic_mean_x(res.conditional_state) / SQRT2
    assert abs(expected - 0.0097067761221231) < 1e-13
    assert abs(s.estimate_mean - expected) < 2e-3
    # success counts concentrate around p * attempts
    p = res.success_probability
    mean_succ = np.mean(s.per_replica_successes)
    assert abs(mean_succ - p * s.attempts) < 5.0 * math.sqrt(p * s.attempts / 16)


def test_all_replicas_can_fail_to_herald():
    proto = ProtocolConfig(alpha=0.0, t=1e-4)
    cfg = CampaignConfig(scheme="amplified", true_alpha=0.0, total_time=1.0,
                         noise=NoiseModel(), seed=5, replicas=3, protocol=proto)
    s = run_campaign(cfg)
    assert s.successes == 0
    assert s.no_success_replicas == (0, 1, 2)
    assert s.per_replica_estimates == (None, None, None)
    assert math.isnan(s.rmse) and math.isnan(s.estimate_mean)


def test_record_runs_alignment():
    proto = ProtocolConfig(alpha=0.01, t=0.1)
    cfg = CampaignConfig(scheme="amplified", true_alpha=0.01, total_time=50.0,
                         noise=NoiseModel(kind="white", sigma_tech=0.05),
                         seed=31, replicas=2, protocol=proto)
    s = run_campaign(cfg, record_runs=True)
    assert s.run_records is not None and len(s.run_records) == 2
    for rec in s.run_records:
        assert rec.heralded.shape == (cfg.attempts,)
        assert rec.x_sample.shape == (cfg.attempts,)
        assert rec.noise_value.shape == (cfg.attempts,)
        mask = rec.heralded.astype(bool)
        assert np.all(np.isnan(rec.x_sample[~mask]))
        assert np.all(np.isfinite(rec.x_sample[mask]))
        assert int(mask.sum()) == s.per_replica_successes[rec.replica]
    # without the flag nothing is recorded
    assert run_campaign(cfg).run_records is None


def test_replica_draw_order_contract():
    # per replica: heralds first, then quadrature for the successes, then the
    # full-length noise series; replica streams come from spawn_key=(replica,)
    proto = ProtocolConfig(alpha=0.01, t=0.1)
    noise = NoiseModel(kind="white", sigma_tech=0.05)
    cfg = CampaignConfig(scheme="amplified", true_alpha=0.01, total_time=30.0,
                         noise=noise, seed=77, replicas=2, protocol=proto)
    s = run_campaign(cfg, record_runs=True)
    res = run_exact(proto)
    for rec in s.run_records:
        rng = _replica_rng(77, rec.replica)
        heralded = rng.random(cfg.attempts) < res.success_probability
        assert np.array_equal(heralded.astype(np.int8), rec.heralded)
        quad = sample_homodyne(res.conditional_state, 0.0, int(heralded.sum()), rng)
        w = noise_series(noise, cfg.attempts, rng)
        assert np.array_equal(w, rec.noise_value)
        assert np.allclose(rec.x_sample[heralded], quad + w[heralded],
                           rtol=0.0, atol=0.0, equal_nan=False)


def test_time_budget():
    tb = time_budget(ProtocolConfig(alpha=0.0005, t=1.0 / 30.0))
    assert 85.0 <= tb.expected_time_per_point <= 95.0
    assert tb.expected_total_time == tb.expected_time_per_point
    tb5 = time_budget(ProtocolConfig(alpha=0.0005, t=1.0 / 30.0), target_points=5)
    assert tb5.expected_total_time == pytest.approx(5.0 * tb.expected_time_per_point)
    with pytest.raises(ValidationError):
        time_budget(ProtocolConfig(alpha=0.0005, t=0.1), run_period=0.0)
