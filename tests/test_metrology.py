import math
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from hal.errors import GridError, NoSuccessError, ValidationError
from hal.fock_core import DensityOperator, coherent_state, number_state
from hal.metrology import (
    MAX_ATTEMPTS,
    MAX_RECORDED_ATTEMPTS,
    MAX_TOTAL_ATTEMPTS,
    CampaignConfig,
    NoiseModel,
    _SAMPLE_CHUNK,
    _InverseCdf,
    _ar1_sum_variance,
    _replica_rng,
    _sample_from_density,
    _sum_weights,
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

from direct_reference import reference_direct

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


def _direct_cfg(model, count, seed=5, replicas=1, alpha=0.01):
    cfg = CampaignConfig(scheme="direct", true_alpha=alpha, total_time=count + 0.5,
                         run_period=1.0, noise=model, seed=seed, replicas=replicas)
    assert cfg.attempts == count
    return cfg


@pytest.mark.parametrize("name", sorted(DIRECT_NOISES))
def test_streamed_direct_estimate_matches_the_sample_mean(name):
    # the closed-form estimate is the mean of the recorded attempts, which
    # are drawn given its two sums; the largest difference measured over
    # these cases is 1.1e-16, all of it rounding
    from scipy.signal import lfilter

    model = DIRECT_NOISES[name]
    draws_noise = model.kind != "systematic" and model.sigma_tech > 0.0
    for seed, count in enumerate(DIRECT_COUNTS):
        cfg = _direct_cfg(model, count, seed)
        (est,) = run_campaign(cfg).per_replica_estimates
        _, x_sample, noise_value = run_campaign(cfg, record_runs=True).run_records
        assert abs(est - estimate_alpha(x_sample, "direct")) <= 1e-15, count
        # the replica stream holds the two sums: quadrature, then noise
        rng = _replica_rng(seed, 0)
        sum_quad = SQRT2 * 0.01 * count + math.sqrt(count / 2.0) * rng.standard_normal()
        if draws_noise:
            sd = model.sigma_tech * math.sqrt(_ar1_sum_variance(model.lam, count))
            sum_noise = sd * rng.standard_normal()
        else:
            sum_noise = count * model.offset
        assert est == (sum_quad + sum_noise) / count / SQRT2
        scale = count * (1.0 + model.sigma_tech + model.offset)
        assert abs(math.fsum(noise_value) - sum_noise) <= 1e-14 * scale, count
        assert abs(math.fsum(x_sample) - sum_quad - sum_noise) <= 1e-14 * scale, count
        # the records are the child stream (replica, 0)'s unconstrained
        # draws, quadrature then noise, each shifted by c_k (sum - sum of the
        # draws), c_k = Cov(y_k, sum y) / Var(sum y): 1/R for iid draws, and
        # for ar1 the row sums of lam^|k - j|, from two first-order filters
        child_seed = np.random.SeedSequence(seed, spawn_key=(0, 0))
        child = np.random.Generator(np.random.Philox(child_seed))
        quad = SQRT2 * 0.01 + child.standard_normal(count) / SQRT2
        noise = noise_series(model, count, child)
        if draws_noise:
            forward = lfilter([1.0], [1.0, -model.lam], np.ones(count))
            rows = forward + forward[::-1] - 1.0
            noise += rows / math.fsum(rows) * (sum_noise - math.fsum(noise))
        else:
            assert np.all(noise_value == model.offset)
        assert np.max(np.abs(noise_value - noise)) <= 1e-14 * scale, count
        quad += (sum_quad - math.fsum(quad)) / count
        assert np.max(np.abs(x_sample - quad - noise)) <= 1e-14 * scale, count


def _ar1_sum_variance_by_recurrence(lam, count):
    # s_k = y_1 + ... + y_k of a unit stationary ar1 series:
    # Var(s_k) = Var(s_(k-1)) + 2 g_k + 1 with g_k = Cov(s_(k-1), y_k)
    # = lam (g_(k-1) + 1), g_1 = 0; every term is positive
    terms, g = [1.0], 0.0
    for _ in range(count - 1):
        g = lam * (g + 1.0)
        terms.append(2.0 * g + 1.0)
    return math.fsum(terms)


@pytest.mark.parametrize("lam", [0.5, 0.99, 0.9999])
def test_ar1_closed_form_sum_matches_the_recurrence(lam):
    for count in (1, 2, 3, 1000, 3 * _SAMPLE_CHUNK + 7):
        want = _ar1_sum_variance_by_recurrence(lam, count)
        assert abs(_ar1_sum_variance(lam, count) - want) <= 1e-13 * want, count
        # the constrained-realisation weights are Cov(y_k, sum y) / Var(sum y)
        weights = _sum_weights(lam, count)
        assert weights.shape == (count,)
        assert abs(math.fsum(weights) - 1.0) <= 1e-13, count
        if count <= 1000:
            k = np.arange(count)
            cov = (lam ** np.abs(k[:, None] - k)).sum(axis=1)
            assert np.max(np.abs(weights * want - cov) / cov) <= 1e-12, count
    # white noise (lambda = 0) weighs every attempt alike
    assert _sum_weights(0.0, 7) == 1.0 / 7
    assert _ar1_sum_variance(0.0, 7) == 7.0


def _fixed_point_power(lam, count, bits=256):
    """lam^count as a Fraction within 2 log2(count) 2^-bits of the exact
    value: binary powering on integers scaled by 2^bits, each product
    rounded down. Exact Fraction powers at count 1e7 would hold 5e8-bit
    integers."""
    one = 1 << bits
    base = lam.numerator * one // lam.denominator  # exact: lam has 53 bits
    result = one
    while count:
        if count & 1:
            result = result * base >> bits
        base = base * base >> bits
        count >>= 1
    return Fraction(result, one)


@pytest.mark.parametrize("lam", [0.5, 0.99, 0.9999, 1.0 - 1e-9])
def test_ar1_sum_variance_matches_exact_rationals(lam):
    # V_R = R (1 + lam)/(1 - lam) - 2 lam (1 - lam^R)/(1 - lam)^2 in exact
    # rational arithmetic on the float lam. The textbook form evaluated in
    # floats is off by 3.6e-12 at lam 0.9999, R 1, by 2.5e-9 at R 2, and
    # by 0.5 at lam 1 - 1e-9, R 2; the closed form used is within 4.1e-16
    # at every case here
    q = Fraction(lam)
    for count in (1, 2, 3, 1000, 10**7):
        power = _fixed_point_power(q, count)
        exact = count * (1 + q) / (1 - q) - 2 * q * (1 - power) / (1 - q) ** 2
        got = _ar1_sum_variance(lam, count)
        assert abs(Fraction(got) - exact) <= Fraction(1, 10**13) * exact, (count, got, float(exact))


@pytest.mark.parametrize("name", sorted(DIRECT_NOISES))
def test_direct_summary_does_not_depend_on_recording(name):
    attempts = 2 * _SAMPLE_CHUNK + 3
    cfg = CampaignConfig(scheme="direct", true_alpha=0.01, total_time=attempts * 0.1 + 0.05,
                         noise=DIRECT_NOISES[name], seed=19, replicas=2)
    assert cfg.attempts == attempts
    plain, recorded = run_campaign(cfg), run_campaign(cfg, record_runs=True)
    assert plain.run_records is None
    assert [a.shape for a in recorded.run_records] == [(2 * attempts,)] * 3
    fields = ("estimate_mean", "bias", "variance", "rmse", "per_replica_estimates", "successes")
    for field in fields:
        assert getattr(plain, field) == getattr(recorded, field), field


def test_unrecorded_direct_campaign_memory_is_flat():
    # the largest direct campaign the ceilings admit: 1e7 attempts, each an
    # 80 MB float array if it were held, times 100 replicas; a replica keeps
    # two floats (17 kB peak measured for the whole campaign)
    count, replicas = MAX_ATTEMPTS, MAX_TOTAL_ATTEMPTS // MAX_ATTEMPTS
    cfg = _direct_cfg(NoiseModel(kind="ar1", sigma_tech=0.1, lam=0.9999), count,
                      replicas=replicas)
    tracemalloc.start()
    try:
        s = run_campaign(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert s.successes == count * replicas
    assert peak < 10**6


def _matched_in_distribution(got, ref, what):
    """got agrees with the reference sample ref in mean, variance and
    distribution, each bound taken from ref's own spread: 5 standard errors
    of a difference of two means, or of two variances (from ref's fourth
    central moment), and a two-sample KS p-value above 1e-6."""
    from scipy.stats import ks_2samp

    n = ref.shape[0]
    centred = ref - ref.mean()
    var = float(np.mean(centred ** 2))
    if var == 0.0:
        assert np.array_equal(got, ref), what
        return
    assert abs(got.mean() - ref.mean()) <= 5.0 * math.sqrt(2.0 * var / n), what
    var_se = math.sqrt((np.mean(centred ** 4) - var * var) / n)
    assert abs(got.var() - var) <= 5.0 * math.sqrt(2.0) * var_se, what
    assert ks_2samp(got, ref).pvalue > 1e-6, what


REFERENCE_NOISES = {
    "white": NoiseModel(kind="white", sigma_tech=0.3),
    "ar1-0.5": NoiseModel(kind="ar1", sigma_tech=0.3, lam=0.5),
    "ar1-0.99": NoiseModel(kind="ar1", sigma_tech=0.3, lam=0.99),
    "ar1-0.9999": NoiseModel(kind="ar1", sigma_tech=0.3, lam=0.9999),
    "systematic": NoiseModel(kind="systematic", offset=0.2),
    "zero": NoiseModel(),
}


@pytest.mark.parametrize("name", sorted(REFERENCE_NOISES))
def test_direct_closed_form_matches_the_per_attempt_reference(name):
    # 2000 replicas of 50 attempts from each engine, on unrelated seeds (the
    # reference's uniforms and the closed form's normals would otherwise
    # come from the same Philox words); the records are compared at the
    # first, middle and last attempt and by their end-to-end difference
    model = REFERENCE_NOISES[name]
    count, replicas = 50, 2000
    ref_est, ref_records = reference_direct(_direct_cfg(model, count, 1001, replicas, 0.3))
    s = run_campaign(_direct_cfg(model, count, 2002, replicas, 0.3), record_runs=True)
    _matched_in_distribution(np.array(s.per_replica_estimates), ref_est, "estimate")
    _, got_x, got_noise = (a.reshape(replicas, count) for a in s.run_records)
    ref_x = np.array([r[0] for r in ref_records])
    ref_noise = np.array([r[1] for r in ref_records])
    for got, ref, what in ((got_x, ref_x, "x_sample"), (got_noise, ref_noise, "noise_value")):
        for k in (0, count // 2, count - 1):
            _matched_in_distribution(got[:, k], ref[:, k], f"{what}[{k}]")
        _matched_in_distribution(got[:, -1] - got[:, 0], ref[:, -1] - ref[:, 0], f"{what} drift")


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
    assert cfg.protocol.alpha == 0.01


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


def _replica_runs(summary):
    """(replica, heralded, x_sample, noise_value) per replica, as views of
    the replica-major records."""
    shape = (summary.replicas, summary.attempts)
    return list(zip(range(summary.replicas), *(a.reshape(shape) for a in summary.run_records)))


def test_record_runs_alignment():
    proto = ProtocolConfig(alpha=0.01, t=0.1)
    cfg = CampaignConfig(scheme="amplified", true_alpha=0.01, total_time=50.0,
                         noise=NoiseModel(kind="white", sigma_tech=0.05),
                         seed=31, replicas=2, protocol=proto)
    s = run_campaign(cfg, record_runs=True)
    assert s.run_records is not None
    assert [a.shape for a in s.run_records] == [(2 * cfg.attempts,)] * 3
    assert s.run_records[0].dtype == np.int8
    for replica, heralded, x_sample, _ in _replica_runs(s):
        mask = heralded.astype(bool)
        assert np.all(np.isnan(x_sample[~mask]))
        assert np.all(np.isfinite(x_sample[mask]))
        assert int(mask.sum()) == s.per_replica_successes[replica]
    # without the flag nothing is recorded
    assert run_campaign(cfg).run_records is None


def test_recorded_runs_hold_their_attempts_only():
    # a recorded attempt is 17 B of data (int8 heralded, float64 x_sample
    # and noise_value); what a recorded run holds after it returns, beyond
    # an unrecorded one's, stays near that whatever the replica count
    proto = ProtocolConfig(alpha=0.01, t=0.1)
    cfg = CampaignConfig(scheme="amplified", true_alpha=0.01, total_time=0.1,
                         noise=NoiseModel(kind="white", sigma_tech=0.05),
                         seed=3, replicas=20_000, protocol=proto)
    assert cfg.attempts == 1

    def held(record_runs):
        tracemalloc.start()
        try:
            summary = run_campaign(cfg, record_runs=record_runs)
            return tracemalloc.get_traced_memory()[0], summary
        finally:
            tracemalloc.stop()

    run_campaign(replace(cfg, replicas=2), record_runs=True)  # first-call allocations that stay
    plain, _ = held(False)
    recorded, summary = held(True)
    assert (recorded - plain) / cfg.replicas < 64
    assert summary.run_records[0].shape == (cfg.replicas,)


def test_replica_draw_order_contract():
    # per replica: heralds first, then quadrature for the successes, then the
    # full-length noise series; replica streams come from spawn_key=(replica,)
    proto = ProtocolConfig(alpha=0.01, t=0.1)
    noise = NoiseModel(kind="white", sigma_tech=0.05)
    cfg = CampaignConfig(scheme="amplified", true_alpha=0.01, total_time=30.0,
                         noise=noise, seed=77, replicas=2, protocol=proto)
    s = run_campaign(cfg, record_runs=True)
    res = run_exact(proto)
    for replica, rec_heralded, x_sample, noise_value in _replica_runs(s):
        rng = _replica_rng(77, replica)
        heralded = rng.random(cfg.attempts) < res.success_probability
        assert np.array_equal(heralded.astype(np.int8), rec_heralded)
        quad = sample_homodyne(res.conditional_state, 0.0, int(heralded.sum()), rng)
        w = noise_series(noise, cfg.attempts, rng)
        assert np.array_equal(w, noise_value)
        assert np.allclose(x_sample[heralded], quad + w[heralded],
                           rtol=0.0, atol=0.0, equal_nan=False)


def test_time_budget():
    tb = time_budget(ProtocolConfig(alpha=0.0005, t=1.0 / 30.0))
    assert 85.0 <= tb.expected_time_per_point <= 95.0
    assert tb.expected_total_time == tb.expected_time_per_point
    tb5 = time_budget(ProtocolConfig(alpha=0.0005, t=1.0 / 30.0), target_points=5)
    assert tb5.expected_total_time == pytest.approx(5.0 * tb.expected_time_per_point)
    with pytest.raises(ValidationError):
        time_budget(ProtocolConfig(alpha=0.0005, t=0.1), run_period=0.0)
