"""Homodyne statistics and Monte Carlo estimation campaigns.

Quadrature convention (pinned once, used everywhere): X = (a + a^dag)/sqrt(2)
at phase zero, so a coherent state |beta> has mean sqrt(2) Re(beta) and
variance 1/2. Estimators therefore divide sample means by sqrt(2), and the
amplified scheme additionally multiplies by t to undo the nominal 1/t gain.

Campaign time model: a budget of total_time seconds at run_period seconds per
attempt gives R attempts, the number of whole run periods in the budget,
counted through the rounding of the inputs (2.3 s at 0.1 s is 23). Technical
noise is a process over the attempt timeline; its clock advances on every
attempt, including failed heralds, so the amplified scheme samples the
process sparsely. Estimation is restricted to real alpha at phase zero.

Randomness: one 64-bit seed; replica i draws from a counter-based Philox
stream keyed by SeedSequence(seed, spawn_key=(i,)), so replicas are
independent of each other and of thread scheduling. Within a replica the
draw order is fixed: herald uniforms (amplified only), then quadrature, then
noise; a zero-sigma or systematic noise model consumes no draws. A direct
replica's records (the runs CSV) come afterwards from its child stream,
spawn_key=(i, 0), in the same order.

Records: run_campaign keeps none. A recorded campaign hands each replica's
per-attempt arrays to the caller's sink as soon as the replica is simulated,
in replica order, so what it holds is one replica's arrays whatever the
replica count (see `run_campaign`).

Direct estimator: mean(quad + noise)/sqrt(2) is linear in Gaussian
variables, so a direct replica draws it in closed form from one standard
normal per sum. The R coherent-state quadratures sum to exactly
N(sqrt(2) alpha R, R/2), with no Fock cutoff; white noise sums to
N(0, R sigma^2), a stationary ar1 series to N(0, sigma^2 V_R) (see
`_ar1_sum_variance`), and a systematic offset to R offset. Its records are
constrained realisations (Hoffman & Ribak, ApJ 380, L5, 1991): unconstrained
draws shifted along their covariance with the sum until they add up to the
two sums the estimate used. They are exact in joint distribution, and the
estimate does not depend on whether they are drawn.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Tuple, Union

import numpy as np

from ._parallel import map_indexed
from .errors import GridError, ValidationError
from .fock_core import DensityOperator, PureState
from .protocol import ProtocolConfig, run_exact

State = Union[PureState, DensityOperator]

#: The homodyne tabulation grid: [-8, 8] in steps of 1e-3.
GRID_HALF_WIDTH = 8.0
GRID_POINTS = 16001
#: Largest error of a tabulated homodyne density's integral.
_PDF_TOLERANCE = 1e-6

#: Campaign size ceilings, checked before anything is allocated. A running
#: amplified replica holds about 34 bytes per attempt (measured with AR(1)
#: noise on one worker), so MAX_ATTEMPTS keeps each worker near 350 MB;
#: HAL_THREADS workers (at most the CPU count) hold that each. A recorded
#: replica runs on the calling thread alone and hands its sink the samples
#: it holds anyway, so it peaks as an unrecorded one does (tracemalloc peak
#: per attempt: 10 B with white noise, 26 B with ar1). MAX_TOTAL_ATTEMPTS
#: bounds the run time: 56 ns per amplified attempt with ar1 noise on one
#: thread, so about a minute. An unrecorded
#: direct replica costs O(1) whatever its size (two normal draws, about
#: 30 us with its stream).
#: Every replica also keeps its entry in the summary: a `hal campaign`
#: process of 1 attempt x 1e5 / 2e5 replicas on one thread took 2.5 / 5.8 s
#: and 63 / 89 MB ru_maxrss (direct, unrecorded), and 3.5-3.7 / 7.9-8.5 s
#: and 64 / 91 MB with --runs-csv (amplified), most of it the replicas' own
#: streams and the JSON summary's rendering. run_campaign keeps a float64 estimate and an
#: int64 success count per replica, and no records: tracemalloc finds 24 B
#: held per amplified replica after it returns, recorded or not (direct
#: 17 B), and a peak of 28 B inside it (bench protocol, white noise, 2e5
#: one-attempt replicas). MAX_REPLICAS therefore keeps the worst case, 1e6
#: recorded replicas, near 45 s and 0.31 GB (linear extrapolation; 2-vCPU
#: Xeon VM, numpy 2.4).
#: A recorded campaign hands each replica's arrays to its sink and keeps
#: none, and the runs CSV is written in blocks of 4096 rows as they are
#: rendered, so memory does not grow with recorded attempts. What a recorded
#: row still costs is its rendering and its bytes, about 0.17-0.28 us in all
#: and 35-37 B of CSV (bench protocol, white noise, one thread): 1.25e6
#: attempts x 4 replicas took 1.2-1.8 s to a file, 1.14-1.28 s to /dev/null
#: (0.30-0.39 s unrecorded), and 48.5 MB ru_maxrss (47.8 MB unrecorded) for
#: 182 MB of CSV; 1e7 x 5 took 11 s to /dev/null (1.7 s unrecorded) and 128 MB
#: ru_maxrss, the replica's own arrays, for 1.86 GB. MAX_RECORDED_ATTEMPTS,
#: 5e7, keeps a recorded campaign near a quarter of a minute and 2 GB of
#: disk.
MAX_ATTEMPTS = 10**7
MAX_TOTAL_ATTEMPTS = 10**9
MAX_RECORDED_ATTEMPTS = 5 * 10**7
MAX_REPLICAS = 10**6

#: Largest |true_alpha|, sigma_tech and |offset| a campaign accepts, so
#: that no statistic overflows. A standard normal draw of numpy's generator
#: is below 14 in magnitude (its ziggurat tail is 3.65 + x with x at most
#: 53 ln 2 / 3.65 = 10.1), and an AR(1) value sums such draws times
#: sigma_tech to at most 14 sigma_tech (1 + sqrt(2 / (1 - lambda))), below
#: 2e9 sigma_tech for every double lambda < 1. So at this bound B every
#: quadrature and noise value is below 2e9 B, a sum of MAX_ATTEMPTS of them
#: below 2e16 B, an estimate below 2e9 B, its squared deviation from the
#: mean below 1.6e19 B^2, and the sum of MAX_REPLICAS of those below
#: 1.6e25 B^2 = 1.6e305: a finite double.
_MAX_INPUT = 1e140


@dataclass(frozen=True)
class NoiseModel:
    """Additive technical noise at the detector, in quadrature units.

    kind "white": i.i.d. Gaussian(0, sigma_tech^2) per attempt.
    kind "ar1":   w_k = lambda w_{k-1} + sqrt(1-lambda^2) sigma_tech xi_k with
                  stationary start; correlation time -1/ln(lambda) run periods.
    kind "systematic": constant offset added to every attempt.

    A nonzero field that the kind does not use is rejected: lam and offset
    for "white", offset for "ar1", sigma_tech and lam for "systematic".
    """

    kind: str = "white"
    sigma_tech: float = 0.0
    lam: float = 0.0  # serialized under the name "lambda"
    offset: float = 0.0

    def __post_init__(self):
        if self.kind not in ("white", "ar1", "systematic"):
            raise ValidationError(f"noise kind must be white|ar1|systematic, got {self.kind!r}")
        if not (0.0 <= self.sigma_tech <= _MAX_INPUT):
            raise ValidationError(
                f"sigma_tech must be in [0, {_MAX_INPUT:g}], got {self.sigma_tech!r}"
            )
        if not (0.0 <= self.lam < 1.0):
            raise ValidationError(f"lambda must be in [0,1), got {self.lam!r}")
        if not abs(self.offset) <= _MAX_INPUT:
            raise ValidationError(f"|offset| must be at most {_MAX_INPUT:g}, got {self.offset!r}")
        unused = {
            "white": ("lam", "offset"),
            "ar1": ("offset",),
            "systematic": ("sigma_tech", "lam"),
        }[self.kind]
        for name in unused:
            value = getattr(self, name)
            if value != 0.0:
                label = "lambda" if name == "lam" else name
                raise ValidationError(f"noise kind {self.kind!r} does not use {label}, got {value!r}")


@dataclass(frozen=True)
class CampaignConfig:
    """One estimation experiment: scheme, truth, time budget, noise, seeding.

    The amplified scheme's protocol must carry the truth itself:
    protocol.alpha equal to true_alpha, exactly.
    """

    scheme: str
    true_alpha: float
    total_time: float
    noise: NoiseModel
    seed: int
    replicas: int
    run_period: float = 0.1
    protocol: Optional[ProtocolConfig] = None

    def __post_init__(self):
        if self.scheme not in ("direct", "amplified"):
            raise ValidationError(f"scheme must be direct|amplified, got {self.scheme!r}")
        if self.scheme == "amplified" and self.protocol is None:
            raise ValidationError("amplified scheme requires a protocol")
        if self.scheme == "direct" and self.protocol is not None:
            raise ValidationError("direct scheme takes no protocol")
        if not abs(self.true_alpha) <= _MAX_INPUT:
            raise ValidationError(
                f"|true_alpha| must be at most {_MAX_INPUT:g}, got {self.true_alpha!r}"
            )
        if self.protocol is not None and self.protocol.alpha != complex(self.true_alpha):
            raise ValidationError(
                f"protocol alpha {self.protocol.alpha!r} differs from "
                f"true_alpha {self.true_alpha!r}; bias would be reported against the wrong truth"
            )
        if not (self.run_period > 0 and np.isfinite(self.run_period)):
            raise ValidationError(f"run_period must be positive, got {self.run_period!r}")
        if not (self.total_time > 0 and np.isfinite(self.total_time)):
            raise ValidationError(f"total_time must be positive, got {self.total_time!r}")
        if not math.isfinite(float(self.total_time) / float(self.run_period)):
            raise ValidationError(
                f"total_time / run_period overflows; attempts per replica exceed the limit "
                f"of {MAX_ATTEMPTS}"
            )
        if self.attempts < 1:
            raise ValidationError("time budget is shorter than one run period")
        if not isinstance(self.seed, (int, np.integer)) or self.seed < 0:
            raise ValidationError(f"seed must be a non-negative integer, got {self.seed!r}")
        if not isinstance(self.replicas, (int, np.integer)) or self.replicas < 1:
            raise ValidationError(f"replicas must be a positive integer, got {self.replicas!r}")
        if self.replicas > MAX_REPLICAS:
            raise ValidationError(f"{self.replicas} replicas exceed the limit of {MAX_REPLICAS}")
        if self.attempts > MAX_ATTEMPTS:
            raise ValidationError(
                f"{self.attempts} attempts per replica exceed the limit of {MAX_ATTEMPTS}"
            )
        if self.attempts * self.replicas > MAX_TOTAL_ATTEMPTS:
            raise ValidationError(
                f"{self.attempts} attempts x {self.replicas} replicas exceed the limit "
                f"of {MAX_TOTAL_ATTEMPTS} attempts"
            )

    @property
    def attempts(self) -> int:
        """Whole run periods in the budget. A budget of n periods, up to the
        rounding of its two inputs (2.3 / 0.1 is 22.999999999999996), holds n:
        the quotient is floored 4 ulp up. The step is at most half a period,
        so the largest finite quotient stays finite."""
        q = self.total_time / self.run_period
        return int(math.floor(q + min(4 * math.ulp(q), 0.5)))


class CampaignSummary(NamedTuple):
    """Aggregated estimator statistics of a campaign.

    rmse is sqrt(bias^2 + variance) where variance is the population variance
    of the per-replica estimates and bias is their mean minus true_alpha.
    The per-replica fields are arrays; a replica with no heralded sample has
    a NaN estimate, is listed in no_success_replicas and is not aggregated.
    """

    attempts: int
    replicas: int
    successes: int
    estimate_mean: float
    bias: float
    variance: float
    rmse: float
    per_replica_estimates: np.ndarray
    per_replica_successes: np.ndarray
    no_success_replicas: np.ndarray
    elapsed_model_time: float


class TimeBudget(NamedTuple):
    """Expected wall-model time to collect one heralded point."""

    success_probability: float
    run_period: float
    expected_time_per_point: float


class TabulatedDensity(NamedTuple):
    """A quadrature density tabulated on a strictly increasing grid."""

    x: np.ndarray
    density: np.ndarray

    def integral(self) -> float:
        return float(np.trapezoid(self.density, self.x))

    def mean(self) -> float:
        return float(np.trapezoid(self.x * self.density, self.x))

    def variance(self) -> float:
        m = self.mean()
        return float(np.trapezoid((self.x - m) ** 2 * self.density, self.x))


def default_grid() -> np.ndarray:
    return np.linspace(-GRID_HALF_WIDTH, GRID_HALF_WIDTH, GRID_POINTS)


def _hermite_rows(n_max: int, x: np.ndarray) -> Iterator[np.ndarray]:
    """Hermite functions u_0..u_n_max on x via the stable recurrence, one row
    at a time, holding two.

    u_0 = pi^(-1/4) exp(-x^2/2), u_1 = sqrt(2) x u_0,
    u_{n+1} = sqrt(2/(n+1)) x u_n - sqrt(n/(n+1)) u_{n-1}.
    """
    prev = np.pi ** -0.25 * np.exp(-0.5 * x * x)
    yield prev
    if n_max >= 1:
        row = math.sqrt(2.0) * x * prev
        yield row
        for n in range(1, n_max):
            prev, row = row, math.sqrt(2.0 / (n + 1)) * x * row - math.sqrt(n / (n + 1.0)) * prev
            yield row


def hermite_functions(n_max: int, x: np.ndarray) -> np.ndarray:
    """The table of u_0..u_n_max on x, one row per function (`_hermite_rows`)."""
    u = np.empty((n_max + 1, x.shape[0]))
    for n, row in enumerate(_hermite_rows(n_max, x)):
        u[n] = row
    return u


def _combine(coefficients: np.ndarray, rows: Iterable[np.ndarray], width: int) -> np.ndarray:
    """sum_n c_kn u_n for each row c_k of the real (K, n) coefficients, over
    the rows u_n as they come, as axpy passes that skip zero coefficients (no
    BLAS)."""
    out = np.zeros((coefficients.shape[0], width))
    term = np.empty(width)
    for column, row in zip(coefficients.T.tolist(), rows):
        for c, total in zip(column, out):
            if c:
                np.multiply(row, c, out=term)
                total += term
    return out


def _last_nonzero(values: np.ndarray) -> int:
    nonzero = np.flatnonzero(values)
    return int(nonzero[-1]) if nonzero.size else 0


def quadrature_pdf(state: State) -> TabulatedDensity:
    """Tabulate the phase-zero homodyne outcome density of a single-mode
    state on the grid of `default_grid`.

    For a pure state, P(x) = |sum_n c_n u_n(x)|^2; for a mixed state the
    bilinear generalization over the density matrix. The tabulated density
    must integrate to 1 within 1e-6.

    The Hermite functions u_n are real, so both are sums of real rows: the
    real and imaginary parts of the pure sum, and for a mixed state
    P(x) = sum_m u_m(x) sum_n Re(rho_mn) u_n(x), the real part being all
    that survives of a Hermitian form. Rows past the last nonzero
    coefficient are never computed. The pure sums are taken as the
    recurrence runs, so a pure state holds two rows, not the table.

    Raises
    ------
    GridError
        If the integral misses 1 by more than 1e-6: the state's density
        reaches past the grid's ends.
    """
    x = default_grid()
    if isinstance(state, PureState):
        amp = state.amplitudes / state.norm()
        rows = _hermite_rows(_last_nonzero(amp), x)
        re, im = _combine(np.stack([amp.real, amp.imag]), rows, x.shape[0])
        dens = re ** 2 + im ** 2
    else:
        form = state.matrix.real / state.trace()
        u = hermite_functions(_last_nonzero(form.any(axis=0)), x)
        dens = np.zeros_like(x)
        for m, row in enumerate(form[: len(u), : len(u)]):
            if row.any():
                dens += u[m] * _combine(row[np.newaxis], u, x.shape[0])[0]
        dens = np.maximum(dens, 0.0)
    result = TabulatedDensity(x=x, density=dens)
    err = abs(result.integral() - 1.0)
    if err > _PDF_TOLERANCE:
        raise GridError(
            f"tabulated density integrates to 1 with error {err:.3e}, "
            f"above tolerance {_PDF_TOLERANCE:.1e}; the state's density reaches past the "
            f"homodyne grid [-{GRID_HALF_WIDTH:g}, {GRID_HALF_WIDTH:g}]"
        )
    return result


def sample_homodyne(state: State, count: int, rng: np.random.Generator) -> np.ndarray:
    """Draw phase-zero homodyne samples by inverse-CDF lookup on the
    tabulated density."""
    if count < 0:
        raise ValidationError("count must be non-negative")
    return _sample_from_density(_InverseCdf.of(quadrature_pdf(state)), count, rng)


#: Uniforms drawn and inverted per step, bounding the sampler's temporaries.
_SAMPLE_CHUNK = 1 << 16


class _InverseCdf(NamedTuple):
    """The piecewise-linear inverse CDF of a tabulated density.

    A draw u in [0, 1) maps to slopes[j] * (u - cdf[j]) + x[j], where j is the
    last index with cdf[j] <= u: np.interp's own formula, so draws equal
    np.interp(u, cdf, x) bit for bit. j is found with a guide table (Chen &
    Asau 1974): guide[b] is that index at u = b/K, for K the power of two at
    or above the grid length, so a draw in bucket b = floor(u K) has j equal
    to guide[b] or guide[b] + 1. Only buckets flagged `wide` (more than one
    grid point inside) need a binary search.
    """

    x: np.ndarray
    cdf: np.ndarray
    slopes: np.ndarray
    guide: np.ndarray
    wide: np.ndarray

    @classmethod
    def of(cls, pdf: TabulatedDensity) -> "_InverseCdf":
        x, dens = pdf.x, pdf.density
        widths = np.diff(x)
        cdf = np.concatenate(([0.0], np.cumsum(0.5 * (dens[1:] + dens[:-1]) * widths)))
        cdf /= cdf[-1]
        # a flat cdf step (zero density) gives an infinite slope, a nearly
        # flat one may overflow to inf; np.interp computes the same values
        with np.errstate(divide="ignore", over="ignore"):
            slopes = widths / np.diff(cdf)
        k = 1 << (x.shape[0] - 1).bit_length()
        guide = np.searchsorted(cdf, np.arange(k + 1) / k, side="right") - 1
        return cls(x=x, cdf=cdf, slopes=slopes, guide=guide, wide=np.diff(guide) > 1)


def _sample_from_density(table: _InverseCdf, count: int, rng: np.random.Generator) -> np.ndarray:
    """`count` inverse-CDF draws, one uniform each, taken in fixed chunks.

    Chunked rng.random calls give the same uniforms as one call of `count`,
    so the stream, and every draw after it, does not depend on the chunk.
    """
    x, cdf, slopes, guide, wide = table.x, table.cdf, table.slopes, table.guide, table.wide
    k = guide.shape[0] - 1
    out = np.empty(count)
    for lo in range(0, count, _SAMPLE_CHUNK):
        u = rng.random(min(_SAMPLE_CHUNK, count - lo))
        b = (u * k).astype(np.intp)
        j = guide.take(b)
        j += u >= cdf[1:].take(j)
        far = np.flatnonzero(wide.take(b))
        if far.shape[0]:
            j[far] = np.searchsorted(cdf, u[far], side="right") - 1
        cj, xj = cdf.take(j), x.take(j)
        chunk = out[lo : lo + u.shape[0]]
        np.subtract(u, cj, out=chunk)
        # as in np.interp, an infinite slope (a density that underflows to 0)
        # gives inf silently, and 0 * inf where u hits a grid point is
        # replaced by x[j] below
        with np.errstate(invalid="ignore", over="ignore"):
            chunk *= slopes.take(j)
        chunk += xj
        hit = u == cj
        if hit.any():
            chunk[hit] = xj[hit]
    return out


def _ar1_scan(drive: np.ndarray, lam: float) -> np.ndarray:
    """y[k] = lam * y[k-1] + drive[k] from y[-1] = 0, as a blocked scan.

    The n values are cut into blocks of L = isqrt(n-1) + 1. The recurrence
    runs exactly inside every block from a zero start, all blocks at once
    (L vectorised steps); then the true value before each block is carried
    from block to block (about sqrt(n) scalar steps) and added as
    lam^(i+1) times that carry to element i of the block.
    """
    n = drive.shape[0]
    size = math.isqrt(n - 1) + 1
    full = n // size
    blocks = -(-n // size)
    scan = np.zeros((size, blocks))  # scan[i, b] is element i of block b
    scan[:, :full] = drive[: full * size].reshape(full, size).T
    scan[: n - full * size, full:] = drive[full * size :, None]
    for i in range(1, size):
        scan[i] += lam * scan[i - 1]
    powers = np.cumprod(np.full(size, lam))
    decay = float(powers[-1])
    carry = np.empty(blocks)
    before = 0.0
    for b, end in enumerate(scan[-1].tolist()):
        carry[b] = before
        before = end + decay * before
    y = np.multiply(carry[:, None], powers)  # back in block order: y[b, i]
    y += scan.T
    return y.reshape(-1)[:n]


def noise_series(model: NoiseModel, count: int, rng: np.random.Generator) -> np.ndarray:
    """Technical-noise values for `count` consecutive attempts.

    The series starts in the stationary distribution for ar1. Zero-sigma
    white/ar1 models (and systematic, which is deterministic) consume no
    random draws.

    The ar1 recurrence runs as a blocked scan (see `_ar1_scan`) over the
    drive sigma xi_0, sqrt(1 - lambda^2) sigma xi_k. It differs from the
    sequential recurrence (what scipy.signal.lfilter computes) only in
    rounding: the block carries add one multiply-add per value. The
    difference stays within 1e-12 * max|w| for lambda up to 0.9999 (the
    tested bound; about 1e-14 measured up to a million values).
    """
    if count < 0:
        raise ValidationError("count must be non-negative")
    if model.kind == "systematic":
        return np.full(count, model.offset)
    if model.sigma_tech == 0.0 or count == 0:
        return np.zeros(count)
    xi = rng.standard_normal(count)
    if model.kind == "white":
        xi *= model.sigma_tech
        return xi
    xi[1:] *= math.sqrt(1.0 - model.lam * model.lam) * model.sigma_tech
    xi[0] *= model.sigma_tech
    return _ar1_scan(xi, model.lam)


def _phi(y: float) -> float:
    """(y - 1 + e^-y) / y^2 for y >= 0: its Taylor series, sum over n of
    (-y)^n / (n + 2)!, up to y = 1, where the closed form would cancel."""
    if y > 1.0:
        return ((y - 1.0) + math.exp(-y)) / (y * y)
    total, term, n = 0.0, 0.5, 0
    while total + term != total:
        total += term
        n += 1
        term *= -y / (n + 2)
    return total


def _ar1_sum_variance(lam: float, count: int) -> float:
    """Var(y_1 + ... + y_R) / sigma^2 of a stationary ar1 series, R = count.

    The textbook form R(1 + lam)/(1 - lam) - 2 lam (1 - lam^R)/(1 - lam)^2
    cancels when R(1 - lam) is small. With L = -ln lam it equals
    R + 2 lam R (L/(1 - lam))^2 (R phi(R L) - phi(L)), phi as in `_phi`;
    y phi(y) increases, so the difference is positive for R >= 2 and
    exactly 0 at R = 1. lam = 0 (white noise) gives R.
    """
    if lam == 0.0:
        return float(count)
    log_rate = -math.log(lam)
    spread = count * _phi(count * log_rate) - _phi(log_rate)
    return count + 2.0 * lam * count * (log_rate / (1.0 - lam)) ** 2 * spread


def _sum_weights(lam: float, count: int) -> Union[float, np.ndarray]:
    """c_k = Cov(y_k, sum y) / Var(sum y) of a white (lam = 0) or ar1 series.

    Cov(y_k, sum y) / sigma^2 = sum_j lam^|k - j|
    = (1 - lam^(k+1))/(1 - lam) + (1 - lam^(R-k))/(1 - lam) - 1, whose
    two fractions are the same array read forwards and backwards.
    """
    if lam == 0.0:
        return 1.0 / count
    ones = -np.expm1(np.arange(1, count + 1) * math.log(lam))
    return ((ones + ones[::-1]) / (1.0 - lam) - 1.0) / _ar1_sum_variance(lam, count)


def _replica_rng(seed: int, *key: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.Philox(ss))


def _direct_records(
    config: CampaignConfig, sum_quad: float, sum_noise: float, rng: np.random.Generator
) -> Tuple[np.ndarray, np.ndarray]:
    """A direct replica's per-attempt quad + noise and noise, given its sums.

    Constrained realisations: R coherent-state quadratures
    sqrt(2) alpha + xi/sqrt(2), then noise_series, each shifted by
    c (sum - sum of the draws), c as in `_sum_weights`, which gives the
    draws' joint distribution given their sum. Systematic and zero-sigma
    noise are fixed and need no shift.
    """
    count, model = config.attempts, config.noise
    x = rng.standard_normal(count)
    x *= math.sqrt(0.5)
    x += math.sqrt(2.0) * config.true_alpha
    x += (sum_quad - float(x.sum())) / count
    noise = noise_series(model, count, rng)
    if model.kind != "systematic" and model.sigma_tech > 0.0:
        noise += _sum_weights(model.lam, count) * (sum_noise - float(noise.sum()))
    x += noise
    return x, noise


#: A recorded campaign's per-replica receiver: sink(heralded, samples,
#: noise_value), called once per replica in replica order. heralded is
#: int8, one element per attempt, 1 where an estimate sample exists;
#: samples holds those samples (noise included), one per heralded attempt
#: in attempt order; noise_value is the technical-noise value of every
#: attempt. The arrays are the replica's own; a sink that keeps them past
#: its return keeps them alive.
RunSink = Callable[[np.ndarray, np.ndarray, np.ndarray], None]


def check_recording(config: CampaignConfig) -> None:
    """Refuse to record a campaign of more than MAX_RECORDED_ATTEMPTS attempts."""
    if config.attempts * config.replicas > MAX_RECORDED_ATTEMPTS:
        raise ValidationError(
            f"recording {config.attempts} attempts x {config.replicas} replicas exceeds the "
            f"limit of {MAX_RECORDED_ATTEMPTS} recorded attempts"
        )


def herald_table(protocol: ProtocolConfig) -> Tuple[float, _InverseCdf]:
    """What an amplified replica draws from: the herald's success
    probability and the inverse CDF of its conditional state's homodyne
    density. Raises what run_exact and quadrature_pdf raise."""
    result = run_exact(protocol)
    return result.success_probability, _InverseCdf.of(quadrature_pdf(result.conditional_state))


def run_campaign(
    config: CampaignConfig,
    sink: Optional[RunSink] = None,
    herald: Optional[Tuple[float, _InverseCdf]] = None,
) -> CampaignSummary:
    """Simulate the full campaign and aggregate per-replica estimates.

    Amplified scheme: the herald succeeds per attempt with the exact protocol
    success probability, and each success yields one homodyne sample of the
    exact conditional state. Direct scheme: every attempt samples the
    coherent state of amplitude true_alpha. Technical noise is generated over
    all attempts in run order and added to whichever samples exist.

    A direct replica costs O(1) in time and memory: its estimate
    (sum_quad + sum_noise)/R/sqrt(2) comes from the two sums drawn in closed
    form, one standard normal each, quadrature first (see the module
    docstring). When recorded, its R attempts are then drawn from the child
    stream spawn_key=(replica, 0), conditioned on those sums
    (`_direct_records`), so the estimate equals the mean of the recorded
    samples over sqrt(2) up to rounding and is the same number recorded or
    not. Direct replicas run inline, on no worker thread whatever
    HAL_THREADS says: each takes about 30 us and holds the GIL, so worker
    threads would only add their own overhead.

    With a sink (see `RunSink`) every replica's attempts are handed to it as
    soon as the replica is simulated, so recorded campaigns run inline too,
    and the campaign keeps no records: it holds one replica's arrays
    whatever the replica count (a tracemalloc peak of 10 B per attempt for
    an amplified replica with white noise, recorded or not; 26 B with ar1
    noise). A sink is refused above
    MAX_RECORDED_ATTEMPTS attempts in all (`check_recording`). Estimates
    (NaN without a success) and success counts are allocated once, and each
    replica writes its own slots of them.
    herald, if given, is herald_table(config.protocol), evaluated by the
    caller (the CLI does so before it opens any output).

    An amplified replica with successes estimates t mean(samples)/sqrt(2),
    undoing the nominal 1/t gain.
    """
    r_attempts = config.attempts
    if sink is not None:
        check_recording(config)
    model = config.noise
    if config.scheme == "amplified":
        p_success, table = herald_table(config.protocol) if herald is None else herald
        t = config.protocol.t
    else:
        quad_mean = math.sqrt(2.0) * config.true_alpha * r_attempts
        quad_sd = math.sqrt(r_attempts / 2.0)
        draws_noise = model.kind != "systematic" and model.sigma_tech > 0.0
        noise_mean = r_attempts * model.offset
        noise_sd = model.sigma_tech * math.sqrt(_ar1_sum_variance(model.lam, r_attempts))
    direct = config.scheme == "direct"  # every direct attempt heralds
    estimates = np.full(config.replicas, np.nan)
    successes = np.full(config.replicas, r_attempts * direct, dtype=np.int64)

    def one_replica(replica: int) -> None:
        rng = _replica_rng(config.seed, replica)
        if direct:
            sum_quad = quad_mean + quad_sd * rng.standard_normal()
            sum_noise = noise_sd * rng.standard_normal() if draws_noise else noise_mean
            estimates[replica] = (sum_quad + sum_noise) / r_attempts / math.sqrt(2.0)
            if sink is not None:
                samples, noise = _direct_records(
                    config, sum_quad, sum_noise, _replica_rng(config.seed, replica, 0)
                )
                sink(np.ones(r_attempts, dtype=np.int8), samples, noise)
            return
        heralded = rng.random(r_attempts) < p_success
        n_success = int(np.count_nonzero(heralded))
        quad = _sample_from_density(table, n_success, rng)
        noise = noise_series(model, r_attempts, rng)
        samples = quad + noise[heralded]
        if n_success:
            estimates[replica] = t * np.mean(samples) / math.sqrt(2.0)
        successes[replica] = n_success
        if sink is not None:
            sink(heralded.view(np.int8), samples, noise)

    map_indexed(one_replica, range(config.replicas), direct or sink is not None)
    usable = estimates[successes > 0]
    if usable.shape[0] > 0:
        estimate_mean = float(np.mean(usable))
        bias = estimate_mean - config.true_alpha
        variance = float(np.mean((usable - estimate_mean) ** 2))
        rmse = math.sqrt(bias * bias + variance)
    else:
        estimate_mean = bias = variance = rmse = float("nan")
    return CampaignSummary(
        attempts=r_attempts,
        replicas=config.replicas,
        successes=int(successes.sum()),
        estimate_mean=estimate_mean,
        bias=bias,
        variance=variance,
        rmse=rmse,
        per_replica_estimates=estimates,
        per_replica_successes=successes,
        no_success_replicas=np.flatnonzero(successes == 0),
        elapsed_model_time=r_attempts * config.run_period,
    )


def time_budget(protocol: ProtocolConfig, run_period: float = 0.1) -> TimeBudget:
    """Expected model time to collect one heralded point at this protocol."""
    if not (run_period > 0 and np.isfinite(run_period)):
        raise ValidationError(f"run_period must be positive, got {run_period!r}")
    p = run_exact(protocol).success_probability
    return TimeBudget(
        success_probability=p, run_period=run_period, expected_time_per_point=run_period / p
    )
