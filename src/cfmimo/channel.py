"""Large-scale channel statistics and correlated Rayleigh sampling.

Large-scale gain (dB) = three-slope path loss + two-component spatially
correlated shadowing. Spatial correlation across the N antennas of a
uniform linear array follows the Gaussian local-scattering closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import planes
from .errors import ConfigurationError, NumericalError
from .scenario import Deployment, wrap_displacement_planes, wrap_distance_matrix

BOLTZMANN = 1.381e-23   # J/K
NOISE_TEMPERATURE = 290.0  # K

# complex_normals turns raw words into normals in pieces of at most
# ORACLE_PIECE words, which bounds its temporaries at 128 KB each; the piece
# length does not change the normals. Their phases lie on the exact grid of
# the 2048 roots of unity, indexed by the low 11 bits of a word, held in
# double and in single precision.
ORACLE_PIECE = 2 ** 14
_PHASE_BITS = 11
_PHASES = np.exp(2j * np.pi * np.arange(2 ** _PHASE_BITS) / 2 ** _PHASE_BITS)
_PHASES_SINGLE = _PHASES.astype(np.complex64)


def cost_hata_fixed_term_db(freq_mhz: float = 1900.0,
                            ap_height_m: float = 15.0,
                            ue_height_m: float = 1.65) -> float:
    """COST-Hata fixed attenuation term (positive dB) for the far-field law."""
    lf = np.log10(freq_mhz)
    return (46.3 + 33.9 * lf - 13.82 * np.log10(ap_height_m)
            - (1.1 * lf - 0.7) * ue_height_m + (1.56 * lf - 0.8))


@dataclass(frozen=True)
class PathLossParams:
    """Three-slope log-distance path loss.

    Below d0 the exponent is near_slope, between d0 and d1 it is mid_slope,
    and above d1 the full fixed-term law with far_slope applies. The pieces
    are stitched continuously at d0 and d1.
    """
    d0: float = 10.0              # m
    d1: float = 50.0              # m
    fixed_term_db: float = field(default_factory=cost_hata_fixed_term_db)
    near_slope: float = 2.0
    mid_slope: float = 3.0
    far_slope: float = 3.5

    def __post_init__(self):
        if not 0 < self.d0 < self.d1:
            raise ConfigurationError("path loss requires 0 < d0 < d1")


@dataclass(frozen=True)
class LargeScaleModelConfig:
    shadow_std_db: float = 8.0        # sigma_sh
    shadow_weight: float = 0.5        # w, AP-component weight in [0, 1]
    decorrelation_distance: float = 100.0  # m
    asd_deg: float = 15.0             # angular standard deviation
    antenna_spacing: float = 0.5      # wavelengths, uniform linear array
    path_loss: PathLossParams = field(default_factory=PathLossParams)
    bandwidth_hz: float = 20e6        # B
    noise_figure_db: float = 9.0      # sigma_F

    def __post_init__(self):
        if self.shadow_std_db < 0:
            raise ConfigurationError("shadow_std_db must be >= 0")
        if not 0.0 <= self.shadow_weight <= 1.0:
            raise ConfigurationError("shadow_weight must lie in [0, 1]")
        if self.decorrelation_distance <= 0:
            raise ConfigurationError("decorrelation_distance must be positive")
        if self.bandwidth_hz <= 0:
            raise ConfigurationError("bandwidth_hz must be positive")
        try:
            noise = self.noise_power_w
        except OverflowError:
            noise = math.inf
        if not 0.0 < noise < math.inf:
            raise ConfigurationError("noise power must be finite and positive")

    @property
    def noise_power_w(self) -> float:
        """sigma^2 = B * k_B * T0 * F (linear noise figure), watts."""
        return (self.bandwidth_hz * BOLTZMANN * NOISE_TEMPERATURE
                * 10.0 ** (self.noise_figure_db / 10.0))


@dataclass(frozen=True)
class ChannelStatistics:
    R: np.ndarray            # (M, K, N, N) Hermitian PSD, linear power;
                             # channel_stats's is a planes.stacked view
    beta: np.ndarray         # (M, K) large-scale coefficients, linear
    noise_power: float       # sigma^2, watts

    @property
    def num_aps(self) -> int:
        return self.R.shape[0]

    @property
    def num_users(self) -> int:
        return self.R.shape[1]

    @property
    def num_antennas(self) -> int:
        return self.R.shape[2]


def path_loss_db(distance, params: PathLossParams):
    """Three-slope path loss in dB (negative gain); distances clamped at 1 m."""
    d = np.maximum(np.asarray(distance, dtype=float), 1.0)
    # Far-field anchor at d1; the lower pieces continue it with milder slopes.
    pl_d1 = -params.fixed_term_db - 10.0 * params.far_slope * np.log10(params.d1 / 1000.0)
    pl_d0 = pl_d1 - 10.0 * params.mid_slope * np.log10(params.d0 / params.d1)
    far = -params.fixed_term_db - 10.0 * params.far_slope * np.log10(d / 1000.0)
    mid = pl_d1 - 10.0 * params.mid_slope * np.log10(d / params.d1)
    near = pl_d0 - 10.0 * params.near_slope * np.log10(d / params.d0)
    return np.where(d > params.d1, far, np.where(d > params.d0, mid, near))


def _correlated_gaussian(positions: np.ndarray, decorrelation: float,
                         area_side: float, rng: np.random.Generator) -> np.ndarray:
    """Zero-mean unit-variance field with correlation exp(-d_wrap/d_dec)."""
    n = positions.shape[0]
    dist = wrap_distance_matrix(positions, positions, area_side)
    corr = np.exp(-dist / decorrelation)
    # Jitter bounded relative to unit diagonal. On the torus of wrap-around
    # distances the kernel is not positive definite when the side is a few
    # decorrelation distances, and the Cholesky then fails: the config, not
    # the numerics, is at fault.
    try:
        chol = np.linalg.cholesky(corr + 1e-10 * np.eye(n))
    except np.linalg.LinAlgError as exc:
        raise ConfigurationError(
            f"area_side {area_side} / decorrelation_distance {decorrelation} "
            f"= {area_side / decorrelation:.3g}: the shadowing correlation "
            "exp(-d_wrap/d_dec) of these positions is not a covariance; on "
            "dense grids it is one only from a ratio of about 7") from exc
    return chol @ rng.standard_normal(n)


def shadowing_field(deployment: Deployment, config: LargeScaleModelConfig,
                    rng: np.random.Generator) -> np.ndarray:
    """(M, K) shadowing values in dB.

    shadow[m, k] = sigma_sh * (sqrt(w) a_m + sqrt(1-w) b_k) with a and b unit
    Gaussian fields correlated as exp(-d_wrap/d_dec) among APs and among UEs,
    so each entry has marginal variance sigma_sh^2.
    """
    a = _correlated_gaussian(deployment.ap_positions, config.decorrelation_distance,
                             deployment.area_side, rng)
    b = _correlated_gaussian(deployment.ue_positions, config.decorrelation_distance,
                             deployment.area_side, rng)
    w = config.shadow_weight
    return config.shadow_std_db * (np.sqrt(w) * a[:, None] + np.sqrt(1.0 - w) * b[None, :])


def spatial_correlation(nominal_angle, asd_deg: float, num_antennas: int,
                        beta, spacing: float = 0.5) -> np.ndarray:
    """Gaussian local-scattering correlation matrices of a ULA.

    Entry (l, m) = beta * exp(j*2*pi*spacing*(l-m)*sin(theta))
                        * exp(-(asd^2/2) * (2*pi*spacing*(l-m)*cos(theta))^2),
    the small-angle closed form. It depends on the lag l - m only, and lag
    -d is the conjugate of lag d, so R is built as a Hermitian Toeplitz
    matrix from its N lags d >= 0: exactly Hermitian, with beta on the
    diagonal and trace N*beta. Angles and betas broadcast to one shape S;
    the result is the (*S, N, N) stack of planes.stacked, one (N, N)
    matrix for scalars.
    """
    asd = np.deg2rad(asd_deg)
    beta = np.asarray(beta, dtype=float)
    sin, cos = np.sin(nominal_angle), np.cos(nominal_angle)
    entry = np.empty((num_antennas, num_antennas) + np.broadcast_shapes(
        beta.shape, np.shape(sin)), dtype=complex)
    # The phase factor of lag d is the d-th power of that of lag 1.
    turn, rotation = np.exp(1j * (2.0 * np.pi * spacing) * sin), 1.0
    for lag in range(num_antennas):
        if lag == 0:
            value = beta
        else:
            phase = 2.0 * np.pi * spacing * lag
            rotation = rotation * turn
            value = beta * (rotation * np.exp(-0.5 * asd**2 * (phase * cos) ** 2))
        conj = np.conj(value)
        for m in range(num_antennas - lag):
            entry[m + lag, m] = value
            entry[m, m + lag] = conj
    return planes.stacked(entry)


def channel_stats(deployment: Deployment, config: LargeScaleModelConfig,
                  rng: np.random.Generator) -> ChannelStatistics:
    """Build beta (path loss + shadowing, linear) and R matrices for all links.

    The nominal angle of each link is the AP->UE bearing under wrap-around.
    The geometry runs on (M, K) coordinate planes, and R is the stacked view
    of its entry planes (spatial_correlation).
    """
    dx, dy = wrap_displacement_planes(deployment.ap_positions,
                                      deployment.ue_positions,
                                      deployment.area_side)  # (M, K) each
    dist = np.sqrt(dx * dx + dy * dy)
    beta_db = path_loss_db(dist, config.path_loss) + shadowing_field(deployment, config, rng)
    beta = 10.0 ** (beta_db / 10.0)
    R = spatial_correlation(np.arctan2(dy, dx), config.asd_deg,
                            deployment.num_antennas, beta, config.antenna_spacing)
    return ChannelStatistics(R=R, beta=beta, noise_power=config.noise_power_w)


def correlation_sqrt(R: np.ndarray) -> np.ndarray:
    """Hermitian square roots of a stack of PSD matrices.

    Negative eigenvalues are clipped at zero only when they are roundoff-sized
    (|lambda_min| <= 1e-10 * trace/N); larger violations raise.
    """
    stack = np.asarray(R)
    w, v = np.linalg.eigh(stack)
    scale = np.trace(stack, axis1=-2, axis2=-1).real / stack.shape[-1]
    tol = 1e-10 * np.maximum(scale, np.finfo(float).tiny)
    if np.any(w < -tol[..., None]):
        raise NumericalError("correlation matrix has significantly negative eigenvalues")
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)[..., None, :]) @ np.conj(np.swapaxes(v, -1, -2))


def complex_normals(bit_generator: np.random.BitGenerator,
                    out: np.ndarray) -> np.ndarray:
    """Fill the C-contiguous complex array out, in C order, with complex
    normals of unit-variance real and imaginary parts, one per raw 64-bit
    word w of bit_generator, and return it.

    Box-Muller with the phase on an exact grid: g = r T[w & 2047], with the
    radius r = sqrt(-2 ln(1 - (w >> 11) 2^-53)) from the word's top 53 bits
    and T = _PHASES. For a phase uniform on 2048 points, E[g^p conj(g)^q] is
    the CN(0, 2) moment whenever |p - q| < 2048, so every mean and variance
    that the oracle estimates, polynomials of degree at most 8 in the
    normals, is that of Gaussian draws. The words are read in pieces of at
    most ORACLE_PIECE, in order, so the piece length changes nothing.

    The normals take the precision of out. A complex64 out reads the same
    words, and each of its normals is the complex128 normal of that word
    to within 2 float32 ulps: 1 - (w >> 11) 2^-53, its log and the square
    root stay in double precision, so small radii keep their accuracy, and
    r, rounded once to single precision, multiplies the single-precision T.
    The phases then lie on the grid to float32 rounding, and the moment
    argument holds to that rounding.
    """
    flat = out.reshape(-1)
    single = out.dtype == np.complex64
    size = min(ORACLE_PIECE, flat.size)
    phase, radius = np.empty(size, np.intp), np.empty(size)
    rounded = np.empty(size, np.float32) if single else radius
    phases = _PHASES_SINGLE if single else _PHASES
    for lo in range(0, flat.size, ORACLE_PIECE):
        words = bit_generator.random_raw(min(ORACLE_PIECE, flat.size - lo))
        n = words.size
        np.bitwise_and(words, 2 ** _PHASE_BITS - 1, out=phase[:n])
        # 1 - (w >> 11) 2^-53 is exact and in (0, 1], so its log is finite.
        # The shifted words are below 2^53, so as int64 they convert to
        # floats exactly; x86-64 converts a signed 64-bit integer in one
        # instruction, an unsigned one (without AVX-512) in several.
        np.right_shift(words, _PHASE_BITS, out=words)
        r = np.multiply(words.view(np.int64), 2.0 ** -53, out=radius[:n])
        np.subtract(1.0, r, out=r)
        np.log(r, out=r)
        r *= -2.0
        # A complex64 out's radius is rounded to single precision here, once.
        r = np.sqrt(r, out=rounded[:n])
        piece = np.take(phases, phase[:n], out=flat[lo:lo + n], mode="clip")
        np.multiply(piece, r, out=piece)
    return out


def sample_channel(stats: ChannelStatistics, rng: np.random.Generator,
                   num_samples: int | None = None) -> np.ndarray:
    """Draw correlated Rayleigh realizations H[m, k] = R^(1/2) g, g ~ CN(0, I).

    Returns (M, K, N), or (num_samples, M, K, N) when num_samples is given,
    from one complex normal of rng (complex_normals) per entry, in C order.
    """
    shape = (stats.num_aps, stats.num_users, stats.num_antennas)
    if num_samples is not None:
        shape = (num_samples,) + shape
    normals = complex_normals(rng.bit_generator, np.empty(shape, complex))
    return np.einsum("mkab,...mkb->...mka", correlation_sqrt(stats.R),
                     normals / np.sqrt(2.0), optimize=True)
