"""Large-scale channel statistics and correlated Rayleigh sampling.

Large-scale gain (dB) = three-slope path loss + two-component spatially
correlated shadowing. Spatial correlation across the N antennas of a
uniform linear array follows the Gaussian local-scattering closed form.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import planes
from .errors import ConfigurationError, NumericalError
from .scenario import Deployment, wrap_displacement_planes, wrap_distance_matrix

BOLTZMANN = 1.381e-23   # J/K
NOISE_TEMPERATURE = 290.0  # K

# complex_normals reads raw words in pieces of at most ORACLE_PIECE words,
# four normals each, which bounds its index temporary at 128 KB; the piece
# length does not change the normals.
ORACLE_PIECE = 2 ** 12


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
        if self.d0 / self.d1 == 0.0:     # its log, the mid slope's span, is -inf
            raise ConfigurationError(
                f"path loss d0 / d1 = {self.d0} / {self.d1} underflows to 0")


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


def _radius_levels() -> np.ndarray:
    """The 256 levels x_0 < ... < x_255 of |g|^2 / 2 for complex_normals,
    equiprobable, whose first four moments are those of Exp(1), j!.

    They start from the conditional means m_i of Exp(1) on its 256
    equal-probability strata [a_i, a_{i+1}), a_i = -ln(1 - i/256):
    m_i = a_i + 1 - d_i / (e^{d_i} - 1) with d_i = a_{i+1} - a_i, and
    a_255 + 1 for the last, unbounded stratum. These fall short of the
    higher moments, so they are tilted, x_i = m_i exp(sum_{j<4} lambda_j
    (m_i / m_255)^j), with lambda solved by Newton's method on
    (1/256) sum_i x_i^j = j! for j = 1..4. From lambda = 0 it converges in
    five steps; the sixth moves lambda by rounding only.
    """
    a = -np.log1p(-np.arange(256) / 256.0)
    d = np.diff(a)
    m = np.append(a[:-1] + 1.0 - d / np.expm1(d), a[-1] + 1.0)
    basis = (m / m[-1])[:, None] ** np.arange(4)          # (256, 4)
    j = np.arange(1, 5)
    factorials = np.array([1.0, 2.0, 6.0, 24.0])
    tilt = np.zeros(4)
    for _ in range(6):
        x = m * np.exp(basis @ tilt)
        powers = x[:, None] ** j                            # (256, 4)
        jacobian = (j * powers).T @ basis / 256.0
        tilt -= np.linalg.solve(jacobian, powers.mean(axis=0) - factorials)
    return m * np.exp(basis @ tilt)


@functools.cache
def _normal_table(dtype: np.dtype) -> np.ndarray:
    """The read-only 65 536 complex normals of complex_normals in dtype:
    entry 256 i + p is sqrt(2 x_i) e^{2 pi j p / 256}, x = _radius_levels(),
    formed in complex128 and rounded once to dtype. It is built on first
    use, never at import."""
    radii = np.sqrt(2.0 * _radius_levels())
    phases = np.exp(2j * np.pi * np.arange(256) / 256.0)
    table = np.empty((256, 256), dtype)
    np.multiply(radii[:, None], phases, out=table, casting="same_kind")
    table = table.reshape(-1)
    table.flags.writeable = False
    return table


def complex_normals(bit_generator: np.random.BitGenerator,
                    out: np.ndarray) -> np.ndarray:
    """Fill the C-contiguous complex array out, in C order, with complex
    normals of unit-variance real and imaginary parts, four per raw 64-bit
    word w of bit_generator, and return it.

    Normal 4n + l is T[(w_n >> 16 l) & 0xFFFF], lane l of word n, from a
    table T of 65 536 entries (_normal_table): the lane's high byte i picks
    one of 256 equiprobable radii sqrt(2 x_i) and its low byte p the phase
    e^{2 pi j p / 256}. The lanes are defined arithmetically, so the stream
    does not depend on byte order; a fill reads ceil(out.size / 4) words
    and leaves the unused lanes of the last one. For a phase uniform on 256
    points, E[g^p conj(g)^q] vanishes for 0 < |p - q| < 256, and the levels
    give E|g|^{2p} = 2^p p! for p <= 4 (_radius_levels). So every moment
    of degree at most 8 is the CN(0, 2) one to rounding, and every mean and
    variance that the oracle estimates, of a, |a|^2 and |a|^4, is that of
    Gaussian draws. The words are read in pieces of at most ORACLE_PIECE,
    in order, so the piece length changes nothing.

    The normals take the precision of out: a complex64 out gets the
    complex128 normals of the same words, each rounded once.
    """
    flat = out.reshape(-1)
    table = _normal_table(out.dtype)
    index = np.empty(4 * min(ORACLE_PIECE, -(-flat.size // 4)), np.intp)
    for lo in range(0, flat.size, 4 * ORACLE_PIECE):
        words = bit_generator.random_raw(min(ORACLE_PIECE,
                                             -(-(flat.size - lo) // 4)))
        # As little-endian 64-bit words, a no-op on little-endian machines,
        # their 16-bit lanes run from the lowest bits up.
        lanes = words.astype("<u8", copy=False).view("<u2")
        np.copyto(index[:lanes.size], lanes)
        n = min(lanes.size, flat.size - lo)
        np.take(table, index[:n], out=flat[lo:lo + n], mode="clip")
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
