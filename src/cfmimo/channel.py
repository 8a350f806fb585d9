"""Large-scale fading, spatial correlation, correlated Rayleigh channels, and
MMSE channel estimation with error covariances.

Conventions: powers in mW, gains linear, one (UE k, O-RU l) block per N
antennas. Arrays are indexed (k, l) or (realization, k, l).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, lru_cache

import numpy as np

from .scenario import ScenarioConfig, Topology, rng_stream

QUAD_NODES = 40  # Gauss-Legendre nodes per angular axis
ANGLE_TRUNC_SIGMAS = 4.0  # angular densities truncated at +/- 4 std
_TAIL_BOUND = 1e-17  # largest sum of the expansion terms left out, per offset
_BLOCK_BYTES = 1 << 18  # largest temporary array of one kernel block
# Offsets whose expansion stays cached: every offset of an array of up to 33
# antennas, 1.3 MB. A longer array recomputes its larger offsets on every
# call, outside the cache, so that they do not push out offsets 1-32.
_EXPANSION_CACHE = 32
# N x N complex temporaries per link that a link block of the factorization
# and the MMSE filters holds at once, which sizes its blocks
_STATISTICS_TEMPS = 4


def _blocks(n: int, item_bytes: int) -> list[slice]:
    """Consecutive slices over n independent items, each holding as many
    items of ``item_bytes`` as ``_BLOCK_BYTES`` allows, but at least one; the
    last slice ends at n."""
    step = max(1, _BLOCK_BYTES // item_bytes)
    return [slice(i, min(i + step, n)) for i in range(0, n, step)]


def pathloss_db(d, exponent: float = 3.67, intercept_db: float = -30.5):
    """Distance-dependent channel gain in dB: intercept + slope*log10(d)."""
    d = np.asarray(d, dtype=float)
    if np.any(d <= 0):
        raise ValueError("pathloss requires d > 0")
    return intercept_db - 10.0 * exponent * np.log10(d)


def powerlaw_gain(d, exponent: float = 3.67):
    """Alternative bare power-law gain d**(-exponent)."""
    d = np.asarray(d, dtype=float)
    if np.any(d <= 0):
        raise ValueError("power-law gain requires d > 0")
    return d ** (-exponent)


def sample_shadowing(shape, sigma_db: float, rng: np.random.Generator) -> np.ndarray:
    """I.i.d. zero-mean Gaussian shadow fading in dB."""
    if sigma_db < 0:
        raise ValueError("sigma_db must be >= 0")
    return rng.normal(0.0, sigma_db, size=shape) if sigma_db > 0 else np.zeros(shape)


def large_scale_gain(
    dist: np.ndarray,
    shadow_db: np.ndarray,
    model: str = "log-distance",
    exponent: float = 3.67,
    intercept_db: float = -30.5,
) -> np.ndarray:
    """Linear channel gain beta from distance and shadow fading."""
    if model == "log-distance":
        pl = pathloss_db(dist, exponent, intercept_db)
        return 10.0 ** ((pl + shadow_db) / 10.0)
    if model == "power-law":
        return powerlaw_gain(dist, exponent) * 10.0 ** (shadow_db / 10.0)
    raise ValueError(f"unknown pathloss model {model!r}")


# The nonnegative nodes of the 40-node Gauss-Legendre rule on [-1, 1] and
# their weights, in increasing node order: the float64 values that numpy's
# polynomial.legendre.leggauss(40) returns (repr round-trips them), whose
# rule is exactly symmetric. Stored, so that no run imports numpy.polynomial
# or solves the companion-matrix eigenproblem that finds them.
_LEGENDRE_NODES = (
    0.038772417506050816, 0.11608407067525521, 0.1926975807013711, 0.2681521850072537,
    0.3419940908257585, 0.413779204371605, 0.4830758016861787, 0.5494671250951282,
    0.6125538896679802, 0.6719566846141796, 0.7273182551899271, 0.7783056514265194,
    0.8246122308333117, 0.8659595032122595, 0.9020988069688742, 0.9328128082786765,
    0.9579168192137917, 0.9772599499837743, 0.990726238699457, 0.9982377097105591,
)
_LEGENDRE_WEIGHTS = (
    0.07750594797842451, 0.07703981816424763, 0.07611036190062598, 0.07472316905796794,
    0.07288658239580377, 0.07061164739128656, 0.06791204581523368, 0.06480401345660076,
    0.061306242492928834, 0.05743976909939129, 0.0532278469839367, 0.04869580763507193,
    0.04387090818567321, 0.03878216797447219, 0.03346019528254789, 0.027937006980023434,
    0.022245849194166653, 0.016421058381906828, 0.010498284531153814, 0.004521277098536349,
)


@cache
def _quadrature() -> tuple[np.ndarray, np.ndarray]:
    """Read-only ``QUAD_NODES``-node Gauss-Legendre nodes x on [-1, 1] and
    normalized weights of a Gaussian axis truncated at +/-4 std.

    x and its Legendre weights mirror the stored nonnegative half. The node
    centre + 4*std*x has the Gaussian weight exp(-8 x^2) whatever the centre
    and std, so one rule, made once per process, serves every link and both
    axes; the joint weight of a node pair is the product.
    """
    half = np.array(_LEGENDRE_NODES)
    x = np.concatenate([-half[::-1], half])
    w = np.array(_LEGENDRE_WEIGHTS[::-1] + _LEGENDRE_WEIGHTS)
    w = w * np.exp(-0.5 * (ANGLE_TRUNC_SIGMAS * x) ** 2)
    w /= w.sum()
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def _bessel_j(x: float, kmax: int) -> np.ndarray:
    """J_0(x), ..., J_kmax(x) for x > 0 by Miller's backward recurrence,
    normalized by J_0 + 2 (J_2 + J_4 + ...) = 1."""
    start = kmax + 20 + math.isqrt(160 * kmax)
    j = np.zeros(start + 1)
    above, cur = 0.0, 1.0
    for k in range(start, 0, -1):
        j[k] = cur
        above, cur = cur, 2.0 * k / x * cur - above
        if abs(cur) > 1e250:  # rescale before the recurrence overflows
            j[k:] *= 1e-250
            above *= 1e-250
            cur *= 1e-250
    j[0] = cur
    return j[: kmax + 1] / (j[0] + 2.0 * j[2::2].sum())


@lru_cache(maxsize=_EXPANSION_CACHE)
def _expansion(offset: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only coefficients of exp(j*pi*d*sin(az)*cos(el)) for antenna
    offset d in the products T_m(sin az) T_n(cos el) of Chebyshev polynomials.

    With Jacobi-Anger (DLMF 10.12) applied to sin(az)cos(el) =
    (sin(az + el) + sin(az - el)) / 2, the coefficient is
    eps_m eps_n j^m J_{(m+n)/2}(pi*d/2) J_{(m-n)/2}(pi*d/2) when m = n
    (mod 2) and 0 otherwise, with eps_0 = 1 and eps_m = 2 for m > 0. It
    returns the real blocks of even (m, n) and of odd (m, n), with j^m's
    sign and without its j: the real part of the exponential is
    T_even @ even @ T_even, the imaginary part T_odd @ odd @ T_odd. The
    order M (m, n < M) is the least at which the terms left out sum to
    less than ``_TAIL_BOUND`` in absolute value; |T_m| <= 1 on [-1, 1].
    """
    x = math.pi * offset / 2
    kmax = math.ceil(x)  # past kmax, J_k(x) <= (x/2)^k / k! < 1e-30
    while kmax * math.log(x / 2) - math.lgamma(kmax + 1) > math.log(1e-30):
        kmax += 1
    bessel = _bessel_j(x, 2 * kmax)
    # the terms with max(m, n) >= M are those with |k| + |l| >= M over the
    # orders k = (m+n)/2, l = (m-n)/2 of all signs, whose |J| are eps*|J|
    eps_abs = np.abs(bessel)
    eps_abs[1:] *= 2.0
    pair_sums = np.convolve(eps_abs, eps_abs)
    tail = np.cumsum(pair_sums[::-1])[::-1]
    order = int(np.argmax(tail < _TAIL_BOUND))

    m = np.arange(order)
    half_sum = (m[:, None] + m[None, :]) // 2
    half_diff = (m[:, None] - m[None, :]) // 2
    eps = np.where(m > 0, 2.0, 1.0)
    coef = (
        np.outer(eps * (-1.0) ** (m // 2), eps)
        * bessel[half_sum]
        * bessel[np.abs(half_diff)]
        * (-1.0) ** np.minimum(half_diff, 0)  # J_{-l} = (-1)^l J_l
    )
    even = np.ascontiguousarray(coef[0::2, 0::2])
    odd = np.ascontiguousarray(coef[1::2, 1::2])
    even.flags.writeable = False
    odd.flags.writeable = False
    return even, odd


def _chebyshev(s: np.ndarray, order: int) -> np.ndarray:
    """T_0(s), ..., T_{order-1}(s) stacked on a new first axis, by the
    three-term recurrence T_{m+1} = 2 s T_m - T_{m-1}."""
    t = np.empty((order,) + s.shape)
    t[0] = 1.0
    if order > 1:
        t[1] = s
    two_s = 2.0 * s
    for m in range(1, order - 1):
        np.multiply(t[m], two_s, out=t[m + 1])
        t[m + 1] -= t[m - 1]
    return t


def _bilinear(a: np.ndarray, q: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a[p, :n] @ q @ b[p, :n] for every link p, with q of size (n, n).

    Links are the batch axis of the product, so a link's value does not
    depend on the other links of the call.
    """
    n = q.shape[0]
    t = np.matmul(a[:, None, :n], q)[:, 0]
    return np.einsum("pj,pj->p", t, b[:, :n])


def spatial_correlation_batch(
    nominal_azimuth: np.ndarray,
    nominal_elevation: np.ndarray,
    asd_azimuth: float,
    asd_elevation: float,
    num_antennas: int,
    beta: np.ndarray,
) -> np.ndarray:
    """Spatial correlation matrices for a batch of (UE, O-RU) links.

    Entry (m, n) of each matrix is
    ``beta * E[exp(j*pi*(m-n)*sin(az)*cos(el))]`` with independent Gaussian
    azimuth/elevation scattering around the nominal geometric angles,
    evaluated by the fixed 40-node Gauss-Legendre rule (``_quadrature``,
    stored constants) on the truncated supports. The weights sum to one, so
    the diagonal is exactly beta and trace(R) = N*beta by construction; a
    zero spread puts every node on the nominal angle.

    The quadrature sum is evaluated in closed form: the exponential of
    offset d expands in T_m(sin az) T_n(cos el) (see ``_expansion``). A
    scattering offset delta shifts each axis angle, and the symmetric rule
    turns exp(j*m*(angle + delta)) into exp(j*m*angle) * g_m with
    g_m = sum_i w_i cos(m * 4 * std * x_i). So per link and offset the sum
    is one bilinear form of the scaled Chebyshev values g_m T_m, and no
    node-pair exponential is evaluated.

    The quadrature rule is made once per process and the expansion
    coefficients of offsets up to ``_EXPANSION_CACHE`` are cached; g is made
    once per call. The Chebyshev values and the bilinear forms then run in
    link blocks sized by ``_blocks``, writing each link's expectations r
    into one (P, N) array, from which R is assembled. Links are the batch
    axis of every product, so a link's R does not depend on the block it
    falls in.

    Returns an array of shape (P, N, N), Hermitian PSD.
    """
    az = np.atleast_1d(np.asarray(nominal_azimuth, dtype=float))
    el = np.atleast_1d(np.asarray(nominal_elevation, dtype=float))
    beta = np.atleast_1d(np.asarray(beta, dtype=float))
    if not (np.all(np.isfinite(az)) and np.all(np.isfinite(el)) and np.all(np.isfinite(beta))):
        raise ValueError("non-finite input to spatial correlation")
    if num_antennas < 1:
        raise ValueError("num_antennas must be >= 1")
    P = az.size
    N = num_antennas

    # r[p, d] = E[exp(j*pi*d*sin(az)*cos(el))] for antenna offset d;
    # r[:, 0] is exactly 1 because the weights sum to one, so one antenna
    # needs no expansion.
    r = np.ones((P, N), dtype=complex)
    if N > 1:
        x, w = _quadrature()
        coefs = [
            _expansion(d) if d <= _EXPANSION_CACHE else _expansion.__wrapped__(d)
            for d in range(1, N)
        ]
        order = max(even.shape[0] + odd.shape[0] for even, odd in coefs)
        m = np.arange(order)[:, None]
        g_az = np.cos(m * ((ANGLE_TRUNC_SIGMAS * asd_azimuth) * x)) @ w
        g_el = np.cos(m * ((ANGLE_TRUNC_SIGMAS * asd_elevation) * x)) @ w
        # a block's largest temporary is its Chebyshev rows, 16 * order bytes
        # per link
        for p in _blocks(P, 16 * order):
            t = _chebyshev(np.stack([np.sin(az[p]), np.cos(el[p])]), order)
            a = g_az[:, None] * t[:, 0]  # (order, links)
            b = g_el[:, None] * t[:, 1]
            a_even, a_odd = np.ascontiguousarray(a[0::2].T), np.ascontiguousarray(a[1::2].T)
            b_even, b_odd = np.ascontiguousarray(b[0::2].T), np.ascontiguousarray(b[1::2].T)
            for d, (even, odd) in enumerate(coefs, 1):
                r[p, d].real = _bilinear(a_even, even, b_even)
                r[p, d].imag = _bilinear(a_odd, odd, b_odd)

    # The assembly runs over the whole call. Its (P, N, N) temporaries are
    # freed before build_statistics makes its other outputs, so they add
    # nothing to its peak, and freeing them raises glibc's dynamic mmap and
    # trim thresholds; assembled per block, a full-scale drop's realization
    # blocks refaulted their memory on every block (CHANGES.md).
    offsets = np.arange(N)
    idx = offsets[:, None] - offsets[None, :]  # (N, N) of m-n
    R = np.empty((P, N, N), dtype=complex)  # C-contiguous for the link blocks
    np.multiply(
        np.where(idx >= 0, r[:, np.abs(idx)], np.conj(r[:, np.abs(idx)])),
        beta[:, None, None],
        out=R,
    )
    return R


def correlation_factor(R: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Hermitian PSD square root of R (batched over leading axes), written
    into ``out`` when given."""
    vals, vecs = np.linalg.eigh(R)
    if not np.all(np.isfinite(vals)):
        bad = np.argwhere(~np.isfinite(vals).all(axis=-1))
        raise ValueError(f"correlation factorization failed for block {bad[0]}")
    vals = np.clip(vals, 0.0, None)
    scaled = vecs * np.sqrt(vals)[..., None, :]
    return np.matmul(scaled, np.conj(np.swapaxes(vecs, -1, -2)), out=out)


def _per_link(A: np.ndarray, x: np.ndarray) -> np.ndarray:
    """x[t] <- A @ x[t] in place, for every link and realization t:
    (..., N, N) matrices, one per link, and C-contiguous (T, ..., N)
    vectors; returns x.

    Each link is one product over its realizations, with the realizations
    innermost, and the links run in chunks sized by ``_blocks``; a chunk's
    product is complete before it overwrites its vectors. A link's product
    sums over m in order, as a single einsum over the whole batch does, so
    it does not depend on the chunk it falls in.
    """
    T, N = x.shape[0], x.shape[-1]
    A = np.ascontiguousarray(A).reshape(-1, N, N)
    x_links = x.reshape(T, -1, N).transpose(1, 2, 0)  # (links, N, T) views
    for b in _blocks(A.shape[0], 32 * N * T):  # a chunk of x and its product
        x_links[b] = np.einsum("pnm,pmt->pnt", A[b], x_links[b])
    return x


def _draws(rng: np.random.Generator, n: int):
    """``n`` standard normal draws from ``rng`` in consecutive blocks, each
    drawn into one reused buffer of ``_BLOCK_BYTES``; consecutive draws into
    it give the same stream as one draw of all ``n``."""
    step = max(1, _BLOCK_BYTES // 8)
    buf = np.empty(min(n, step))
    for i in range(0, n, step):
        yield rng.standard_normal(out=buf[: n - i])


def _fill(part: np.ndarray, rng: np.random.Generator, sigma=None) -> None:
    """Set the 1-D float view ``part`` to standard normal draws from ``rng``
    in order, or with ``sigma`` add ``sigma`` times them."""
    i = 0
    for draws in _draws(rng, part.size):
        seg = part[i : i + draws.size]
        i += draws.size
        if sigma is None:
            seg[...] = draws
        else:
            draws *= sigma
            seg += draws


class Cursors:
    """One named stream's draws for a batch of ``size`` complex normals, taken
    block by block: the stream holds the real parts of the whole batch, in C
    order, then its imaginary parts.

    The real-part cursor is the stream's own generator. The imaginary-part
    cursor starts where the batch's last real draw ends: once the first block
    has its real parts, it is the same generator if that block is the whole
    batch, and otherwise a copy of its state (made without OS entropy) that
    draws and discards the remaining real parts.
    """

    def __init__(self, rng: np.random.Generator, size: int):
        self.real = rng
        self.imag: np.random.Generator | None = None
        self.left = size  # real parts not drawn yet

    def draw_into(self, z: np.ndarray, sigma=None) -> None:
        """Draws for the next block, the C-contiguous complex array ``z``:
        each part is set to them, or with ``sigma`` gets ``sigma`` times them
        added."""
        flat = z.reshape(-1)  # a view: z is C-contiguous
        if flat.size > self.left:
            raise ValueError(f"{flat.size} draws asked for, {self.left} left in the batch")
        _fill(flat.real, self.real, sigma)
        self.left -= flat.size
        if self.imag is None:
            self.imag = self.real
            if self.left:
                bits = type(self.real.bit_generator)(0)
                bits.state = self.real.bit_generator.state
                self.imag = np.random.Generator(bits)
                for _ in _draws(self.imag, self.left):
                    pass
        _fill(flat.imag, self.imag, sigma)


def _cursors(rng: np.random.Generator | Cursors, size: int) -> Cursors:
    """``rng`` as the cursors of a batch of ``size`` draws, if it is not
    cursors already."""
    return rng if isinstance(rng, Cursors) else Cursors(rng, size)


def sample_channel(
    sqrt_R: np.ndarray, rng: np.random.Generator | Cursors, size: int
) -> np.ndarray:
    """``size`` correlated circular-Gaussian channel draws h = R^(1/2) g.

    ``sqrt_R`` has shape (..., N, N); returns (size, ..., N). A generator
    ``rng`` gives the real parts of all draws before the imaginary ones;
    ``Cursors`` give the next block of a larger batch. The draws, their
    scaling and the products all fill the returned array.
    """
    g = np.empty((size,) + sqrt_R.shape[:-1], dtype=complex)
    _cursors(rng, g.size).draw_into(g)
    g /= np.sqrt(2.0)
    return _per_link(sqrt_R, g)


def mmse_filters(
    R: np.ndarray,
    pilot_power_mw: float,
    pilot_len: int,
    noise_mw: float,
    out: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-link MMSE estimation filter and second-order statistics.

    With pilot observation y = sqrt(p*tau)h + n, n ~ CN(0, noise*I):
    returns (W, Phi, C) where hhat = W @ y, Phi = Cov(hhat) and
    C = R - Phi is the error covariance, written into the three arrays
    ``out`` when given and otherwise into new C-contiguous ones.
    """
    if noise_mw <= 0:
        raise ValueError("noise power must be > 0")
    ptau = pilot_power_mw * pilot_len
    N = R.shape[-1]
    # (A^{-1} R)^H with A = p*tau*R + s2 I, batched
    Ainv_R_H = np.swapaxes(
        np.conj(np.linalg.solve(ptau * R + noise_mw * np.eye(N), R)), -1, -2
    )
    W, Phi, C = out or (np.empty(R.shape, Ainv_R_H.dtype) for _ in range(3))
    np.multiply(np.sqrt(ptau), Ainv_R_H, out=W)
    # R Hermitian makes R A^{-1} R = (A^{-1} R)^H R
    work = ptau * Ainv_R_H @ R
    work += np.conj(np.swapaxes(work, -1, -2))
    np.multiply(0.5, work, out=Phi)
    np.subtract(R, Phi, out=work)
    work += np.conj(np.swapaxes(work, -1, -2))
    np.multiply(0.5, work, out=C)
    return W, Phi, C


def estimate_channels(
    h: np.ndarray,
    W: np.ndarray,
    pilot_power_mw: float,
    pilot_len: int,
    noise_mw: float,
    rng: np.random.Generator | Cursors,
) -> np.ndarray:
    """MMSE channel estimates from noisy pilot observations.

    ``h`` has shape (T, K, L, N) and ``W`` (K, L, N, N); the pilot noise is
    drawn fresh per realization, from ``rng`` as in ``sample_channel``. The
    observations, their noise and the filtered estimates share one array,
    the one returned.
    """
    ptau = pilot_power_mw * pilot_len
    y = np.sqrt(ptau) * h  # becomes the estimates
    _cursors(rng, y.size).draw_into(y, np.sqrt(noise_mw / 2.0))
    return _per_link(W, y)


def phase_drift(
    num_realizations: int, num_oru: int, max_deg: float, rng: np.random.Generator
) -> np.ndarray:
    """Per-O-RU oscillator drift of the calibration state, as (T, L) unit
    phasors exp(j theta) with theta ~ U[-max_deg, +max_deg].

    In each realization, O-RU l's whole N-antenna block of every channel is
    multiplied by its phasor.
    """
    if max_deg < 0:
        raise ValueError("max_deg must be >= 0")
    max_rad = np.deg2rad(max_deg)
    return np.exp(1j * rng.uniform(-max_rad, max_rad, size=(num_realizations, num_oru)))


@dataclass
class ChannelStatistics:
    """Second-order channel state for one drop."""

    beta: np.ndarray  # (K, L) linear gains
    shadow_db: np.ndarray  # (K, L)
    R: np.ndarray  # (K, L, N, N) spatial correlation
    sqrt_R: np.ndarray  # (K, L, N, N)
    W: np.ndarray  # (K, L, N, N) MMSE estimation filters
    Phi: np.ndarray  # (K, L, N, N) estimate covariance
    C: np.ndarray  # (K, L, N, N) estimation error covariance
    noise_mw: float

    @property
    def antennas_per_oru(self) -> int:
        return self.R.shape[-1]


def build_statistics(
    config: ScenarioConfig, topology: Topology, drop_index: int
) -> ChannelStatistics:
    """Large-scale gains, correlation matrices, and estimation filters for a drop.

    Nominal scattering angles follow the geometry: azimuth is the UE bearing
    seen from the O-RU, elevation the (negative) depression angle set by the
    antenna height. Pilot power equals the uplink data power and the pilot
    length equals the number of orthogonal pilots.

    R^(1/2), W, Phi and C are made once, C-contiguous, and filled in link
    blocks sized by ``_blocks``: each block's factorization and filters
    write into them, so the temporaries held at once are a block's, not
    the drop's. Each link's matrices are computed on their own, so the
    bits do not depend on the block size.
    """
    K, L, N = config.num_ue, config.num_oru, config.antennas_per_oru
    rng_sh = rng_stream(config.master_seed, drop_index, "shadowing")
    shadow = sample_shadowing((K, L), config.shadow_sigma_db, rng_sh)
    beta = large_scale_gain(
        topology.distance_matrix,
        shadow,
        model=config.pathloss_model,
        exponent=config.pathloss_exponent,
        intercept_db=config.pathloss_intercept_db,
    )

    d_xy = topology.ue_positions[:, None, :2] - topology.oru_positions[None, :, :2]
    horiz = np.linalg.norm(d_xy, axis=-1)
    azimuth = np.arctan2(d_xy[..., 1], d_xy[..., 0])
    dz = topology.ue_positions[:, None, 2] - topology.oru_positions[None, :, 2]
    elevation = np.arctan2(dz, horiz)

    R = spatial_correlation_batch(
        azimuth.ravel(),
        elevation.ravel(),
        np.deg2rad(config.asd_azimuth_deg),
        np.deg2rad(config.asd_elevation_deg),
        N,
        beta.ravel(),
    )

    noise = config.noise_power_mw()
    # C-contiguous, so a drop's sampling blocks read W without a copy. Phi
    # and C are made before R^(1/2) and W: a drop lets them go before its
    # moment pass, which still reads R^(1/2) and W, so the heap space they
    # free lies below live arrays, where the pass's block temporaries reuse
    # it, not at the heap's top, where glibc would trim it and the pass
    # refault it block after block
    Phi, C, sqrt_R, W = (np.empty_like(R) for _ in range(4))
    for p in _blocks(K * L, 16 * N * N * _STATISTICS_TEMPS):
        correlation_factor(R[p], out=sqrt_R[p])
        mmse_filters(
            R[p], config.ul_power_mw, config.pilot_count, noise, out=(W[p], Phi[p], C[p])
        )
    shape = (K, L, N, N)
    return ChannelStatistics(
        beta=beta,
        shadow_db=shadow,
        R=R.reshape(shape),
        sqrt_R=sqrt_R.reshape(shape),
        W=W.reshape(shape),
        Phi=Phi.reshape(shape),
        C=C.reshape(shape),
        noise_mw=noise,
    )


def drop_streams(
    config: ScenarioConfig, drop_index: int, num_realizations: int
) -> dict[str, Cursors]:
    """The cursors of a drop's "small-scale" and "estimation-noise" streams
    over a batch of ``num_realizations``, for ``sample_drop_channels`` to
    draw it block by block."""
    size = num_realizations * config.num_ue * config.num_oru * config.antennas_per_oru
    return {
        tag: Cursors(rng_stream(config.master_seed, drop_index, tag), size)
        for tag in ("small-scale", "estimation-noise")
    }


def sample_drop_channels(
    stats: ChannelStatistics,
    num_realizations: int,
    config: ScenarioConfig,
    drop_index: int,
    streams: dict[str, Cursors] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Channel realizations and their MMSE estimates, (T, K, L, N) each.

    Of ``stats`` it reads ``sqrt_R``, ``W`` and ``noise_mw`` only, so a
    record with just those three fields will do. Without ``streams`` they
    are the drop's whole batch of ``num_realizations``; with the cursors of
    ``drop_streams`` they are the next block of that batch, and consecutive
    blocks concatenate to the same bits as the whole batch.
    """
    streams = streams or drop_streams(config, drop_index, num_realizations)
    h = sample_channel(stats.sqrt_R, streams["small-scale"], size=num_realizations)
    rng_e = streams["estimation-noise"]
    hhat = estimate_channels(
        h, stats.W, config.ul_power_mw, config.pilot_count, stats.noise_mw, rng_e
    )
    return h, hhat
