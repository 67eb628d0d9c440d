"""Donor occupancy, telegraph-noise statistics, and the excitation-power map.

Photoelectron trapping and recombination make the donor charge state a
two-state Markov (telegraph) process, fixed by its two dwell times: the
occupancy is tau_occupied / (tau_occupied + tau_empty).  This module
carries the steady-state occupancy and correlation times, the exact
two-state correlation function together with a Monte Carlo estimator for
it, the Lorentzian spectral density, and the steady-state carrier
balance linking donor occupancy to the excitation power density.  The
matrix-exponential and Fourier-quadrature oracles live in
:mod:`donor_halo.oracles`.

Pure functions throughout; the Monte Carlo simulator takes an explicit
seed and is reproducible.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import BracketError, MaterialError, NumericalError
from .materials import MaterialRecord
from .numerics import (FINITE, MAX_STEPS, NON_NEGATIVE, NON_NEGATIVE_FINITE, POSITIVE,
                       POSITIVE_FINITE, UNIT, UNIT_BELOW_ONE, UNIT_OPEN, any_true, require)

#: below this donor occupancy, bulk spin diffusion dominates the nuclear
#: polarization and the local steady-state model loses validity
GAMMA_MIN_DIFFUSION = 0.15


@dataclass(frozen=True)
class KineticState:
    """Steady-state carrier kinetics around one donor."""

    occupancy: float        # fraction of time the donor holds an electron
    free_density: float     # free-electron density, m^-3
    tau_quad: float         # correlation time of the quadrupolar modulation, s
    tau_hyper: float        # correlation time of the hyperfine coupling, s


def occupancy(free_density: float, mat: MaterialRecord) -> KineticState:
    """Kinetic state for a given free-electron density.

    The donor occupancy follows from balancing capture against
    recombination; the quadrupolar correlation time combines the
    recombination and capture lifetimes.  The hyperfine correlation time
    is the spin-exchange time 1/(sigma_exchange * v * n_f), infinite at
    n_f = 0.
    """
    require(free_density, "free-electron density", NON_NEGATIVE_FINITE)
    tau_r = mat.recombination_time
    capture_rate = mat.sigma_capture * mat.velocity * free_density
    gamma_t = capture_rate * tau_r / (1.0 + capture_rate * tau_r)
    tau_quad = 1.0 / (1.0 / tau_r + capture_rate)
    exchange_rate = mat.sigma_exchange * mat.velocity * free_density
    tau_hyper = 1.0 / exchange_rate if exchange_rate > 0.0 else math.inf
    return KineticState(occupancy=gamma_t, free_density=free_density,
                        tau_quad=tau_quad, tau_hyper=tau_hyper)


def state_for_occupancy(gamma_t: float, mat: MaterialRecord) -> KineticState:
    """Kinetic state whose steady occupancy equals gamma_t (fixed tau_r)."""
    if require(gamma_t, "occupancy", UNIT_BELOW_ONE) == 0.0:
        return occupancy(0.0, mat)
    capture = (1.0 - gamma_t) * mat.sigma_capture * mat.velocity * mat.recombination_time
    n_f = gamma_t / capture if capture else math.inf
    if n_f == math.inf:
        raise NumericalError(f"free-electron density for occupancy {gamma_t:g} is out of "
                             "float range; check sigma_capture, velocity and "
                             "recombination_time")
    return occupancy(n_f, mat)


# --- telegraph correlation -------------------------------------------------

def telegraph_values(occ: float, screening: float) -> tuple[float, float]:
    """Fractional field modulation (h_empty, h_occupied); zero mean by weight."""
    require(occ, "occupancy", UNIT)
    require(screening, "screening", UNIT_BELOW_ONE)
    denom = 1.0 - screening * occ
    return screening * occ / denom, -screening * (1.0 - occ) / denom


def telegraph_amplitude(occ: float, screening: float) -> float:
    """Zero-lag correlation occ(1-occ) s^2 / (1 - s*occ)^2."""
    h_empty, h_occ = telegraph_values(occ, screening)
    return (1.0 - occ) * h_empty ** 2 + occ * h_occ ** 2


def dwell_occupancy(tau_occupied: float, tau_empty: float) -> float:
    """Stationary occupancy tau_occupied / (tau_occupied + tau_empty).

    The two dwell times fix the telegraph process completely; this is the
    fraction of time it spends occupied.
    """
    require(tau_occupied, "dwell times", POSITIVE_FINITE)
    require(tau_empty, "dwell times", POSITIVE_FINITE)
    return tau_occupied / (tau_occupied + tau_empty)


def telegraph_p_matrix(tau: float, tau_occupied: float, tau_empty: float) -> np.ndarray:
    """Closed-form conditional probabilities of the two-state process.

    Row alpha, column beta is P(state beta at lag tau | state alpha at 0),
    states ordered [empty, occupied]; every row relaxes exponentially to
    the stationary weights (1-occ, occ) at total rate
    1/tau_occupied + 1/tau_empty.
    """
    occ = dwell_occupancy(tau_occupied, tau_empty)
    lag = require(abs(tau), "|tau|", NON_NEGATIVE)
    stationary = np.array([1.0 - occ, occ])
    decay = math.exp(-lag * (1.0 / tau_occupied + 1.0 / tau_empty))
    return stationary[None, :] + (np.eye(2) - stationary[None, :]) * decay


def telegraph_correlation(tau: float, screening: float,
                          tau_occupied: float, tau_empty: float) -> float:
    """Exact autocorrelation of the field modulation at lag tau."""
    lag = require(abs(tau), "|tau|", NON_NEGATIVE)
    amplitude = telegraph_amplitude(dwell_occupancy(tau_occupied, tau_empty), screening)
    return amplitude * math.exp(-lag * (1.0 / tau_occupied + 1.0 / tau_empty))


#: fewest dwell events :func:`simulate_telegraph` accepts
MIN_DWELL = 4


@dataclass(frozen=True)
class TelegraphEstimate:
    """Monte Carlo autocorrelation estimate for the telegraph modulation."""

    lag_times: np.ndarray
    acf: np.ndarray
    acf_se: np.ndarray
    mean: float
    mean_se: float
    decay_rate: float       # fitted exponential rate, 1/s
    total_time: float


def _first_sample_index(edges: np.ndarray, dt: float) -> np.ndarray:
    """Index of the first grid time (i + 0.5) * dt at or after each edge.

    Equals ``np.searchsorted((np.arange(n) + 0.5) * dt, edges, side="left")``
    for non-negative edges below the end of the grid, without building the
    grid.  The quotient edge / dt is off by far less than one sample, so
    one step either way, tested against the rounded grid times, makes it
    exact.  Every step reuses one float temporary.
    """
    t = np.divide(edges, dt)
    t -= 0.5
    idx = np.ceil(t, out=t).astype(np.int64)
    np.subtract(idx, 0.5, out=t)
    t *= dt
    idx -= t >= edges
    np.add(idx, 0.5, out=t)
    t *= dt
    idx += t < edges
    return idx


#: dwells drawn and packed per pass of :func:`simulate_telegraph`; even, so
#: that every chunk starts on a dwell of the first state, and small enough
#: that a pass over one chunk's buffers stays in cache
_CHUNK = 1 << 14
#: samples a telegraph grid may hold: sample indices are int64, with a
#: factor 2 to spare for the rounding of edge / dt
_MAX_SAMPLES = 2.0 ** 62


def _xor_flips(words: np.ndarray, starts: np.ndarray) -> None:
    """XOR into words the flips of the dwells that start at `starts`.

    The starts are sample indices that never decrease; sample i is bit
    i & 63 of word i >> 6, and words must reach word starts[-1] >> 6.  A
    start at bit b flips bits b..63 of its word, the mask -(1 << b); the
    masks of one word are XORed together, so the two of a zero-sample
    dwell cancel.  Starts fed in several calls, split anywhere, give the
    same words as one call.
    """
    word = starts >> 6
    flips = starts & 63
    np.left_shift(1, flips, out=flips)
    np.negative(flips, out=flips)       # -(1 << 63) wraps to 1 << 63
    head = np.flatnonzero(np.diff(word, prepend=-1))
    words[word[head]] ^= np.bitwise_xor.reduceat(flips.view(np.uint64), head)


def _occupied_words(flipped: np.ndarray, n_samples: int, first_occupied: bool) -> np.ndarray:
    """Occupied samples packed 64 to a word, from the flips of every later dwell.

    flipped holds the flips :func:`_xor_flips` XORed in for every dwell
    after the first, and reaches word n_samples // 64 + 1; the dwells
    alternate between the two states, beginning occupied if
    first_occupied.  Bit 63 of a word is then the parity of its flips, and
    the state entering a word is the first state XOR the parities of the
    words before it.  Returns the first n_samples // 64 + 2 words, changed
    in place: the bits at and past n_samples are clear, and two zero words
    follow the last sample, so that a read shifted by up to 64 bits may
    take the word after any word in use.
    """
    words = flipped[:n_samples // 64 + 2]
    top = words >> np.uint64(63)
    carry = np.bitwise_xor.accumulate(top) ^ top
    carry ^= np.uint64(first_occupied)
    words ^= np.negative(carry, out=carry)
    last = n_samples >> 6
    words[last] &= (np.uint64(1) << np.uint64(n_samples & 63)) - np.uint64(1)
    words[last + 1:] = 0
    return words


def _ones_below(words: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """Set bits below each bit index in bounds, counted within its own word."""
    low_bits = (np.uint64(1) << (bounds & 63).astype(np.uint64)) - np.uint64(1)
    return np.bitwise_count(words[bounds >> 6] & low_bits).astype(np.int64)


def simulate_telegraph(screening: float, tau_occupied: float, tau_empty: float,
                       n_dwell: int, seed: int, n_lags: int = 32,
                       samples_per_dwell: float = 5.0, n_blocks: int = 64) -> TelegraphEstimate:
    """Simulate the two-state modulation and estimate its autocorrelation.

    Draws n_dwell exponential dwell intervals (alternating states, the
    first occupied with the stationary probability tau_occupied /
    (tau_occupied + tau_empty)), samples the modulation on a uniform grid
    of spacing min(tau)/samples_per_dwell, and returns the empirical
    autocorrelation with blocked standard errors plus a log-linear fit of
    the decay rate.

    The modulation takes only the values h_empty and h_occupied, so the
    estimator counts samples instead of multiplying them: for every lag k
    the sum of h_i h_(i+k) over a block of L samples is
    n_ee h_empty^2 + n_eo h_empty h_occupied + n_oo h_occupied^2.  The
    occupied samples are packed 64 to a word in one pass over chunks of
    _CHUNK dwells: each chunk is drawn into one reused buffer, scaled,
    summed on from the running total into its dwell edges, reduced to the
    index of the first grid sample of each dwell it starts, and XORed into
    the words by :func:`_xor_flips`; :func:`_occupied_words` then carries
    the state across words.  The occupied samples before a sample are the
    popcounts of the whole words before its word plus the bits below it
    in its own word.  The occupied-occupied pairs n_oo come from the words
    ANDed with the same bits read k places on (word offset k >> 6, bit
    shift k & 63), counted per block in the same way.  Every count is an
    exact integer.  Blocks are laid out per lag as (n_samples - k) //
    n_blocks consecutive samples.

    No array holds one entry per dwell or per sample: past the chunk
    buffers, the set-up holds the packed words (one bit per sample, in a
    buffer that doubles as it grows, so up to two) and one int64 popcount
    prefix per word: under 3 bytes per dwell at its peak for 1e6 dwells
    at 5 samples per dwell.

    Raises MaterialError when a dwell time is not positive and finite or
    the dwells run past the float range, when the samples cannot fill the
    blocks, when the grid passes 2**62 samples or its packed words cannot
    be allocated, or when the acf within the fit window is not positive
    (too few samples per correlation time), so the decay fit would take
    the log of it.
    """
    if n_dwell < MIN_DWELL:
        raise MaterialError(f"need at least {MIN_DWELL} dwell events")
    if n_lags < 2:
        raise MaterialError(f"need at least 2 lags to fit a decay, got {n_lags}")
    if n_blocks < 2:
        raise MaterialError(f"need at least 2 blocks for a standard error, got {n_blocks}")
    require(samples_per_dwell, "samples per dwell", POSITIVE_FINITE)
    require(screening, "screening (the modulation depth)", UNIT_OPEN)
    occ = dwell_occupancy(tau_occupied, tau_empty)
    rng = np.random.default_rng(seed)
    first_occupied = bool(rng.random() < occ)
    # the state sequence alternates, so dwell means alternate too;
    # exponential(scale) draws scale * standard_exponential()
    even_mean, odd_mean = ((tau_occupied, tau_empty) if first_occupied
                           else (tau_empty, tau_occupied))
    dt = min(tau_occupied, tau_empty) / samples_per_dwell

    def grid_too_large(why: str) -> MaterialError:
        return MaterialError(
            f"the sample grid of {n_dwell} dwell events at {samples_per_dwell} "
            f"samples per dwell {why}; lower n_dwell, samples_per_dwell or the ratio "
            f"of the dwell times {tau_occupied:g} and {tau_empty:g}")

    buf = np.empty(min(n_dwell, _CHUNK))
    flipped = np.zeros(0, dtype="<u8")
    total = 0.0
    for begin in range(0, n_dwell, _CHUNK):
        edges = buf[:min(_CHUNK, n_dwell - begin)]
        rng.standard_exponential(out=edges)
        with np.errstate(over="ignore"):    # an infinite total is refused below
            edges[0::2] *= even_mean
            edges[1::2] *= odd_mean
            edges[0] += total
            np.cumsum(edges, out=edges)
        total = float(edges[-1])
        if total == math.inf:
            raise MaterialError(f"dwell times {tau_occupied:g} and {tau_empty:g} run "
                                f"{n_dwell} dwell events past the float range; lower them")
        # every sample index, and the quotients edge / dt that round to
        # them, must fit int64; a product, as dt may underflow to 0
        if not total < dt * _MAX_SAMPLES:
            raise grid_too_large("passes 2**62 samples")
        # sample i, at time (i + 0.5) dt, lies in the dwell after an edge
        # when the edge is at or before it.  The last edge, which ends the
        # run, starts no dwell: it falls at sample n_samples or the next,
        # where no bit is kept.  No start passes int(total / dt) + 1.
        starts = _first_sample_index(edges, dt)
        size = int(total / dt) // 64 + 2
        if size > flipped.size:
            try:
                grown = np.zeros(max(size, 2 * flipped.size), dtype="<u8")
            except MemoryError:
                raise grid_too_large(f"needs {size} words of packed samples, "
                                     "more than can be allocated") from None
            grown[:flipped.size] = flipped
            flipped = grown
        _xor_flips(flipped, starts)
    h_empty, h_occ = telegraph_values(occ, screening)

    n_samples = int(total / dt)
    if n_samples < n_blocks + n_lags - 1:
        raise MaterialError(
            f"{n_samples} samples cannot fill {n_blocks} blocks at {n_lags} "
            f"lags; raise n_dwell or samples_per_dwell")
    words = _occupied_words(flipped, n_samples, first_occupied)
    pairs = np.empty_like(words)
    ones = np.bitwise_count(words)
    ones_before = np.cumsum(ones, dtype=np.int64) - ones    # occupied before each word

    def occupied_per_block(first: int, length: int) -> np.ndarray:
        """Occupied samples in n_blocks consecutive blocks from sample `first`."""
        bounds = first + length * np.arange(n_blocks + 1)
        return np.diff(ones_before[bounds >> 6] + _ones_below(words, bounds))

    def occupied_pairs_per_block(k: int, length: int) -> np.ndarray:
        """Samples i with i and i + k occupied, in n_blocks blocks from sample 0."""
        shift, bit = k >> 6, k & 63
        n_words = (length * n_blocks >> 6) + 1
        both = pairs[:n_words]
        if bit:
            np.right_shift(words[shift:shift + n_words], bit, out=both)
            both |= words[shift + 1:shift + n_words + 1] << (64 - bit)
            both &= words[:n_words]
        else:
            np.bitwise_and(words[:n_words], words[shift:shift + n_words], out=both)
        bounds = length * np.arange(n_blocks + 1)
        word = bounds >> 6
        # pairs in the whole words from word[b] up to word[b + 1]; reduceat
        # gives a single word where the two are equal, which must count 0
        spans = np.add.reduceat(np.bitwise_count(both), word, dtype=np.int64)[:-1]
        spans[word[1:] == word[:-1]] = 0
        return spans + np.diff(_ones_below(both, bounds))

    block_len = n_samples // n_blocks
    n_occ = occupied_per_block(0, block_len)
    block_means = ((block_len - n_occ) * h_empty + n_occ * h_occ) / block_len
    mean = float(block_means.mean())
    mean_se = float(block_means.std(ddof=1) / math.sqrt(n_blocks))

    h_ee, h_eo, h_oo = h_empty * h_empty, h_empty * h_occ, h_occ * h_occ
    lags = np.arange(n_lags)
    acf = np.empty(n_lags)
    acf_se = np.empty(n_lags)
    for k in range(n_lags):
        pb_len = (n_samples - k) // n_blocks
        n_oo = occupied_pairs_per_block(k, pb_len)
        n_lead = occupied_per_block(0, pb_len)
        n_lag = occupied_per_block(k, pb_len)
        n_eo = n_lead + n_lag - 2 * n_oo
        n_ee = pb_len - n_lead - n_lag + n_oo
        pb = (n_ee * h_ee + n_eo * h_eo + n_oo * h_oo) / pb_len
        acf[k] = pb.mean()
        acf_se[k] = pb.std(ddof=1) / math.sqrt(n_blocks)

    # fit the decay over roughly one decade, where log-linearity is clean
    threshold = max(3.0 * acf_se.max(), 0.1 * acf[0])
    below = np.nonzero(acf <= threshold)[0]
    k_max = int(below[0]) if below.size else n_lags
    k_max = max(k_max, 4)
    fit = acf[:k_max]
    if not np.all(fit > 0.0):
        k = int(np.argmin(fit > 0.0))
        raise MaterialError(
            f"acf at lag {k} is {acf[k]:.3g}, not positive, so the decay fit has no "
            f"log; raise n_dwell or samples_per_dwell")
    slope = np.polyfit(lags[:k_max] * dt, np.log(fit), 1)[0]
    return TelegraphEstimate(lag_times=lags * dt, acf=acf, acf_se=acf_se, mean=mean,
                             mean_se=mean_se, decay_rate=float(-slope), total_time=total)


# --- spectral density -------------------------------------------------------

def spectral_density(omega: float, amplitude: float, tau_c: float) -> float:
    """Lorentzian spectral density 2 * amplitude * tau_c / (1 + omega^2 tau_c^2)."""
    require(omega, "omega", FINITE)
    require(amplitude, "amplitude", FINITE)
    require(tau_c, "correlation time", POSITIVE_FINITE)
    x = omega * tau_c     # x * x, unlike x ** 2, overflows to inf and J to 0
    density = 2.0 * amplitude * tau_c / (1.0 + x * x)
    if not abs(density) < math.inf:
        raise NumericalError(f"spectral density at tau_c = {tau_c:g} s is out of float range")
    return density


# --- excitation power map ---------------------------------------------------

class PowerPoint(NamedTuple):
    power: float         # excitation power density, W/m^2
    p0: float            # doping-dependent power scale, W/m^2
    free_density: float  # m^-3


def gamma_ceiling(mat: MaterialRecord) -> float:
    """Largest occupancy reachable at any power: 1 / (1 + k/(sigma_c v))."""
    return 1.0 / (1.0 + mat.bimolecular_k / (mat.sigma_capture * mat.velocity))


def power_scale(mat: MaterialRecord) -> float:
    """P0 = L * h_nu * k * N_A * N_D."""
    return (mat.diffusion_length * mat.photon_energy * mat.bimolecular_k
            * mat.acceptor_density * mat.donor_density)


def power_map(gamma_t, mat: MaterialRecord) -> PowerPoint:
    """Excitation power density that sustains donor occupancy gamma_t.

    Solves the full steady-state balance: the free-electron density
    follows from the trapping balance, the hole population from charge
    neutrality, and the generation rate from the free-electron budget;
    power is the generation rate times (diffusion length * photon
    energy).  Takes a float or an array of occupancies; the fields follow
    suit (p0 stays a float).
    """
    gamma_t = require(gamma_t, "occupancy", UNIT_OPEN)
    capture = mat.sigma_capture * mat.velocity
    denom = capture * (1.0 - gamma_t) - mat.bimolecular_k * gamma_t
    if any_true(denom <= 0.0):
        raise MaterialError(f"capture-limited ceiling exceeded: occupancy {np.max(gamma_t)} "
                            f"is not reachable (max {gamma_ceiling(mat):.6f})")
    n_f = (mat.bimolecular_k * gamma_t
           * (mat.acceptor_density + gamma_t * mat.donor_density) / denom)
    generation = n_f * (
        (capture * (1.0 - gamma_t) + mat.bimolecular_k * gamma_t) * mat.donor_density
        + mat.bimolecular_k * (n_f + mat.acceptor_density)
    )
    return PowerPoint(
        power=generation * mat.diffusion_length * mat.photon_energy,
        p0=power_scale(mat),
        free_density=n_f,
    )


#: relative power mismatch at which invert_power stops
_POWER_RTOL = 1e-10


def invert_power(power, mat: MaterialRecord):
    """Occupancy sustained by a given power density (bisection).

    The power map is strictly increasing on (0, gamma_ceiling) and onto
    (0, inf), so the bisection always converges.  A power below the one
    at the floor of the bracket, occupancy 1e-16, raises BracketError.
    Beyond the top of the bracket the occupancy sits on its asymptotic
    plateau, and the top is returned.  Takes a float, bisected on floats,
    or an array, bisected in lockstep through the same midpoints, so both
    give identical occupancies.
    """
    power = require(power, "power", POSITIVE)
    lo, hi = 1e-16, gamma_ceiling(mat) * (1.0 - 1e-14)
    resolved = 4.0 * sys.float_info.epsilon      # bracket width relative to hi
    floor = power_map(lo, mat).power
    if any_true(power < floor):
        raise BracketError(f"power {np.min(power):.6g} W/m^2 is below {floor:.6g} W/m^2, "
                           f"which sustains occupancy {lo:g}")
    if not isinstance(power, float):
        top, tol = hi, _POWER_RTOL * power
        lo, hi = np.full(power.shape, lo), np.full(power.shape, hi)
        occ = 0.5 * (lo + hi)
        active = np.ones(power.shape, dtype=bool)
        for _ in range(MAX_STEPS):
            value = power_map(occ, mat).power
            active &= (np.abs(value - power) > tol) & (hi - lo > resolved * hi)
            if not active.any():
                return np.where(power_map(top, mat).power < power, top, occ)
            below = value < power
            np.copyto(lo, occ, where=active & below)
            np.copyto(hi, occ, where=active & ~below)
            np.copyto(occ, 0.5 * (lo + hi), where=active)
        raise BracketError("power inversion did not converge")
    if power_map(hi, mat).power < power:
        return hi             # asymptotic plateau beyond any finite bracket
    for _ in range(MAX_STEPS):
        mid = 0.5 * (lo + hi)
        value = power_map(mid, mat).power
        if abs(value - power) <= _POWER_RTOL * power:
            return mid
        if hi - lo <= resolved * hi:
            # occupancy resolved to machine precision; near the ceiling
            # pole the power tolerance itself is unreachable in floats
            return mid
        if value < power:
            lo = mid
        else:
            hi = mid
    raise BracketError("power inversion did not converge")
