"""Donor occupancy, telegraph-noise statistics, and the excitation-power map.

Photoelectron trapping and recombination make the donor charge state a
two-state Markov (telegraph) process.  This module carries the
steady-state occupancy and correlation times, the exact two-state
correlation function together with a Monte Carlo estimator for it, the
Lorentzian spectral density, and the steady-state carrier balance
linking donor occupancy to the excitation power density.  The
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
from .numerics import MAX_STEPS, all_true, any_true, as_operand, solve

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
    tau_r: float            # trapped-electron recombination time, s
    tau_capture: float      # ionized-donor lifetime against capture, s
    degenerate: bool = False  # True when free_density = 0 (no exchange channel)


def occupancy(free_density: float, mat: MaterialRecord, *,
              spin_lattice_time: float | None = None,
              exchange_time: float | None = None) -> KineticState:
    """Kinetic state for a given free-electron density.

    The donor occupancy follows from balancing capture against
    recombination; the quadrupolar correlation time combines the
    recombination and capture lifetimes.  The hyperfine correlation time
    defaults to the spin-exchange limit 1/(sigma_exchange * v * n_f);
    pass spin_lattice_time and/or exchange_time to use the full
    combination 1/(2 tau_r) + 1/T1 + 1/tau_ex instead.
    """
    if free_density < 0.0:
        raise MaterialError("free-electron density must be non-negative")
    tau_r = mat.recombination_time
    capture_rate = mat.sigma_capture * mat.velocity * free_density
    gamma_t = capture_rate * tau_r / (1.0 + capture_rate * tau_r)
    tau_quad = 1.0 / (1.0 / tau_r + capture_rate)
    if spin_lattice_time is None and exchange_time is None:
        exchange_rate = mat.sigma_exchange * mat.velocity * free_density
        tau_hyper = 1.0 / exchange_rate if exchange_rate > 0.0 else math.inf
    else:
        rate = 0.5 / tau_r
        if spin_lattice_time is not None:
            rate += 1.0 / spin_lattice_time
        if exchange_time is not None:
            rate += 1.0 / exchange_time
        tau_hyper = 1.0 / rate
    return KineticState(
        occupancy=gamma_t,
        free_density=free_density,
        tau_quad=tau_quad,
        tau_hyper=tau_hyper,
        tau_r=tau_r,
        tau_capture=1.0 / capture_rate if capture_rate > 0.0 else math.inf,
        degenerate=(free_density == 0.0),
    )


def state_for_occupancy(gamma_t: float, mat: MaterialRecord) -> KineticState:
    """Kinetic state whose steady occupancy equals gamma_t (fixed tau_r)."""
    if not 0.0 <= gamma_t < 1.0:
        raise MaterialError("occupancy must lie in [0, 1)")
    if gamma_t == 0.0:
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
    if not 0.0 <= occ <= 1.0:
        raise MaterialError("occupancy must lie in [0, 1]")
    if not 0.0 <= screening < 1.0:
        raise MaterialError("screening must lie in [0, 1)")
    denom = 1.0 - screening * occ
    return screening * occ / denom, -screening * (1.0 - occ) / denom


def telegraph_amplitude(occ: float, screening: float) -> float:
    """Zero-lag correlation occ(1-occ) s^2 / (1 - s*occ)^2."""
    h_empty, h_occ = telegraph_values(occ, screening)
    return (1.0 - occ) * h_empty ** 2 + occ * h_occ ** 2


def telegraph_p_matrix(tau: float, tau_occupied: float, tau_empty: float) -> np.ndarray:
    """Closed-form conditional probabilities of the two-state process.

    Row alpha, column beta is P(state beta at lag tau | state alpha at 0),
    states ordered [empty, occupied]; every row relaxes exponentially to
    the stationary weights (1-occ, occ) at total rate
    1/tau_occupied + 1/tau_empty.
    """
    if min(tau_occupied, tau_empty) <= 0.0:
        raise MaterialError("dwell times must be positive")
    occ = tau_occupied / (tau_occupied + tau_empty)
    stationary = np.array([1.0 - occ, occ])
    decay = math.exp(-abs(tau) * (1.0 / tau_occupied + 1.0 / tau_empty))
    return stationary[None, :] + (np.eye(2) - stationary[None, :]) * decay


#: relative mismatch allowed between a given occupancy and the one its
#: dwell times imply
_OCCUPANCY_RTOL = 1e-9


def _require_consistent(occ: float, tau_occupied: float, tau_empty: float) -> None:
    """MaterialError unless occ matches tau_occupied/(tau_occupied+tau_empty)."""
    if min(tau_occupied, tau_empty) <= 0.0:
        raise MaterialError("dwell times must be positive")
    implied = tau_occupied / (tau_occupied + tau_empty)
    if abs(implied - occ) > _OCCUPANCY_RTOL * max(occ, implied, 1e-300):
        raise MaterialError(
            f"inconsistent occupancy: given {occ}, dwell times imply {implied}"
        )


def telegraph_correlation(tau: float, occ: float, screening: float,
                          tau_occupied: float, tau_empty: float) -> float:
    """Exact autocorrelation of the field modulation at lag tau.

    The supplied occupancy must match tau_occupied/(tau_occupied+tau_empty).
    """
    _require_consistent(occ, tau_occupied, tau_empty)
    amplitude = telegraph_amplitude(occ, screening)
    return amplitude * math.exp(-abs(tau) * (1.0 / tau_occupied + 1.0 / tau_empty))


def hyperfine_correlation_amplitude(occ: float) -> float:
    """Zero-lag amplitude of the hyperfine correlation: the occupancy itself.

    The hyperfine channel only switches off when the donor is never
    occupied, unlike the quadrupolar one which also vanishes at full
    occupancy.
    """
    if not 0.0 <= occ <= 1.0:
        raise MaterialError("occupancy must lie in [0, 1]")
    return occ


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
    amplitude: float        # estimated zero-lag correlation
    dwell_count: int
    total_time: float


def _first_sample_index(edges: np.ndarray, dt: float) -> np.ndarray:
    """Index of the first grid time (i + 0.5) * dt at or after each edge.

    Equals ``np.searchsorted((np.arange(n) + 0.5) * dt, edges, side="left")``
    for non-negative edges below the end of the grid, without building the
    grid.  The quotient edge / dt is off by far less than one sample, so
    one step either way, tested against the rounded grid times, makes it
    exact.
    """
    idx = np.ceil(edges / dt - 0.5).astype(np.int64)
    idx -= (idx - 0.5) * dt >= edges
    idx += (idx + 0.5) * dt < edges
    return idx


def simulate_telegraph(occ: float, screening: float, tau_occupied: float,
                       tau_empty: float, n_dwell: int, seed: int,
                       n_lags: int = 32, samples_per_dwell: float = 5.0,
                       n_blocks: int = 64) -> TelegraphEstimate:
    """Simulate the two-state modulation and estimate its autocorrelation.

    Draws n_dwell exponential dwell intervals (alternating states, the
    first chosen from the stationary law), samples the modulation on a
    uniform grid of spacing min(tau)/samples_per_dwell, and returns the
    empirical autocorrelation with blocked standard errors plus a
    log-linear fit of the decay rate.

    The modulation takes only the values h_empty and h_occupied, so the
    estimator counts samples instead of multiplying them: each dwell is
    mapped to its run of grid samples, and for every lag k the sum of
    h_i h_(i+k) over a block of L samples is
    n_ee h_empty^2 + n_eo h_empty h_occupied + n_oo h_occupied^2.  The
    occupied counts of a block and of its k-shifted copy come from the
    dwell runs.  The occupied-occupied pairs n_oo come from the occupied
    samples packed 64 to a word: the words are ANDed with the same bits
    read k places on (word offset k >> 6, bit shift k & 63), and the set
    bits are counted per block as the popcounts of the whole words
    between two block bounds, corrected by the bits below each bound in
    its own word.  Every count is an exact integer.  Blocks are laid out
    per lag as (n_samples - k) // n_blocks consecutive samples.
    """
    if n_dwell < MIN_DWELL:
        raise MaterialError(f"need at least {MIN_DWELL} dwell events")
    if n_lags < 2:
        raise MaterialError(f"need at least 2 lags to fit a decay, got {n_lags}")
    if n_blocks < 2:
        raise MaterialError(f"need at least 2 blocks for a standard error, got {n_blocks}")
    if not (math.isfinite(samples_per_dwell) and samples_per_dwell > 0.0):
        raise MaterialError(
            f"samples per dwell must be finite and positive, got {samples_per_dwell}")
    if not 0.0 < screening < 1.0:
        raise MaterialError("simulation needs a nonzero modulation depth")
    _require_consistent(occ, tau_occupied, tau_empty)
    rng = np.random.default_rng(seed)
    first_occupied = bool(rng.random() < occ)
    # the state sequence alternates, so dwell means alternate too;
    # exponential(scale) draws scale * standard_exponential()
    durations = rng.standard_exponential(n_dwell)
    if first_occupied:
        durations[0::2] *= tau_occupied
        durations[1::2] *= tau_empty
    else:
        durations[0::2] *= tau_empty
        durations[1::2] *= tau_occupied
    edges = np.cumsum(durations)
    total = float(edges[-1])
    h_empty, h_occ = telegraph_values(occ, screening)

    dt = min(tau_occupied, tau_empty) / samples_per_dwell
    n_samples = int(total / dt)
    if n_samples < n_blocks + n_lags - 1:
        raise MaterialError(
            f"{n_samples} samples cannot fill {n_blocks} blocks at {n_lags} "
            f"lags; raise n_dwell or samples_per_dwell")
    # sample i, at time (i + 0.5) dt, lies in dwell j when
    # edges[j-1] <= (i + 0.5) dt < edges[j]
    starts = np.zeros(n_dwell, dtype=np.int64)
    starts[1:] = np.minimum(_first_sample_index(edges[:-1], dt), n_samples)
    counts = np.diff(starts, append=n_samples)
    dwell_occupied = np.zeros(n_dwell, dtype=bool)
    dwell_occupied[0 if first_occupied else 1::2] = True
    occupied_counts = np.where(dwell_occupied, counts, 0)
    occupied_before = np.cumsum(occupied_counts) - occupied_counts

    # sample i is bit i & 63 of words[i >> 6]; the zero words past the last
    # sample let a shifted read take words[j + 1] for every word j in use
    packed = np.packbits(np.repeat(dwell_occupied, counts), bitorder="little")
    words = np.zeros(n_samples // 64 + 2, dtype="<u8")
    words.view(np.uint8)[:packed.size] = packed
    pairs = np.empty_like(words)

    def occupied_per_block(first: int, length: int) -> np.ndarray:
        """Occupied samples in n_blocks consecutive blocks from sample `first`."""
        bounds = first + length * np.arange(n_blocks + 1)
        j = np.searchsorted(starts, bounds, side="right") - 1
        return np.diff(occupied_before[j] + dwell_occupied[j] * (bounds - starts[j]))

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
        low_bits = (np.uint64(1) << (bounds & 63).astype(np.uint64)) - np.uint64(1)
        in_word = np.bitwise_count(both[word] & low_bits)
        return spans + np.diff(in_word.astype(np.int64))

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
    slope = np.polyfit(lags[:k_max] * dt, np.log(acf[:k_max]), 1)[0]
    return TelegraphEstimate(
        lag_times=lags * dt, acf=acf, acf_se=acf_se,
        mean=mean, mean_se=mean_se,
        decay_rate=float(-slope), amplitude=float(acf[0]),
        dwell_count=n_dwell, total_time=total,
    )


# --- spectral density -------------------------------------------------------

def spectral_density(omega: float, amplitude: float, tau_c: float) -> float:
    """Lorentzian spectral density 2 * amplitude * tau_c / (1 + omega^2 tau_c^2)."""
    if tau_c <= 0.0:
        raise MaterialError("correlation time must be positive")
    x = omega * tau_c     # x * x, unlike x ** 2, overflows to inf and J to 0
    return 2.0 * amplitude * tau_c / (1.0 + x * x)


# --- excitation power map ---------------------------------------------------

class PowerPoint(NamedTuple):
    power: float         # excitation power density, W/m^2
    p0: float            # doping-dependent power scale, W/m^2
    xi: float            # capture-vs-recombination occupancy variable
    free_density: float  # m^-3


def gamma_ceiling(mat: MaterialRecord) -> float:
    """Largest occupancy reachable at any power: 1 / (1 + k/(sigma_c v))."""
    return 1.0 / (1.0 + mat.bimolecular_k / (mat.sigma_capture * mat.velocity))


def power_scale(mat: MaterialRecord) -> float:
    """P0 = L * h_nu * k * N_A * N_D."""
    return (mat.diffusion_length * mat.photon_energy * mat.bimolecular_k
            * mat.acceptor_density * mat.donor_density)


def _free_density(gamma_t, mat: MaterialRecord):
    capture = mat.sigma_capture * mat.velocity
    denom = capture * (1.0 - gamma_t) - mat.bimolecular_k * gamma_t
    if any_true(denom <= 0.0):
        raise MaterialError(
            f"capture-limited ceiling exceeded: occupancy {np.max(gamma_t)} is not "
            f"reachable (max {gamma_ceiling(mat):.6f})"
        )
    return (mat.bimolecular_k * gamma_t
            * (mat.acceptor_density + gamma_t * mat.donor_density) / denom)


def power_map(gamma_t, mat: MaterialRecord) -> PowerPoint:
    """Excitation power density that sustains donor occupancy gamma_t.

    Solves the full steady-state balance: the free-electron density
    follows from the trapping balance, the hole population from charge
    neutrality, and the generation rate from the free-electron budget;
    power is the generation rate times (diffusion length * photon
    energy).  The compact approximation valid for N_D << N_A is exposed
    separately as :func:`power_closed_form`.  Takes a float or an array
    of occupancies; the fields follow suit (p0 stays a float).
    """
    if not isinstance(gamma_t, float):
        gamma_t = as_operand(gamma_t)
    if not all_true((0.0 < gamma_t) & (gamma_t < 1.0)):
        raise MaterialError("occupancy must lie strictly inside (0, 1)")
    capture = mat.sigma_capture * mat.velocity
    n_f = _free_density(gamma_t, mat)
    generation = n_f * (
        (capture * (1.0 - gamma_t) + mat.bimolecular_k * gamma_t) * mat.donor_density
        + mat.bimolecular_k * (n_f + mat.acceptor_density)
    )
    xi = (mat.bimolecular_k / capture) * gamma_t / (1.0 - gamma_t)
    return PowerPoint(
        power=generation * mat.diffusion_length * mat.photon_energy,
        p0=power_scale(mat),
        xi=xi,
        free_density=n_f,
    )


def power_closed_form(gamma_t: float, mat: MaterialRecord) -> float:
    """Compact power law P0 [gamma + xi N_A/N_D] / (1 - xi)^2 (N_D << N_A limit)."""
    if not 0.0 < gamma_t < 1.0:
        raise MaterialError("occupancy must lie strictly inside (0, 1)")
    capture = mat.sigma_capture * mat.velocity
    xi = (mat.bimolecular_k / capture) * gamma_t / (1.0 - gamma_t)
    if xi >= 1.0:
        raise MaterialError("capture-limited ceiling exceeded")
    ratio = mat.acceptor_density / mat.donor_density
    return power_scale(mat) * (gamma_t + xi * ratio) / (1.0 - xi) ** 2


#: relative power mismatch at which invert_power stops
_POWER_RTOL = 1e-10


def invert_power(power, mat: MaterialRecord):
    """Occupancy sustained by a given power density (bisection).

    The power map is strictly increasing on (0, gamma_ceiling) and onto
    (0, inf), so the bisection always converges.  A power below the one
    at the floor of the bracket, occupancy 1e-16, raises BracketError.
    Beyond the top of the bracket the occupancy sits on its asymptotic
    plateau, and the top is returned.  Takes a float, bisected on floats,
    or an array, bisected in lockstep by
    :func:`donor_halo.numerics.solve` through the same midpoints, so both
    give identical occupancies.
    """
    power = as_operand(power)
    if not all_true(power > 0.0):
        raise MaterialError("power must be positive")
    lo, hi = 1e-16, gamma_ceiling(mat) * (1.0 - 1e-14)
    resolved = 4.0 * sys.float_info.epsilon      # bracket width relative to hi
    floor = power_map(lo, mat).power
    if any_true(power < floor):
        raise BracketError(f"power {np.min(power):.6g} W/m^2 is below {floor:.6g} W/m^2, "
                           f"which sustains occupancy {lo:g}")
    if not isinstance(power, float):
        tol = _POWER_RTOL * power
        occ = solve(lambda g: power_map(g, mat).power - power,
                    np.full(power.shape, lo), np.full(power.shape, hi),
                    what="power inversion",
                    done=lambda g, f, lo, hi: (np.abs(f) <= tol) | (hi - lo <= resolved * hi))
        return np.where(power_map(hi, mat).power < power, hi, occ)
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
