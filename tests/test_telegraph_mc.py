import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from donor_halo import MaterialError, TelegraphEstimate, simulate_telegraph
from donor_halo.kinetics import telegraph_amplitude, telegraph_values
from donor_halo.telegraph import _CHUNK, _first_sample_index, _occupied_words, _xor_flips

SCREEN = 0.3233235838169365


def test_estimator_matches_exact_statistics():
    occ, tau_occ, tau_empty = 0.4, 1.0, 1.5
    est = simulate_telegraph(SCREEN, tau_occ, tau_empty, n_dwell=120_000, seed=99)
    exact_rate = 1.0 / tau_occ + 1.0 / tau_empty
    exact_amp = telegraph_amplitude(occ, SCREEN)
    assert abs(est.mean) <= 3.0 * est.mean_se
    assert abs(est.acf[0] - exact_amp) <= 3.0 * est.acf_se[0] + 1e-12
    assert est.decay_rate == pytest.approx(exact_rate, rel=0.05)
    for k, lag in enumerate(est.lag_times):
        expect = exact_amp * math.exp(-exact_rate * lag)
        assert abs(est.acf[k] - expect) <= 3.0 * est.acf_se[k] + 1e-12


def test_estimator_reproducible():
    a = simulate_telegraph(SCREEN, 1.0, 7.0 / 3.0, n_dwell=20_000, seed=5)
    b = simulate_telegraph(SCREEN, 1.0, 7.0 / 3.0, n_dwell=20_000, seed=5)
    assert np.array_equal(a.acf, b.acf)
    c = simulate_telegraph(SCREEN, 1.0, 7.0 / 3.0, n_dwell=20_000, seed=6)
    assert not np.array_equal(a.acf, c.acf)


def test_estimator_rejects_degenerate_inputs():
    with pytest.raises(MaterialError, match="modulation"):
        simulate_telegraph(0.0, 1.0, 1.0, n_dwell=1000, seed=1)


def test_estimator_error_shrinks_with_samples():
    exact = telegraph_amplitude(0.25, SCREEN)
    errors = {}
    for n in (16_000, 256_000):
        runs = [simulate_telegraph(SCREEN, 1.0, 3.0, n_dwell=n,
                                   seed=1000 + k).acf[0] for k in range(8)]
        errors[n] = float(np.mean([abs(a - exact) for a in runs]))
    # 16x the dwell events should shrink the error about 4x
    assert 0.15 <= errors[256_000] / errors[16_000] <= 0.6


# --- reference estimator -----------------------------------------------------

def reference_telegraph(screening, tau_occupied, tau_empty, n_dwell, seed,
                        n_lags=32, samples_per_dwell=5.0, n_blocks=64):
    """Float-product estimator that simulate_telegraph replaced.

    Same draws and the same per-lag block layout, but the modulation is
    materialized on the time grid and every lag multiplies and averages
    floats.  It shares the sample-count guard, so both reject the same
    inputs.
    """
    occ = tau_occupied / (tau_occupied + tau_empty)
    rng = np.random.default_rng(seed)
    first_occupied = bool(rng.random() < occ)
    means = np.empty(n_dwell)
    if first_occupied:
        means[0::2], means[1::2] = tau_occupied, tau_empty
    else:
        means[0::2], means[1::2] = tau_empty, tau_occupied
    edges = np.cumsum(rng.exponential(means))
    total = float(edges[-1])
    h_empty, h_occ = telegraph_values(occ, screening)

    dt = min(tau_occupied, tau_empty) / samples_per_dwell
    n_samples = int(total / dt)
    if n_samples < n_blocks + n_lags - 1:
        raise MaterialError("samples cannot fill the blocks")
    times = (np.arange(n_samples) + 0.5) * dt
    dwell_index = np.searchsorted(edges, times, side="right")
    occupied = (dwell_index % 2 == 0) if first_occupied else (dwell_index % 2 == 1)
    h = np.where(occupied, h_occ, h_empty)

    block_len = n_samples // n_blocks
    blocks = h[:block_len * n_blocks].reshape(n_blocks, block_len)
    block_means = blocks.mean(axis=1)
    mean = float(block_means.mean())
    mean_se = float(block_means.std(ddof=1) / math.sqrt(n_blocks))

    lags = np.arange(n_lags)
    acf = np.empty(n_lags)
    acf_se = np.empty(n_lags)
    for k in lags:
        prod = h[: n_samples - k] * h[k:] if k else h * h
        pb_len = prod.size // n_blocks
        pb = prod[: pb_len * n_blocks].reshape(n_blocks, pb_len).mean(axis=1)
        acf[k] = pb.mean()
        acf_se[k] = pb.std(ddof=1) / math.sqrt(n_blocks)

    threshold = max(3.0 * acf_se.max(), 0.1 * acf[0])
    below = np.nonzero(acf <= threshold)[0]
    k_max = int(below[0]) if below.size else n_lags
    k_max = max(k_max, 4)
    slope = np.polyfit(lags[:k_max] * dt, np.log(acf[:k_max]), 1)[0]
    return TelegraphEstimate(lag_times=lags * dt, acf=acf, acf_se=acf_se, mean=mean,
                             mean_se=mean_se, decay_rate=float(-slope), total_time=total)


#: counting and summing floats round differently; an exact zero (acf_se[0]
#: at equal |h|, or a mean whose occupied counts cancel) keeps only that
#: rounding, so it is compared absolutely against its natural scale
RTOL = 1e-12
ATOL_SCALE = 1e-13


def assert_matches_reference(screening, tau_occupied, tau_empty, n_dwell, seed, **options):
    args = (screening, tau_occupied, tau_empty, n_dwell, seed)
    try:
        ref = reference_telegraph(*args, **options)
    except MaterialError:
        with pytest.raises(MaterialError, match="cannot fill"):
            simulate_telegraph(*args, **options)
        return
    est = simulate_telegraph(*args, **options)
    assert np.array_equal(est.lag_times, ref.lag_times)
    assert est.total_time == ref.total_time
    occ = tau_occupied / (tau_occupied + tau_empty)
    h_scale = max(abs(h) for h in telegraph_values(occ, screening))
    for name, scale in (("acf", h_scale ** 2), ("acf_se", h_scale ** 2),
                        ("mean", h_scale), ("mean_se", h_scale)):
        np.testing.assert_allclose(getattr(est, name), getattr(ref, name),
                                   rtol=RTOL, atol=ATOL_SCALE * scale, err_msg=name)
    np.testing.assert_allclose(est.decay_rate, ref.decay_rate, rtol=RTOL, equal_nan=True)


@pytest.mark.parametrize(
    "tau_occupied, tau_empty, seed, first_occupied, n_dwell, options",
    [
        (1.0, 1.5, 2, True, 200_000, {}),
        (1.0, 1.5, 0, False, 20_000,
         {"samples_per_dwell": 3.7, "n_lags": 12, "n_blocks": 20}),
        (3.0, 1.0, 3, True, 50_000,
         {"samples_per_dwell": 5.5, "n_lags": 40, "n_blocks": 100}),
        (3.0, 1.0, 4, False, 4,
         {"samples_per_dwell": 2.5, "n_lags": 2, "n_blocks": 2}),
        # lags up to 62, 63, 64 and 129: a bit shift inside one word, the
        # last bit shift, a whole-word offset and an offset past it
        (1.0, 1.5, 5, False, 30_000, {"n_lags": 63, "n_blocks": 7}),
        (3.0, 1.0, 6, True, 30_000, {"n_lags": 64, "n_blocks": 9}),
        (1.0, 1.5, 7, False, 30_000, {"n_lags": 65, "n_blocks": 3}),
        (3.0, 1.0, 8, True, 30_000, {"samples_per_dwell": 3.1, "n_lags": 130,
                                     "n_blocks": 64}),
    ],
)
def test_estimator_matches_reference(tau_occupied, tau_empty, seed, first_occupied,
                                     n_dwell, options):
    occ = tau_occupied / (tau_occupied + tau_empty)
    assert bool(np.random.default_rng(seed).random() < occ) is first_occupied
    assert_matches_reference(SCREEN, tau_occupied, tau_empty, n_dwell, seed, **options)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    tau_occupied=st.floats(0.2, 5.0),
    tau_empty=st.floats(0.2, 5.0),
    screening=st.floats(0.05, 0.95),
    log_dwell=st.floats(math.log(4.0), math.log(2e5)),
    seed=st.integers(0, 2**32 - 1),
    samples_per_dwell=st.floats(1.5, 8.0),
    n_lags=st.integers(2, 130),
    n_blocks=st.integers(2, 100),
)
def test_estimator_matches_reference_random(tau_occupied, tau_empty, screening,
                                            log_dwell, seed, samples_per_dwell,
                                            n_lags, n_blocks):
    assert_matches_reference(screening, tau_occupied, tau_empty,
                             int(math.exp(log_dwell)), seed,
                             samples_per_dwell=samples_per_dwell,
                             n_lags=n_lags, n_blocks=n_blocks)


def test_estimator_matches_reference_on_whole_words():
    # 18880 samples are 295 whole words, and 5 blocks of 59 words put every
    # lag-0 block bound on a word boundary
    seed, options = 68, {"n_lags": 65, "n_blocks": 5}
    est = simulate_telegraph(SCREEN, 1.0, 1.5, n_dwell=3000, seed=seed, **options)
    assert int(est.total_time / 0.2) == 18880 == 295 * 64
    assert_matches_reference(SCREEN, 1.0, 1.5, 3000, seed, **options)


@pytest.mark.parametrize("n_dwell", [_CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 1])
@pytest.mark.parametrize("seed, first_occupied", [(2, True), (0, False)])
def test_estimator_matches_reference_across_chunks(n_dwell, seed, first_occupied):
    # the dwells are drawn and packed _CHUNK at a time: a last chunk of
    # one dwell, a full last chunk, and the running total carried across
    # one and two chunk edges
    assert bool(np.random.default_rng(seed).random() < 0.4) is first_occupied
    assert_matches_reference(SCREEN, 1.0, 1.5, n_dwell, seed, n_lags=8)


@pytest.mark.parametrize("n", [16_000, 256_000])
@pytest.mark.parametrize("seed", [20260810, 1000])
def test_amplitude_does_not_depend_on_lag_count(n, seed):
    # properties/mc-convergence reads only the amplitude acf[0] and asks for 4 lags
    short = simulate_telegraph(SCREEN, 1.0, 3.0, n_dwell=n, seed=seed, n_lags=4)
    full = simulate_telegraph(SCREEN, 1.0, 3.0, n_dwell=n, seed=seed)
    assert short.acf[0] == full.acf[0]


@pytest.mark.parametrize(
    "options, match",
    [
        ({"n_lags": 1}, "at least 2 lags"),
        ({"n_lags": 0}, "at least 2 lags"),
        ({"n_blocks": 1}, "at least 2 blocks"),
        ({"n_blocks": 0}, "at least 2 blocks"),
        ({"samples_per_dwell": 0.0}, "positive and finite"),
        ({"samples_per_dwell": -1.0}, "positive and finite"),
        ({"samples_per_dwell": math.nan}, "positive and finite"),
        ({"samples_per_dwell": math.inf}, "positive and finite"),
    ],
)
def test_estimator_rejects_bad_options(options, match):
    with pytest.raises(MaterialError, match=match):
        simulate_telegraph(SCREEN, 1.0, 1.0, n_dwell=1000, seed=1, **options)


#: what a refusal of the grid names: the three settings that size it
GRID_CAUSES = ("n_dwell", "samples_per_dwell", "ratio of the dwell times")


@pytest.mark.parametrize(
    "tau_occupied, tau_empty, samples_per_dwell, match, names",
    [
        # the grid passes int64 before any sample index is cast
        (1.0, 1.0, 1e300, r"passes 2\*\*62 samples", GRID_CAUSES),
        # the grid fits int64, but its packed words would take 112 PiB
        (1.0, 1.0, 1e15, "more than can be allocated", GRID_CAUSES),
        # a finite run whose grid passes int64 at 5 samples per shorter dwell
        (1e300, 1e-300, 5.0, r"passes 2\*\*62 samples", GRID_CAUSES),
        # the scaled dwells overflow: no grid, the dwell times are at fault
        (1e308, 1.0, 5.0, "^dwell times 1e\\+308 and 1 run 1000 dwell events past the "
         "float range", ()),
    ],
    ids=[r"1e+300-passes 2\*\*62 samples", "1000000000000000.0-more than can be allocated",
         "finite-run-past-int64", "dwells-past-the-float-range"],
)
def test_estimator_refuses_a_grid_too_large(tau_occupied, tau_empty, samples_per_dwell,
                                            match, names):
    with pytest.raises(MaterialError, match=match) as err:
        simulate_telegraph(SCREEN, tau_occupied, tau_empty, n_dwell=1000, seed=1,
                           samples_per_dwell=samples_per_dwell)
    message = str(err.value)
    assert "\n" not in message
    assert all(name in message for name in names)


def test_estimator_rejects_a_non_positive_acf_in_the_fit():
    # 0.3 samples per dwell leave the lags nearly uncorrelated, and lag 1
    # reads below zero, which the log-linear decay fit cannot take
    with pytest.raises(MaterialError) as err:
        simulate_telegraph(SCREEN, 1.0, 1.0, n_dwell=300, seed=0,
                           samples_per_dwell=0.3, n_lags=8)
    message = str(err.value)
    assert "\n" not in message
    assert message.startswith("acf at lag 1 is -0.00232, not positive")


def test_simulation_peak_memory_per_dwell():
    # the set-up streams the dwells in chunks and keeps only the packed
    # words and their popcount prefix; the one int64 start per dwell it
    # replaced took 25 bytes per dwell at the peak
    n_dwell = 1_000_000
    simulate_telegraph(SCREEN, 1.0, 1.0, n_dwell=n_dwell, seed=1)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        simulate_telegraph(SCREEN, 1.0, 1.0, n_dwell=n_dwell, seed=1)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak / n_dwell <= 8.0


def test_estimator_rejects_too_few_samples():
    with pytest.raises(MaterialError, match="at least 4 dwell"):
        simulate_telegraph(SCREEN, 1.0, 1.0, n_dwell=3, seed=1)
    with pytest.raises(MaterialError, match="cannot fill 64 blocks"):
        simulate_telegraph(SCREEN, 1.0, 1.0, n_dwell=4, seed=1)


# --- dwell start indices -----------------------------------------------------

@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    dt=st.floats(1e-6, 1e3),
    first=st.integers(0, 2**31),
    offsets=st.lists(st.integers(1, 62), min_size=1, max_size=20),
    fractions=st.lists(st.floats(0.0, 1.0), max_size=20),
)
def test_first_sample_index_matches_searchsorted(dt, first, offsets, fractions):
    # a window of 64 grid times starting at sample `first`; edges sit on
    # sample midpoints, one ulp either side of them, and in between
    times = (np.arange(first, first + 64) + 0.5) * dt
    on = times[offsets]
    edges = np.concatenate([
        on, np.nextafter(on, -np.inf), np.nextafter(on, np.inf),
        times[1] + np.array(fractions) * (times[-1] - times[1]),
    ])
    expected = first + np.searchsorted(times, edges, side="left")
    assert np.array_equal(_first_sample_index(edges, dt), expected)


def test_first_sample_index_at_grid_start():
    dt = 0.2
    times = (np.arange(8) + 0.5) * dt
    edges = np.array([0.0, 5e-324, np.nextafter(0.1, 0.0), 0.1, np.nextafter(0.1, 1.0)])
    assert np.array_equal(_first_sample_index(edges, dt),
                          np.searchsorted(times, edges, side="left"))


# --- packed words ------------------------------------------------------------

def reference_words(starts, n_samples, first_occupied):
    """Occupied samples packed 64 to a word, from one byte per sample.

    Dwell j covers samples starts[j] up to starts[j + 1], clipped to
    n_samples; starts[0] is 0.
    """
    occupied = np.zeros(starts.size, dtype=bool)
    occupied[0 if first_occupied else 1::2] = True
    counts = np.diff(np.minimum(starts, n_samples), append=n_samples)
    packed = np.packbits(np.repeat(occupied, counts), bitorder="little")
    words = np.zeros(n_samples // 64 + 2, dtype="<u8")
    words.view(np.uint8)[:packed.size] = packed
    return words


def pack_in_chunks(starts, n_samples, first_occupied, cuts):
    """The words of simulate_telegraph, its later starts fed in chunks split at cuts."""
    flipped = np.zeros(n_samples // 64 + 2, dtype="<u8")
    for chunk in np.split(starts[1:], cuts):
        _xor_flips(flipped, chunk)
    return _occupied_words(flipped, n_samples, first_occupied)


LAYOUTS = [
    ([0, 5, 5, 9, 9, 9, 30], 40),       # zero-sample dwells
    ([0, 0, 7, 63, 63, 64], 70),        # the first dwells hold no sample
    ([0, 10, 40, 40, 40], 40),          # dwells clipped to n_samples
    ([0, 3, 64, 100, 127], 128),        # n_samples % 64 == 0
    ([0, 3, 64, 100, 128], 128),        # ... with a clipped last dwell
    ([0, 10, 200, 250], 300),           # words 1 and 2 hold no start
    ([0, 1, 2, 3, 4, 5, 6, 63], 64),    # one whole word
    ([0, 70, 190], 192),
    ([0, 10, 39, 41], 40),              # a start past n_samples, as the last edge gives
]


@pytest.mark.parametrize("first_occupied", [True, False])
@pytest.mark.parametrize("starts, n_samples", LAYOUTS)
def test_pack_dwells_matches_packbits(starts, n_samples, first_occupied):
    starts = np.array(starts, dtype=np.int64)
    words = pack_in_chunks(starts, n_samples, first_occupied, [])
    assert words.dtype == np.dtype("<u8")
    assert np.array_equal(words, reference_words(starts, n_samples, first_occupied))


@pytest.mark.parametrize("first_occupied", [True, False])
@pytest.mark.parametrize(
    "starts, n_samples, cuts",
    [
        # word 0 split over three chunks, twice between the two flips
        # of a zero-sample dwell
        ([0, 5, 5, 9, 9, 9, 30], 40, [1, 4]),
        ([0, 1, 2, 3, 4, 5, 6, 63], 64, [3, 5]),
        # chunks of a single flip
        ([0, 10, 200, 250], 300, [1, 2]),
        ([0, 5, 5, 9, 9, 9, 30], 40, [1, 2, 3, 4, 5]),
        # a chunk ending on bit 63, the next starting at bit 0 of a word
        ([0, 0, 7, 63, 63, 64], 70, [4]),
        ([0, 3, 64, 100, 128], 128, [1, 3]),
        # the edge that ends the run, past n_samples, alone in the last chunk
        ([0, 10, 39, 41], 40, [2]),
    ],
)
def test_pack_dwells_in_chunks_matches_packbits(starts, n_samples, cuts, first_occupied):
    starts = np.array(starts, dtype=np.int64)
    assert np.array_equal(pack_in_chunks(starts, n_samples, first_occupied, cuts),
                          reference_words(starts, n_samples, first_occupied))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    n_samples=st.integers(1, 700),
    fractions=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40),
    cut_fractions=st.lists(st.floats(0.0, 1.0), max_size=6),
    first_occupied=st.booleans(),
)
def test_pack_dwells_matches_packbits_random(n_samples, fractions, cut_fractions,
                                            first_occupied):
    # starts may reach n_samples + 1, as they do in simulate_telegraph
    later = np.sort(np.round(np.array(fractions) * (n_samples + 1)).astype(np.int64))
    starts = np.concatenate(([0], later))
    cuts = np.sort(np.round(np.array(cut_fractions) * later.size).astype(np.int64))
    assert np.array_equal(pack_in_chunks(starts, n_samples, first_occupied, cuts),
                          reference_words(starts, n_samples, first_occupied))
