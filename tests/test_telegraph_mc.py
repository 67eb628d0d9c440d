import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from donor_halo import MaterialError, TelegraphEstimate, simulate_telegraph
from donor_halo.kinetics import _first_sample_index, telegraph_amplitude, telegraph_values

SCREEN = 0.3233235838169365


def test_estimator_matches_exact_statistics():
    occ, tau_occ, tau_empty = 0.4, 1.0, 1.5
    est = simulate_telegraph(occ, SCREEN, tau_occ, tau_empty,
                             n_dwell=120_000, seed=99)
    exact_rate = 1.0 / tau_occ + 1.0 / tau_empty
    exact_amp = telegraph_amplitude(occ, SCREEN)
    assert abs(est.mean) <= 3.0 * est.mean_se
    assert abs(est.amplitude - exact_amp) <= 3.0 * est.acf_se[0] + 1e-12
    assert est.decay_rate == pytest.approx(exact_rate, rel=0.05)
    for k, lag in enumerate(est.lag_times):
        expect = exact_amp * math.exp(-exact_rate * lag)
        assert abs(est.acf[k] - expect) <= 3.0 * est.acf_se[k] + 1e-12


def test_estimator_reproducible():
    a = simulate_telegraph(0.3, SCREEN, 1.0, 7.0 / 3.0, n_dwell=20_000, seed=5)
    b = simulate_telegraph(0.3, SCREEN, 1.0, 7.0 / 3.0, n_dwell=20_000, seed=5)
    assert a.amplitude == b.amplitude
    assert np.array_equal(a.acf, b.acf)
    c = simulate_telegraph(0.3, SCREEN, 1.0, 7.0 / 3.0, n_dwell=20_000, seed=6)
    assert not np.array_equal(a.acf, c.acf)


def test_estimator_rejects_degenerate_inputs():
    with pytest.raises(MaterialError, match="modulation"):
        simulate_telegraph(0.5, 0.0, 1.0, 1.0, n_dwell=1000, seed=1)
    with pytest.raises(MaterialError, match="inconsistent"):
        simulate_telegraph(0.4, SCREEN, 1.0, 1.0, n_dwell=1000, seed=1)


def test_estimator_error_shrinks_with_samples():
    exact = telegraph_amplitude(0.25, SCREEN)
    errors = {}
    for n in (16_000, 256_000):
        runs = [simulate_telegraph(0.25, SCREEN, 1.0, 3.0, n_dwell=n,
                                   seed=1000 + k).amplitude for k in range(8)]
        errors[n] = float(np.mean([abs(a - exact) for a in runs]))
    # 16x the dwell events should shrink the error about 4x
    assert 0.15 <= errors[256_000] / errors[16_000] <= 0.6


# --- reference estimator -----------------------------------------------------

def reference_telegraph(occ, screening, tau_occupied, tau_empty, n_dwell, seed,
                        n_lags=32, samples_per_dwell=5.0, n_blocks=64):
    """Float-product estimator that simulate_telegraph replaced.

    Same draws and the same per-lag block layout, but the modulation is
    materialized on the time grid and every lag multiplies and averages
    floats.  It shares the sample-count guard, so both reject the same
    inputs.
    """
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
    return TelegraphEstimate(
        lag_times=lags * dt, acf=acf, acf_se=acf_se,
        mean=mean, mean_se=mean_se,
        decay_rate=float(-slope), amplitude=float(acf[0]),
        dwell_count=n_dwell, total_time=total,
    )


#: counting and summing floats round differently; an exact zero (acf_se[0]
#: at equal |h|, or a mean whose occupied counts cancel) keeps only that
#: rounding, so it is compared absolutely against its natural scale
RTOL = 1e-12
ATOL_SCALE = 1e-13


def assert_matches_reference(occ, screening, tau_occupied, tau_empty, n_dwell,
                             seed, **options):
    args = (occ, screening, tau_occupied, tau_empty, n_dwell, seed)
    try:
        ref = reference_telegraph(*args, **options)
    except MaterialError:
        with pytest.raises(MaterialError, match="cannot fill"):
            simulate_telegraph(*args, **options)
        return
    est = simulate_telegraph(*args, **options)
    assert np.array_equal(est.lag_times, ref.lag_times)
    assert est.total_time == ref.total_time
    assert est.dwell_count == ref.dwell_count
    h_scale = max(abs(h) for h in telegraph_values(occ, screening))
    for name, scale in (("acf", h_scale ** 2), ("acf_se", h_scale ** 2),
                        ("mean", h_scale), ("mean_se", h_scale)):
        np.testing.assert_allclose(getattr(est, name), getattr(ref, name),
                                   rtol=RTOL, atol=ATOL_SCALE * scale, err_msg=name)
    assert est.amplitude == est.acf[0]
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
    assert_matches_reference(occ, SCREEN, tau_occupied, tau_empty, n_dwell, seed,
                             **options)


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
    occ = tau_occupied / (tau_occupied + tau_empty)
    assert_matches_reference(occ, screening, tau_occupied, tau_empty,
                             int(math.exp(log_dwell)), seed,
                             samples_per_dwell=samples_per_dwell,
                             n_lags=n_lags, n_blocks=n_blocks)


def test_estimator_matches_reference_on_whole_words():
    # 18880 samples are 295 whole words, and 5 blocks of 59 words put every
    # lag-0 block bound on a word boundary
    occ, seed, options = 0.4, 68, {"n_lags": 65, "n_blocks": 5}
    est = simulate_telegraph(occ, SCREEN, 1.0, 1.5, n_dwell=3000, seed=seed, **options)
    assert int(est.total_time / 0.2) == 18880 == 295 * 64
    assert_matches_reference(occ, SCREEN, 1.0, 1.5, 3000, seed, **options)


@pytest.mark.parametrize("n", [16_000, 256_000])
@pytest.mark.parametrize("seed", [20260810, 1000])
def test_amplitude_does_not_depend_on_lag_count(n, seed):
    # properties/mc-convergence reads only the amplitude and asks for 4 lags
    short = simulate_telegraph(0.25, SCREEN, 1.0, 3.0, n_dwell=n, seed=seed, n_lags=4)
    full = simulate_telegraph(0.25, SCREEN, 1.0, 3.0, n_dwell=n, seed=seed)
    assert short.amplitude == full.amplitude


@pytest.mark.parametrize(
    "options, match",
    [
        ({"n_lags": 1}, "at least 2 lags"),
        ({"n_lags": 0}, "at least 2 lags"),
        ({"n_blocks": 1}, "at least 2 blocks"),
        ({"n_blocks": 0}, "at least 2 blocks"),
        ({"samples_per_dwell": 0.0}, "finite and positive"),
        ({"samples_per_dwell": -1.0}, "finite and positive"),
        ({"samples_per_dwell": math.nan}, "finite and positive"),
        ({"samples_per_dwell": math.inf}, "finite and positive"),
    ],
)
def test_estimator_rejects_bad_options(options, match):
    with pytest.raises(MaterialError, match=match):
        simulate_telegraph(0.5, SCREEN, 1.0, 1.0, n_dwell=1000, seed=1, **options)


def test_estimator_rejects_too_few_samples():
    with pytest.raises(MaterialError, match="at least 4 dwell"):
        simulate_telegraph(0.5, SCREEN, 1.0, 1.0, n_dwell=3, seed=1)
    with pytest.raises(MaterialError, match="cannot fill 64 blocks"):
        simulate_telegraph(0.5, SCREEN, 1.0, 1.0, n_dwell=4, seed=1)


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
