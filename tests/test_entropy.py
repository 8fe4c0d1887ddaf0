"""Sample entropy against a direct O(N^2) template-counting oracle."""

import math
import tracemalloc

import numpy as np
import pytest

from chargecast import entropy
from chargecast.entropy import coarse_grain, msse_curve, sample_entropy


def naive_sample_entropy(x, m, r):
    """Textbook definition, written without the incremental distance trick.

    Counts template matches of length m and m+1 over the same n = N - m
    starting positions, excluding self-matches, with the Chebyshev metric
    and the "distance <= r" convention.
    """
    x = np.asarray(x, dtype=float)
    big_n = x.size
    n = big_n - m

    def count(length):
        hits = 0
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                d = max(abs(x[i + t] - x[j + t]) for t in range(length))
                if d <= r:
                    hits += 1
        return hits

    b = count(m)
    a = count(m + 1)
    if a == 0 or b == 0:
        return math.inf
    return -math.log(a / b)


def test_matches_naive_oracle_on_random_series():
    rng = np.random.default_rng(99)
    for _ in range(25):
        n = int(rng.integers(10, 50))
        x = rng.normal(size=n)
        r = 0.2 * float(np.std(x))
        got = sample_entropy(x, m=2, r=r)
        want = naive_sample_entropy(x, 2, r)
        if math.isinf(want):
            assert math.isinf(got)
        else:
            assert got == want  # same counts, same log; bitwise identical


def test_m_three_agrees_with_oracle():
    rng = np.random.default_rng(3)
    x = rng.normal(size=40)
    r = 0.3 * float(np.std(x))
    assert sample_entropy(x, m=3, r=r) == naive_sample_entropy(x, 3, r)


def test_no_matches_is_infinite():
    x = np.array([0.0, 100.0, -100.0, 200.0, -200.0, 300.0, -300.0, 400.0])
    assert math.isinf(sample_entropy(x, m=2, r=1e-9))


def test_regular_signal_scores_lower_than_noise():
    t = np.arange(200)
    regular = np.sin(2 * np.pi * t / 20)
    noisy = np.random.default_rng(0).normal(size=200)
    r_reg = 0.15 * float(np.std(regular))
    r_noi = 0.15 * float(np.std(noisy))
    assert sample_entropy(regular, m=2, r=r_reg) < sample_entropy(noisy, m=2, r=r_noi)


def test_coarse_grain_averages_blocks():
    x = np.arange(10, dtype=float)
    np.testing.assert_array_equal(coarse_grain(x, 3), [1.0, 4.0, 7.0])
    np.testing.assert_array_equal(coarse_grain(x, 1), x)


def test_msse_first_scale_is_plain_sample_entropy():
    rng = np.random.default_rng(17)
    x = rng.normal(size=120)
    curve = msse_curve(x, m=2, r_frac=0.15, tau_max=4)
    r = 0.15 * float(np.std(x))
    assert curve.shape == (4,)
    assert curve[0] == sample_entropy(x, m=2, r=r)


def test_msse_tolerance_fixed_from_original_series():
    # the tolerance must come from the unscaled series, not per-scale std
    rng = np.random.default_rng(5)
    x = rng.normal(size=90)
    r = 0.15 * float(np.std(x))
    curve = msse_curve(x, m=2, r_frac=0.15, tau_max=3)
    for tau in (2, 3):
        assert curve[tau - 1] == sample_entropy(coarse_grain(x, tau), m=2, r=r)


def oracle_cases():
    """(name, series, m, r) on which the sweep must reproduce the oracle exactly."""
    rng = np.random.default_rng(41)
    t = np.arange(80)
    ties = np.round(rng.normal(size=60), 1)
    smooth = np.sin(2 * np.pi * t / 16) + 0.05 * rng.normal(size=80)
    walk = np.cumsum(rng.normal(size=50))
    # pairs one ulp either side of the tolerance: |0.1000...02 - (-0.1)|
    # rounds to 0.2 although 0.1000...02 > -0.1 + 0.2, while 0.7000...07
    # lies one ulp past 0.5 + 0.2 and its distance to 0.5 exceeds 0.2
    edge = rng.choice([-0.1, np.nextafter(0.1, 1.0), 0.5, np.nextafter(0.7, 1.0)], size=60)
    return [
        ("rounding_edge", edge, 2, 0.2),
        # grid values: many pair distances land on r give or take one ulp
        ("ties_r_grid", ties, 2, 0.1),
        ("ties_r_std", ties, 2, 0.2 * float(np.std(ties))),
        ("ties_offset", 1e6 + ties, 2, 0.1),
        ("ties_m3", ties, 3, 0.2),
        ("constant", np.full(30, 2.5), 2, 0.0),
        ("constant_r", np.full(30, -7.0), 2, 0.3),
        ("smooth", smooth, 2, 0.15 * float(np.std(smooth))),
        ("walk_m1", walk, 1, 0.2 * float(np.std(walk))),
        ("smooth_m3", smooth, 3, 0.2 * float(np.std(smooth))),
    ]


def assert_matches_oracle(x, m, r):
    got = sample_entropy(x, m=m, r=r)
    want = naive_sample_entropy(x, m, r)
    if math.isinf(want):
        assert math.isinf(got)
    else:
        assert got == want


ORACLE_CASES = oracle_cases()


@pytest.mark.parametrize("name,x,m,r", ORACLE_CASES, ids=[c[0] for c in ORACLE_CASES])
def test_sweep_matches_oracle_on_hard_series(name, x, m, r):
    assert_matches_oracle(x, m, r)


def test_multi_chunk_sweep_matches_oracle(monkeypatch):
    # a handful of pairs per chunk packs only a few whole rows per chunk
    monkeypatch.setattr(entropy, "_CHUNK_PAIRS", 3)
    for _, x, m, r in ORACLE_CASES:
        assert_matches_oracle(x, m, r)


def test_one_pair_chunks_match_oracle(monkeypatch):
    # every row with more than one partner goes through alone
    monkeypatch.setattr(entropy, "_CHUNK_PAIRS", 1)
    for _, x, m, r in ORACLE_CASES:
        assert_matches_oracle(x, m, r)


@pytest.mark.parametrize("name", ["rounding_edge", "ties_offset"])
def test_partner_stops_are_exact(name):
    _, x, m, r = next(c for c in ORACLE_CASES if c[0] == name)
    n = x.size - m
    lead = np.sort(x[:n], kind="stable")
    stops = entropy._partner_stops(lead, r, max(float(np.max(np.abs(x))), r))
    for p in range(n):
        # every later row, not only those inside the searchsorted window
        partners = [q for q in range(p + 1, n) if abs(lead[p] - lead[q]) <= r]
        assert stops[p] == p + 1 + len(partners)
        assert partners == list(range(p + 1, stops[p]))


def test_year_of_hourly_data_in_bounded_memory():
    # a dense pair matrix at T = 8760 would need about 614 MB
    rng = np.random.default_rng(8)
    hours = np.arange(8760)
    x = np.sin(2 * np.pi * hours / 24) + 0.3 * rng.normal(size=hours.size)
    r = 0.15 * float(np.std(x))
    tracemalloc.start()
    try:
        value = sample_entropy(x, m=2, r=r)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert math.isfinite(value)
    assert peak < 64 * 2**20


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_input_is_rejected(bad):
    x = np.random.default_rng(2).normal(size=20)
    x[7] = bad
    with pytest.raises(ValueError, match="non-finite"):
        sample_entropy(x, m=2, r=0.2)
