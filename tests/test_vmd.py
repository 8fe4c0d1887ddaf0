"""Variational mode extraction: reconstruction, ordering, and tone recovery.

The tone-recovery oracle is the FFT peak bin of each pure component,
computed directly from the generating frequencies, so the decomposition
is judged against numbers it never saw.
"""

import warnings

import numpy as np
import pytest

from chargecast.errors import NumericError
from chargecast.vmd import Mode, VmdConfig, vmd


def fft_peak_freq(x):
    spec = np.abs(np.fft.rfft(x))
    spec[0] = 0.0
    return np.argmax(spec) / x.size


def test_two_tone_centers_match_fft_peaks():
    t = np.arange(1024)
    f1, f2 = 4 / 256, 32 / 256
    x = np.sin(2 * np.pi * f1 * t) + 0.7 * np.sin(2 * np.pi * f2 * t)
    modes = vmd(x, VmdConfig(K=2, alpha=2000.0))
    want = sorted([fft_peak_freq(np.sin(2 * np.pi * f1 * t)), fft_peak_freq(np.sin(2 * np.pi * f2 * t))])
    got = [m.center_freq for m in modes]
    assert got == sorted(got)
    for g, w in zip(got, want):
        assert abs(g - w) / w < 0.05


def test_reconstruction_error_small():
    rng = np.random.default_rng(1)
    t = np.arange(512)
    x = np.sin(2 * np.pi * t / 64) + 0.5 * np.cos(2 * np.pi * t / 16) + 0.05 * rng.normal(size=512)
    modes = vmd(x, VmdConfig(K=4, alpha=500.0))
    recon = sum(m.samples for m in modes)
    rel = np.linalg.norm(recon - x) / np.linalg.norm(x)
    assert rel < 0.05


def test_modes_sorted_by_center_frequency():
    t = np.arange(400)
    x = np.sin(2 * np.pi * t / 100) + np.sin(2 * np.pi * t / 10)
    modes = vmd(x, VmdConfig(K=3, alpha=800.0))
    freqs = [m.center_freq for m in modes]
    assert freqs == sorted(freqs)
    for f in freqs:
        assert 0.0 <= f <= 0.5


def test_output_length_matches_input():
    x = np.random.default_rng(2).normal(size=301)  # odd length
    modes = vmd(x, VmdConfig(K=3))
    for m in modes:
        assert m.samples.shape == (301,)


def test_uniform_init_spreads_centers():
    # init=1 seeds center k at 0.5k/K before iteration begins
    t = np.arange(256)
    x = np.sin(2 * np.pi * t / 32)
    with pytest.warns(RuntimeWarning, match="did not converge"):
        modes = vmd(x, VmdConfig(K=2, alpha=2000.0, max_iter=1, tol=1e-30, init=1))
    assert modes[0].center_freq != modes[1].center_freq


def test_iteration_cap_warns_with_settings():
    t = np.arange(256)
    x = np.sin(2 * np.pi * t / 32) + 0.5 * np.sin(2 * np.pi * t / 8)
    with pytest.warns(RuntimeWarning, match=r"K=2, alpha=50\.0 .*max_iter=1\b"):
        vmd(x, VmdConfig(K=2, alpha=50.0, max_iter=1))


def test_converged_run_does_not_warn():
    t = np.arange(256)
    x = np.sin(2 * np.pi * t / 32) + 0.5 * np.sin(2 * np.pi * t / 8)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        vmd(x, VmdConfig(K=2, alpha=50.0))


def test_config_validation():
    with pytest.raises(ValueError):
        VmdConfig(K=0)
    with pytest.raises(ValueError):
        VmdConfig(alpha=0.0)
    with pytest.raises(ValueError):
        VmdConfig(tol=0.0)
    with pytest.raises(ValueError):
        VmdConfig(init=7)


def test_nonfinite_mode_guard():
    with pytest.raises(NumericError):
        Mode(samples=np.array([1.0, np.inf]), center_freq=0.1)


def test_center_frequency_range_guard():
    with pytest.raises(ValueError, match="Nyquist"):
        Mode(samples=np.zeros(4), center_freq=0.7)


def test_deterministic():
    x = np.random.default_rng(3).normal(size=256)
    cfg = VmdConfig(K=3, alpha=200.0)
    a = vmd(x, cfg)
    b = vmd(x, cfg)
    for ma, mb in zip(a, b):
        assert np.array_equal(ma.samples, mb.samples)
        assert ma.center_freq == mb.center_freq
