"""Variational mode extraction: reconstruction, ordering, and tone recovery.

The tone-recovery oracle is the FFT peak bin of each pure component,
computed directly from the generating frequencies, so the decomposition
is judged against numbers it never saw. The half-spectrum solver is
checked bit for bit against the two-sided solver it replaced, kept below
as a loop-form reference.
"""

import warnings

import numpy as np
import pytest

from chargecast.errors import NumericError
from chargecast.vmd import VmdConfig, _mirror_extend, vmd


def fft_peak_freq(x):
    spec = np.abs(np.fft.rfft(x))
    spec[0] = 0.0
    return np.argmax(spec) / x.size


def test_two_tone_centers_match_fft_peaks():
    t = np.arange(1024)
    f1, f2 = 4 / 256, 32 / 256
    x = np.sin(2 * np.pi * f1 * t) + 0.7 * np.sin(2 * np.pi * f2 * t)
    _, got = vmd(x, VmdConfig(K=2, alpha=2000.0))
    want = sorted([fft_peak_freq(np.sin(2 * np.pi * f1 * t)), fft_peak_freq(np.sin(2 * np.pi * f2 * t))])
    assert list(got) == sorted(got)
    for g, w in zip(got, want):
        assert abs(g - w) / w < 0.05


def test_reconstruction_error_small():
    rng = np.random.default_rng(1)
    t = np.arange(512)
    x = np.sin(2 * np.pi * t / 64) + 0.5 * np.cos(2 * np.pi * t / 16) + 0.05 * rng.normal(size=512)
    modes, _ = vmd(x, VmdConfig(K=4, alpha=500.0))
    recon = sum(modes)
    rel = np.linalg.norm(recon - x) / np.linalg.norm(x)
    assert rel < 0.05


def test_modes_sorted_by_center_frequency():
    t = np.arange(400)
    x = np.sin(2 * np.pi * t / 100) + np.sin(2 * np.pi * t / 10)
    _, freqs = vmd(x, VmdConfig(K=3, alpha=800.0))
    assert list(freqs) == sorted(freqs)
    for f in freqs:
        assert 0.0 <= f <= 0.5


def test_output_length_matches_input():
    x = np.random.default_rng(2).normal(size=301)  # odd length
    modes, centers = vmd(x, VmdConfig(K=3))
    assert modes.shape == (3, 301)
    assert centers.shape == (3,)


def test_uniform_init_spreads_centers():
    # center k starts at 0.5k/K before iteration begins
    t = np.arange(256)
    x = np.sin(2 * np.pi * t / 32)
    with pytest.warns(RuntimeWarning, match="did not converge"):
        _, centers = vmd(x, VmdConfig(K=2, alpha=2000.0, max_iter=1, tol=1e-30))
    assert centers[0] != centers[1]


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


def test_nonfinite_mode_guard():
    # finite input whose spectrum overflows, so the modes come out non-finite
    x = np.array([1e308, -1e308] * 32)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(NumericError):
            vmd(x, VmdConfig(K=2, max_iter=5))


def test_deterministic():
    x = np.random.default_rng(3).normal(size=256)
    cfg = VmdConfig(K=3, alpha=200.0)
    modes_a, centers_a = vmd(x, cfg)
    modes_b, centers_b = vmd(x, cfg)
    assert np.array_equal(modes_a, modes_b)
    assert np.array_equal(centers_a, centers_b)


def full_spectrum_vmd(signal, cfg):
    """The former solver: every update over the whole two-sided grid.

    The negative half of f_plus is zeroed, so the mode spectra stay zero
    there; the stop test sums over the full grid.
    """
    x = np.asarray(signal, dtype=float)
    ext, lpad = _mirror_extend(x)
    n_ext = ext.size
    half = n_ext // 2
    freqs = np.arange(n_ext) / n_ext - 0.5
    f_plus = np.fft.fftshift(np.fft.fft(ext))
    f_plus[:half] = 0.0
    omega = (0.5 / cfg.K) * np.arange(cfg.K)
    u_hat = np.zeros((cfg.K, n_ext), dtype=complex)
    pos = freqs[half:]
    for it in range(cfg.max_iter):
        u_prev = u_hat.copy()
        others = u_hat.sum(axis=0)
        for k in range(cfg.K):
            others -= u_hat[k]
            u_hat[k] = (f_plus - others) / (1.0 + 2.0 * cfg.alpha * (freqs - omega[k]) ** 2)
            power = np.abs(u_hat[k, half:]) ** 2
            total = power.sum()
            if total > 0.0:
                omega[k] = float((pos * power).sum() / total)
            others += u_hat[k]
        num = np.abs(u_hat - u_prev) ** 2
        den = (np.abs(u_prev) ** 2).sum(axis=1)
        if it > 0 and np.all(den > 0.0):
            if float((num.sum(axis=1) / den).sum()) < cfg.tol:
                break
    else:
        warnings.warn("vmd did not converge", RuntimeWarning)
    full = np.zeros_like(u_hat)
    full[:, half:] = u_hat[:, half:]
    full[:, 1 : half + 1] = np.conj(u_hat[:, -1 : half - 1 : -1])
    full[:, 0] = np.conj(full[:, -1])
    time_modes = np.real(np.fft.ifft(np.fft.ifftshift(full, axes=1), axis=1))[:, lpad : lpad + x.size]
    omega = np.clip(omega, 0.0, 0.5)
    order = np.argsort(omega, kind="stable")
    return [(time_modes[k], float(omega[k])) for k in order]


def converged_warnings(fn, *args):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = fn(*args)
    return out, [w for w in caught if "did not converge" in str(w.message)]


@pytest.mark.parametrize("length", [301, 512])
@pytest.mark.parametrize(
    "cfg",
    [
        VmdConfig(K=3, alpha=500.0),
        VmdConfig(K=4, alpha=2000.0, max_iter=7),
        VmdConfig(K=3, alpha=100.0, max_iter=5),
    ],
    ids=["init1", "capped", "capped_tau_init0"],
)
def test_half_spectrum_solver_is_bitwise_the_full_spectrum_one(cfg, length):
    rng = np.random.default_rng(length)
    t = np.arange(length)
    x = 2.0 + np.sin(2 * np.pi * t / 24) + 0.4 * np.sin(2 * np.pi * t / 7) + 0.3 * rng.normal(size=length)
    got, got_warned = converged_warnings(vmd, x, cfg)
    want, want_warned = converged_warnings(full_spectrum_vmd, x, cfg)
    assert len(got_warned) == len(want_warned)
    modes, centers = got
    assert len(modes) == len(centers) == len(want) == cfg.K
    for mode, got_center, (samples, center) in zip(modes, centers, want):
        assert np.array_equal(mode, samples)
        assert got_center == center


def test_all_zero_series_gives_zero_modes_without_warning():
    # a dead station: every mode is zero and stays zero, which is converged
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        modes, _ = vmd(np.zeros(720), VmdConfig())
    assert np.array_equal(modes, np.zeros((8, 720)))
