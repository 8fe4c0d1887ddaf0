"""Empirical decomposition and its noise-assisted ensemble variant."""

import importlib
import subprocess
import sys

import numpy as np
import pytest
from conftest import child_env

from chargecast.emd import emd, iceemdan

emd_module = importlib.import_module("chargecast.emd")
_extrema_masks = emd_module._extrema_masks
_mirrored_knots = emd_module._mirrored_knots
_natural_spline_rows = emd_module._natural_spline_rows


def imf_sum(imfs, length):
    """IMFs added one at a time, top to bottom; zeros if there are none."""
    total = np.zeros(length)
    for imf in imfs:
        total = total + imf
    return total


def test_residual_is_signal_minus_imf_sum():
    rng = np.random.default_rng(0)
    x = np.cumsum(rng.normal(size=400)) + np.sin(np.arange(400) / 7.0)
    result = emd(x)
    np.testing.assert_array_equal(result.residual, x - imf_sum(result.imfs, x.size))
    recon = imf_sum(result.imfs, x.size) + result.residual
    rel = np.max(np.abs(recon - x)) / np.max(np.abs(x))
    assert rel < 1e-12  # re-adding rounds once, so only float-exact


def test_monotonic_signal_has_no_imfs():
    x = np.linspace(0.0, 5.0, 100)
    result = emd(x)
    assert result.imfs.shape == (0, x.size)
    np.testing.assert_array_equal(result.residual, x)


def test_pure_tone_yields_one_dominant_imf():
    t = np.arange(512)
    x = np.sin(2 * np.pi * t / 32)
    result = emd(x)
    assert len(result.imfs) >= 1
    power = [float(np.sum(imf**2)) for imf in result.imfs]
    assert power[0] > 0.9 * float(np.sum(x**2))


def test_imf_oscillates_about_zero():
    rng = np.random.default_rng(4)
    x = rng.normal(size=300).cumsum()
    result = emd(x)
    for imf in result.imfs:
        # every IMF from sifting should have near-zero local mean
        assert abs(float(np.mean(imf))) < 0.5 * float(np.std(x))


def test_plateau_extrema_are_handled():
    # flat tops would break naive sign-change detection
    x = np.array([0, 1, 1, 1, 0, -1, -1, 0, 1, 0, -1, 0, 1, 1, 0, -1, -1, -1, 0, 1], dtype=float)
    result = emd(x)
    recon = imf_sum(result.imfs, x.size) + result.residual
    np.testing.assert_array_equal(recon, x)


def test_zero_noise_ensemble_equals_plain_emd():
    rng = np.random.default_rng(9)
    x = np.sin(np.arange(200) / 5.0) + 0.1 * rng.normal(size=200)
    plain = emd(x)
    ens = iceemdan(x, ensemble_n=10, noise_amp=0.0, seed=np.random.SeedSequence(1))
    assert len(plain.imfs) == len(ens.imfs)
    for a, b in zip(plain.imfs, ens.imfs):
        np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(plain.residual, ens.residual)


def test_ensemble_of_monotone_realizations_returns_the_signal_whole():
    # noise far below the ramp's step keeps every realization monotone, so no IMF is found
    x = np.arange(50.0)
    x[0] = -0.0
    result = iceemdan(x, ensemble_n=4, noise_amp=1e-6, seed=np.random.SeedSequence(3))
    assert result.imfs.shape == (0, x.size)
    assert result.residual.tobytes() == x.tobytes()
    assert result.residual is not x


@pytest.mark.parametrize("noise_amp", [np.nan, np.inf, -0.1])
def test_ensemble_rejects_a_non_finite_or_negative_noise_amp(noise_amp):
    with pytest.raises(ValueError, match="noise_amp must be >= 0 and finite"):
        iceemdan(np.sin(np.arange(50.0)), ensemble_n=2, noise_amp=noise_amp, seed=0)


def test_ensemble_deterministic_per_seed():
    x = np.sin(np.arange(150) / 4.0)
    a = iceemdan(x, ensemble_n=8, noise_amp=0.2, seed=np.random.SeedSequence(5))
    b = iceemdan(x, ensemble_n=8, noise_amp=0.2, seed=np.random.SeedSequence(5))
    assert len(a.imfs) == len(b.imfs)
    for ia, ib in zip(a.imfs, b.imfs):
        np.testing.assert_array_equal(ia, ib)


def test_ensemble_seed_changes_output():
    x = np.sin(np.arange(150) / 4.0)
    a = iceemdan(x, ensemble_n=8, noise_amp=0.2, seed=np.random.SeedSequence(5))
    b = iceemdan(x, ensemble_n=8, noise_amp=0.2, seed=np.random.SeedSequence(6))
    same = len(a.imfs) == len(b.imfs) and all(
        np.array_equal(ia, ib) for ia, ib in zip(a.imfs, b.imfs)
    )
    assert not same


def test_sift_config_limits_iterations(monkeypatch):
    x = np.random.default_rng(2).normal(size=256)
    res_loose = emd(x)
    monkeypatch.setattr(emd_module, "MAX_SIFTINGS", 1)
    res_tight = emd(x)
    assert len(res_tight.imfs) >= 1
    assert len(res_loose.imfs) >= 1


# --- Batched envelope kernel against a scalar loop-form reference -----------


def ref_natural_spline(xs, ys, n, pivots=None):
    """CubicSpline(xs, ys, bc_type="natural")(arange(n)) in scalar loop form.

    The derivative system is built as scipy builds it, solved by a literal
    transcript of LAPACK dgtsv (one right-hand side, partial pivoting) and
    evaluated in PPoly's power-sum order. Row interchanges are appended to
    pivots when given.
    """
    xs = [float(v) for v in xs]
    ys = [float(v) for v in ys]
    N = len(xs)
    dx = [xs[i + 1] - xs[i] for i in range(N - 1)]
    slope = [(ys[i + 1] - ys[i]) / dx[i] for i in range(N - 1)]
    d = [0.0] * N
    du = [0.0] * (N - 1)
    dl = [0.0] * (N - 1)
    b = [0.0] * N
    for i in range(1, N - 1):
        d[i] = 2 * (dx[i - 1] + dx[i])
        du[i] = dx[i - 1]
        dl[i - 1] = dx[i]
        b[i] = 3 * (dx[i] * slope[i - 1] + dx[i - 1] * slope[i])
    d[0] = 2 * dx[0]
    du[0] = dx[0]
    b[0] = -0.5 * 0.0 * dx[0] ** 2 + 3 * (ys[1] - ys[0])
    d[N - 1] = 2 * dx[N - 2]
    dl[N - 2] = dx[N - 2]
    b[N - 1] = 0.5 * 0.0 * dx[N - 2] ** 2 + 3 * (ys[N - 1] - ys[N - 2])

    # dgtsv, 0-based
    for i in range(N - 1):
        if abs(d[i]) >= abs(dl[i]):
            assert d[i] != 0.0, "singular"
            fact = dl[i] / d[i]
            d[i + 1] = d[i + 1] - fact * du[i]
            b[i + 1] = b[i + 1] - fact * b[i]
            if i < N - 2:
                dl[i] = 0.0
        else:
            if pivots is not None:
                pivots.append(i)
            fact = d[i] / dl[i]
            d[i] = dl[i]
            temp = d[i + 1]
            d[i + 1] = du[i] - fact * temp
            if i < N - 2:
                dl[i] = du[i + 1]
                du[i + 1] = -fact * dl[i]
            du[i] = temp
            temp = b[i]
            b[i] = b[i + 1]
            b[i + 1] = temp - fact * b[i + 1]
    b[N - 1] = b[N - 1] / d[N - 1]
    b[N - 2] = (b[N - 2] - du[N - 2] * b[N - 1]) / d[N - 2]
    for i in range(N - 3, -1, -1):
        b[i] = (b[i] - du[i] * b[i + 1] - dl[i] * b[i + 2]) / d[i]

    out = []
    for t in range(n):
        t = float(t)
        if t >= xs[-1]:
            i = N - 2
        else:
            i = max(j for j in range(N - 1) if xs[j] <= t) if t >= xs[0] else 0
        tt = (b[i] + b[i + 1] - 2 * slope[i]) / dx[i]
        c = (tt / dx[i], (slope[i] - b[i]) / dx[i] - tt, b[i], ys[i])
        s = t - xs[i]
        res, z = 0.0, 1.0
        for k in range(4):
            res = res + c[3 - k] * z * 1.0
            if k < 3:
                z *= s
        out.append(res)
    return np.array(out)


def ref_extrema(x):
    """Maxima and minima indices, loop form; a plateau counts at its end."""
    maxima, minima = [], []
    last = 0.0
    signs = []  # slope signs, a flat step carrying the last nonzero one
    for i in range(len(x) - 1):
        s = float(np.sign(x[i + 1] - x[i]))
        if s != 0:
            last = s
        signs.append(last)
    for i in range(len(signs) - 1):
        if signs[i + 1] < signs[i]:
            maxima.append(i + 1)
        elif signs[i + 1] > signs[i]:
            minima.append(i + 1)
    return np.array(maxima, dtype=int), np.array(minima, dtype=int)


def ref_knots(idx, val, n):
    """Extrema plus up to two mirrored past each end, sorted."""
    k = min(2, len(idx))
    xs = [float(i) for i in idx]
    ys = [float(v) for v in val]
    for j in range(k):
        if idx[j] > 0:
            xs.append(float(-idx[j]))
            ys.append(float(val[j]))
    for j in range(k):
        src = len(idx) - 1 - j
        if idx[src] < n - 1:
            xs.append(float(2 * (n - 1) - idx[src]))
            ys.append(float(val[src]))
    order = np.argsort(xs)
    return np.asarray(xs)[order], np.asarray(ys)[order]


def ref_envelope(idx, val, n):
    return ref_natural_spline(*ref_knots(idx, val, n), n)


def batched(knot_rows, n):
    """Run the batched kernel on a list of (xs, ys) knot rows."""
    K = max(len(xs) for xs, _ in knot_rows) + 1
    xk = np.zeros((K, len(knot_rows)))
    yk = np.zeros((K, len(knot_rows)))
    for q, (xs, ys) in enumerate(knot_rows):
        xk[: len(xs), q] = xs
        yk[: len(xs), q] = ys
    nk = np.array([len(xs) for xs, _ in knot_rows])
    return _natural_spline_rows(xk, yk, nk, n)


def kernel_cases():
    rng = np.random.default_rng(21)
    n = 40
    rows = {
        "pivot at the first row": ([-1, 0, 5, 7, 12, 20, 39, 41], rng.normal(size=8)),
        "interior pivots": ([-2, 0, 1, 2, 14, 15, 16, 30, 31, 45], rng.normal(size=10)),
        "two knots": ([0, n - 1], [1.5, -0.25]),
        "two knots outside": ([-3, n + 2], [0.5, 2.0]),
        "three knots": ([-2, 4, n + 1], [1.0, -1.0, 0.5]),
        "flat values": ([-4, 3, 10, n + 5], [2.0, 2.0, 2.0, 2.0]),
    }
    xs = np.unique(rng.integers(-6, n + 6, size=30))
    rows["many random knots"] = (xs, rng.normal(size=xs.size) * 10.0 ** rng.integers(-3, 3))
    return n, rows


def test_kernel_equals_scalar_reference_in_one_mixed_batch():
    n, rows = kernel_cases()
    got = batched(list(rows.values()), n)
    for q, (name, (xs, ys)) in enumerate(rows.items()):
        np.testing.assert_array_equal(got[q], ref_natural_spline(xs, ys, n), err_msg=name)


def test_reference_pivots_where_the_pivot_cases_say():
    n, rows = kernel_cases()
    first, interior = [], []
    ref_natural_spline(*rows["pivot at the first row"], n, pivots=first)
    ref_natural_spline(*rows["interior pivots"], n, pivots=interior)
    assert 0 in first
    assert any(i > 0 for i in interior)


def test_kernel_close_to_scipy():
    from scipy.interpolate import CubicSpline

    n, rows = kernel_cases()
    got = batched(list(rows.values()), n)
    for q, (name, (xs, ys)) in enumerate(rows.items()):
        want = CubicSpline(np.asarray(xs, float), np.asarray(ys, float), bc_type="natural")(np.arange(n, dtype=float))
        np.testing.assert_allclose(got[q], want, rtol=1e-12, atol=1e-12 * np.max(np.abs(want)), err_msg=name)


def test_extrema_masks_match_loop_form_on_plateaus():
    x = np.array([0, 1, 1, 1, 0, -1, -1, 0, 1, 0, -1, 0, 1, 1, 0, -1, -1, -1, 0, 1], dtype=float)
    flat = np.zeros(12)
    rising_plateau = np.array([0, 0, 1, 1, 2, 2, 1, 1, 1, 3, 3, 0], dtype=float)
    rows = np.stack([x[:12], flat, rising_plateau])
    flags = _extrema_masks(rows)
    for q, row in enumerate(rows):
        maxima, minima = ref_extrema(row)
        np.testing.assert_array_equal(np.flatnonzero(flags[0, q]), maxima)
        np.testing.assert_array_equal(np.flatnonzero(flags[1, q]), minima)


@pytest.mark.parametrize(
    "idx",
    [[0, 5, 9, 14], [3, 8, 19], [0, 19], [0, 7, 19], [6], [0], [19], [2, 11]],
    ids=["first at 0", "last at end", "both ends only", "ends and middle", "single", "single at 0", "single at end", "two inside"],
)
def test_mirrored_knots_and_envelope_match_loop_form(idx):
    n = 20
    rng = np.random.default_rng(len(idx))
    h = rng.normal(size=n)
    mask = np.zeros((1, n), dtype=bool)
    mask[0, idx] = True
    xk, yk, nk = _mirrored_knots(mask, h[None, :])
    xs, ys = ref_knots(np.array(idx), h[idx], n)
    assert nk[0] == xs.size
    np.testing.assert_array_equal(xk[: nk[0], 0], xs)
    np.testing.assert_array_equal(yk[: nk[0], 0], ys)
    if xs.size >= 2:
        got = _natural_spline_rows(xk, yk, nk, n)[0]
        np.testing.assert_array_equal(got, ref_natural_spline(xs, ys, n))


def test_envelopes_of_rows_with_very_different_extrema_counts():
    n = 300
    t = np.arange(n)
    rng = np.random.default_rng(8)
    rows = np.stack([
        np.sin(2 * np.pi * t / 150.0),
        np.sin(2 * np.pi * t / 5.0) + 0.1 * rng.normal(size=n),
        rng.normal(size=n),
        np.round(np.sin(2 * np.pi * t / 40.0) * 3.0),
    ])
    flags = _extrema_masks(rows)
    got = _natural_spline_rows(*_mirrored_knots(flags, rows), n)
    for kind in range(2):
        for q, row in enumerate(rows):
            idx = ref_extrema(row)[kind]
            np.testing.assert_array_equal(got[kind * len(rows) + q], ref_envelope(idx, row[idx], n))


# --- Lockstep sifting against the per-realization loop ------------------------


def loop_emd(x):
    """One realization's EMD as a loop of scalar envelope fits."""
    imfs = []
    residual = x.copy()
    while True:
        maxima, minima = ref_extrema(residual)
        if maxima.size < 2 or minima.size < 2:
            break
        h = residual
        for _ in range(emd_module.MAX_SIFTINGS):
            maxima, minima = ref_extrema(h)
            if maxima.size < 2 or minima.size < 2:
                break
            h_new = h - 0.5 * (ref_envelope(maxima, h[maxima], h.size) + ref_envelope(minima, h[minima], h.size))
            denom = float(np.sum(h * h))
            sd = float(np.sum((h - h_new) ** 2)) / denom if denom > 0 else 0.0
            h = h_new
            if sd < emd_module.SD_THRESHOLD:
                break
        imfs.append(h)
        residual = residual - h
    return imfs


def loop_iceemdan(x, ensemble_n, noise_amp, seed):
    """Per-realization ensemble EMD: noise, full EMD, then the mean i-th IMF."""
    sigma = noise_amp * float(np.std(x))
    children = np.random.SeedSequence(seed).spawn(ensemble_n)
    runs = []
    for child in children:
        rng = np.random.default_rng(child)
        runs.append(loop_emd(x + sigma * rng.standard_normal(x.size)))
    k_max = max(len(r) for r in runs)
    acc = np.zeros((k_max, x.size))
    for r in runs:
        for i, imf in enumerate(r):
            acc[i] += imf
    acc /= ensemble_n
    imfs = tuple(acc[i] for i in range(k_max))
    return imfs, x - imf_sum(imfs, x.size)


def assert_same_decomposition(got, imfs, residual):
    assert got.imfs.shape == (len(imfs), residual.size)
    for a, b in zip(got.imfs, imfs):
        np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(got.residual, residual)


@pytest.mark.parametrize("stop_rule", [{}, {"SD_THRESHOLD": 0.05, "MAX_SIFTINGS": 4}], ids=["default", "capped"])
def test_iceemdan_equals_per_realization_loop(monkeypatch, stop_rule):
    for name, value in stop_rule.items():
        monkeypatch.setattr(emd_module, name, value)
    rng = np.random.default_rng(13)
    x = np.cumsum(rng.normal(size=180)) + 2.0 * np.sin(np.arange(180) / 3.0)
    got = iceemdan(x, ensemble_n=6, noise_amp=0.2, seed=42)
    assert_same_decomposition(got, *loop_iceemdan(x, 6, 0.2, 42))


def test_emd_equals_loop_form_with_plateaus():
    x = np.round(3.0 * np.sin(np.arange(160) / 4.0) + np.sin(np.arange(160) / 1.3))
    imfs = loop_emd(x)
    assert_same_decomposition(emd(x), imfs, x - imf_sum(imfs, x.size))


def test_row_chunking_does_not_change_the_ensemble(monkeypatch):
    rng = np.random.default_rng(17)
    x = np.cumsum(rng.normal(size=240))
    whole = iceemdan(x, ensemble_n=7, noise_amp=0.3, seed=5)
    monkeypatch.setattr(emd_module, "_CHUNK_CELLS", 1)
    monkeypatch.setattr(emd_module, "_EVAL_CELLS", 1)
    one_row = iceemdan(x, ensemble_n=7, noise_amp=0.3, seed=5)
    assert_same_decomposition(one_row, whole.imfs, whole.residual)
    assert one_row.sift_capped == whole.sift_capped


def test_seed_sequence_is_not_consumed():
    x = np.sin(np.arange(150) / 4.0) + 0.3 * np.sin(np.arange(150) / 1.7)
    seed = np.random.SeedSequence(5)
    a = iceemdan(x, ensemble_n=8, noise_amp=0.2, seed=seed)
    b = iceemdan(x, ensemble_n=8, noise_amp=0.2, seed=seed)
    assert seed.n_children_spawned == 0
    assert_same_decomposition(b, a.imfs, a.residual)
    fresh = iceemdan(x, ensemble_n=8, noise_amp=0.2, seed=np.random.SeedSequence(5))
    assert_same_decomposition(fresh, a.imfs, a.residual)


def test_sift_cap_counts_every_extraction_at_one_sifting(monkeypatch):
    monkeypatch.setattr(emd_module, "SD_THRESHOLD", 1e-300)
    monkeypatch.setattr(emd_module, "MAX_SIFTINGS", 1)
    rng = np.random.default_rng(3)
    x = rng.normal(size=256).cumsum()
    single = emd(x)
    assert single.sift_capped == len(single.imfs) > 0
    ens = iceemdan(x, ensemble_n=5, noise_amp=0.2, seed=1)
    per_run = [len(loop_emd(x + 0.2 * float(np.std(x)) * np.random.default_rng(c).standard_normal(x.size)))
               for c in np.random.SeedSequence(1).spawn(5)]
    assert ens.sift_capped == sum(per_run)


def test_sift_cap_is_zero_when_the_sd_rule_always_fires(monkeypatch):
    monkeypatch.setattr(emd_module, "SD_THRESHOLD", 1e300)
    x = np.random.default_rng(3).normal(size=256).cumsum()
    assert emd(x).sift_capped == 0
    assert iceemdan(x, ensemble_n=4, noise_amp=0.2, seed=2).sift_capped == 0


def test_import_loads_no_scipy_module():
    probe = "import sys, chargecast; print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    out = subprocess.run(
        [sys.executable, "-c", probe], env=child_env(), capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


def test_import_loads_no_multiprocessing_module():
    # the station pool imports multiprocessing only when it starts one
    probe = "import sys, chargecast; print(sorted(m for m in sys.modules if m.startswith('multiprocessing')))"
    out = subprocess.run(
        [sys.executable, "-c", probe], env=child_env(), capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
