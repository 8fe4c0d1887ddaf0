"""Acceptance gates for the toolkit, one test per numbered criterion.

Each test prints a single ``criterion NN <label>: PASS`` (or FAIL) line and
enforces the stated tolerance and time budget. Oracles are restated here
with plain loops so they share no code with the implementation under test.
Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
print.
"""

import json
import math
import subprocess
import sys
import time
import warnings
from contextlib import contextmanager
from statistics import median

import numpy as np
from conftest import child_env

from chargecast import seeds
from chargecast.autodiff import Tensor
from chargecast.bands import DecomposeConfig, band_recombine
from chargecast.channels import ChannelConfig, assemble_channels
from chargecast.domain import CalendarFrame, SeriesTensor, StationGraph, Windows, split_windows
from chargecast.emd import emd, iceemdan
from chargecast.entropy import msse_curve, sample_entropy
from chargecast.granulate import fig_granulate, membership
from chargecast.io import apply_holidays
from chargecast.losses import LossConfig, combined_loss, frequency_loss, mae_loss, metrics
from chargecast.model import (
    ModelConfig,
    build_model,
    forward_batch,
    freeze_and_adapt,
    graph_attention_block,
    load_checkpoint,
    save_checkpoint,
    trainable_parameter_count,
)
from chargecast.quantize import BLOCK_SIZE, NF4_CODEBOOK, SUPERBLOCK, dequantize, quantize
from chargecast.relieff import CONTINUOUS, DISCRETE, FeatureTable, relieff
from chargecast.synth import generate
from chargecast.training import TrainConfig, evaluate, fit
from chargecast.vmd import VmdConfig, vmd


@contextmanager
def criterion(num, label):
    try:
        yield
    except BaseException:
        print(f"criterion {num:02d} {label}: FAIL", flush=True)
        raise
    print(f"criterion {num:02d} {label}: PASS", flush=True)


# -- 1: reconstruction identities ----------------------------------------------


def test_criterion_01_reconstruction_identities():
    start = time.perf_counter()
    with criterion(1, "decomposition reconstruction identities"):
        rng = np.random.default_rng(101)
        worst = 0.0
        for _ in range(20):
            t = np.arange(int(rng.integers(240, 361)))
            x = 0.002 * t + 0.3 * rng.normal(size=t.size)
            for _ in range(3):
                freq = rng.uniform(0.005, 0.2)
                amp = rng.uniform(0.4, 1.5)
                x = x + amp * np.sin(2 * np.pi * freq * t + rng.uniform(0, 2 * np.pi))
            scale = np.linalg.norm(x)

            plain = emd(x)
            worst = max(worst, np.linalg.norm(x - plain.reconstruct()) / scale)

            noisy = iceemdan(x, ensemble_n=4, noise_amp=0.1, seed=int(rng.integers(1 << 30)))
            worst = max(worst, np.linalg.norm(x - noisy.reconstruct()) / scale)

            components = list(noisy.imfs) + [noisy.residual]
            assert len(components) >= 3
            complexity = np.array([float(np.var(c)) for c in components])
            bands = band_recombine(components, complexity)
            summed = np.sum(components, axis=0)
            worst = max(
                worst,
                np.linalg.norm(summed - bands.total()) / max(np.linalg.norm(summed), 1.0),
            )
        assert worst < 1e-9, f"worst relative reconstruction error {worst:.3e}"
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"took {elapsed:.2f}s, budget 5s"


# -- 2: mode centers on a two-tone signal --------------------------------------


def fft_peak_freq(signal):
    """Dominant non-DC frequency in cycles per sample."""
    spectrum = np.abs(np.fft.rfft(signal))
    spectrum[0] = 0.0
    return float(np.argmax(spectrum)) / signal.size


def test_criterion_02_vmd_two_tone_centers():
    start = time.perf_counter()
    with criterion(2, "variational mode centers on two-tone signal"):
        t = np.arange(1024)
        f_low = 4.0 / 256.0
        f_high = 32.0 / 256.0
        x = np.sin(2 * np.pi * f_low * t) + np.sin(2 * np.pi * f_high * t)
        oracle = sorted(
            fft_peak_freq(np.sin(2 * np.pi * f * t)) for f in (f_low, f_high)
        )
        _, centers = vmd(x, VmdConfig(K=2, alpha=2000.0))
        got = sorted(centers)
        for found, want in zip(got, oracle):
            assert abs(found - want) / want < 0.05, f"center {found} vs oracle {want}"
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"took {elapsed:.2f}s, budget 30s"


# -- 3: sample entropy against a naive counter ----------------------------------


def naive_sample_entropy(x, m, r):
    """Direct O(N^2) pair counting; both template sets use N - m rows."""
    x = np.asarray(x, dtype=float)
    n = x.size - m

    def count(length):
        c = 0
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                dist = 0.0
                for lag in range(length):
                    dist = max(dist, abs(x[i + lag] - x[j + lag]))
                if dist <= r:
                    c += 1
        return c

    b = count(m)
    a = count(m + 1)
    if a == 0:
        return float("inf")
    return float(-np.log(a / b))


def test_criterion_03_sample_entropy_exact():
    start = time.perf_counter()
    with criterion(3, "sample entropy equals naive pair counting"):
        rng = np.random.default_rng(303)
        for trial in range(100):
            n = int(rng.integers(20, 65))
            x = rng.normal(size=n)
            if trial % 3 == 0:
                x = np.round(x, 1)  # force ties so <= boundaries are exercised
            r = 0.2 * float(np.std(x))
            got = sample_entropy(x, m=2, r=r)
            want = naive_sample_entropy(x, 2, r)
            assert got == want, f"trial {trial}: {got!r} != {want!r}"
            curve = msse_curve(x, m=2, r_frac=0.2, tau_max=1)
            assert curve.shape == (1,)
            assert curve[0] == got
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"took {elapsed:.2f}s, budget 10s"


# -- 4: neighbor-based feature weighting ----------------------------------------


def oracle_feature_weights(values, kinds, labels, k, m_samples, seed):
    """Brute-force weighting: plain loops, stable sorts, prior-odds misses."""
    values = np.asarray(values, dtype=float)
    labels = np.asarray(labels)
    m_rows, n_feat = values.shape

    def feat_diff(f, i, j):
        if kinds[f] == DISCRETE:
            return 0.0 if values[i, f] == values[j, f] else 1.0
        col = values[:, f]
        span = float(col.max() - col.min())
        if span == 0.0:
            return 0.0
        return abs(values[i, f] - values[j, f]) / span

    def distance(i, j):
        total = 0.0
        for f in range(n_feat):
            d = feat_diff(f, i, j)
            total += d * d
        return total

    classes = sorted(set(labels.tolist()))
    count = {c: int((labels == c).sum()) for c in classes}
    prior = {c: count[c] / m_rows for c in classes}

    rng = np.random.default_rng(np.random.SeedSequence(seed))
    visits = []
    while len(visits) < m_samples:
        visits.extend(rng.permutation(m_rows).tolist())
    visits = visits[:m_samples]

    w = np.zeros(n_feat)
    for r in visits:
        c_r = labels[r]
        dists = {j: distance(r, j) for j in range(m_rows)}

        same = sorted((j for j in range(m_rows) if labels[j] == c_r), key=lambda j: dists[j])
        same = [j for j in same if j != r]
        kk = min(k, count[c_r] - 1)
        for hit in same[:kk]:
            for f in range(n_feat):
                w[f] -= feat_diff(f, r, hit) / (m_samples * kk)

        for c in classes:
            if c == c_r:
                continue
            other = sorted((j for j in range(m_rows) if labels[j] == c), key=lambda j: dists[j])
            kk = min(k, count[c])
            factor = prior[c] / (1.0 - prior[c_r])
            for miss in other[:kk]:
                for f in range(n_feat):
                    w[f] += factor * feat_diff(f, r, miss) / (m_samples * kk)
    return w


def random_weight_table(rng, m_rows, n_feat, n_classes):
    kinds = tuple(DISCRETE if rng.random() < 0.3 else CONTINUOUS for _ in range(n_feat))
    cols = [
        rng.integers(0, 3, size=m_rows).astype(float) if kind == DISCRETE else rng.normal(size=m_rows)
        for kind in kinds
    ]
    labels = rng.integers(0, n_classes, size=m_rows)
    while len(set(labels.tolist())) < n_classes:
        labels = rng.integers(0, n_classes, size=m_rows)
    return FeatureTable(
        values=np.column_stack(cols),
        kinds=kinds,
        labels=labels,
        feature_names=tuple(f"f{i}" for i in range(n_feat)),
    )


def informative_table(seed, m_rows=60):
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 2, size=m_rows)
    signal = labels + 0.08 * rng.normal(size=m_rows)
    noise = rng.normal(size=(m_rows, 3))
    return FeatureTable(
        values=np.column_stack([signal, noise]),
        kinds=(CONTINUOUS,) * 4,
        labels=labels,
        feature_names=("signal", "n1", "n2", "n3"),
    )


def test_criterion_04_feature_weighting():
    start = time.perf_counter()
    with criterion(4, "feature weighting matches brute force and finds signal"):
        rng = np.random.default_rng(404)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for _ in range(6):
                m_rows = int(rng.integers(20, 51))
                n_feat = int(rng.integers(3, 7))
                n_classes = int(rng.integers(2, 4))
                table = random_weight_table(rng, m_rows, n_feat, n_classes)
                k = int(rng.integers(3, 9))
                seed = int(rng.integers(0, 100000))
                got = relieff(table, k=k, seed=seed)
                want = oracle_feature_weights(
                    table.values, table.kinds, table.labels, k, table.M, seed
                )
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)
                assert np.all(got >= -1.0) and np.all(got <= 1.0)

                scaled_values = table.values.copy()
                cont = [f for f, kind in enumerate(table.kinds) if kind == CONTINUOUS]
                if cont:
                    scaled_values[:, cont[0]] *= 1024.0
                scaled = FeatureTable(
                    values=scaled_values,
                    kinds=table.kinds,
                    labels=table.labels,
                    feature_names=table.feature_names,
                )
                rerun = relieff(scaled, k=k, seed=seed)
                assert np.array_equal(got, rerun), "not scale invariant"

            hits = 0
            for seed in range(20):
                weights = relieff(informative_table(seed), k=10, seed=seed)
                hits += int(np.argmax(weights) == 0)
            assert hits >= 19, f"signal feature ranked first in only {hits}/20 runs"
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"took {elapsed:.2f}s, budget 60s"


# -- 5: information granulation --------------------------------------------------


def oracle_membership(x, a, m, b):
    if x < a or x > b:
        return 0.0
    if x <= m:
        if m == a:
            return 1.0 if x == m else 0.0
        return (x - a) / (m - a)
    if b == m:
        return 1.0 if x == m else 0.0
    return (b - x) / (b - m)


def test_criterion_05_granulation_exact():
    with criterion(5, "granule parameters and membership"):
        rng = np.random.default_rng(505)
        series = rng.normal(size=1008) + np.sin(np.arange(1008) / 11.0)
        window = 24
        granules = fig_granulate(series, window)
        assert len(granules) == 1008 // window
        for i, g in enumerate(granules):
            chunk = series[i * window : (i + 1) * window]
            assert g.a == float(np.min(chunk))
            assert g.m == float(np.median(chunk))
            assert g.b == float(np.max(chunk))

        g = granules[7]
        span = g.b - g.a
        points = rng.uniform(g.a - 0.5 * span, g.b + 0.5 * span, size=1000)
        for x in points:
            got = membership(float(x), g)
            want = oracle_membership(float(x), g.a, g.m, g.b)
            assert abs(got - want) <= 1e-12, f"membership({x}) = {got}, oracle {want}"


# -- 6: masked attention confinement ---------------------------------------------


def random_adjacency(rng, n, density=0.5):
    upper = np.triu(rng.random((n, n)) < density, k=1)
    adj = (upper | upper.T).astype(float)
    np.fill_diagonal(adj, 1.0)
    return adj


def test_criterion_06_mask_soundness():
    with criterion(6, "graph mask blocks non-adjacent influence"):
        cfg = ModelConfig(
            d_embed=8, lookback=6, horizon=2, c_in=3,
            f_frozen=1, u_unfrozen=1, heads=2, rank=2,
        )
        rng = np.random.default_rng(606)
        blk = build_model(cfg, rng).blocks[-1]
        for trial in range(50):
            n = int(rng.integers(3, 9))
            adj = random_adjacency(rng, n)
            i, j = rng.choice(n, size=2, replace=False)
            adj[i, j] = adj[j, i] = 0.0

            x = rng.normal(size=(n, cfg.width))
            base = graph_attention_block(x, adj, blk, cfg).data
            bumped = x.copy()
            bumped[j] += rng.normal(size=cfg.width)
            out = graph_attention_block(bumped, adj, blk, cfg).data

            delta = np.abs(out - base).max(axis=1)
            assert delta[j] > 1e-8, "perturbed node itself did not move"
            quiet = [q for q in range(n) if q != j and adj[q, j] == 0.0]
            assert i in quiet
            for q in quiet:
                assert delta[q] <= 1e-12, (
                    f"trial {trial}: non-adjacent node {q} moved by {delta[q]:.3e}"
                )


# -- 7 and 8 share a tiny model setup ---------------------------------------------

TINY_MODEL = ModelConfig(
    d_embed=8, lookback=6, horizon=2, c_in=2,
    f_frozen=1, u_unfrozen=1, heads=2, rank=2,
)


def toy_windows(rng, count, n_nodes, cfg):
    hists, targets, hours, dows = [], [], [], []
    for _ in range(count):
        hours.append(int(rng.integers(0, 24)))
        hists.append(rng.normal(size=(cfg.lookback, n_nodes, cfg.c_in)))
        targets.append(rng.normal(size=(cfg.horizon, n_nodes, 1)))
        dows.append(int(rng.integers(0, 7)))
    return Windows(np.stack(hists), np.stack(targets), np.array(hours), np.array(dows))


def test_criterion_07_frozen_tensors_stay_frozen():
    with criterion(7, "frozen tensors bit-identical after 50 steps"):
        rng = np.random.default_rng(707)
        n_nodes = 4
        model = build_model(TINY_MODEL, rng)
        freeze_and_adapt(model, rng, freeze_mode="partial")

        frozen_before = {
            name: t.data.copy()
            for name, t in model.named_parameters()
            if not t.requires_grad
        }
        assert frozen_before, "partial freeze left nothing frozen"
        head_before = model.head_w.data.copy()

        graph = StationGraph(
            tuple(f"s{i}" for i in range(n_nodes)), random_adjacency(rng, n_nodes)
        )
        train = toy_windows(rng, 25, n_nodes, TINY_MODEL)
        valid = toy_windows(rng, 5, n_nodes, TINY_MODEL)
        # 25 samples at batch 5 is 5 steps per epoch; 10 epochs = 50 steps
        fit(
            model, train, valid, graph,
            TrainConfig(learning_rate=0.02, max_epochs=10, batch_size=5, seed=7,
                        freeze_mode="partial"),
            LossConfig(),
        )

        assert not np.array_equal(model.head_w.data, head_before), "training had no effect"
        for name, t in model.named_parameters():
            if name in frozen_before:
                assert not t.requires_grad
                assert t.data.tobytes() == frozen_before[name].tobytes(), (
                    f"frozen tensor {name} changed during training"
                )
        want = trainable_parameter_count(TINY_MODEL, "partial")
        assert model.trainable_count() == want


def test_criterion_08_gradient_check():
    start = time.perf_counter()
    with criterion(8, "analytic gradients match central differences"):
        rng = np.random.default_rng(808)
        n_nodes = 4
        batch = 3
        model = build_model(TINY_MODEL, rng)
        freeze_and_adapt(model, rng, freeze_mode="partial")
        # nudge every trainable tensor off its initial value so zero-initialized
        # adapter factors get nonzero gradients and the check is not vacuous
        for _, t in model.trainable_parameters():
            t.data = t.data + 0.05 * rng.normal(size=t.data.shape)

        adj = random_adjacency(rng, n_nodes)
        hist = rng.normal(size=(batch, TINY_MODEL.lookback, n_nodes, TINY_MODEL.c_in))
        hours = rng.integers(0, 24, size=batch)
        dows = rng.integers(0, 7, size=batch)
        base_pred = forward_batch(model, hist, hours, dows, adj).data
        # keep every residual well away from the |.| kink at zero
        target = base_pred + rng.uniform(0.5, 1.5, size=base_pred.shape)
        loss_cfg = LossConfig(lambda_freq=0.1)

        def loss_value():
            out = forward_batch(model, hist, hours, dows, adj)
            return float(combined_loss(out, target, loss_cfg).data)

        out = forward_batch(model, hist, hours, dows, adj)
        combined_loss(out, target, loss_cfg).backward()
        grads = {
            name: (t.grad.copy() if t.grad is not None else np.zeros_like(t.data))
            for name, t in model.trainable_parameters()
        }

        step = 1e-5
        worst = 0.0
        checked = 0
        for name, t in model.trainable_parameters():
            flat = t.data.reshape(-1)
            g = grads[name].reshape(-1)
            for idx in range(flat.size):
                orig = flat[idx]
                flat[idx] = orig + step
                up = loss_value()
                flat[idx] = orig - step
                down = loss_value()
                flat[idx] = orig
                numeric = (up - down) / (2 * step)
                analytic = g[idx]
                scale = max(abs(analytic), abs(numeric))
                if scale < 1e-6:
                    assert abs(analytic - numeric) < 1e-6
                else:
                    rel = abs(analytic - numeric) / scale
                    worst = max(worst, rel)
                    assert rel <= 1e-4, (
                        f"{name}[{idx}]: analytic {analytic:.6e} vs numeric {numeric:.6e}"
                    )
                checked += 1
        assert checked == model.trainable_count()
        elapsed = time.perf_counter() - start
        assert elapsed < 120.0, f"took {elapsed:.2f}s, budget 120s"


# -- 9: 4-bit quantization bounds -------------------------------------------------


def test_criterion_09_quantization_bounds():
    with criterion(9, "4-bit roundtrip error bound and idempotence"):
        codebook_gap = float(np.max(np.diff(NF4_CODEBOOK)))
        rng = np.random.default_rng(909)
        x = rng.normal(size=100_000)
        qt = quantize(x)
        y = dequantize(qt)
        assert y.shape == x.shape

        block = BLOCK_SIZE
        n_blocks = -(-x.size // block)
        for b in range(n_blocks):
            lo, hi = b * block, min((b + 1) * block, x.size)
            err = float(np.max(np.abs(x[lo:hi] - y[lo:hi])))
            absmax = float(np.max(np.abs(x[lo:hi])))
            scale_slack = float(qt.scale_step[b // SUPERBLOCK])
            bound = absmax * codebook_gap / 2 + scale_slack / 2
            assert err <= bound + 1e-12, (
                f"block {b}: error {err:.3e} over bound {bound:.3e}"
            )

        # codebook-valued data with a pinned per-block absmax roundtrips exactly
        vals = NF4_CODEBOOK[rng.integers(0, NF4_CODEBOOK.size, size=4096)] * 3.0
        vals[::block] = 3.0
        once = dequantize(quantize(vals))
        assert np.array_equal(once, vals)
        twice = dequantize(quantize(once))
        assert np.array_equal(twice, once)


# -- 10: objectives and metrics ---------------------------------------------------


def naive_frequency_term(pred, truth):
    diff = np.asarray(pred) - np.asarray(truth)
    if diff.ndim == 3:
        diff = diff[None]
    b, s, n, _ = diff.shape
    total = 0.0
    count = 0
    for bi in range(b):
        for ni in range(n):
            seq = diff[bi, :, ni, 0]
            for k in range(s):
                acc = 0.0 + 0.0j
                for t in range(s):
                    acc += seq[t] * np.exp(-2j * math.pi * k * t / s)
                total += abs(acc)
                count += 1
    return total / count


def test_criterion_10_losses_and_metrics():
    with criterion(10, "loss identities and exact metrics"):
        rng = np.random.default_rng(1010)
        pred = rng.normal(size=(4, 6, 3, 1))
        truth = rng.normal(size=(4, 6, 3, 1))

        lam_zero = combined_loss(Tensor(pred), truth, LossConfig(lambda_freq=0.0))
        plain = mae_loss(Tensor(pred), Tensor(truth))
        assert float(lam_zero.data) == float(plain.data)

        got = float(frequency_loss(Tensor(pred), Tensor(truth)).data)
        assert abs(got - naive_frequency_term(pred, truth)) < 1e-9

        square = metrics(np.array([0.0, 0.0]), np.array([3.0, 4.0]))
        assert square["rmse"] == math.sqrt(12.5)
        assert square["mae"] == 3.5
        ratio = metrics(np.array([11.0]), np.array([10.0]))
        assert ratio["mape"] == 0.1


# -- 11: end-to-end skill and ablations -------------------------------------------

LIGHT_CHANNELS = ChannelConfig(
    decompose=DecomposeConfig(
        vmd=VmdConfig(K=4, alpha=200.0), ensemble_n=8, noise_amp=0.1
    ),
    granule_windows=(24,),
    relieff_k=10,
    top_n=0,
)

LIGHT_MODEL = ModelConfig(
    d_embed=8, lookback=8, horizon=3, c_in=6,
    f_frozen=1, u_unfrozen=1, heads=2, rank=2,
)


def windowed_dataset(seed):
    data = generate(seed, n_stations=8, days=60, graph_density=0.5, noise_amp=0.1)
    graph = StationGraph(data.node_ids, data.adjacency)
    series = SeriesTensor(data.values[:, :, None])
    calendar = apply_holidays(CalendarFrame(data.timestamps), data.holidays)
    assembled = assemble_channels(series, calendar, seed, LIGHT_CHANNELS)
    assert assembled.series.C == LIGHT_MODEL.c_in

    return (graph,) + split_windows(assembled.series, calendar, LIGHT_MODEL.lookback, LIGHT_MODEL.horizon)


def test_criterion_11_forecast_skill_and_ablations(tmp_path):
    start = time.perf_counter()
    with criterion(11, "beats persistence and both ablations in median"):
        backbone_path = str(tmp_path / "backbone.npz")
        graph, train_w, valid_w, _ = windowed_dataset(8999)
        backbone = build_model(LIGHT_MODEL, seeds.substream(8999, "model.init"))
        fit(
            backbone, train_w, valid_w, graph,
            TrainConfig(learning_rate=0.02, max_epochs=6, batch_size=64, seed=8999,
                        freeze_mode="none"),
            LossConfig(),
        )
        save_checkpoint(backbone, backbone_path)

        variants = {
            "full": dict(mask=True, lambda_freq=0.1),
            "unmasked": dict(mask=False, lambda_freq=0.1),
            "time_only": dict(mask=True, lambda_freq=0.0),
        }
        run_seeds = (211, 212, 213, 214, 215)
        maes = {name: [] for name in variants}
        baselines = []
        for seed in run_seeds:
            graph, train_w, valid_w, test_w = windowed_dataset(seed)
            for name, flags in variants.items():
                model = load_checkpoint(backbone_path)
                freeze_and_adapt(
                    model, seeds.substream(seed, f"adapt.{name}"),
                    freeze_mode="partial", use_graph_mask=flags["mask"],
                )
                fit(
                    model, train_w, valid_w, graph,
                    TrainConfig(learning_rate=0.02, max_epochs=15, batch_size=64,
                                seed=seed, freeze_mode="partial"),
                    LossConfig(lambda_freq=flags["lambda_freq"]),
                )
                report = evaluate(model, test_w, graph)
                maes[name].append(report.aggregate["mae"])
                if name == "full":
                    baselines.append(report.baseline["mae"])

        full = median(maes["full"])
        persistence = median(baselines)
        print(
            f"  median MAE full={full:.4f} persistence={persistence:.4f} "
            f"unmasked={median(maes['unmasked']):.4f} time_only={median(maes['time_only']):.4f}",
            flush=True,
        )
        print(f"  per-seed test MAE, seeds {', '.join(map(str, run_seeds))}:", flush=True)
        for name, values in (*maes.items(), ("persistence", baselines)):
            print(f"    {name:<11} " + " ".join(f"{v:.4f}" for v in values), flush=True)
        assert full <= 0.85 * persistence, (
            f"full model {full:.4f} not 15% under persistence {persistence:.4f}"
        )
        assert full <= median(maes["unmasked"]), "graph mask did not help"
        assert full <= median(maes["time_only"]), "frequency term did not help"
        elapsed = time.perf_counter() - start
        assert elapsed < 600.0, f"took {elapsed:.1f}s, budget 600s"


# -- 12: whole-pipeline determinism ------------------------------------------------

PIPELINE_INI = """[synth]
stations = 4
days = 30
density = 0.5
noise_amp = 0.1

[vmd]
k = 4
alpha = 200.0

[iceemdan]
ensemble_n = 8

[fig]
windows = 24

[relieff]
k = 10
top_n = 0

[model]
d_embed = 8
heads = 2
rank = 2
f_frozen = 1
u_unfrozen = 1
lookback = 8
horizon = 3

[train]
learning_rate = 0.02
max_epochs = 10
pretrain_epochs = 4
batch_size = 64
"""


def run_cli(args, cwd):
    proc = subprocess.run(
        [sys.executable, "-m", "chargecast", *args],
        cwd=cwd, env=child_env(), capture_output=True, text=True,
    )
    assert proc.returncode == 0, f"{args} failed:\n{proc.stdout}\n{proc.stderr}"


def test_criterion_12_pipeline_determinism(tmp_path):
    with criterion(12, "repeated pipeline runs are byte-identical"):
        outputs = []
        for run in ("a", "b"):
            root = tmp_path / run
            root.mkdir()
            (root / "pipeline.ini").write_text(PIPELINE_INI)
            base = ["--config", "pipeline.ini", "--seed", "11", "--out-dir", "."]
            for command in ("synth", "pretrain", "train", "evaluate"):
                run_cli([command, *base], cwd=root)
            outputs.append((root / "metrics.json").read_bytes())
        assert outputs[0] == outputs[1], "metrics.json differs between identical runs"
        parsed = json.loads(outputs[0])
        assert set(parsed) == {"aggregate", "per_step", "persistence_baseline"}
