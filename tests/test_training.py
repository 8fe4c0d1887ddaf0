"""Tests for the Adam optimizer, the fit loop, and the evaluation report."""

import tracemalloc

import numpy as np
import pytest

import chargecast.training as training_module
from chargecast.autodiff import Tensor, no_grad
from chargecast.domain import CalendarFrame, SeriesTensor, StationGraph, Windows, make_windows
from chargecast.errors import ConfigError, DataError, NumericError
from chargecast.losses import LossConfig, metrics
from chargecast.model import ModelConfig, build_model, forward_batch, freeze_and_adapt
from chargecast.training import (
    Adam,
    TrainConfig,
    evaluate,
    fit,
    persistence_forecast,
)

CFG = ModelConfig(
    d_embed=8,
    lookback=4,
    horizon=2,
    c_in=1,
    f_frozen=1,
    u_unfrozen=1,
    heads=2,
    rank=2,
)
N_NODES = 3


def toy_samples(rng, count):
    """Windows whose targets are a fixed multiple of the last observed value."""
    hists, targets, hours, dows = [], [], [], []
    for _ in range(count):
        hist = rng.normal(size=(CFG.lookback, N_NODES, CFG.c_in))
        last = hist[-1, :, 0]
        hists.append(hist)
        targets.append(np.repeat(0.8 * last[None, :, None], CFG.horizon, axis=0))
        hours.append(rng.integers(0, 24, size=CFG.lookback)[-1])
        dows.append(rng.integers(0, 7, size=CFG.lookback)[-1])
    return Windows(np.stack(hists), np.stack(targets), np.array(hours), np.array(dows))


def persistence_reference(windows):
    """Loop form of the persistence forecast, one window at a time."""
    preds = []
    for hist, target in zip(windows.history, windows.target):
        last = hist[-1, :, 0]  # (N,)
        preds.append(np.repeat(last[None, :, None], target.shape[0], axis=0))
    return np.stack(preds)


def toy_graph():
    return StationGraph([f"s{k}" for k in range(N_NODES)], np.ones((N_NODES, N_NODES)))


def random_windows(rng, cfg, count, n_nodes):
    return Windows(
        history=rng.normal(size=(count, cfg.lookback, n_nodes, cfg.c_in)),
        target=rng.normal(size=(count, cfg.horizon, n_nodes, 1)),
        hours=rng.integers(0, 24, size=count),
        dows=rng.integers(0, 7, size=count),
    )


@pytest.fixture(scope="module")
def fit_epoch_peak():
    """tracemalloc peak in bytes of one fit epoch of the default model on six channels
    and eight stations: three training batches of 64 windows and 64 validation windows."""
    cfg = ModelConfig(c_in=6)
    n_nodes = 8
    rng = np.random.default_rng(70)
    model = build_model(cfg, rng)
    graph = StationGraph([f"s{k}" for k in range(n_nodes)], np.ones((n_nodes, n_nodes)))
    train = random_windows(rng, cfg, 3 * 64, n_nodes)
    valid = random_windows(rng, cfg, 64, n_nodes)
    tracemalloc.start()
    try:
        fit(model, train, valid, graph, TrainConfig(max_epochs=1, batch_size=64), LossConfig())
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def acting_model(cfg, seed, freeze_mode):
    """A model in the given mode whose adapters, if any, have nonzero up factors."""
    rng = np.random.default_rng(seed)
    model = build_model(cfg, rng)
    freeze_and_adapt(model, rng, freeze_mode=freeze_mode)
    for blk in model.blocks:
        if blk.adapters is not None:
            blk.adapters.m_q.data = rng.normal(size=blk.adapters.m_q.shape) * 0.1
            blk.adapters.m_v.data = rng.normal(size=blk.adapters.m_v.shape) * 0.1
    return model


class TestTrainConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ConfigError, match="learning_rate"):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(ConfigError, match="max_epochs"):
            TrainConfig(max_epochs=0)
        with pytest.raises(ConfigError, match="freeze_mode"):
            TrainConfig(freeze_mode="solid")


class TestAdam:
    def test_single_step_matches_hand_update(self):
        p = Tensor(np.array([1.0, -2.0, 0.5]), requires_grad=True)
        g = np.array([0.3, -0.1, 2.0])
        p.grad = g.copy()
        opt = Adam([p], lr=0.1)
        opt.step()
        # first step: bias-corrected moments collapse to g and g*g
        want = np.array([1.0, -2.0, 0.5]) - 0.1 * g / (np.abs(g) + 1e-8)
        assert np.allclose(p.data, want, rtol=0.0, atol=1e-15)

    def test_two_steps_match_reference_loop(self):
        start = np.array([0.4, -1.2])
        grads = [np.array([1.0, -0.5]), np.array([-0.2, 0.7])]
        lr, b1, b2, eps = 0.05, 0.9, 0.999, 1e-8

        x = start.copy()
        m = np.zeros(2)
        v = np.zeros(2)
        for t, g in enumerate(grads, start=1):
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            x = x - lr * (m / (1 - b1**t)) / (np.sqrt(v / (1 - b2**t)) + eps)

        p = Tensor(start.copy(), requires_grad=True)
        opt = Adam([p], lr=lr)
        for g in grads:
            p.grad = g.copy()
            opt.step()
        assert np.allclose(p.data, x, rtol=0.0, atol=1e-15)

    def test_missing_grad_means_no_movement(self):
        p = Tensor(np.array([3.0]), requires_grad=True)
        opt = Adam([p], lr=0.1)
        opt.step()
        assert np.array_equal(p.data, np.array([3.0]))


def quick_cfg(**kw):
    base = dict(
        learning_rate=0.02,
        max_epochs=12,
        batch_size=8,
        seed=5,
        freeze_mode="none",
    )
    base.update(kw)
    return TrainConfig(**base)


class TestFit:
    def test_log_shape_and_learning_progress(self):
        rng = np.random.default_rng(40)
        train = toy_samples(rng, 24)
        valid = toy_samples(rng, 8)
        model = build_model(CFG, np.random.default_rng(41))
        result = fit(model, train, valid, toy_graph(), quick_cfg(max_epochs=25), LossConfig())
        assert len(result.log) == 25
        assert [e for e, _, _ in result.log] == list(range(1, 26))
        assert result.best_valid_mae < result.log[0][2]
        assert result.best_epoch == min(result.log, key=lambda row: row[2])[0]

    def test_best_state_is_restored(self):
        rng = np.random.default_rng(42)
        train = toy_samples(rng, 24)
        valid = toy_samples(rng, 8)
        model = build_model(CFG, np.random.default_rng(43))
        result = fit(model, train, valid, toy_graph(), quick_cfg(), LossConfig())
        with no_grad():  # the path fit's validation pass takes
            pred = forward_batch(model, valid.history, valid.hours, valid.dows, toy_graph().adjacency)
        mae = float(np.mean(np.abs(pred.data - valid.target)))
        assert mae == result.best_valid_mae

    def test_same_seed_bitwise_reproducible(self):
        rng = np.random.default_rng(44)
        train = toy_samples(rng, 24)
        valid = toy_samples(rng, 8)
        logs = []
        finals = []
        for _ in range(2):
            model = build_model(CFG, np.random.default_rng(45))
            result = fit(model, train, valid, toy_graph(), quick_cfg(max_epochs=6), LossConfig())
            logs.append(result.log)
            finals.append({n: t.data.copy() for n, t in model.named_parameters()})
        assert logs[0] == logs[1]
        for name in finals[0]:
            assert np.array_equal(finals[0][name], finals[1][name]), name

    def test_shuffle_seed_changes_the_path(self):
        rng = np.random.default_rng(46)
        train = toy_samples(rng, 24)
        valid = toy_samples(rng, 8)
        logs = []
        for seed in (1, 2):
            model = build_model(CFG, np.random.default_rng(47))
            result = fit(
                model, train, valid, toy_graph(), quick_cfg(max_epochs=4, seed=seed), LossConfig()
            )
            logs.append(result.log)
        assert logs[0] != logs[1]

    def test_partial_mode_leaves_frozen_tensors_untouched(self):
        rng = np.random.default_rng(48)
        train = toy_samples(rng, 24)
        valid = toy_samples(rng, 8)
        model = build_model(CFG, np.random.default_rng(49))
        freeze_and_adapt(model, np.random.default_rng(50), freeze_mode="partial")
        frozen_before = {
            n: t.data.copy() for n, t in model.named_parameters() if not t.requires_grad
        }
        head_before = model.head_w.data.copy()
        fit(model, train, valid, toy_graph(), quick_cfg(freeze_mode="partial"), LossConfig())
        for n, t in model.named_parameters():
            if n in frozen_before:
                assert np.array_equal(t.data, frozen_before[n]), n
        assert not np.array_equal(model.head_w.data, head_before)

    def test_lambda_freq_changes_the_training_path(self):
        rng = np.random.default_rng(51)
        train = toy_samples(rng, 16)
        valid = toy_samples(rng, 6)
        logs = []
        for lam in (0.0, 0.4):
            model = build_model(CFG, np.random.default_rng(52))
            result = fit(model, train, valid, toy_graph(), quick_cfg(max_epochs=4), LossConfig(lam))
            logs.append(result.log)
        assert logs[0] != logs[1]

    def test_non_finite_loss_names_the_epoch(self):
        rng = np.random.default_rng(55)
        train = toy_samples(rng, 16)
        valid = toy_samples(rng, 6)
        train.history[3, 0, 0, 0] = np.nan
        model = build_model(CFG, np.random.default_rng(56))
        with pytest.raises(NumericError, match="epoch 1"):
            fit(model, train, valid, toy_graph(), quick_cfg(max_epochs=3), LossConfig())

    def test_non_finite_validation_error_names_the_epoch(self):
        rng = np.random.default_rng(55)
        train = toy_samples(rng, 16)
        valid = toy_samples(rng, 6)
        valid.target[2, 1, 0, 0] = np.inf
        model = build_model(CFG, np.random.default_rng(56))
        with pytest.raises(NumericError, match="non-finite validation error at epoch 1"):
            fit(model, train, valid, toy_graph(), quick_cfg(max_epochs=3), LossConfig())

    def test_empty_sets_rejected(self):
        rng = np.random.default_rng(57)
        model = build_model(CFG, np.random.default_rng(58))
        with pytest.raises(DataError, match="non-empty"):
            fit(model, [], toy_samples(rng, 3), toy_graph(), quick_cfg(), LossConfig())
        with pytest.raises(DataError, match="non-empty"):
            fit(model, toy_samples(rng, 3), [], toy_graph(), quick_cfg(), LossConfig())

    def test_training_step_memory_stays_bounded(self, fit_epoch_peak):
        """backward() consumes its tape, so a step never holds the previous step's tape."""
        assert fit_epoch_peak < 80 * 2**20, f"a fit epoch peaked at {fit_epoch_peak / 2**20:.1f} MB"

    def test_fit_epoch_memory_with_fused_nodes(self, fit_epoch_peak):
        """The tape keeps no FFN pre-activation, residual sum, score chain or unmerged heads,
        a block keeps only its attention weights and ReLU mask (not its layer norms, x1, q,
        k, v or hidden layer), and validation runs 64 windows per pass: 23.1 MiB, against
        29.3 MiB when a block kept q, k, v and its hidden layer."""
        assert fit_epoch_peak < 26 * 2**20, f"a fit epoch peaked at {fit_epoch_peak / 2**20:.1f} MiB"

    def test_validation_runs_in_eval_chunks(self, monkeypatch):
        """The validation pass takes at most _EVAL_CHUNK windows per forward, and its chunk
        size does not change the log."""
        cfg = ModelConfig(c_in=2)
        rng = np.random.default_rng(75)
        train, valid = random_windows(rng, cfg, 16, 8), random_windows(rng, cfg, 23, 8)
        graph = StationGraph([f"s{k}" for k in range(8)], np.ones((8, 8)))
        valid_sizes = []

        def recorded(model, hist, *rest):
            out = forward_batch(model, hist, *rest)
            if not out.requires_grad:  # a tape-free pass: validation
                valid_sizes.append(len(hist))
            return out

        logs = []
        for chunk in (256, 5):
            monkeypatch.setattr(training_module, "_EVAL_CHUNK", chunk)
            monkeypatch.setattr(training_module, "forward_batch", recorded)
            model = acting_model(cfg, 76, "partial")
            logs.append(fit(model, train, valid, graph, TrainConfig(max_epochs=2, batch_size=8), LossConfig()).log)
        assert logs[0] == logs[1]
        assert valid_sizes == [23] * 2 + [5, 5, 5, 5, 3] * 2


class TestPersistence:
    def test_repeats_last_observed_value(self):
        rng = np.random.default_rng(60)
        samples = toy_samples(rng, 4)
        pred = persistence_forecast(samples)
        assert pred.shape == (4, CFG.horizon, N_NODES, 1)
        for k, hist in enumerate(samples.history):
            last = hist[-1, :, 0]
            for step in range(CFG.horizon):
                assert np.array_equal(pred[k, step, :, 0], last)

    def test_toy_targets_make_persistence_strong(self):
        # targets are 0.8 * last value, so persistence errs by exactly 0.2 |last|
        rng = np.random.default_rng(61)
        samples = toy_samples(rng, 50)
        pred = persistence_forecast(samples)
        err = np.abs(pred - samples.target)
        lasts = np.abs(0.2 * samples.history[:, -1, :, 0])
        assert np.allclose(err[:, 0, :, 0], lasts, atol=1e-12)

    @pytest.mark.parametrize("p, s", [(1, 1), (4, 3), (7, 2)])
    def test_matches_loop_reference_on_series_windows(self, p, s):
        vals = np.random.default_rng(62).normal(size=(30, 3, 2))
        stamps = np.datetime64("2024-01-01T00", "h") + np.arange(30).astype("timedelta64[h]")
        windows = make_windows(SeriesTensor(vals), CalendarFrame(stamps), p, s)
        pred = persistence_forecast(windows)
        assert pred.shape == (30 - p - s + 1, s, 3, 1)
        assert np.array_equal(pred, persistence_reference(windows))
        assert pred.flags.writeable and not np.shares_memory(pred, windows.history)


class TestEvaluate:
    def test_report_structure_and_consistency(self):
        rng = np.random.default_rng(62)
        samples = toy_samples(rng, 10)
        model = build_model(CFG, np.random.default_rng(63))
        report = evaluate(model, samples, toy_graph())
        assert len(report.per_step) == CFG.horizon
        assert report.predictions.shape == (10, CFG.horizon, N_NODES, 1)
        again = metrics(report.predictions, report.truths)
        assert report.aggregate == again
        base = metrics(persistence_forecast(samples), report.truths)
        assert report.baseline == base
        d = report.as_json_dict()
        assert set(d) == {"aggregate", "per_step", "persistence_baseline"}

    @staticmethod
    def evaluate_in_chunks(monkeypatch, chunk, *args):
        monkeypatch.setattr(training_module, "_EVAL_CHUNK", chunk)
        return evaluate(*args)

    def test_chunking_does_not_change_results(self, monkeypatch):
        rng = np.random.default_rng(64)
        samples = toy_samples(rng, 9)
        model = build_model(CFG, np.random.default_rng(65))
        small = self.evaluate_in_chunks(monkeypatch, 2, model, samples, toy_graph())
        big = self.evaluate_in_chunks(monkeypatch, 500, model, samples, toy_graph())
        assert np.array_equal(small.predictions, big.predictions)
        assert small.aggregate == big.aggregate

    @pytest.mark.parametrize("freeze_mode", ["none", "partial"])
    def test_one_station_chunking_does_not_change_results(self, monkeypatch, freeze_mode):
        """One row per window: chunk 1 must not take a one-row product the others do not."""
        cfg = ModelConfig(c_in=2)
        samples = random_windows(np.random.default_rng(71), cfg, 37, 1)
        model = acting_model(cfg, 72, freeze_mode)
        graph = StationGraph(["s0"], np.ones((1, 1)))
        reports = [self.evaluate_in_chunks(monkeypatch, c, model, samples, graph) for c in (1, 2, len(samples))]
        for report in reports[1:]:
            assert np.array_equal(report.predictions, reports[0].predictions)
            assert report.aggregate == reports[0].aggregate

    @pytest.mark.parametrize("horizon", [3, 8, 12])
    def test_ragged_last_chunk_does_not_change_results(self, monkeypatch, horizon):
        """600 windows one at a time (as forecast runs) and in chunks that do not divide
        it, with head widths 3, 8 and 12."""
        cfg = ModelConfig(c_in=3, horizon=horizon)
        samples = random_windows(np.random.default_rng(73), cfg, 600, 8)
        model = acting_model(cfg, 74, "partial")
        graph = StationGraph([f"s{k}" for k in range(8)], np.ones((8, 8)))
        reports = [self.evaluate_in_chunks(monkeypatch, c, model, samples, graph) for c in (1, 7, 256, len(samples))]
        for report in reports[1:]:
            assert np.array_equal(report.predictions, reports[0].predictions)

    def test_empty_test_set_rejected(self):
        model = build_model(CFG, np.random.default_rng(66))
        with pytest.raises(DataError, match="non-empty"):
            evaluate(model, [], toy_graph())

    def test_memory_stays_bounded_without_a_tape(self):
        """Inference keeps no tape, so a chunk's intermediates die with it, and a block
        drops q, k, v and its hidden layer as soon as it has used them: 1024 windows in
        chunks of _EVAL_CHUNK (64) peak at 3.1 MiB, against 15.7 MiB in chunks of 256
        when a block held all four to its end."""
        cfg = ModelConfig(c_in=6)
        n_nodes = 8
        rng = np.random.default_rng(69)
        model = build_model(cfg, rng)
        freeze_and_adapt(model, rng, freeze_mode="partial")
        samples = Windows(
            history=rng.normal(size=(1024, cfg.lookback, n_nodes, cfg.c_in)),
            target=rng.normal(size=(1024, cfg.horizon, n_nodes, 1)),
            hours=rng.integers(0, 24, size=1024),
            dows=rng.integers(0, 7, size=1024),
        )
        graph = StationGraph([f"s{k}" for k in range(n_nodes)], np.ones((n_nodes, n_nodes)))
        tracemalloc.start()
        try:
            evaluate(model, samples, graph)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * 2**20, f"evaluate peaked at {peak / 2**20:.1f} MiB"
