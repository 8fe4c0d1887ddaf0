"""Tests for model-input channel assembly."""

import multiprocessing
import os
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

import chargecast.channels as channels_module
from chargecast.bands import DecomposeConfig
from chargecast.channels import ChannelConfig, assemble_channels, build_feature_table, channel_counts
from chargecast.domain import CalendarFrame, SeriesTensor
from chargecast.errors import ConfigError, DataError, NumericError
from chargecast.vmd import VmdConfig

LIGHT = DecomposeConfig(vmd=VmdConfig(K=4, alpha=200.0), ensemble_n=4, noise_amp=0.1)


def toy_inputs(t_len=96, n=2, seed=0, holidays=True):
    rng = np.random.default_rng(seed)
    t = np.arange(t_len)
    base = 3.0 + np.sin(2 * np.pi * t / 24.0)[:, None] * rng.uniform(0.5, 1.5, n)
    values = base + 0.05 * rng.normal(size=(t_len, n))
    series = SeriesTensor(values[:, :, None])
    stamps = np.datetime64("2024-01-01T00") + np.arange(t_len).astype("timedelta64[h]")
    flag = None
    if holidays:
        flag = np.zeros(t_len, dtype=int)
        flag[24:48] = 1
    calendar = CalendarFrame(stamps, flag)
    return series, calendar


def exog_channels(out):
    return [name for name in out.channel_names if name.startswith("exog_")]


def light_cfg(**kw):
    base = dict(decompose=LIGHT, granule_windows=(24,), relieff_k=5, top_n=2)
    base.update(kw)
    return ChannelConfig(**base)


class TestChannelOrder:
    def test_full_stack_names_in_contract_order(self):
        series, calendar = toy_inputs()
        out = assemble_channels(series, calendar, seed=3, cfg=light_cfg())
        assert out.channel_names == ("denoised", "band_high", "band_mid", "band_low", "granule24", "holiday")
        assert out.series.values.shape == (96, 2, 6)
        assert channel_counts(light_cfg(), 0) == (0, 6)

    def test_denoised_is_channel_zero(self):
        series, calendar = toy_inputs()
        out = assemble_channels(series, calendar, seed=3, cfg=light_cfg())
        den = out.series.values[:, :, 0]
        raw = series.values[:, :, 0]
        assert den.shape == raw.shape
        for i in range(series.N):
            corr = np.corrcoef(den[:, i], raw[:, i])[0, 1]
            assert corr > 0.9

    def test_two_granule_windows(self):
        series, calendar = toy_inputs()
        cfg = light_cfg(granule_windows=(12, 24))
        out = assemble_channels(series, calendar, seed=3, cfg=cfg)
        assert out.channel_names[4:] == ("granule12", "granule24", "holiday")
        assert channel_counts(cfg, 0) == (0, 7)

    def test_holiday_channel_repeats_flag(self):
        series, calendar = toy_inputs()
        out = assemble_channels(series, calendar, seed=3, cfg=light_cfg())
        hol = out.series.values[:, :, out.channel_names.index("holiday")]
        for i in range(series.N):
            assert np.array_equal(hol[:, i], calendar.holiday_flag.astype(float))


class TestExogenousSelection:
    def test_selected_exogenous_become_trailing_channels(self):
        series, calendar = toy_inputs()
        rng = np.random.default_rng(9)
        target_mean = series.values[:, :, 0].mean(axis=1)
        exog = {
            "temp": target_mean + 0.01 * rng.normal(size=96),
            "noise_a": rng.normal(size=96),
            "noise_b": rng.normal(size=96),
        }
        out = assemble_channels(series, calendar, seed=3, cfg=light_cfg(top_n=1), exogenous=exog)
        assert exog_channels(out) == ["exog_temp"]
        assert out.channel_names[-1] == "exog_temp"
        assert channel_counts(light_cfg(top_n=1), len(exog)) == (1, out.series.C)
        assert out.weights is not None

    def test_holiday_never_selected_as_exogenous(self):
        series, calendar = toy_inputs()
        rng = np.random.default_rng(10)
        exog = {"z": rng.normal(size=96)}
        out = assemble_channels(series, calendar, seed=3, cfg=light_cfg(top_n=3), exogenous=exog)
        assert exog_channels(out) == ["exog_z"]
        assert channel_counts(light_cfg(top_n=3), len(exog)) == (1, out.series.C)

    def test_one_dim_exogenous_broadcasts_to_all_stations(self):
        series, calendar = toy_inputs()
        rng = np.random.default_rng(11)
        exog = {"drv": rng.normal(size=96)}
        out = assemble_channels(series, calendar, seed=3, cfg=light_cfg(top_n=1), exogenous=exog)
        col = out.series.values[:, :, out.channel_names.index("exog_drv")]
        assert np.array_equal(col[:, 0], col[:, 1])

    def test_two_dim_exogenous_kept_per_station(self):
        series, calendar = toy_inputs()
        rng = np.random.default_rng(12)
        exog = {"drv": rng.normal(size=(96, 2))}
        out = assemble_channels(series, calendar, seed=3, cfg=light_cfg(top_n=1), exogenous=exog)
        col = out.series.values[:, :, out.channel_names.index("exog_drv")]
        assert np.array_equal(col, exog["drv"])

    def test_wrong_length_exogenous_is_an_error(self):
        series, calendar = toy_inputs()
        exog = {"short": np.zeros(40)}
        with pytest.raises(DataError, match="short"):
            assemble_channels(series, calendar, seed=3, cfg=light_cfg(top_n=1), exogenous=exog)

    @pytest.mark.parametrize("shape", [(96, 5), (96, 1), (96, 2, 1)], ids=["five_columns", "one_column", "three_dims"])
    def test_misshapen_exogenous_fails_before_decomposition(self, monkeypatch, shape):
        """A column count other than one per station fails whether or not ReliefF would pick it."""
        def refuse(jobs):
            raise AssertionError("stations were decomposed")

        monkeypatch.setattr(channels_module, "_decompose_stations", refuse)
        series, calendar = toy_inputs()
        exog = {"temp": np.zeros(96), "wide": np.zeros(shape)}
        with pytest.raises(DataError, match="'wide' has shape"):
            assemble_channels(series, calendar, seed=3, cfg=light_cfg(top_n=1), exogenous=exog)

    def test_no_exogenous_means_no_ranking(self):
        series, calendar = toy_inputs()
        out = assemble_channels(series, calendar, seed=3, cfg=light_cfg())
        assert out.weights is None
        assert exog_channels(out) == []


class TestFeatureTable:
    def test_columns_sorted_by_name_with_holiday_last(self):
        t_len = 50
        rng = np.random.default_rng(13)
        target = rng.normal(size=t_len)
        exog = {"b": rng.normal(size=t_len), "a": rng.normal(size=(t_len, 3))}
        flag = (rng.random(t_len) < 0.2).astype(float)
        table = build_feature_table(target, exog, flag)
        assert table.feature_names == ("a", "b", "holiday")
        assert np.array_equal(table.values[:, 1], exog["b"])
        assert np.allclose(table.values[:, 0], exog["a"].mean(axis=1))
        assert np.array_equal(table.values[:, 2], flag)

    def test_labels_are_quartile_bins(self):
        target = np.arange(100, dtype=float)
        table = build_feature_table(target, {}, np.zeros(100))
        assert set(np.unique(table.labels)) == {0, 1, 2, 3}
        counts = np.bincount(table.labels)
        assert np.all(np.abs(counts - 25) <= 1)


class TestDeterminism:
    def test_same_seed_bitwise_identical(self):
        series, calendar = toy_inputs()
        a = assemble_channels(series, calendar, seed=21, cfg=light_cfg())
        b = assemble_channels(series, calendar, seed=21, cfg=light_cfg())
        assert np.array_equal(a.series.values, b.series.values)

    def test_different_seed_changes_decomposition(self):
        series, calendar = toy_inputs()
        a = assemble_channels(series, calendar, seed=21, cfg=light_cfg())
        b = assemble_channels(series, calendar, seed=22, cfg=light_cfg())
        assert not np.array_equal(a.series.values, b.series.values)


class TestValidation:
    def test_length_mismatch(self):
        series, _ = toy_inputs(t_len=96)
        _, calendar = toy_inputs(t_len=72)
        with pytest.raises(DataError, match="96 steps but calendar has 72"):
            assemble_channels(series, calendar, seed=0, cfg=light_cfg())

    def test_config_validation(self):
        with pytest.raises(ConfigError, match="top_n"):
            ChannelConfig(top_n=-1)
        with pytest.raises(ConfigError, match="granule_windows"):
            ChannelConfig(granule_windows=())
        with pytest.raises(ConfigError, match="windows must be >= 1"):
            ChannelConfig(granule_windows=(24, 0))
        with pytest.raises(ConfigError, match="windows must not repeat"):
            ChannelConfig(granule_windows=(24, 168, 24))


def with_cpus(monkeypatch, cpus):
    """Make ``cpus`` CPUs look usable; returns the start methods of every pool built."""
    started = []
    real = multiprocessing.get_context

    def spy(method=None):
        started.append(method)
        return real(method)

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    monkeypatch.setattr(multiprocessing, "get_context", spy)
    return started


def assert_same_channels(a, b):
    assert np.array_equal(a.series.values, b.series.values)
    assert a.channel_names == b.channel_names
    assert len(a.components) == len(b.components)
    for (ids_a, rows_a), (ids_b, rows_b) in zip(a.components, b.components):
        assert ids_a == ids_b
        assert np.array_equal(rows_a, rows_b)
    if a.weights is None:
        assert b.weights is None
    else:
        assert np.array_equal(a.weights, b.weights)
    assert a.feature_names == b.feature_names


def serial_and_pooled(monkeypatch, run):
    """Outcome of ``run()`` with one usable CPU and with two, plus the pools started."""
    with monkeypatch.context() as m:
        with_cpus(m, 1)
        serial = run()
    with monkeypatch.context() as m:
        started = with_cpus(m, 2)
        pooled = run()
    return serial, pooled, started


class TestStationWorkers:
    @pytest.mark.parametrize("n", [1, 2, 3], ids=["one_station", "one_per_cpu", "more_stations_than_cpus"])
    def test_pool_matches_serial_run(self, monkeypatch, n):
        series, calendar = toy_inputs(n=n, seed=n)
        run = lambda: assemble_channels(series, calendar, seed=5, cfg=light_cfg())  # noqa: E731
        serial, pooled, started = serial_and_pooled(monkeypatch, run)
        assert started == ([] if n == 1 else ["fork"])
        assert_same_channels(serial, pooled)

    def test_pool_matches_serial_run_with_exogenous_inputs(self, monkeypatch):
        series, calendar = toy_inputs(n=3, seed=4)
        rng = np.random.default_rng(14)
        exog = {
            "temp": series.values[:, :, 0].mean(axis=1) + 0.01 * rng.normal(size=96),
            "drv": rng.normal(size=(96, 3)),
        }

        def run():
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                out = assemble_channels(series, calendar, seed=6, cfg=light_cfg(top_n=2), exogenous=exog)
            return out, [str(w.message) for w in caught if w.category is UserWarning]

        (serial, serial_warned), (pooled, pooled_warned), started = serial_and_pooled(monkeypatch, run)
        assert started == ["fork"]
        assert serial.weights is not None and exog_channels(serial)
        assert_same_channels(serial, pooled)
        assert pooled_warned == serial_warned  # relieff's clamps, if any

    def test_station_error_in_a_worker_keeps_type_and_message(self, monkeypatch):
        series, calendar = toy_inputs(n=2)
        values = series.values.copy()
        values[:, 1, 0] = 1e154 * (1.0 + np.arange(96) % 5)
        series = SeriesTensor(values)

        def run():
            with pytest.raises(NumericError) as info:
                assemble_channels(series, calendar, seed=3, cfg=light_cfg())
            return info.value

        serial, pooled, started = serial_and_pooled(monkeypatch, run)
        assert started == ["fork"]
        assert type(pooled) is type(serial)
        assert str(pooled) == str(serial)

    def test_relayed_warnings_match_the_serial_run(self, monkeypatch):
        series, calendar = toy_inputs(n=3)
        stubborn = DecomposeConfig(vmd=VmdConfig(K=4, alpha=200.0, max_iter=1), ensemble_n=4, noise_amp=0.1)

        def run():
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                assemble_channels(series, calendar, seed=3, cfg=light_cfg(decompose=stubborn))
            # RuntimeWarning only: from Python 3.12 forking a threaded process adds a DeprecationWarning
            return [(w.category, str(w.message), w.filename, w.lineno) for w in caught if w.category is RuntimeWarning]

        serial, pooled, started = serial_and_pooled(monkeypatch, run)
        assert started == ["fork"]
        assert pooled == serial
        assert [text.split(":")[0] for _, text, _, _ in serial] == ["station 0", "station 1", "station 2"]
        assert all("vmd did not converge" in text for _, text, _, _ in serial)

    @pytest.mark.parametrize("blocker", ["one_cpu", "no_fork", "daemon"])
    def test_no_pool_starts_when_it_cannot_help(self, monkeypatch, blocker):
        series, calendar = toy_inputs(n=2)
        want = assemble_channels(series, calendar, seed=3, cfg=light_cfg())

        def refuse(method=None):
            raise AssertionError("a worker pool was started")

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0} if blocker == "one_cpu" else {0, 1})
        monkeypatch.setattr(multiprocessing, "get_context", refuse)
        if blocker == "no_fork":
            monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        if blocker == "daemon":
            monkeypatch.setattr(multiprocessing, "current_process", lambda: SimpleNamespace(daemon=True))
        assert_same_channels(assemble_channels(series, calendar, seed=3, cfg=light_cfg()), want)
