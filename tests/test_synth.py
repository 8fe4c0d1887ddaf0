"""Tests for the synthetic demand generator."""

import json

import numpy as np
import pytest

from chargecast import seeds
from chargecast.errors import ConfigError
from chargecast.synth import _station_params, clean_series, generate


class TestGenerate:
    def test_same_seed_is_bit_identical(self):
        a = generate(seed=7, n_stations=4, days=20)
        b = generate(seed=7, n_stations=4, days=20)
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.adjacency, b.adjacency)
        assert a.manifest == b.manifest

    def test_different_seeds_differ(self):
        a = generate(seed=7, n_stations=4, days=20)
        b = generate(seed=8, n_stations=4, days=20)
        assert not np.array_equal(a.values, b.values)

    def test_shapes_and_hourly_stamps(self):
        res = generate(seed=1, n_stations=5, days=17)
        assert res.values.shape == (17 * 24, 5)
        assert len(res.node_ids) == 5
        assert len(set(res.node_ids)) == 5
        steps = np.diff(res.timestamps).astype("timedelta64[h]").astype(int)
        assert np.all(steps == 1)

    def test_adjacency_symmetric_with_unit_diagonal(self):
        res = generate(seed=2, n_stations=7, days=15, graph_density=0.5)
        adj = res.adjacency
        assert np.array_equal(adj, adj.T)
        assert np.array_equal(np.diag(adj), np.ones(7))
        assert set(np.unique(adj)) <= {0.0, 1.0}

    def test_density_extremes(self):
        empty = generate(seed=3, n_stations=5, days=15, graph_density=0.0)
        assert np.array_equal(empty.adjacency, np.eye(5))
        full = generate(seed=3, n_stations=5, days=15, graph_density=1.0)
        assert np.array_equal(full.adjacency, np.ones((5, 5)))

    def test_zero_noise_equals_manifest_reconstruction(self):
        res = generate(seed=11, n_stations=4, days=21, noise_amp=0.0)
        # roundtrip through JSON so only serialized values feed the oracle
        manifest = json.loads(json.dumps(res.manifest))
        rebuilt = clean_series(manifest)
        assert np.array_equal(res.values, rebuilt)

    def test_noise_perturbs_around_clean_series(self):
        res = generate(seed=12, n_stations=4, days=21, noise_amp=0.05)
        clean = clean_series(res.manifest)
        resid = res.values - clean
        assert 0.0 < np.std(resid) < 0.2
        assert np.max(np.abs(resid)) > 0.0

    def test_holidays_suppress_demand(self):
        res = generate(seed=13, n_stations=6, days=30, noise_amp=0.0)
        flags = np.zeros(res.values.shape[0], dtype=bool)
        for d in res.manifest["holiday_days"]:
            flags[d * 24 : (d + 1) * 24] = True
        assert flags.any() and not flags.all()
        assert res.values[flags].mean() < res.values[~flags].mean()

    def test_holiday_dates_match_manifest_days(self):
        res = generate(seed=14, n_stations=3, days=29)
        start = np.datetime64("2024-01-01")
        offsets = (res.holidays - start).astype(int)
        assert offsets.tolist() == res.manifest["holiday_days"]

    def test_neighbour_diffusion_couples_stations(self):
        # identical station params except the latent wave: with an edge the
        # neighbour's lagged latent shifts the series; without it, it cannot
        res = generate(seed=15, n_stations=4, days=20, graph_density=1.0, noise_amp=0.0)
        manifest = json.loads(json.dumps(res.manifest))
        coupled = clean_series(manifest)
        manifest["adjacency"] = np.eye(4).astype(int).tolist()
        isolated = clean_series(manifest)
        assert np.max(np.abs(coupled - isolated)) > 0.01

    def test_validation(self):
        with pytest.raises(ConfigError, match="n_stations"):
            generate(seed=0, n_stations=1, days=20)
        with pytest.raises(ConfigError, match="days"):
            generate(seed=0, n_stations=4, days=13)
        with pytest.raises(ConfigError, match="graph_density"):
            generate(seed=0, n_stations=4, days=20, graph_density=1.5)
        with pytest.raises(ConfigError, match="noise_amp"):
            generate(seed=0, n_stations=4, days=20, noise_amp=-0.1)

    def test_manifest_is_json_serializable(self):
        res = generate(seed=16, n_stations=3, days=15)
        text = json.dumps(res.manifest, sort_keys=True)
        assert json.loads(text) == json.loads(json.dumps(res.manifest, sort_keys=True))


def loop_clean_series(manifest):
    """clean_series one station and one holiday at a time: the reference for its array form."""
    n, t_len = manifest["n_stations"], manifest["days"] * 24
    p = {k: np.asarray(v, dtype=float) for k, v in manifest["stations"].items()}
    t = np.arange(t_len, dtype=float)
    hours = t % 24.0
    latents = np.empty((t_len, n))
    core = np.empty((t_len, n))
    for i in range(n):
        daily = p["day_amp"][i] * np.sin(2.0 * np.pi * hours / 24.0 + p["day_phase"][i])
        weekly = 1.0 + p["week_mod"][i] * np.sin(2.0 * np.pi * t / 168.0 + p["week_phase"][i])
        core[:, i] = p["base"][i] + daily * weekly
        latents[:, i] = p["lat_amp"][i] * np.sin(2.0 * np.pi * t / p["lat_period"][i] + p["lat_phase"][i])
    lag = manifest["diffusion_lag"]
    lagged = np.vstack([np.repeat(latents[:1], lag, axis=0), latents[:-lag]])
    neighbour = np.array(manifest["adjacency"], dtype=float) - np.eye(n)
    degree = np.maximum(neighbour.sum(axis=1), 1.0)
    values = core + latents + manifest["diffusion_weight"] * (lagged @ neighbour.T) / degree
    holiday_hours = np.zeros(t_len, dtype=bool)
    for d in manifest["holiday_days"]:
        holiday_hours[d * 24 : (d + 1) * 24] = True
    values[holiday_hours] *= manifest["dip_factor"]
    return values


def loop_adjacency(seed, n, density):
    """generate's graph drawn one pair at a time, in row-major order after the station parameters."""
    rng = seeds.substream(seed, "synth")
    _station_params(rng, n)
    adjacency = np.eye(n)
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                adjacency[i, j] = adjacency[j, i] = 1.0
    return adjacency


@pytest.mark.parametrize("n_stations, days, density", [(2, 14, 0.0), (13, 20, 1.0), (8, 365, 0.3), (5, 21, 0.5)])
def test_array_form_matches_the_loop_form(n_stations, days, density):
    for seed in range(12):
        res = generate(seed, n_stations, days, density, noise_amp=0.1)
        assert np.array_equal(res.adjacency, loop_adjacency(seed, n_stations, density))
        assert np.array_equal(clean_series(res.manifest), loop_clean_series(res.manifest))
