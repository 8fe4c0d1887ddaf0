"""Synthetic charging-demand generator for tests, demos, and pretraining.

Each station's hourly series is an explicit analytic composition: a base
level, a daily sinusoid with per-station amplitude and phase modulated by a
weekly cycle, a slow station-specific latent wave, a lagged diffusion of
neighbouring stations' latents over the adjacency graph, seeded Gaussian
noise, and multiplicative holiday suppression with extra holiday noise.
Every drawn parameter lands in the manifest, so a test can rebuild the
noise-free series exactly from the manifest alone.
"""

from __future__ import annotations

import numpy as np

from . import seeds
from .errors import ConfigError

__all__ = ["SynthResult", "check_settings", "generate"]

DIP_FACTOR = 0.4
DIFFUSION_WEIGHT = 0.6
DIFFUSION_LAG = 2
HOLIDAY_NOISE_BOOST = 1.5
START_STAMP = "2024-01-01T00"


class SynthResult:
    def __init__(self, values, adjacency, node_ids, timestamps, holidays, manifest):
        self.values = values  # (T, N)
        self.adjacency = adjacency
        self.node_ids = node_ids
        self.timestamps = timestamps
        self.holidays = holidays  # datetime64[D] array
        self.manifest = manifest


def _station_params(rng, n):
    return {
        "base": rng.uniform(2.0, 6.0, n),
        "day_amp": rng.uniform(0.5, 1.5, n),
        "day_phase": rng.uniform(0.0, 2.0 * np.pi, n),
        "week_mod": rng.uniform(0.1, 0.3, n),
        "week_phase": rng.uniform(0.0, 2.0 * np.pi, n),
        "lat_amp": rng.uniform(0.4, 1.0, n),
        "lat_period": rng.uniform(30.0, 90.0, n),
        "lat_phase": rng.uniform(0.0, 2.0 * np.pi, n),
    }


def clean_series(manifest: dict) -> np.ndarray:
    """Noise-free analytic composition, recomputable from the manifest alone."""
    n = manifest["n_stations"]
    t_len = manifest["days"] * 24
    p = {k: np.asarray(v, dtype=float) for k, v in manifest["stations"].items()}
    adjacency = np.array(manifest["adjacency"], dtype=float)
    t = np.arange(t_len, dtype=float)[:, None]  # stations along the second axis
    hours = t % 24.0

    daily = p["day_amp"] * np.sin(2.0 * np.pi * hours / 24.0 + p["day_phase"])
    weekly = 1.0 + p["week_mod"] * np.sin(2.0 * np.pi * t / 168.0 + p["week_phase"])
    core = p["base"] + daily * weekly
    latents = p["lat_amp"] * np.sin(2.0 * np.pi * t / p["lat_period"] + p["lat_phase"])

    lag = manifest["diffusion_lag"]
    lagged = np.vstack([np.repeat(latents[:1], lag, axis=0), latents[:-lag]])
    neighbour = adjacency - np.eye(n)
    degree = np.maximum(neighbour.sum(axis=1), 1.0)
    diffusion = manifest["diffusion_weight"] * (lagged @ neighbour.T) / degree

    values = core + latents + diffusion
    values[np.isin(np.arange(t_len) // 24, manifest["holiday_days"])] *= manifest["dip_factor"]
    return values


def check_settings(n_stations: int, days: int, graph_density: float, noise_amp: float) -> None:
    """Reject settings ``generate`` cannot use; its signature holds the defaults."""
    if n_stations < 2:
        raise ConfigError("n_stations must be >= 2")
    if days < 14:
        raise ConfigError("days must be >= 14")
    if not (0.0 <= graph_density <= 1.0):
        raise ConfigError("graph_density must lie in [0, 1]")
    if not 0 <= noise_amp < np.inf:
        raise ConfigError(f"noise_amp must be non-negative and finite, got {noise_amp}")


def generate(
    seed: int,
    n_stations: int = 8,
    days: int = 60,
    graph_density: float = 0.5,
    noise_amp: float = 0.1,
) -> SynthResult:
    check_settings(n_stations, days, graph_density, noise_amp)
    rng = seeds.substream(seed, "synth")
    n, t_len = n_stations, days * 24

    params = _station_params(rng, n)
    adjacency = np.eye(n)
    upper = np.triu_indices(n, 1)  # row-major, the order the pairs are drawn in
    adjacency[upper] = adjacency[upper[::-1]] = rng.random(upper[0].size) < graph_density

    n_holidays = max(2, days // 15)
    holiday_days = np.sort(rng.choice(days, size=n_holidays, replace=False))

    manifest = {
        "seed": seed,
        "n_stations": n,
        "days": days,
        "graph_density": graph_density,
        "noise_amp": noise_amp,
        "dip_factor": DIP_FACTOR,
        "diffusion_weight": DIFFUSION_WEIGHT,
        "diffusion_lag": DIFFUSION_LAG,
        "holiday_noise_boost": HOLIDAY_NOISE_BOOST,
        "start": START_STAMP,
        "stations": {k: v.tolist() for k, v in params.items()},
        "adjacency": adjacency.astype(int).tolist(),
        "holiday_days": holiday_days.tolist(),
    }

    values = clean_series(manifest)
    noise = rng.normal(size=(t_len, n))
    holiday_hours = np.isin(np.arange(t_len) // 24, holiday_days)
    scale = noise_amp * np.where(holiday_hours, 1.0 + HOLIDAY_NOISE_BOOST, 1.0)
    values = values + scale[:, None] * noise

    timestamps = np.datetime64(START_STAMP) + np.arange(t_len).astype("timedelta64[h]")
    start_day = np.datetime64(START_STAMP, "D")
    holidays = start_day + holiday_days.astype("timedelta64[D]")
    node_ids = tuple(f"st{i:02d}" for i in range(n))
    return SynthResult(values, adjacency, node_ids, timestamps, holidays, manifest)
