"""Assembly of model input channels from raw station series.

This is the whole front end, and the only one: the command line's outputs
(denoised series, bands, components, granules, feature weights) are views
of one ``assemble_channels`` result. Per station, the raw target series is
denoised and split into recombined high/mid/low bands; granule cores
summarize daily and weekly windows of the denoised series; the calendar
contributes a holiday flag; and exogenous series enter through ReliefF
ranking. Channel 0 is always the denoised target, which downstream
windowing uses as the supervision signal.

Stations decompose independently, so ``assemble_channels`` runs them in
forked worker processes, one per CPU this process may use (at most one per
station). With a single usable CPU, no ``fork`` start method, or inside a
daemon process (such as a pool worker), they run one after another in this
process instead. Both ways call the same per-station function with the same
seeds, so the outputs do not depend on the worker count. Warnings a station
raises are relayed in station order, prefixed with ``station <i>: ``.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import seeds
from .bands import DecomposeConfig, multi_frequency_pipeline
from .domain import CalendarFrame, SeriesTensor
from .errors import ConfigError, DataError
from .granulate import granule_channels
from .relieff import (
    CONTINUOUS,
    DISCRETE,
    FeatureTable,
    relieff,
    select_features,
)

__all__ = [
    "ChannelConfig", "AssembledChannels", "assemble_channels", "channel_counts", "build_feature_table",
    "record_warnings",
]


@dataclass(frozen=True)
class ChannelConfig:
    decompose: DecomposeConfig = field(default_factory=DecomposeConfig)
    granule_windows: tuple = (24, 168)
    relieff_k: int = 70
    top_n: int = 2

    def __post_init__(self):
        if self.top_n < 0:
            raise ConfigError("top_n must be >= 0")
        if self.relieff_k < 1:
            raise ConfigError(f"relieff_k must be >= 1, got {self.relieff_k}")
        if not self.granule_windows:
            raise ConfigError("granule_windows must name at least one window")
        if min(self.granule_windows) < 1:
            raise ConfigError(f"granule windows must be >= 1, got {self.granule_windows}")
        if len(set(self.granule_windows)) != len(self.granule_windows):
            raise ConfigError(f"granule windows must not repeat, got {self.granule_windows}")


@dataclass(frozen=True)
class AssembledChannels:
    """The channel stack plus what the front end found on the way.

    components holds, per station, the (ids, rows) pair behind the bands:
    rows is the (n, T) array of that station's components and ids names
    each row, as ``multi_frequency_pipeline`` returns them. feature_names
    names the ReliefF candidate behind each weight (empty, like weights,
    when no exogenous series was given).
    """

    series: SeriesTensor
    channel_names: tuple
    components: tuple
    weights: np.ndarray | None
    feature_names: tuple


def build_feature_table(target_mean, exogenous, holiday_flag) -> FeatureTable:
    """Timestep-level candidate table for ReliefF ranking.

    Features are the station-mean of each exogenous series plus the holiday
    indicator; labels are quartile bins of the station-mean target, so the
    ranking rewards features that separate demand regimes.
    """
    target_mean = np.asarray(target_mean, dtype=float)
    cols, kinds, names = [], [], []
    for name in sorted(exogenous):
        series = np.asarray(exogenous[name], dtype=float)
        col = series.mean(axis=1) if series.ndim == 2 else series
        if col.shape[0] != target_mean.shape[0]:
            raise DataError(f"exogenous series {name!r} length {col.shape[0]} != {target_mean.shape[0]}")
        cols.append(col)
        kinds.append(CONTINUOUS)
        names.append(name)
    cols.append(np.asarray(holiday_flag, dtype=float))
    kinds.append(DISCRETE)
    names.append("holiday")

    quartiles = np.quantile(target_mean, [0.25, 0.5, 0.75])
    labels = np.searchsorted(quartiles, target_mean, side="right")
    return FeatureTable(
        values=np.column_stack(cols),
        kinds=tuple(kinds),
        labels=labels,
        feature_names=tuple(names),
    )


def record_warnings(fn, *args, **kwargs) -> tuple:
    """(warnings, result) of fn(*args, **kwargs), every warning recorded rather than shown.

    Each warning is a (category, text, filename, lineno) tuple, which
    ``warnings.warn_explicit`` takes back to show it later or elsewhere.
    """
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = fn(*args, **kwargs)
    return [(w.category, str(w.message), w.filename, w.lineno) for w in caught], out


def _station(job):
    """Decompose one station; returns (recorded warnings, pipeline output).

    Warnings are recorded rather than shown, so the caller can relay them
    the same way whether this ran in a worker process or in its own.
    """
    signal, decompose, seed = job
    return record_warnings(multi_frequency_pipeline, signal, decompose, seed=seed)


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform: stay in-process
        return 1


def _decompose_stations(jobs) -> list:
    """``_station`` results in station order, from forked workers when more than one CPU is usable.

    Workers are forked, not spawned: a spawned worker re-imports the package
    (a few tenths of a second), which would cost more than it saves at light
    settings. A station that raises ends the call with its exception (pickled
    back from a worker with its type and message), and no station's warnings
    are relayed.
    """
    workers = min(len(jobs), _usable_cpus())
    if workers > 1:
        import multiprocessing

        if "fork" in multiprocessing.get_all_start_methods() and not multiprocessing.current_process().daemon:
            with multiprocessing.get_context("fork").Pool(workers) as pool:
                return pool.map(_station, jobs, chunksize=1)
    return list(map(_station, jobs))


def channel_counts(cfg: ChannelConfig, exogenous_files: int) -> tuple:
    """(exogenous channels kept, all channels) that assemble_channels stacks from that many exogenous series."""
    kept = min(cfg.top_n, exogenous_files)
    return kept, 5 + len(cfg.granule_windows) + kept  # denoised, 3 bands, granules, holiday, exogenous


def assemble_channels(
    series: SeriesTensor,
    calendar: CalendarFrame,
    seed: int,
    cfg: ChannelConfig,
    exogenous: dict | None = None,
) -> AssembledChannels:
    """Stack per-station channels: [denoised, bands, granule cores, holiday, exogenous]."""
    if series.T != calendar.T:
        raise DataError(f"series has {series.T} steps but calendar has {calendar.T}")
    t_len, n = series.T, series.N
    for window in cfg.granule_windows:  # before the costly decomposition, not after it
        if window > t_len:
            raise DataError(f"window {window} exceeds series length {t_len}")
    exogenous = {name: np.asarray(ex, dtype=float) for name, ex in (exogenous or {}).items()}
    for name, ex in exogenous.items():
        if ex.shape not in ((t_len,), (t_len, n)):
            raise DataError(f"exogenous series {name!r} has shape {ex.shape}, expected ({t_len},) or ({t_len}, {n})")

    noise_root = seeds.subseed(seed, "decompose.noise")
    station_seeds = noise_root.spawn(n)

    columns, components = [], []
    jobs = [(series.values[:, i, 0], cfg.decompose, station_seeds[i]) for i in range(n)]
    for i, (caught, (den, bands, comps)) in enumerate(_decompose_stations(jobs)):
        for category, text, filename, lineno in caught:
            warnings.warn_explicit(f"station {i}: {text}", category, filename, lineno)
        columns.append((den, bands.high, bands.mid, bands.low))
        components.append(comps)

    denoised, high, mid, low = (np.column_stack(station_columns) for station_columns in zip(*columns))
    channels = [("denoised", denoised), ("band_high", high), ("band_mid", mid), ("band_low", low)]
    granules = granule_channels(denoised, windows=cfg.granule_windows)
    channels += [(f"granule{window}", cores) for window, cores in granules.items()]
    holiday = calendar.holiday_flag.astype(float)
    channels.append(("holiday", np.repeat(holiday[:, None], n, axis=1)))

    weights = None
    feature_names = ()
    if exogenous:
        table = build_feature_table(series.values[:, :, 0].mean(axis=1), exogenous, holiday)
        weights = relieff(table, k=cfg.relieff_k, seed=seeds.subseed(seed, "relieff.sample"))
        feature_names = table.feature_names
        ranked = [table.feature_names[i] for i in select_features(weights)]
        for name in [name for name in ranked if name != "holiday"][: cfg.top_n]:
            ex = exogenous[name]
            channels.append((f"exog_{name}", ex if ex.ndim == 2 else np.repeat(ex[:, None], n, axis=1)))

    names = tuple(name for name, _ in channels)
    stacked = np.stack([arr for _, arr in channels], axis=2)
    return AssembledChannels(
        series=SeriesTensor(stacked),
        channel_names=names,
        components=tuple(components),
        weights=weights,
        feature_names=feature_names,
    )
