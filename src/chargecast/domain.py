"""Shared data model: series tensors, station graphs, calendars, windows.

Values are validated on construction and frozen (arrays are marked
read-only), so instances are safe to share between workers; ``usable_cpus``
says how many workers can run at once.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

__all__ = [
    "SeriesTensor",
    "StationGraph",
    "CalendarFrame",
    "Windows",
    "SPLIT_RATIOS",
    "split_dataset",
    "make_windows",
    "split_windows",
    "usable_cpus",
]

# chronological (train, valid, test) shares of every series the pipeline fits and scores
SPLIT_RATIOS = (0.8, 0.1, 0.1)


def usable_cpus() -> int:
    """CPUs this process may run on (``taskset`` and cpusets count), 1 where the platform cannot say."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform: stay in one worker
        return 1


def _frozen_array(values, dtype=float) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class SeriesTensor:
    """Charging data of shape (T, N, C): hours x stations x channels.

    Channel 0 is the forecast target. In raw inputs it is the observed
    hourly per-station quantity (charging volume, an occupancy share or any
    other; every series is treated alike and predictions are not clipped);
    in an assembled channel stack it is the VMD-denoised target series.
    """

    values: np.ndarray

    def __post_init__(self):
        arr = _frozen_array(self.values)
        if arr.ndim != 3:
            raise ValueError(f"series must have shape (T, N, C), got {arr.shape}")
        if min(arr.shape) < 1:
            raise ValueError(f"all series dimensions must be >= 1, got {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("series contains non-finite values")
        object.__setattr__(self, "values", arr)

    @property
    def T(self) -> int:
        return self.values.shape[0]

    @property
    def N(self) -> int:
        return self.values.shape[1]

    @property
    def C(self) -> int:
        return self.values.shape[2]

    def slice_time(self, start: int, stop: int) -> "SeriesTensor":
        return SeriesTensor(self.values[start:stop])


@dataclass(frozen=True)
class StationGraph:
    """Station identifiers plus a symmetric {0,1} adjacency with unit diagonal."""

    node_ids: tuple
    adjacency: np.ndarray

    def __post_init__(self):
        ids = tuple(str(i) for i in self.node_ids)
        adj = _frozen_array(self.adjacency)
        n = len(ids)
        if adj.shape != (n, n):
            raise ValueError(f"adjacency must be ({n}, {n}), got {adj.shape}")
        if not np.all((adj == 0.0) | (adj == 1.0)):
            raise ValueError("adjacency entries must be 0 or 1")
        if not np.array_equal(adj, adj.T):
            raise ValueError("adjacency must be symmetric")
        if not np.all(np.diag(adj) == 1.0):
            raise ValueError("adjacency diagonal must be all ones (self-loops)")
        object.__setattr__(self, "node_ids", ids)
        object.__setattr__(self, "adjacency", adj)

    @property
    def N(self) -> int:
        return len(self.node_ids)


@dataclass(frozen=True)
class CalendarFrame:
    """Hourly timestamps with derived hour-of-day, day-of-week, holiday flags.

    Timestamps must be strictly increasing with a constant one-hour stride.
    Day-of-week uses the Monday=0 convention.
    """

    timestamps: np.ndarray
    holiday_flag: np.ndarray = None
    hour_of_day: np.ndarray = field(init=False)
    day_of_week: np.ndarray = field(init=False)

    def __post_init__(self):
        ts = np.asarray(self.timestamps, dtype="datetime64[h]")
        ts = _frozen_array(ts, dtype="datetime64[h]")
        if ts.ndim != 1 or ts.size < 1:
            raise ValueError("timestamps must be a non-empty 1-D sequence")
        if ts.size > 1:
            strides = np.diff(ts.astype("int64"))
            bad = np.nonzero(strides != 1)[0]
            if bad.size:
                i = int(bad[0])
                raise ValueError(
                    f"timestamps must advance by exactly one hour; row {i + 1} "
                    f"({ts[i + 1]}) follows {ts[i]}"
                )
        hours_since_epoch = ts.astype("int64")
        hour = _frozen_array(hours_since_epoch % 24, dtype=np.int64)
        days = ts.astype("datetime64[D]").astype("int64")
        dow = _frozen_array((days + 3) % 7, dtype=np.int64)
        if self.holiday_flag is None:
            flags = np.zeros(ts.size, dtype=np.int64)
        else:
            flags = np.asarray(self.holiday_flag, dtype=np.int64)
        if flags.shape != ts.shape or not np.all((flags == 0) | (flags == 1)):
            raise ValueError("holiday_flag must be a {0,1} array aligned with timestamps")
        object.__setattr__(self, "timestamps", ts)
        object.__setattr__(self, "hour_of_day", hour)
        object.__setattr__(self, "day_of_week", dow)
        object.__setattr__(self, "holiday_flag", _frozen_array(flags, dtype=np.int64))

    @property
    def T(self) -> int:
        return self.timestamps.size

    def slice_time(self, start: int, stop: int) -> "CalendarFrame":
        return CalendarFrame(self.timestamps[start:stop], self.holiday_flag[start:stop])


@dataclass(frozen=True)
class Windows:
    """Stride-1 forecast windows, window-first.

    ``history`` is (B, P, N, C) and ``target`` (B, S, N, 1), the target
    starting one step after the history ends; ``hours`` and ``dows`` (B,)
    are the hour and day-of-week of each window's last history step, the
    forecast anchor.
    """

    history: np.ndarray
    target: np.ndarray
    hours: np.ndarray
    dows: np.ndarray

    def __post_init__(self):
        lengths = [len(a) for a in (self.history, self.target, self.hours, self.dows)]
        if len(set(lengths)) != 1:
            raise ValueError(f"window fields disagree on their leading axis: {lengths}")

    def __len__(self) -> int:
        return len(self.hours)

    def take(self, idx):
        """(history, target, hours, dows) of the windows selected by ``idx``."""
        return self.history[idx], self.target[idx], self.hours[idx], self.dows[idx]


def split_dataset(series: SeriesTensor, ratios, min_len: int = 1):
    """Split chronologically into (train, valid, test).

    Validation and test lengths are floor(T * ratio); the flooring
    remainder goes to the training split. Raises if the ratios do not sum
    to 1 or any split ends up shorter than ``min_len`` steps. The
    pipeline's split is ``split_windows``.
    """
    r = [float(x) for x in ratios]
    if len(r) != 3 or any(x <= 0 for x in r):
        raise ValueError(f"need three positive ratios, got {ratios}")
    if abs(sum(r) - 1.0) > 1e-9:
        raise ValueError(f"ratios must sum to 1 within 1e-9, got sum {sum(r)!r}")
    total = series.T
    n_valid = int(np.floor(total * r[1]))
    n_test = int(np.floor(total * r[2]))
    n_train = total - n_valid - n_test
    for name, n in (("train", n_train), ("valid", n_valid), ("test", n_test)):
        if n < min_len:
            raise ValueError(
                f"{name} split has {n} steps, fewer than the required {min_len}"
            )
    train = series.slice_time(0, n_train)
    valid = series.slice_time(n_train, n_train + n_valid)
    test = series.slice_time(n_train + n_valid, total)
    return train, valid, test


def make_windows(series: SeriesTensor, calendar: CalendarFrame, P: int, S: int) -> Windows:
    """All stride-1 windows of P history and S target steps, by start time.

    There are exactly T - P - S + 1 windows. History and target are
    read-only views into the series (no copies).
    """
    if P < 1 or S < 1:
        raise ValueError(f"P and S must be >= 1, got P={P}, S={S}")
    if calendar.T != series.T:
        raise ValueError(
            f"calendar length {calendar.T} does not match series length {series.T}"
        )
    total = series.T
    if total < P + S:
        raise ValueError(f"series length {total} is shorter than P+S={P + S}")
    vals = series.values
    history = sliding_window_view(vals[: total - S], P, axis=0)
    target = sliding_window_view(vals[P:, :, 0:1], S, axis=0)
    return Windows(
        history=np.moveaxis(history, -1, 1),
        target=np.moveaxis(target, -1, 1),
        hours=calendar.hour_of_day[P - 1 : total - S],
        dows=calendar.day_of_week[P - 1 : total - S],
    )


def split_windows(series: SeriesTensor, calendar: CalendarFrame, P: int, S: int):
    """(train, valid, test) Windows of series split at SPLIT_RATIOS.

    Raises ValueError naming the first split shorter than P + S steps.
    """
    windows, start = [], 0
    for part in split_dataset(series, SPLIT_RATIOS, min_len=P + S):
        windows.append(make_windows(part, calendar.slice_time(start, start + part.T), P, S))
        start += part.T
    return tuple(windows)
