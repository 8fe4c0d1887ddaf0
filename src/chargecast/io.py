"""CSV and JSON plumbing for series, adjacency, holidays, and results.

Loaders validate eagerly and point at the first offending row in error
messages. Writers emit floats through repr(), so a value survives a
write/load round trip bit-exactly. ``write_npz``/``read_npz`` are the one
container of checkpoints and ``channels.npz``: named arrays plus JSON meta.
"""

from __future__ import annotations

import csv
import json
import re
import warnings
import zipfile

import numpy as np

from .domain import CalendarFrame, SeriesTensor, StationGraph
from .errors import DataError

__all__ = [
    "load_charging_csv",
    "write_charging_csv",
    "load_adjacency_csv",
    "write_adjacency_csv",
    "load_holidays",
    "write_holidays",
    "apply_holidays",
    "write_components_csv",
    "write_predictions_csv",
    "write_epoch_log",
    "write_metrics_json",
    "write_npz",
    "read_npz",
]


def _reject_duplicates(path, ids, what: str) -> None:
    seen = set()
    for i in ids:
        if i in seen:
            raise DataError(f"{path}: station id {i!r} repeats in the {what}")
        seen.add(i)


def _read_rows(path) -> list:
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            return list(csv.reader(fh))
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc


def load_charging_csv(path):
    """Parse a series CSV into (SeriesTensor, CalendarFrame, node_ids).

    Layout: header ``timestamp,<station>,...``, each station id non-empty and
    free of ``/`` and ``\\``; one ISO-8601 timestamp per row, a wall-clock hour
    with no zone designator; every cell numeric and finite.
    """
    rows = _read_rows(path)
    if len(rows) < 2:
        raise DataError(f"{path}: need a header row and at least one data row")
    header = rows[0]
    if len(header) < 2:
        raise DataError(f"{path}: header must name a timestamp column and one station")
    node_ids = tuple(h.strip() for h in header[1:])
    for i in node_ids:  # ids name output files, so they must not be paths
        if not i or "/" in i or "\\" in i:
            raise DataError(f"{path}: station id {i!r} is empty or holds a '/' or '\\'")
    _reject_duplicates(path, node_ids, "header")

    stamps = []
    values = np.empty((len(rows) - 1, len(node_ids)))
    for r, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise DataError(f"{path}: row {r} has {len(row)} cells, expected {len(header)}")
        stamp = row[0].strip()
        if re.search(r"[Tt ][^+\-Zz]*[+\-Zz]", stamp):  # Z or an offset after the time of day: numpy moves it to UTC
            raise DataError(f"{path}: row {r}: timestamp {row[0]!r} carries a time zone; give wall-clock hours")
        try:
            stamps.append(np.datetime64(stamp))  # at the text's own precision
        except ValueError as exc:
            raise DataError(f"{path}: row {r}: bad timestamp {row[0]!r}") from exc
        for c, cell in enumerate(row[1:]):
            text = cell.strip()
            if not text:
                raise DataError(f"{path}: row {r}: missing value for {node_ids[c]}")
            try:
                values[r - 2, c] = float(text)
            except ValueError as exc:
                raise DataError(f"{path}: row {r}: non-numeric value {cell!r}") from exc

    stamps = np.array(stamps)  # at the finest precision of any stamp
    ts = stamps.astype("datetime64[h]")
    off = np.flatnonzero(ts != stamps)  # NaT, too, equals nothing
    if off.size:
        i = int(off[0])
        raise DataError(f"{path}: row {i + 2}: timestamp {rows[i + 1][0]!r} is not on the hour")
    if ts.size > 1:
        strides = np.diff(ts.astype("int64"))
        bad = np.nonzero(strides != 1)[0]
        if bad.size:
            i = int(bad[0])
            word = "duplicates" if strides[i] == 0 else "does not follow hourly after"
            raise DataError(f"{path}: row {i + 3}: timestamp {ts[i + 1]} {word} {ts[i]}")
    if not np.all(np.isfinite(values)):
        r, c = np.argwhere(~np.isfinite(values))[0]
        raise DataError(f"{path}: row {int(r) + 2}: non-finite value for {node_ids[int(c)]}")
    series = SeriesTensor(values[:, :, None])
    calendar = CalendarFrame(ts)
    return series, calendar, node_ids


def write_charging_csv(path, timestamps, node_ids, values) -> None:
    """values: (T, N), one column per station id."""
    write_components_csv(path, timestamps, node_ids, np.asarray(values).T)


def load_adjacency_csv(path, node_ids) -> StationGraph:
    """Square {0,1} adjacency with id header row/column, realigned to node_ids."""
    rows = _read_rows(path)
    if not rows:
        raise DataError(f"{path}: empty adjacency file")
    header = [h.strip() for h in rows[0][1:]]
    _reject_duplicates(path, header, "header")
    wanted = [str(i) for i in node_ids]
    if sorted(header) != sorted(wanted):
        unknown = sorted(set(header) ^ set(wanted))
        raise DataError(f"{path}: adjacency ids do not match the series ids: {unknown}")
    n = len(header)
    if len(rows) != n + 1:
        raise DataError(f"{path}: expected {n} data rows, found {len(rows) - 1}")

    raw = np.empty((n, n))
    row_ids = []
    for r, row in enumerate(rows[1:], start=2):
        if len(row) != n + 1:
            raise DataError(f"{path}: row {r} has {len(row)} cells, expected {n + 1}")
        row_ids.append(row[0].strip())
        for c, cell in enumerate(row[1:]):
            try:
                value = float(cell)
            except ValueError as exc:
                raise DataError(f"{path}: row {r}: non-numeric entry {cell!r}") from exc
            if value not in (0.0, 1.0):
                raise DataError(f"{path}: row {r}: entry {cell!r} is not 0 or 1")
            raw[r - 2, c] = value
    _reject_duplicates(path, row_ids, "row ids")
    if sorted(row_ids) != sorted(wanted):
        raise DataError(f"{path}: adjacency row ids do not match the series ids")

    # realign by id join: series order wins over file order
    ridx = [row_ids.index(i) for i in wanted]
    cidx = [header.index(i) for i in wanted]
    adj = raw[np.ix_(ridx, cidx)]

    asym = np.argwhere(adj != adj.T)
    if asym.size:
        i, j = (int(v) for v in asym[0])
        raise DataError(
            f"{path}: asymmetric adjacency: [{wanted[i]}][{wanted[j]}]={adj[i, j]:g} "
            f"but [{wanted[j]}][{wanted[i]}]={adj[j, i]:g}"
        )
    if not np.all(np.diag(adj) == 1.0):
        warnings.warn(f"{path}: forcing unit diagonal (self-loops)", stacklevel=2)
        adj = adj.copy()
        np.fill_diagonal(adj, 1.0)
    return StationGraph(node_ids=tuple(wanted), adjacency=adj)


def write_adjacency_csv(path, node_ids, adjacency) -> None:
    adjacency = np.asarray(adjacency)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["station", *node_ids])
        for i, node in enumerate(node_ids):
            writer.writerow([node, *[str(int(v)) for v in adjacency[i]]])


def load_holidays(path) -> np.ndarray:
    days = []
    try:
        with open(path, encoding="utf-8-sig") as fh:
            for lineno, line in enumerate(fh, start=1):
                text = line.strip()
                if not text or text.startswith("#"):
                    continue
                try:
                    days.append(np.datetime64(text, "D"))
                except ValueError as exc:
                    raise DataError(f"{path}: line {lineno}: bad date {text!r}") from exc
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    return np.array(days, dtype="datetime64[D]")


def write_holidays(path, days) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for d in np.asarray(days, dtype="datetime64[D]"):
            fh.write(f"{d}\n")


def apply_holidays(calendar: CalendarFrame, holiday_days) -> CalendarFrame:
    days = calendar.timestamps.astype("datetime64[D]")
    flags = np.isin(days, np.asarray(holiday_days, dtype="datetime64[D]")).astype(int)
    return CalendarFrame(calendar.timestamps, flags)


def _hour_stamps(timestamps, n: int) -> list:
    """The first n timestamps as ISO strings at hour resolution."""
    return np.datetime_as_string(np.asarray(timestamps[:n]).astype("datetime64[h]")).tolist()


def _float_text(values) -> list:
    """repr() of every value (C order), one conversion per array."""
    return list(map(repr, np.asarray(values, dtype=float).ravel().tolist()))


def write_components_csv(path, timestamps, ids, rows) -> None:
    """One column per id: rows[i], a row of an (n, T) array, is the series of ids[i]."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["timestamp", *ids])
        n = len(timestamps)
        columns = [_float_text(series[:n]) for series in rows]
        writer.writerows(zip(_hour_stamps(timestamps, n), *columns))


def write_predictions_csv(path, window_starts, node_ids, predictions, truths) -> None:
    """Long format: one row per (window, horizon step, station).

    ``window_start`` is the hour of horizon step 1. ``y_true`` and ``y_pred``
    are in the units of channel 0, the VMD-denoised series, not the raw
    observations.
    """
    predictions = np.asarray(predictions)
    truths = np.asarray(truths)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["window_start", "step", "station", "y_true", "y_pred"])
        windows, steps = predictions.shape[:2]
        nodes = len(node_ids)
        keys = (
            (stamp, s + 1, node)
            for stamp in _hour_stamps(window_starts, windows)
            for s in range(steps)
            for node in node_ids
        )
        y_true = _float_text(truths[:, :, :nodes, 0])
        y_pred = _float_text(predictions[:, :, :nodes, 0])
        writer.writerows((*key, t, p) for key, t, p in zip(keys, y_true, y_pred))


def write_epoch_log(path, log) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for epoch, train_loss, valid_mae in log:
            fh.write(f"{epoch}\t{repr(float(train_loss))}\t{repr(float(valid_mae))}\n")


def write_metrics_json(path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_npz(path, meta: dict, arrays: dict) -> None:
    """Write arrays, then meta as JSON under ``meta_json``, to path as given (a bare name gets no .npz)."""
    with open(path, "wb") as fh:
        np.savez(fh, **arrays, meta_json=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8))


def read_npz(path, what: str = "file"):
    """(meta, arrays in stored order) of a ``write_npz`` archive; any defect is a DataError naming path."""
    try:
        data = np.load(path)
        if not isinstance(data, np.lib.npyio.NpzFile):
            raise DataError(f"{path} is not a chargecast {what}: it holds a bare array")
        with data:
            arrays = {k: data[k] for k in data.files}
    except (OSError, EOFError, ValueError, zipfile.BadZipFile) as exc:
        raise DataError(f"cannot read {what} {path}: {exc}") from exc
    if "meta_json" not in arrays:
        raise DataError(f"{path} is not a chargecast {what}: it has no meta_json")
    try:
        # int() refuses the NaN and Infinity that json.dumps writes but JSON lacks
        meta = json.loads(bytes(arrays.pop("meta_json")).decode(), parse_constant=int)
    except ValueError as exc:
        raise DataError(f"malformed {what} {path}: meta_json is not JSON: {exc}") from exc
    return meta, arrays
