"""Command-line pipeline: synth, decompose, pretrain, train, evaluate,
forecast.

decompose, train, evaluate and forecast take their channels from one call
to ``channels.assemble_channels`` on the loaded series and exogenous
inputs; decompose writes views of that result (denoised series, bands,
components, granules, feature weights), so what it shows is what the
model sees. The first of them to run on an input stores that result in
``channels.npz`` under ``[io] out_dir``, and the later ones load it instead
of decomposing again (see ``_assemble``); like the checkpoints, it is an
``io.write_npz`` container. ``_write`` writes every output beside its target
and moves it into place, so a failed or killed stage leaves no partial file.

Every command resolves its configuration from flag > file > default, echoes
the resolved values with a hash, and is deterministic given the same inputs
and root seed. Exit codes: 0 success, 2 configuration error, 3 data error,
4 numeric failure.

Graph masking is decided once, when ``train`` adapts the backbone under
``[train] use_graph_mask``; the checkpoint records it, and ``evaluate`` and
``forecast`` follow the checkpoint.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import os
import sys
import warnings

import numpy as np

from . import io as cio
from . import seeds, synth
from .autodiff import no_grad
from .channels import AssembledChannels, assemble_channels, channel_counts, record_warnings
from .config import PipelineConfig, load_config
from .domain import CalendarFrame, SeriesTensor, StationGraph, split_windows
from .errors import ConfigError, DataError, NumericError
from .model import build_model, forward_batch, freeze_and_adapt, load_checkpoint, save_checkpoint
from .relieff import write_weights_csv
from .training import evaluate, fit

__all__ = ["main"]

_PRETRAIN_STATION_OFFSETS = (-2, 0, 2)
_CHANNELS = "channels.npz"


def _add_common_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", default=None, help="INI-style config file")
    sub.add_argument("--seed", type=int, default=None, help="root seed (overrides [seeds] root)")
    sub.add_argument("--out-dir", default=None, help="directory for outputs and default input paths")


def _overrides(args) -> dict:
    pairs = {("seeds", "root"): args.seed, ("io", "out_dir"): args.out_dir}
    return {key: value for key, value in pairs.items() if value is not None}


def _path(cfg: PipelineConfig, name: str) -> str:
    """name under [io] out_dir; an absolute name stays as it is."""
    return os.path.join(cfg.get("io", "out_dir"), name)


def _write(cfg: PipelineConfig, name: str, writer, *args) -> None:
    """writer(path, *args) at name under [io] out_dir, its directory created; says so.

    writer fills ``<path>.<pid>.tmp``, which then replaces path or is removed.
    An ``OSError`` on the way is a ``DataError`` naming path.
    """
    path = _path(cfg, name)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        writer(tmp, *args)
        os.replace(tmp, path)
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc}") from exc
    finally:
        if os.path.exists(tmp):  # the write failed
            os.remove(tmp)
    print(f"wrote {path}")


def _load_series(cfg: PipelineConfig):
    series, calendar, node_ids = cio.load_charging_csv(_path(cfg, cfg.get("io", "series")))
    holidays_path = _path(cfg, cfg.get("io", "holidays"))
    if os.path.exists(holidays_path):
        calendar = cio.apply_holidays(calendar, cio.load_holidays(holidays_path))
    return series, calendar, node_ids


def _align_exogenous(calendar: CalendarFrame, node_ids, exo_series, exo_cal, exo_ids, name):
    """Join an exogenous table onto the target timeline by hour offset.

    Both timelines are strictly hourly, so target hour t is table row
    start + t, and the table covers the series when all those rows exist.
    The table holds one shared column or one column per station id.
    """
    if len(exo_ids) != 1 and set(exo_ids) != set(node_ids):
        raise DataError(
            f"exogenous series {name!r} columns {list(exo_ids)} are neither the station ids nor one shared column"
        )
    start = int((calendar.timestamps[0] - exo_cal.timestamps[0]).astype(np.int64))
    if start < 0 or exo_cal.T - start < calendar.T:
        missing = calendar.timestamps[0 if start < 0 else max(exo_cal.T - start, 0)]
        raise DataError(f"exogenous series {name!r} is missing timestamp {missing}")
    values = exo_series.values[start : start + calendar.T, :, 0]  # (T, N_exo)
    if set(exo_ids) == set(node_ids):
        return values[:, [list(exo_ids).index(nid) for nid in node_ids]]
    return values[:, 0]


def _read_exogenous(cfg: PipelineConfig) -> dict:
    """name -> (series, calendar, ids) of each [io] exogenous file, in listed order."""
    out = {}
    for raw in cfg.get("io", "exogenous"):
        path = _path(cfg, raw)
        out[os.path.splitext(os.path.basename(path))[0]] = cio.load_charging_csv(path)
    return out


def _synth_exogenous(count: int, rng: np.random.Generator, t_len: int) -> dict:
    """count stand-in exogenous drivers, so a pretrained stack matches the channel
    count it will see at adaptation time."""
    out = {}
    for j in range(count):
        hours = np.arange(t_len)
        drift = np.cumsum(rng.normal(0.0, 0.05, t_len))
        cycle = rng.uniform(0.5, 1.5) * np.sin(2.0 * np.pi * hours / 24.0 + rng.uniform(0, 2 * np.pi))
        out[f"driver{j}"] = drift + cycle
    return out


def _load_matching_checkpoint(cfg: PipelineConfig, key: str):
    """Load the checkpoint at [io] key; its model config must be this run's,
    and a backbone must not be adapted yet."""
    path = _path(cfg, cfg.get("io", key))
    model = load_checkpoint(path)
    want = cfg.model_config(c_in=channel_counts(cfg.channel_config(), len(cfg.get("io", "exogenous")))[1])
    if model.config != want:
        raise ConfigError(
            f"{path} holds a model for {model.config}, but this run needs {want}; "
            f"re-create it with a matching configuration"
        )
    if key == "backbone" and model.freeze_mode != "none":
        raise ConfigError(
            f"model is already in freeze mode {model.freeze_mode!r} in {path}; only a 'none' backbone adapts"
        )
    return model


def _source_digest() -> bytes:
    """sha256 of every module of this package, so edited code never reuses stored channels."""
    digest = hashlib.sha256()
    package = os.path.dirname(os.path.abspath(__file__))
    for name in sorted(f for f in os.listdir(package) if f.endswith(".py")):
        with open(os.path.join(package, name), "rb") as fh:
            data = fh.read()
        digest.update(f"{name} {len(data)}\n".encode() + data)
    return digest.digest()


def _channels_key(cfg: PipelineConfig, series: SeriesTensor, calendar: CalendarFrame, exogenous: dict) -> str:
    """sha256 of everything the assemble_channels call depends on.

    That is its arguments, the numpy version and this package's code. The
    front end uses no BLAS and its result does not depend on the worker
    count, so nothing else belongs here.
    """
    digest = hashlib.sha256()
    arrays = [("series", series.values), ("timestamps", calendar.timestamps), ("holidays", calendar.holiday_flag)]
    arrays += [(f"exogenous {name!r}", np.asarray(exogenous[name])) for name in sorted(exogenous)]
    for label, arr in arrays:
        digest.update(f"{label} {arr.dtype.str} {arr.shape}\n".encode())
        digest.update(np.ascontiguousarray(arr).tobytes())
    digest.update(f"seed {cfg.seed()}\n{cfg.channel_config()!r}\nnumpy {np.__version__}\n".encode())
    digest.update(_source_digest())
    return digest.hexdigest()


def _save_channels(path: str, key: str, assembled: AssembledChannels, caught: list) -> None:
    """Write assembled and the warnings its call raised to path, under key."""
    meta = {
        "key": key,
        "channel_names": list(assembled.channel_names),
        "component_ids": [list(ids) for ids, _ in assembled.components],
        "feature_names": list(assembled.feature_names),
        "warnings": [[c.__module__, c.__name__, text, filename, lineno] for c, text, filename, lineno in caught],
    }
    arrays = {"stack": assembled.series.values}
    for i, (_, rows) in enumerate(assembled.components):
        arrays[f"components{i}"] = rows
    if assembled.weights is not None:
        arrays["weights"] = assembled.weights
    cio.write_npz(path, meta, arrays)


def _warning_category(module: str, name: str) -> type:
    """The warning class name of module, a module this process has imported."""
    category = getattr(sys.modules[module], name)
    if not (isinstance(category, type) and issubclass(category, Warning)):
        raise TypeError(f"{module}.{name} is not a warning category")
    return category


def _load_channels(path: str, key: str, series: SeriesTensor):
    """(assembled, warnings) that _save_channels wrote to path under key and that fit series, else None."""
    try:
        meta, arrays = cio.read_npz(path, "channels file")
        if meta["key"] != key:
            return None
        names, ids, features = tuple(meta["channel_names"]), meta["component_ids"], tuple(meta["feature_names"])
        stack = arrays["stack"]
        comps = [arrays[f"components{i}"] for i in range(len(ids))]
        weights = arrays.get("weights")
        if stack.shape != (series.T, series.N, len(names)) or len(ids) != series.N:
            return None
        if any(c.shape != (len(i), series.T) for c, i in zip(comps, ids)):
            return None
        if (None if weights is None else weights.shape) != ((len(features),) if features else None):
            return None  # weights without names, names without weights, or a length mismatch
        assembled = AssembledChannels(
            series=SeriesTensor(stack),
            channel_names=names,
            components=tuple((tuple(i), c) for i, c in zip(ids, comps)),
            weights=weights,
            feature_names=features,
        )
        caught = [(_warning_category(m, c), text, f, int(n)) for m, c, text, f, n in meta["warnings"]]
    except (DataError, ValueError, KeyError, TypeError, AttributeError):
        return None  # unreadable or malformed: a miss, which only recomputes
    return assembled, caught


def _assemble(cfg: PipelineConfig, series: SeriesTensor, calendar: CalendarFrame, exogenous: dict):
    """assemble_channels on these inputs, memoized in channels.npz under [io] out_dir.

    A file written for the same inputs, settings, numpy and package code is
    read instead of decomposing again; anything else is recomputed and
    written. Either way the warnings of the call are shown, so a stored
    non-convergence stays as visible as a fresh one.
    """
    key = _channels_key(cfg, series, calendar, exogenous)
    path = _path(cfg, _CHANNELS)
    stored = _load_channels(path, key, series)
    if stored is not None:
        print(f"read {path}")
        assembled, caught = stored
    else:
        caught, assembled = record_warnings(
            assemble_channels, series, calendar, cfg.seed(), cfg.channel_config(), exogenous=exogenous or None
        )
        _write(cfg, _CHANNELS, _save_channels, key, assembled, caught)
    for category, text, filename, lineno in caught:
        warnings.warn_explicit(text, category, filename, lineno)
    return assembled


def _front_end(cfg: PipelineConfig, checkpoint: str | None = None, split: bool = False):
    """Load the inputs and assemble the model's channels from them.

    With split the series is checked for splits that hold a window each;
    with a checkpoint key ("backbone" or "checkpoint" under [io]) but no
    split, for one lookback. With a checkpoint key the station graph and
    that checkpoint are loaded (graph and model are None without one). All
    of it happens before the front end runs, so a short series, a bad input
    file, a checkpoint made for another configuration or an adapted backbone
    fails fast.
    """
    series, calendar, node_ids = _load_series(cfg)
    p, s = cfg.get("model", "lookback"), cfg.get("model", "horizon")
    if split:
        split_windows(series, calendar, p, s)
    elif checkpoint and series.T < p:
        raise DataError(f"series has {series.T} steps; need at least lookback={p}")
    graph = cio.load_adjacency_csv(_path(cfg, cfg.get("io", "adjacency")), node_ids) if checkpoint else None
    tables = _read_exogenous(cfg)
    exogenous = {name: _align_exogenous(calendar, node_ids, *table, name) for name, table in tables.items()}
    model = _load_matching_checkpoint(cfg, checkpoint) if checkpoint else None
    return _assemble(cfg, series, calendar, exogenous), calendar, node_ids, graph, model


# -- commands ------------------------------------------------------------------


def _cmd_synth(cfg: PipelineConfig) -> int:
    result = synth.generate(seed=cfg.seed(), **cfg.fields("synth"))
    _write(cfg, cfg.get("io", "series"), cio.write_charging_csv, result.timestamps, result.node_ids, result.values)
    _write(cfg, cfg.get("io", "adjacency"), cio.write_adjacency_csv, result.node_ids, result.adjacency)
    _write(cfg, cfg.get("io", "holidays"), cio.write_holidays, result.holidays)
    _write(cfg, "manifest.json", cio.write_metrics_json, result.manifest)
    return 0


def _cmd_decompose(cfg: PipelineConfig) -> int:
    assembled, calendar, node_ids, _, _ = _front_end(cfg)
    stamps = calendar.timestamps
    channel = dict(zip(assembled.channel_names, np.moveaxis(assembled.series.values, 2, 0)))
    for i, node in enumerate(node_ids):
        _write(cfg, f"components_{node}.csv", cio.write_components_csv, stamps, *assembled.components[i])
        bands = ("band_high", "band_mid", "band_low")
        _write(cfg, f"bands_{node}.csv", cio.write_components_csv, stamps, bands, [channel[b][:, i] for b in bands])
    _write(cfg, "denoised.csv", cio.write_charging_csv, stamps, node_ids, channel["denoised"])
    for window in cfg.get("fig", "windows"):
        _write(cfg, f"granules_w{window}.csv", cio.write_charging_csv, stamps, node_ids, channel[f"granule{window}"])
    if assembled.weights is not None:
        _write(cfg, "feature_weights.csv", write_weights_csv, assembled.feature_names, assembled.weights)
    return 0


def _cmd_pretrain(cfg: PipelineConfig) -> int:
    # pretraining uses synthetic drivers; an exogenous file train cannot read fails here, before that cost
    _read_exogenous(cfg)
    seed = cfg.seed()
    synth_args = cfg.fields("synth")
    exogenous_count, c_in = channel_counts(cfg.channel_config(), len(cfg.get("io", "exogenous")))
    p, s = cfg.get("model", "lookback"), cfg.get("model", "horizon")
    samples = []
    for j, offset in enumerate(_PRETRAIN_STATION_OFFSETS):
        task_rng = seeds.substream(seed, f"pretrain.data{j}")
        task_seed = int(task_rng.integers(0, 2**63))
        n = max(2, synth_args["n_stations"] + offset)
        data = synth.generate(seed=task_seed, **{**synth_args, "n_stations": n})
        calendar = CalendarFrame(data.timestamps)
        calendar = cio.apply_holidays(calendar, data.holidays)
        series = SeriesTensor(data.values[:, :, None])
        split_windows(series, calendar, p, s)
        exogenous = _synth_exogenous(exogenous_count, task_rng, calendar.T)
        assembled = assemble_channels(series, calendar, seed,
                                      cfg.channel_config(), exogenous=exogenous or None)
        train_w, valid_w, _ = split_windows(assembled.series, calendar, p, s)
        samples.append((train_w, valid_w, StationGraph(data.node_ids, data.adjacency)))
        print(f"pretraining task {j}: {n} stations, {len(train_w)} train windows")

    model = build_model(cfg.model_config(c_in=c_in), seeds.substream(seed, "model.init"))
    train_cfg = dataclasses.replace(cfg.train_config(), max_epochs=cfg.get("train", "pretrain_epochs"))
    loss_cfg = cfg.loss_config()
    for j, (train_w, valid_w, graph) in enumerate(samples):
        result = fit(model, train_w, valid_w, graph, train_cfg, loss_cfg)
        print(f"task {j}: best valid mae {result.best_valid_mae:.6f} at epoch {result.best_epoch}")
    _write(cfg, cfg.get("io", "backbone"), lambda path: save_checkpoint(model, path))
    return 0


def _cmd_train(cfg: PipelineConfig) -> int:
    assembled, calendar, _, graph, model = _front_end(cfg, "backbone", split=True)
    p, s = cfg.get("model", "lookback"), cfg.get("model", "horizon")
    train_w, valid_w, _ = split_windows(assembled.series, calendar, p, s)
    print(f"channels: {', '.join(assembled.channel_names)}")

    train_cfg = cfg.train_config()
    freeze_and_adapt(
        model,
        seeds.substream(cfg.seed(), "adapt"),
        freeze_mode=train_cfg.freeze_mode,
        use_graph_mask=cfg.get("train", "use_graph_mask"),
    )
    result = fit(model, train_w, valid_w, graph, train_cfg, cfg.loss_config())
    print(f"best valid mae {result.best_valid_mae:.6f} at epoch {result.best_epoch}")
    _write(cfg, cfg.get("io", "checkpoint"), lambda path: save_checkpoint(model, path))
    _write(cfg, "epochs.tsv", cio.write_epoch_log, result.log)
    return 0


def _cmd_evaluate(cfg: PipelineConfig) -> int:
    assembled, calendar, node_ids, graph, model = _front_end(cfg, "checkpoint", split=True)
    p, s = cfg.get("model", "lookback"), cfg.get("model", "horizon")
    _, _, test_w = split_windows(assembled.series, calendar, p, s)
    report = evaluate(model, test_w, graph)
    print(f"test mae {report.aggregate['mae']:.6f} "
          f"(persistence {report.baseline['mae']:.6f})")
    _write(cfg, "metrics.json", cio.write_metrics_json, report.as_json_dict())
    end = calendar.T - s + 1  # one past the last window's stamp
    stamps = calendar.timestamps[end - len(test_w) : end]
    _write(cfg, "predictions.csv", cio.write_predictions_csv, stamps, node_ids, report.predictions, report.truths)
    return 0


def _cmd_forecast(cfg: PipelineConfig) -> int:
    assembled, calendar, node_ids, graph, model = _front_end(cfg, "checkpoint")
    p, s = cfg.get("model", "lookback"), cfg.get("model", "horizon")
    hist = assembled.series.values[-p:][None]
    hours = np.array([calendar.hour_of_day[-1]])
    dows = np.array([calendar.day_of_week[-1]])
    with no_grad():
        pred = forward_batch(model, hist, hours, dows, graph.adjacency).data[0, :, :, 0]
    future = calendar.timestamps[-1] + np.arange(1, s + 1).astype("timedelta64[h]")
    _write(cfg, "forecast.csv", cio.write_charging_csv, future, node_ids, pred)
    return 0


_COMMANDS = {
    "synth": (_cmd_synth, "generate a synthetic charging dataset"),
    "decompose": (_cmd_decompose, "write the front end's views: bands, components, granules, weights"),
    "pretrain": (_cmd_pretrain, "train a full-precision backbone on synthetic tasks"),
    "train": (_cmd_train, "adapt a pretrained backbone to a charging dataset"),
    "evaluate": (_cmd_evaluate, "score a trained checkpoint on the test split"),
    "forecast": (_cmd_forecast, "predict the next horizon from the latest window"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chargecast", description="EV charging series forecasting pipeline"
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _COMMANDS.items():
        sub = subparsers.add_parser(name, help=help_text)
        _add_common_flags(sub)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler = _COMMANDS[args.command][0]
    try:
        cfg = load_config(args.config, _overrides(args))
        sys.stdout.write(cfg.resolved_text())
        print(f"config_hash = {cfg.config_hash()}")
        return handler(cfg)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 4
    except (DataError, ValueError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
