"""Command-line pipeline: synth, decompose, pretrain, train, evaluate,
forecast.

decompose, train, evaluate and forecast take their channels from one call
to ``channels.assemble_channels`` on the loaded series and exogenous
inputs; decompose writes views of that result (denoised series, bands,
components, granules, feature weights), so what it shows is what the
model sees.

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
import json
import os
import sys

import numpy as np

from . import io as cio
from . import seeds, synth
from .autodiff import no_grad
from .channels import assemble_channels, channel_counts
from .config import PipelineConfig, load_config
from .domain import CalendarFrame, SeriesTensor, StationGraph, make_windows, split_dataset
from .errors import ConfigError, DataError, NumericError
from .model import build_model, forward_batch, freeze_and_adapt, load_checkpoint, save_checkpoint
from .relieff import write_weights_csv
from .training import evaluate, fit

__all__ = ["main"]

_PRETRAIN_STATION_OFFSETS = (-2, 0, 2)


def _add_common_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", default=None, help="INI-style config file")
    sub.add_argument("--seed", type=int, default=None, help="root seed (overrides [seeds] root)")
    sub.add_argument("--out-dir", default=None, help="directory for outputs and default input paths")


def _overrides(args) -> dict:
    pairs = {("seeds", "root"): args.seed, ("io", "out_dir"): args.out_dir}
    return {key: value for key, value in pairs.items() if value is not None}


def _echo(cfg: PipelineConfig) -> None:
    sys.stdout.write(cfg.resolved_text())
    print(f"config_hash = {cfg.config_hash()}")


def _resolve(cfg: PipelineConfig, name: str) -> str:
    """name under [io] out_dir; an absolute name stays as it is."""
    return os.path.join(cfg.get("io", "out_dir"), name)


def _path(cfg: PipelineConfig, key: str) -> str:
    return _resolve(cfg, cfg.get("io", key))


def _out_path(cfg: PipelineConfig, name: str) -> str:
    """name resolved as for reading, with its directory created."""
    path = _resolve(cfg, name)
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    return path


def _load_series(cfg: PipelineConfig):
    series, calendar, node_ids = cio.load_charging_csv(_path(cfg, "series"))
    holidays_path = _path(cfg, "holidays")
    if os.path.exists(holidays_path):
        calendar = cio.apply_holidays(calendar, cio.load_holidays(holidays_path))
    return series, calendar, node_ids


def _align_exogenous(calendar: CalendarFrame, node_ids, exo_series, exo_cal, exo_ids, name):
    """Join an exogenous table onto the target timeline by timestamp.

    The table holds one shared column or one column per station id.
    """
    if len(exo_ids) != 1 and set(exo_ids) != set(node_ids):
        raise DataError(
            f"exogenous series {name!r} columns {list(exo_ids)} are neither the station ids nor one shared column"
        )
    pos = np.searchsorted(exo_cal.timestamps, calendar.timestamps)
    pos_ok = pos < exo_cal.T
    safe = np.where(pos_ok, pos, 0)
    matched = pos_ok & (exo_cal.timestamps[safe] == calendar.timestamps)
    if not matched.all():
        missing = calendar.timestamps[~matched][0]
        raise DataError(f"exogenous series {name!r} is missing timestamp {missing}")
    values = exo_series.values[pos, :, 0]  # (T, N_exo)
    if list(exo_ids) == list(node_ids):
        return values
    if len(exo_ids) == 1:
        return values[:, 0]
    return values[:, [list(exo_ids).index(nid) for nid in node_ids]]


def _read_exogenous(cfg: PipelineConfig) -> dict:
    """name -> (series, calendar, ids) of each [io] exogenous file, in listed order."""
    out = {}
    for raw in cfg.get("io", "exogenous"):
        path = _resolve(cfg, raw)
        out[os.path.splitext(os.path.basename(path))[0]] = cio.load_charging_csv(path)
    return out


def _load_exogenous(cfg: PipelineConfig, calendar: CalendarFrame, node_ids) -> dict:
    return {
        name: _align_exogenous(calendar, node_ids, exo_series, exo_cal, exo_ids, name)
        for name, (exo_series, exo_cal, exo_ids) in _read_exogenous(cfg).items()
    }


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


def _split(cfg: PipelineConfig, series: SeriesTensor):
    """(train, valid, test) of series, each split long enough for one window."""
    try:
        min_len = cfg.get("model", "lookback") + cfg.get("model", "horizon")
        return split_dataset(series, cfg.ratios(), min_len=min_len)
    except ValueError as exc:
        raise DataError(str(exc)) from exc


def _split_windows(cfg: PipelineConfig, assembled_series: SeriesTensor, calendar: CalendarFrame):
    p = cfg.get("model", "lookback")
    s = cfg.get("model", "horizon")
    parts = _split(cfg, assembled_series)
    windows = []
    start = 0
    for part in parts:
        cal = calendar.slice_time(start, start + part.T)
        windows.append(make_windows(part, cal, p, s))
        start += part.T
    return tuple(windows), parts


def _load_matching_checkpoint(cfg: PipelineConfig, key: str):
    """Load the checkpoint at [io] key; its model config must be this run's."""
    path = _path(cfg, key)
    model = load_checkpoint(path)
    want = cfg.model_config(c_in=channel_counts(cfg.channel_config(), len(cfg.get("io", "exogenous")))[1])
    if model.config != want:
        raise ConfigError(
            f"{path} holds a model for {model.config}, but this run needs {want}; "
            f"re-create it with a matching configuration"
        )
    return model


def _front_end(cfg: PipelineConfig, checkpoint: str | None = None, split: bool = False):
    """Load the inputs and assemble the model's channels from them.

    With split the series is checked for splits that hold a window each, and
    with a checkpoint key ("backbone" or "checkpoint" under [io]) the station
    graph and that checkpoint are loaded (graph and model are None without
    one). All of it happens before the front end runs, so a short series, a
    bad input file or a checkpoint made for another configuration fails fast.
    """
    series, calendar, node_ids = _load_series(cfg)
    if split:
        _split(cfg, series)
    graph = cio.load_adjacency_csv(_path(cfg, "adjacency"), node_ids) if checkpoint else None
    exogenous = _load_exogenous(cfg, calendar, node_ids)
    model = _load_matching_checkpoint(cfg, checkpoint) if checkpoint else None
    assembled = assemble_channels(
        series, calendar, cfg.seed(), cfg.channel_config(), exogenous=exogenous or None
    )
    return assembled, calendar, node_ids, graph, model


# -- commands ------------------------------------------------------------------


def _cmd_synth(cfg: PipelineConfig) -> int:
    result = synth.generate(seed=cfg.seed(), **cfg.fields("synth"))
    series_path = _out_path(cfg, cfg.get("io", "series"))
    cio.write_charging_csv(series_path, result.timestamps, result.node_ids, result.values)
    adjacency_path = _out_path(cfg, cfg.get("io", "adjacency"))
    cio.write_adjacency_csv(adjacency_path, result.node_ids, result.adjacency)
    holidays_path = _out_path(cfg, cfg.get("io", "holidays"))
    cio.write_holidays(holidays_path, result.holidays)
    manifest_path = _out_path(cfg, "manifest.json")
    with open(manifest_path, "w", encoding="utf-8") as fh:
        json.dump(result.manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for path in (series_path, adjacency_path, holidays_path, manifest_path):
        print(f"wrote {path}")
    return 0


def _cmd_decompose(cfg: PipelineConfig) -> int:
    assembled, calendar, node_ids, _, _ = _front_end(cfg)
    stamps = calendar.timestamps
    channel = dict(zip(assembled.channel_names, np.moveaxis(assembled.series.values, 2, 0)))
    for i, node in enumerate(node_ids):
        path = _out_path(cfg, f"components_{node}.csv")
        cio.write_components_csv(path, stamps, assembled.components[i])
        print(f"wrote {path}")
        path = _out_path(cfg, f"bands_{node}.csv")
        bands = [(b, channel[b][:, i]) for b in ("band_high", "band_mid", "band_low")]
        cio.write_components_csv(path, stamps, bands)
        print(f"wrote {path}")
    path = _out_path(cfg, "denoised.csv")
    cio.write_charging_csv(path, stamps, node_ids, channel["denoised"])
    print(f"wrote {path}")
    for window in cfg.get("fig", "windows"):
        path = _out_path(cfg, f"granules_w{window}.csv")
        cio.write_charging_csv(path, stamps, node_ids, channel[f"granule{window}"])
        print(f"wrote {path}")
    if assembled.weights is not None:
        path = _out_path(cfg, "feature_weights.csv")
        write_weights_csv(path, assembled.feature_names, assembled.weights)
        print(f"wrote {path}")
    return 0


def _cmd_pretrain(cfg: PipelineConfig) -> int:
    # pretraining uses synthetic drivers; an exogenous file train cannot read fails here, before that cost
    _read_exogenous(cfg)
    seed = cfg.seed()
    synth_args = cfg.fields("synth")
    exogenous_count, c_in = channel_counts(cfg.channel_config(), len(cfg.get("io", "exogenous")))
    samples = []
    for j, offset in enumerate(_PRETRAIN_STATION_OFFSETS):
        task_rng = seeds.substream(seed, f"pretrain.data{j}")
        task_seed = int(task_rng.integers(0, 2**63))
        n = max(2, synth_args["n_stations"] + offset)
        data = synth.generate(seed=task_seed, **{**synth_args, "n_stations": n})
        calendar = CalendarFrame(data.timestamps)
        calendar = cio.apply_holidays(calendar, data.holidays)
        series = SeriesTensor(data.values[:, :, None])
        _split(cfg, series)
        exogenous = _synth_exogenous(exogenous_count, task_rng, calendar.T)
        assembled = assemble_channels(series, calendar, seed,
                                      cfg.channel_config(), exogenous=exogenous or None)
        (train_w, valid_w, _), _ = _split_windows(cfg, assembled.series, calendar)
        samples.append((train_w, valid_w, StationGraph(data.node_ids, data.adjacency)))
        print(f"pretraining task {j}: {n} stations, {len(train_w)} train windows")

    model = build_model(cfg.model_config(c_in=c_in), seeds.substream(seed, "model.init"))
    train_cfg = dataclasses.replace(cfg.train_config(), max_epochs=cfg.get("train", "pretrain_epochs"))
    loss_cfg = cfg.loss_config()
    for j, (train_w, valid_w, graph) in enumerate(samples):
        result = fit(model, train_w, valid_w, graph, train_cfg, loss_cfg)
        print(f"task {j}: best valid mae {result.best_valid_mae:.6f} at epoch {result.best_epoch}")
    path = _out_path(cfg, cfg.get("io", "backbone"))
    save_checkpoint(model, path)
    print(f"wrote {path}")
    return 0


def _cmd_train(cfg: PipelineConfig) -> int:
    assembled, calendar, _, graph, model = _front_end(cfg, "backbone", split=True)
    (train_w, valid_w, _), _ = _split_windows(cfg, assembled.series, calendar)
    print(f"channels: {', '.join(assembled.channel_names)}")

    train_cfg = cfg.train_config()
    freeze_and_adapt(
        model,
        seeds.substream(cfg.seed(), "adapt"),
        freeze_mode=train_cfg.freeze_mode,
        use_graph_mask=cfg.get("train", "use_graph_mask"),
    )
    result = fit(model, train_w, valid_w, graph, train_cfg, cfg.loss_config())
    ckpt_path = _out_path(cfg, cfg.get("io", "checkpoint"))
    save_checkpoint(model, ckpt_path)
    log_path = _out_path(cfg, "epochs.tsv")
    cio.write_epoch_log(log_path, result.log)
    print(f"best valid mae {result.best_valid_mae:.6f} at epoch {result.best_epoch}")
    print(f"wrote {ckpt_path}")
    print(f"wrote {log_path}")
    return 0


def _cmd_evaluate(cfg: PipelineConfig) -> int:
    assembled, calendar, node_ids, graph, model = _front_end(cfg, "checkpoint", split=True)
    (_, _, test_w), parts = _split_windows(cfg, assembled.series, calendar)
    report = evaluate(model, test_w, graph)
    metrics_path = _out_path(cfg, "metrics.json")
    cio.write_metrics_json(metrics_path, report.as_json_dict())
    test_start = parts[0].T + parts[1].T
    p = cfg.get("model", "lookback")
    stamps = calendar.timestamps[test_start + p : test_start + p + len(test_w)]
    pred_path = _out_path(cfg, "predictions.csv")
    cio.write_predictions_csv(pred_path, stamps, node_ids, report.predictions, report.truths)
    print(f"test mae {report.aggregate['mae']:.6f} "
          f"(persistence {report.baseline['mae']:.6f})")
    print(f"wrote {metrics_path}")
    print(f"wrote {pred_path}")
    return 0


def _cmd_forecast(cfg: PipelineConfig) -> int:
    assembled, calendar, node_ids, graph, model = _front_end(cfg, "checkpoint")
    p = cfg.get("model", "lookback")
    s = cfg.get("model", "horizon")
    if assembled.series.T < p:
        raise DataError(f"series has {assembled.series.T} steps; need at least lookback={p}")
    vals = assembled.series.values
    hist = vals[-p:][None]
    hours = np.array([calendar.hour_of_day[-1]])
    dows = np.array([calendar.day_of_week[-1]])
    with no_grad():
        pred = forward_batch(model, hist, hours, dows, graph.adjacency).data[0, :, :, 0]
    future = calendar.timestamps[-1] + np.arange(1, s + 1).astype("timedelta64[h]")
    path = _out_path(cfg, "forecast.csv")
    cio.write_charging_csv(path, future, node_ids, pred)
    print(f"wrote {path}")
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
        _echo(cfg)
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
