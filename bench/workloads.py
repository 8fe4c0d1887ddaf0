"""The benchmark workloads: inputs made from a seed, timed operations, output checks.

Every workload reports the same end-to-end metrics (``setup_s``, ``task_s``,
``peak_rss_mb``, ``ops_ok_share``) plus the figures named for it in
README.md. The program is reached only through its public API and its
command line; functions are looked up on their modules at call time so
that a traced run sees every call through the patched names.
"""

from __future__ import annotations

import contextlib
import dataclasses
import importlib
import io as stdio
import json
import os
import resource
import subprocess
import sys
import time
import traceback
from statistics import median

import numpy as np

from layers import LayerTrace

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

channels = importlib.import_module("chargecast.channels")
cli = importlib.import_module("chargecast.cli")
cio = importlib.import_module("chargecast.io")
config = importlib.import_module("chargecast.config")
domain = importlib.import_module("chargecast.domain")
losses = importlib.import_module("chargecast.losses")
model_mod = importlib.import_module("chargecast.model")
seeds = importlib.import_module("chargecast.seeds")
synth = importlib.import_module("chargecast.synth")
training = importlib.import_module("chargecast.training")

SETUP_REPEATS = 3
STAGE_TIMEOUT_S = 150

# The light pipeline of acceptance criterion 12.
LIGHT_HORIZON = 3
LIGHT_INI = f"""[synth]
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
horizon = {LIGHT_HORIZON}

[train]
learning_rate = 0.02
max_epochs = 10
pretrain_epochs = 4
batch_size = 64
"""
CLI_STAGES = ("synth", "decompose", "pretrain", "train", "evaluate", "forecast")
METRICS_KEYS = {"aggregate", "per_step", "persistence_baseline"}


class Aborted(Exception):
    """An operation raised, so the operations after it cannot run."""


class Ops:
    """Counts operations and the ones that raised or failed an output check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self._problems = None

    @contextlib.contextmanager
    def op(self, label: str):
        self.attempted += 1
        self._problems = []
        try:
            yield
        except Exception as exc:
            self.failed += 1
            print(f"# FAILED {label}: {exc!r}", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
            raise Aborted(label) from exc
        if self._problems:
            self.failed += 1
            for problem in self._problems:
                print(f"# FAILED {label}: {problem}", file=sys.stderr)

    def check(self, ok: bool, problem: str) -> None:
        if not ok:
            self._problems.append(problem)


def child_env() -> dict:
    """Environment for child interpreters: the absolute src path first on PYTHONPATH."""
    env = dict(os.environ)
    rest = env.get("PYTHONPATH")
    env["PYTHONPATH"] = SRC + (os.pathsep + rest if rest else "")
    return env


def import_seconds() -> float:
    """Wall time of a fresh interpreter that imports the package and exits."""
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import chargecast"],
        env=child_env(), check=True, timeout=STAGE_TIMEOUT_S,
    )
    return time.perf_counter() - start


def measure_setup(build, builds: int = SETUP_REPEATS):
    """Set-up time: the median fresh-interpreter import plus the median ``build()``.

    Imports are measured SETUP_REPEATS times. ``builds`` is smaller only where
    one build takes so long that repeating it would crowd out the timed part.
    Returns (setup seconds, import samples, the last build's result).
    """
    imports = [import_seconds() for _ in range(SETUP_REPEATS)]
    build_s, built = [], None
    for _ in range(builds):
        built, seconds = timed(build)
        build_s.append(seconds)
    return median(imports) + median(build_s), imports, built


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def children_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def timed(fn, *args, **kwargs):
    start = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - start


def calendar_for(data):
    return cio.apply_holidays(domain.CalendarFrame(data.timestamps), data.holidays)


def light_config(path: str):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(LIGHT_INI)
    return config.load_config(path)


# -- frontend-default ------------------------------------------------------------

FRONTEND_STATIONS = 4
FRONTEND_DAYS = 90


def frontend_inputs(seed: int):
    """4 stations x 90 days, one shared and one per-station exogenous series."""
    data = synth.generate(seed=seed, n_stations=FRONTEND_STATIONS, days=FRONTEND_DAYS)
    calendar = calendar_for(data)
    rng = np.random.default_rng([seed, 1])
    hours = np.arange(calendar.T)
    weather = np.sin(2 * np.pi * hours / 24 + rng.uniform(0, 2 * np.pi)) + rng.normal(
        0.0, 0.2, calendar.T
    )
    traffic = np.cumsum(rng.normal(0.0, 0.05, (calendar.T, FRONTEND_STATIONS)), axis=0)
    series = domain.SeriesTensor(data.values[:, :, None])
    return series, calendar, {"weather": weather, "traffic": traffic}


def frontend_op(inputs, seed: int, ops: Ops) -> float:
    series, calendar, exogenous = inputs
    with ops.op("assemble_channels"):
        out, seconds = timed(
            channels.assemble_channels, series, calendar, seed, channels.ChannelConfig(),
            exogenous=exogenous,
        )
        values = out.series.values
        ops.check(bool(np.all(np.isfinite(values))), "channels are not all finite")
        names = list(out.channel_names)
        need = ("denoised", "band_high", "band_mid", "band_low")
        ops.check(all(n in names for n in need), f"missing band channels in {names}")
        if all(n in names for n in need):
            den, high, mid, low = (values[:, :, names.index(n)] for n in need)
            gap = float(np.max(np.abs(high + mid + low - den)))
            ops.check(
                gap <= 1e-9 * max(1.0, float(np.max(np.abs(den)))),
                f"bands do not sum to the denoised series (max gap {gap:g})",
            )
    return seconds


def run_frontend(seed: int, seconds: float, trace: bool, work: str) -> dict:
    ops = Ops()
    setup, imports, inputs = measure_setup(lambda: frontend_inputs(seed))
    station_hours = FRONTEND_STATIONS * FRONTEND_DAYS * 24
    if trace:
        op = lambda *_: frontend_op(inputs, seed, ops)  # noqa: E731
        return traced_result(ops, imports, op, op)
    times = repeat_until(seconds, 1, lambda: frontend_op(inputs, seed, ops))
    return {
        "e2e": e2e(setup, median(times), self_peak_rss_mb(), ops),
        "detail": {"frontend_station_hours_per_s": (station_hours / median(times), "station-h/s")},
        "ops": ops,
    }


# -- train-default ---------------------------------------------------------------

TRAIN_STATIONS = 8
TRAIN_DAYS = 60
PRETRAIN_EPOCHS = 1
ADAPT_EPOCHS = 1
INFER_PASSES = 3
MIN_CYCLES = 2


def train_inputs(seed: int, work: str):
    """8 stations x 60 days through the light front end, split into windows."""
    light = light_config(os.path.join(work, "light.ini"))
    data = synth.generate(seed=seed, n_stations=TRAIN_STATIONS, days=TRAIN_DAYS)
    calendar = calendar_for(data)
    assembled = channels.assemble_channels(
        domain.SeriesTensor(data.values[:, :, None]), calendar, seed, light.channel_config()
    )
    cfg = model_mod.ModelConfig(c_in=assembled.series.C)
    parts = domain.split_dataset(assembled.series, (0.8, 0.1, 0.1))
    splits, start = [], 0
    for part in parts:
        cal = calendar.slice_time(start, start + part.T)
        splits.append(domain.make_windows(part, cal, cfg.lookback, cfg.horizon))
        start += part.T
    every = domain.make_windows(assembled.series, calendar, cfg.lookback, cfg.horizon)
    graph = domain.StationGraph(data.node_ids, data.adjacency)
    return cfg, splits, every, graph


def train_cycle(inputs, seed: int, ops: Ops, work: str) -> dict:
    """Pretrain, freeze and adapt, save and load, then evaluate every window."""
    cfg, (train_w, valid_w, _), every, graph = inputs
    loss_cfg = losses.LossConfig()
    pretrain_cfg = training.TrainConfig(max_epochs=PRETRAIN_EPOCHS, seed=seed, freeze_mode="none")
    adapt_cfg = dataclasses.replace(pretrain_cfg, max_epochs=ADAPT_EPOCHS, freeze_mode="partial")
    out = {}
    cycle_start = time.perf_counter()
    model = model_mod.build_model(cfg, seeds.substream(seed, "model.init"))
    for label, train_cfg, epochs in (
        ("pretrain", pretrain_cfg, PRETRAIN_EPOCHS),
        ("adapt", adapt_cfg, ADAPT_EPOCHS),
    ):
        with ops.op(f"fit {label}"):
            if label == "adapt":
                model_mod.freeze_and_adapt(model, seeds.substream(seed, "adapt"), "partial")
                want = model_mod.trainable_parameter_count(cfg, "partial")
                ops.check(
                    model.trainable_count() == want,
                    f"adapted trainable count {model.trainable_count()} != {want}",
                )
            result, fit_s = timed(training.fit, model, train_w, valid_w, graph, train_cfg, loss_cfg)
            finite = all(np.isfinite(loss) and np.isfinite(mae) for _, loss, mae in result.log)
            ops.check(finite, f"non-finite loss in {result.log}")
        out[f"{label}_windows_per_s"] = epochs * len(train_w) / fit_s

    path = os.path.join(work, "model.npz")
    with ops.op("checkpoint round trip"):
        model_mod.save_checkpoint(model, path)
        loaded = model_mod.load_checkpoint(path)

    infer_s, reference = [], None
    for i in range(INFER_PASSES):
        with ops.op("evaluate"):
            report, seconds = timed(training.evaluate, loaded if i else model, every, graph)
            preds = report.predictions
            ops.check(bool(np.all(np.isfinite(preds))), "non-finite predictions")
            if reference is None:
                reference = preds
            else:
                ops.check(
                    np.array_equal(preds, reference),
                    "forward output changed across checkpoint save/load",
                )
        infer_s.append(seconds)
    out["infer_windows_per_s"] = len(every) / median(infer_s)
    out["cycle_s"] = time.perf_counter() - cycle_start
    return out


def run_train(seed: int, seconds: float, trace: bool, work: str) -> dict:
    ops = Ops()
    # one channel build takes about as long as a training cycle
    setup, imports, inputs = measure_setup(lambda: train_inputs(seed, work), builds=1)
    cycle = lambda *_: train_cycle(inputs, seed, ops, work)  # noqa: E731
    if trace:
        return traced_result(ops, imports, cycle, cycle)
    cycles = repeat_until(seconds, MIN_CYCLES, cycle)
    rates = ("pretrain_windows_per_s", "adapt_windows_per_s", "infer_windows_per_s")
    return {
        "e2e": e2e(setup, median(c["cycle_s"] for c in cycles), self_peak_rss_mb(), ops),
        "detail": {name: (median(c[name] for c in cycles), "windows/s") for name in rates},
        "ops": ops,
    }


# -- cli-light -------------------------------------------------------------------

MIN_PIPELINES = 2


def cli_argv(stage: str, out_dir: str, seed: int) -> list:
    return [stage, "--config", os.path.join(out_dir, "pipeline.ini"), "--seed", str(seed),
            "--out-dir", out_dir]


def stage_subprocess(stage: str, out_dir: str, seed: int):
    proc = subprocess.run(
        [sys.executable, "-m", "chargecast", *cli_argv(stage, out_dir, seed)],
        cwd=out_dir, env=child_env(), capture_output=True, text=True, timeout=STAGE_TIMEOUT_S,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
    return proc.returncode


def stage_in_process(stage: str, out_dir: str, seed: int):
    with contextlib.redirect_stdout(stdio.StringIO()):
        return cli.main(cli_argv(stage, out_dir, seed))


class CliRun:
    """Runs pipelines in fresh out-dirs and checks their outputs."""

    def __init__(self, seed: int, work: str, ops: Ops):
        self.seed, self.work, self.ops = seed, work, ops
        self.metrics_bytes = None
        self.forecast_s = []
        self.made = 0

    def fresh_dir(self) -> str:
        out_dir = os.path.join(self.work, f"pipeline{self.made}")
        self.made += 1
        os.makedirs(out_dir)
        with open(os.path.join(out_dir, "pipeline.ini"), "w", encoding="utf-8") as fh:
            fh.write(LIGHT_INI)
        return out_dir

    def stage(self, stage: str, out_dir: str, runner) -> float:
        with self.ops.op(f"cli {stage}"):
            code, seconds = timed(runner, stage, out_dir, self.seed)
            self.ops.check(code == 0, f"{stage} exited with {code}")
            if code == 0 and stage == "evaluate":
                self.check_metrics(out_dir)
            if code == 0 and stage == "forecast":
                self.check_forecast(out_dir)
        if stage == "forecast":
            self.forecast_s.append(seconds)
        return seconds

    def pipeline(self, runner) -> dict:
        out_dir = self.fresh_dir()
        return {stage: self.stage(stage, out_dir, runner) for stage in CLI_STAGES}

    def check_metrics(self, out_dir: str) -> None:
        with open(os.path.join(out_dir, "metrics.json"), "rb") as fh:
            raw = fh.read()
        keys = set(json.loads(raw))
        self.ops.check(keys == METRICS_KEYS, f"metrics.json keys {sorted(keys)}")
        if self.metrics_bytes is None:
            self.metrics_bytes = raw
        self.ops.check(raw == self.metrics_bytes, "metrics.json differs between repeats")

    def check_forecast(self, out_dir: str) -> None:
        with open(os.path.join(out_dir, "forecast.csv"), encoding="utf-8") as fh:
            rows = [line for line in fh.read().splitlines()[1:] if line]
        self.ops.check(
            len(rows) == LIGHT_HORIZON, f"forecast.csv has {len(rows)} rows, not {LIGHT_HORIZON}"
        )


def run_cli(seed: int, seconds: float, trace: bool, work: str) -> dict:
    ops = Ops()
    setup, imports, _ = measure_setup(lambda: None)
    run = CliRun(seed, work, ops)
    if trace:
        stage_s = run.pipeline(stage_subprocess)

        def traced(tracer):
            def runner(stage, out_dir, seed):
                with tracer.span(f"cli.{stage}"):
                    return stage_in_process(stage, out_dir, seed)

            run.pipeline(runner)

        result = traced_result(ops, imports, lambda: run.pipeline(stage_in_process), traced)
        for stage in CLI_STAGES:
            result["layers"][f"cli.{stage}_s"] = (stage_s[stage], "s")
        return result

    pipelines = repeat_until(
        seconds, MIN_PIPELINES, lambda: sum(run.pipeline(stage_subprocess).values())
    )
    return {
        "e2e": e2e(setup, median(pipelines), children_peak_rss_mb(), ops),
        "detail": {
            "cli_pipeline_s": (median(pipelines), "s"),
            "cli_forecast_s": (median(run.forecast_s), "s"),
        },
        "ops": ops,
    }


# -- shared ----------------------------------------------------------------------


def repeat_until(seconds: float, minimum: int, fn) -> list:
    """Call ``fn`` at least ``minimum`` times and until ``seconds`` have passed."""
    deadline = time.perf_counter() + seconds
    out = []
    while len(out) < minimum or time.perf_counter() < deadline:
        out.append(fn())
    return out


def e2e(setup: float, task_s: float, peak_rss_mb: float, ops: Ops) -> dict:
    return {
        "setup_s": (setup, "s"),
        "task_s": (task_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "ops_ok_share": ((ops.attempted - ops.failed) / ops.attempted, "share"),
    }


def traced_result(ops: Ops, imports, untraced, traced) -> dict:
    """Run the task untraced, then traced; per-layer metrics come from the traced run.

    ``traced`` receives the Tracer, so a workload can open its own spans.
    """
    _, plain_s = timed(untraced)
    layer = LayerTrace()
    layer.install()
    try:
        start = time.perf_counter()
        with layer.tracer.span("task"):
            traced(layer.tracer)
        traced_s = time.perf_counter() - start
    finally:
        layer.restore()
    layers = layer.metrics()
    layers["trace.overhead_s"] = (traced_s - plain_s, "s")
    layers["cli.import_s"] = (median(imports), "s")
    for stage in CLI_STAGES:
        layers[f"cli.{stage}_s"] = (0.0, "s")
    return {"layers": layers, "spans": layer.tracer.spans, "missing": layer.patches.missing,
            "ops": ops}


WORKLOADS = {
    "frontend-default": run_frontend,
    "train-default": run_train,
    "cli-light": run_cli,
}
