"""End-to-end command-line tests via subprocess.

A module-scoped workspace runs the whole chain once on a small synthetic
dataset; individual tests then assert on its outputs and exit behavior.
"""

import argparse
import csv
import json
import os
import pathlib
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
from conftest import CHECKPOINT_DAMAGE, child_env, damage_checkpoint

from chargecast import channels, cli, seeds
from chargecast import io as cio
from chargecast.channels import assemble_channels
from chargecast.config import load_config
from chargecast.domain import CalendarFrame, SeriesTensor
from chargecast.errors import DataError
from chargecast.model import ModelConfig, build_model, load_checkpoint, save_checkpoint

LIGHT_INI = """\
[synth]
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
top_n = 1

[io]
exogenous = temperature.csv

[model]
d_embed = 8
heads = 2
rank = 2
f_frozen = 1
u_unfrozen = 1
lookback = 8
horizon = 3

[train]
learning_rate = 0.02
max_epochs = 15
pretrain_epochs = 6
batch_size = 64
"""


def run(*argv, check=True):
    proc = subprocess.run(
        [sys.executable, "-m", "chargecast", *argv],
        env=child_env(),
        capture_output=True,
        text=True,
    )
    if check and proc.returncode != 0:
        pytest.fail(f"{argv} exited {proc.returncode}\nstdout:\n{proc.stdout}\nstderr:\n{proc.stderr}")
    return proc


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def write_exogenous(ws):
    header, rows = read_csv(ws / "series.csv")
    with open(ws / "temperature.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["timestamp", "temperature"])
        for i, row in enumerate(rows):
            writer.writerow([row[0], repr(float(10.0 + 8.0 * np.sin(2 * np.pi * i / 24.0)))])


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    ws = tmp_path_factory.mktemp("pipeline")
    (ws / "light.ini").write_text(LIGHT_INI)
    common = ("--config", str(ws / "light.ini"), "--seed", "11", "--out-dir", str(ws))
    run("synth", *common)
    write_exogenous(ws)
    run("pretrain", *common)
    run("train", *common)
    run("evaluate", *common)
    run("forecast", *common)
    return ws, common


@pytest.fixture(scope="module")
def decomposed(workspace):
    """decompose run once on the workspace inputs; its completed process."""
    _, common = workspace
    return run("decompose", *common)


@pytest.fixture
def data_copy(workspace, tmp_path):
    """The workspace inputs and checkpoints copied to a fresh output directory."""
    ws, _ = workspace
    names = ("series.csv", "adjacency.csv", "holidays.txt", "temperature.csv", "backbone.npz", "model.npz")
    for name in names:
        (tmp_path / name).write_bytes((ws / name).read_bytes())
    return tmp_path, ("--config", str(ws / "light.ini"), "--seed", "11", "--out-dir", str(tmp_path))


class TestPipelineOutputs:
    def test_synth_outputs_exist(self, workspace):
        ws, _ = workspace
        for name in ("series.csv", "adjacency.csv", "holidays.txt", "manifest.json"):
            assert (ws / name).exists(), name
        manifest = json.loads((ws / "manifest.json").read_text())
        assert manifest["seed"] == 11
        assert manifest["n_stations"] == 4

    def test_series_has_expected_shape(self, workspace):
        ws, _ = workspace
        header, rows = read_csv(ws / "series.csv")
        assert header[0] == "timestamp"
        assert len(header) == 1 + 4
        assert len(rows) == 30 * 24

    def test_train_outputs(self, workspace):
        ws, _ = workspace
        assert (ws / "backbone.npz").exists()
        assert (ws / "model.npz").exists()
        lines = (ws / "epochs.tsv").read_text().strip().splitlines()
        assert len(lines) == 15
        assert lines[0].startswith("1\t")

    def test_metrics_structure_and_skill(self, workspace):
        ws, _ = workspace
        metrics = json.loads((ws / "metrics.json").read_text())
        assert set(metrics) == {"aggregate", "per_step", "persistence_baseline"}
        assert len(metrics["per_step"]) == 3
        assert metrics["aggregate"]["mae"] < metrics["persistence_baseline"]["mae"]

    def test_predictions_long_format(self, workspace):
        ws, _ = workspace
        header, rows = read_csv(ws / "predictions.csv")
        assert header == ["window_start", "step", "station", "y_true", "y_pred"]
        stations = {r[2] for r in rows}
        assert stations == {"st00", "st01", "st02", "st03"}
        assert {r[1] for r in rows} == {"1", "2", "3"}

    def test_forecast_continues_the_timeline(self, workspace):
        ws, _ = workspace
        header, rows = read_csv(ws / "forecast.csv")
        assert header == ["timestamp", "st00", "st01", "st02", "st03"]
        assert len(rows) == 3
        _, series_rows = read_csv(ws / "series.csv")
        last = np.datetime64(series_rows[-1][0])
        assert np.datetime64(rows[0][0]) == last + np.timedelta64(1, "h")
        for row in rows:
            for cell in row[1:]:
                assert np.isfinite(float(cell))

    def test_config_echo_with_hash(self, decomposed):
        proc = decomposed
        assert "seeds.root = 11" in proc.stdout
        assert any(line.startswith("config_hash = ") for line in proc.stdout.splitlines())

    def test_granulate_output(self, workspace, decomposed):
        ws, _ = workspace
        header, rows = read_csv(ws / "granules_w24.csv")
        assert len(rows) == 30 * 24
        assert len(header) == 5

    def test_select_ranks_features(self, workspace, decomposed):
        ws, _ = workspace
        header, rows = read_csv(ws / "feature_weights.csv")
        assert header == ["feature", "weight"]
        names = [r[0] for r in rows]
        assert set(names) == {"temperature", "holiday"}
        weights = [float(r[1]) for r in rows]
        assert weights == sorted(weights, reverse=True)


@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_wrote_lines_name_the_files_written_in_write_order(data_copy, capsys, command):
    out_dir, common = data_copy
    for path in out_dir.iterdir():
        os.utime(path, ns=(0, 0))  # a rewrite of a copied input moves its mtime
    assert cli.main([command, *common]) == 0
    wrote = [line[len("wrote "):] for line in capsys.readouterr().out.splitlines() if line.startswith("wrote ")]
    written = {str(p): p.stat().st_mtime_ns for p in out_dir.iterdir() if p.stat().st_mtime_ns != 0}
    assert len(wrote) == len(set(wrote))
    assert sorted(wrote) == sorted(written)
    mtimes = [written[path] for path in wrote]
    assert mtimes == sorted(mtimes)


class TestWholeOrAbsent:
    """A writer that raises partway through cli._write leaves the previous file and no temporary one."""

    @staticmethod
    def config(out_dir):
        return load_config(None, {("io", "out_dir"): str(out_dir)})

    def test_failed_checkpoint_write_keeps_the_previous_checkpoint(self, tmp_path, capsys):
        cfg = self.config(tmp_path)
        size = ModelConfig(d_embed=4, lookback=4, horizon=2, c_in=2, f_frozen=1, u_unfrozen=1, heads=2, rank=2)
        model = build_model(size, np.random.default_rng(0))
        cli._write(cfg, "model.npz", lambda path: save_checkpoint(model, path))
        before = (tmp_path / "model.npz").read_bytes()
        # np.savez writes the members before this one, then fails to pickle it
        list(model.named_parameters())[-1][1].data = np.array([lambda: None], dtype=object)
        with pytest.raises(Exception, match="pickle"):
            cli._write(cfg, "model.npz", lambda path: save_checkpoint(model, path))
        assert (tmp_path / "model.npz").read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["model.npz"]
        assert capsys.readouterr().out == f"wrote {tmp_path / 'model.npz'}\n"
        load_checkpoint(str(tmp_path / "model.npz"))

    def test_failed_metrics_write_keeps_the_previous_metrics(self, tmp_path):
        cfg = self.config(tmp_path)
        cli._write(cfg, "metrics.json", cio.write_metrics_json, {"mae": 0.5})
        before = (tmp_path / "metrics.json").read_bytes()
        # json.dump writes the "a" entry, then fails on the object under "b"
        with pytest.raises(TypeError, match="not JSON serializable"):
            cli._write(cfg, "metrics.json", cio.write_metrics_json, {"a": 1.0, "b": object()})
        assert (tmp_path / "metrics.json").read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["metrics.json"]

    def test_the_writer_fills_a_temporary_file_beside_the_target(self, tmp_path):
        cfg = self.config(tmp_path)
        seen = []

        def writer(path):
            seen.append((path, sorted(p.name for p in tmp_path.iterdir())))
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("new\n")

        (tmp_path / "forecast.csv").write_text("old\n")
        cli._write(cfg, "forecast.csv", writer)
        assert seen == [(str(tmp_path / f"forecast.csv.{os.getpid()}.tmp"), ["forecast.csv"])]
        assert (tmp_path / "forecast.csv").read_text() == "new\n"
        assert [p.name for p in tmp_path.iterdir()] == ["forecast.csv"]


class TestDecomposeDump:
    def test_components_sum_to_denoised(self, workspace, decomposed):
        ws, _ = workspace
        _, den_rows = read_csv(ws / "denoised.csv")
        header, comp_rows = read_csv(ws / "components_st00.csv")
        assert header[0] == "timestamp"
        assert len(header) > 3  # several modes plus sub-components
        for den_row, comp_row in zip(den_rows[:200], comp_rows[:200]):
            total = sum(float(c) for c in comp_row[1:])
            want = float(den_row[1])
            assert abs(total - want) <= 1e-9 * max(1.0, abs(want))

    def test_band_files_written_per_station(self, workspace, decomposed):
        ws, _ = workspace
        for node in ("st00", "st01", "st02", "st03"):
            header, rows = read_csv(ws / f"bands_{node}.csv")
            assert header == ["timestamp", "band_high", "band_mid", "band_low"]
            assert len(rows) == 30 * 24


def test_decompose_passes_an_encoding_to_every_file_it_opens(data_copy):
    """With the default-encoding warning an error, a text file opened without an
    encoding fails the run; the feature weights are written on this config."""
    out_dir, common = data_copy
    proc = subprocess.run(
        [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning",
         "-m", "chargecast", "decompose", *common],
        env=child_env(), capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert (out_dir / "feature_weights.csv").exists()


def csv_matrix(path):
    """The numeric columns of a CSV as a float array; repr-written floats round-trip."""
    _, rows = read_csv(path)
    return np.array([[float(cell) for cell in row[1:]] for row in rows])


class TestViewsOfTheModelChannels:
    """decompose's files hold exactly what an in-process assemble_channels gives the model."""

    @pytest.fixture(scope="class")
    def assembled(self, workspace):
        ws, _ = workspace
        cfg = load_config(str(ws / "light.ini"), {("seeds", "root"): "11", ("io", "out_dir"): str(ws)})
        series, calendar, _ = cio.load_charging_csv(str(ws / "series.csv"))
        calendar = cio.apply_holidays(calendar, cio.load_holidays(str(ws / "holidays.txt")))
        temperature = cio.load_charging_csv(str(ws / "temperature.csv"))[0].values[:, 0, 0]
        return assemble_channels(
            series, calendar, cfg.seed(), cfg.channel_config(), exogenous={"temperature": temperature}
        )

    def channel(self, assembled, name):
        return assembled.series.values[:, :, assembled.channel_names.index(name)]

    def test_granule_file_is_the_granule_channel(self, workspace, decomposed, assembled):
        ws, _ = workspace
        got = csv_matrix(ws / "granules_w24.csv")
        assert np.array_equal(got, self.channel(assembled, "granule24"))

    def test_denoised_and_band_files_are_the_channels(self, workspace, decomposed, assembled):
        ws, _ = workspace
        assert np.array_equal(csv_matrix(ws / "denoised.csv"), self.channel(assembled, "denoised"))
        bands = np.stack([self.channel(assembled, b) for b in ("band_high", "band_mid", "band_low")], axis=2)
        for i, node in enumerate(("st00", "st01", "st02", "st03")):
            assert np.array_equal(csv_matrix(ws / f"bands_{node}.csv"), bands[:, i])

    def test_feature_weights_are_the_assembled_weights(self, workspace, decomposed, assembled):
        ws, _ = workspace
        _, rows = read_csv(ws / "feature_weights.csv")
        got = {name: float(weight) for name, weight in rows}
        want = dict(zip(assembled.feature_names, assembled.weights))
        assert got == want


def loop_write_charging_csv(path, timestamps, node_ids, values):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["timestamp", *node_ids])
        for t in range(values.shape[0]):
            stamp = np.datetime_as_string(np.datetime64(timestamps[t], "h"))
            writer.writerow([stamp, *[repr(float(v)) for v in values[t]]])


def loop_write_components_csv(path, timestamps, ids, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["timestamp", *ids])
        for t in range(len(timestamps)):
            stamp = np.datetime_as_string(np.datetime64(timestamps[t], "h"))
            writer.writerow([stamp, *[repr(float(series[t])) for series in rows]])


def loop_write_predictions_csv(path, window_starts, node_ids, predictions, truths):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["window_start", "step", "station", "y_true", "y_pred"])
        for w in range(predictions.shape[0]):
            stamp = np.datetime_as_string(np.datetime64(window_starts[w], "h"))
            for s in range(predictions.shape[1]):
                for n, node in enumerate(node_ids):
                    writer.writerow(
                        [stamp, s + 1, node, repr(float(truths[w, s, n, 0])), repr(float(predictions[w, s, n, 0]))]
                    )


class TestWritersMatchTheLoopForm:
    """The column-wise CSV writers give the bytes of the per-cell loop they replace."""

    def same_bytes(self, tmp_path, original, write, loop_write, *args):
        write(tmp_path / "columns.csv", *args)
        loop_write(tmp_path / "loop.csv", *args)
        assert (tmp_path / "columns.csv").read_bytes() == (tmp_path / "loop.csv").read_bytes()
        assert (tmp_path / "columns.csv").read_bytes() == original.read_bytes()

    def test_components_csv(self, workspace, decomposed, tmp_path):
        ws, _ = workspace
        for name in ("components_st00.csv", "bands_st03.csv"):
            header, rows = read_csv(ws / name)
            stamps = np.array([r[0] for r in rows], dtype="datetime64[h]")
            self.same_bytes(
                tmp_path, ws / name, cio.write_components_csv, loop_write_components_csv,
                stamps, header[1:], csv_matrix(ws / name).T,
            )

    def test_charging_csv(self, workspace, decomposed, tmp_path):
        ws, _ = workspace
        header, rows = read_csv(ws / "denoised.csv")
        stamps = np.array([r[0] for r in rows], dtype="datetime64[h]")
        self.same_bytes(
            tmp_path, ws / "denoised.csv", cio.write_charging_csv, loop_write_charging_csv,
            stamps, header[1:], csv_matrix(ws / "denoised.csv"),
        )

    def test_predictions_csv(self, workspace, tmp_path):
        ws, _ = workspace
        _, rows = read_csv(ws / "predictions.csv")
        nodes = list(dict.fromkeys(r[2] for r in rows))
        steps = max(int(r[1]) for r in rows)
        cells = np.array([[float(r[3]), float(r[4])] for r in rows]).reshape(-1, steps, len(nodes), 2)
        starts = np.array([r[0] for r in rows[:: steps * len(nodes)]], dtype="datetime64[h]")
        self.same_bytes(
            tmp_path, ws / "predictions.csv", cio.write_predictions_csv, loop_write_predictions_csv,
            starts, nodes, cells[..., 1:], cells[..., :1],
        )


def test_readme_commands_table_lists_every_subcommand():
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("## Commands", 1)[1].split("\n## ", 1)[0]
    listed = [line.split("`")[1] for line in table.splitlines() if line.startswith("| `")]
    parser = cli.build_parser()
    subcommands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert listed == list(subcommands.choices)
    # and the sentence under the table names exactly the flags every command takes
    accepted = re.findall(r"`(--[a-z-]+)", re.search(r"All commands accept (.*?)\.\s", table, re.S).group(1))
    for sub in subcommands.choices.values():
        flags = [flag for action in sub._actions for flag in action.option_strings if flag not in ("-h", "--help")]
        assert accepted == flags


def spy_on_assembly(monkeypatch) -> list:
    """Patch cli's assemble_channels with a pass-through that records each call's arguments."""
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        return channels.assemble_channels(*args, **kwargs)

    monkeypatch.setattr(cli, "assemble_channels", spy)
    return calls


def edit_csv_cell(path, row, column, delta):
    header, rows = read_csv(path)
    rows[row][column] = repr(float(rows[row][column]) + delta)
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows([header, *rows])


def toggle_first_holiday(out_dir):
    """Flip the holiday flag of the series' first day."""
    _, rows = read_csv(out_dir / "series.csv")
    day = rows[0][0][:10]
    days = (out_dir / "holidays.txt").read_text().split()
    days = [d for d in days if d != day] if day in days else [*days, day]
    (out_dir / "holidays.txt").write_text("".join(f"{d}\n" for d in days))


class TestChannelsMemo:
    """channels.npz under [io] out_dir: the front end runs once per input, and a hit is what it replaces."""

    EDITS = ("series_value", "holiday_flag", "exogenous_value", "seed", "vmd_alpha", "source_digest")

    @pytest.fixture
    def memo(self, workspace, data_copy):
        """data_copy plus the channels.npz that the workspace's train wrote for the same inputs."""
        ws, _ = workspace
        out_dir, _ = data_copy
        (out_dir / "channels.npz").write_bytes((ws / "channels.npz").read_bytes())
        return data_copy

    @staticmethod
    def config(out_dir, ini=LIGHT_INI, seed=11):
        (out_dir / "memo.ini").write_text(ini)
        return load_config(str(out_dir / "memo.ini"), {("seeds", "root"): str(seed), ("io", "out_dir"): str(out_dir)})

    def edited_config(self, out_dir, monkeypatch, edit):
        """Apply edit to the inputs, the settings or the code; the config to run with after it."""
        ini, seed = LIGHT_INI, 11
        if edit == "series_value":
            edit_csv_cell(out_dir / "series.csv", 100, 2, 0.5)
        elif edit == "holiday_flag":
            toggle_first_holiday(out_dir)
        elif edit == "exogenous_value":
            edit_csv_cell(out_dir / "temperature.csv", 100, 1, 0.5)
        elif edit == "seed":
            seed = 12
        elif edit == "vmd_alpha":
            ini = LIGHT_INI.replace("alpha = 200.0", "alpha = 250.0")
        else:
            monkeypatch.setattr(cli, "_source_digest", lambda: b"edited code")
        return self.config(out_dir, ini, seed)

    @pytest.mark.parametrize("ini", [LIGHT_INI, LIGHT_INI.replace("k = 10", "k = 200")], ids=["light", "clamped"])
    def test_hit_equals_a_fresh_assembly(self, data_copy, monkeypatch, capsys, ini):
        out_dir, _ = data_copy
        calls = spy_on_assembly(monkeypatch)
        cfg = self.config(out_dir, ini)

        def front_end():
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                assembled = cli._front_end(cfg)[0]
            return assembled, [str(w.message) for w in caught if "clamped neighbor counts" in str(w.message)]

        fresh, fresh_clamps = front_end()
        hit, hit_clamps = front_end()
        assert len(calls) == 1
        assert f"read {out_dir / 'channels.npz'}" in capsys.readouterr().out
        assert np.array_equal(hit.series.values, fresh.series.values)
        assert hit.channel_names == fresh.channel_names
        assert len(hit.components) == len(fresh.components)
        for (got_ids, got), (want_ids, want) in zip(hit.components, fresh.components):
            assert got_ids == want_ids
            assert got.dtype == want.dtype and np.array_equal(got, want)
        assert hit.weights.dtype == fresh.weights.dtype and np.array_equal(hit.weights, fresh.weights)
        assert hit.feature_names == fresh.feature_names
        assert hit_clamps == fresh_clamps
        assert len(fresh_clamps) == (ini != LIGHT_INI)

    @pytest.mark.parametrize("mismatch", ["weights_without_names", "names_without_weights", "length_mismatch"])
    def test_weights_that_disagree_with_the_names_are_a_miss_that_rewrites_the_file(
        self, memo, monkeypatch, capsys, mismatch
    ):
        out_dir, _ = memo
        path = out_dir / "channels.npz"
        meta, arrays = cio.read_npz(path)
        if mismatch == "weights_without_names":
            meta["feature_names"] = []
        elif mismatch == "names_without_weights":
            del arrays["weights"]
        else:
            arrays["weights"] = arrays["weights"][:-1]
        cio.write_npz(path, meta, arrays)
        damaged = path.read_bytes()
        calls = spy_on_assembly(monkeypatch)
        cfg = self.config(out_dir)
        cli._front_end(cfg)
        assert len(calls) == 1
        assert f"wrote {path}" in capsys.readouterr().out
        assert path.read_bytes() != damaged
        cli._front_end(cfg)
        assert len(calls) == 1

    @pytest.mark.parametrize("edit", EDITS)
    def test_a_changed_input_setting_or_code_is_a_miss_that_rewrites_the_file(self, memo, monkeypatch, capsys, edit):
        out_dir, _ = memo
        path = out_dir / "channels.npz"
        before = path.read_bytes()
        calls = spy_on_assembly(monkeypatch)
        cli._front_end(self.config(out_dir))
        assert calls == []
        cfg = self.edited_config(out_dir, monkeypatch, edit)
        cli._front_end(cfg)
        assert len(calls) == 1
        assert f"wrote {path}" in capsys.readouterr().out
        assert path.read_bytes() != before
        cli._front_end(cfg)
        assert len(calls) == 1

    @pytest.mark.parametrize("damage", ["truncated", "garbage", "bare_array", "misshapen", "misshapen_components"])
    def test_damaged_file_is_a_miss(self, memo, monkeypatch, damage):
        out_dir, common = memo
        path = out_dir / "channels.npz"
        if damage == "truncated":
            data = path.read_bytes()
            path.write_bytes(data[: len(data) // 2])
        elif damage == "garbage":
            path.write_bytes(b"PK\x03\x04 not a zip archive")
        elif damage == "bare_array":
            with open(path, "wb") as fh:
                np.save(fh, np.zeros(3))
        elif damage == "misshapen":  # the right key, one channel short
            meta, arrays = cio.read_npz(path)
            arrays["stack"] = arrays["stack"][:, :, :-1]
            cio.write_npz(path, meta, arrays)
        else:  # the right key and stack, one station's components one step short
            meta, arrays = cio.read_npz(path)
            arrays["components1"] = arrays["components1"][:, :-1]
            cio.write_npz(path, meta, arrays)
        calls = spy_on_assembly(monkeypatch)
        assert cli.main(["forecast", *common]) == 0
        assert len(calls) == 1
        assert cli.main(["forecast", *common]) == 0
        assert len(calls) == 1

    def test_later_stages_do_not_assemble_again(self, memo, monkeypatch):
        _, common = memo
        calls = spy_on_assembly(monkeypatch)
        for command in ("decompose", "train", "evaluate", "forecast"):
            assert cli.main([command, *common]) == 0, command
        assert calls == []

    def test_a_hit_shows_the_warnings_of_the_miss(self, data_copy):
        out_dir, common = data_copy
        miss = run("forecast", *common)
        hit = run("forecast", *common)
        assert f"wrote {out_dir / 'channels.npz'}" in miss.stdout
        assert f"read {out_dir / 'channels.npz'}" in hit.stdout

        def vmd_lines(proc):
            return [line for line in proc.stderr.splitlines() if "vmd did not converge" in line]

        assert vmd_lines(miss)
        assert vmd_lines(hit) == vmd_lines(miss)

    def test_no_temporary_file_is_left_behind(self, data_copy, monkeypatch):
        out_dir, _ = data_copy
        before = {p.name for p in out_dir.iterdir()}
        cfg = self.config(out_dir)
        cli._front_end(cfg)
        assert {p.name for p in out_dir.iterdir()} == before | {"memo.ini", "channels.npz"}
        (out_dir / "channels.npz").unlink()

        def savez(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(np, "savez", savez)
        with pytest.raises(DataError, match=re.escape(f"cannot write {out_dir / 'channels.npz'}: disk full")):
            cli._front_end(cfg)
        assert {p.name for p in out_dir.iterdir()} == before | {"memo.ini"}


class TestDeterminism:
    def test_evaluate_rerun_is_byte_identical(self, workspace):
        ws, common = workspace
        before = (ws / "metrics.json").read_bytes()
        run("evaluate", *common)
        assert (ws / "metrics.json").read_bytes() == before

    def test_evaluate_follows_the_checkpoint_mask(self, workspace, data_copy):
        ws, _ = workspace
        out_dir, _ = data_copy
        unmasked = out_dir / "unmasked.ini"
        unmasked.write_text(LIGHT_INI + "use_graph_mask = false\n")  # [train] is the last section
        run("evaluate", "--config", str(unmasked), "--seed", "11", "--out-dir", str(out_dir))
        assert (out_dir / "metrics.json").read_bytes() == (ws / "metrics.json").read_bytes()

    def test_train_adapts_from_another_stream_than_pretrain_builds_from(self, data_copy, monkeypatch):
        _, common = data_copy
        names, used, real = {}, {}, seeds.substream

        def substream(seed, name):
            rng = real(seed, name)
            names[id(rng)] = name
            return rng

        class Stop(Exception):
            pass

        def record(command):
            def stop(_, rng, *args, **kwargs):
                used[command] = names[id(rng)]
                raise Stop

            return stop

        monkeypatch.setattr(cli.seeds, "substream", substream)
        monkeypatch.setattr(cli, "build_model", record("pretrain"))
        monkeypatch.setattr(cli, "freeze_and_adapt", record("train"))
        for command in ("pretrain", "train"):
            with pytest.raises(Stop):
                cli.main([command, *common])
        assert used["pretrain"] != used["train"]

    def test_checkpoint_names_without_npz_are_used_as_given(self, workspace, data_copy):
        """pretrain, train and evaluate on [io] backbone and checkpoint names that do not
        end in .npz write and read exactly those files, with the bytes the .npz names got."""
        ws, _ = workspace
        out_dir, _ = data_copy
        ini = out_dir / "ckpt.ini"
        ini.write_text(LIGHT_INI.replace("[io]\n", "[io]\nbackbone = backbone.ckpt\ncheckpoint = model.ckpt\n"))
        for command in ("pretrain", "train", "evaluate"):
            run(command, "--config", str(ini), "--seed", "11", "--out-dir", str(out_dir))
        assert not list(out_dir.glob("*.ckpt.npz"))
        assert (out_dir / "backbone.ckpt").read_bytes() == (ws / "backbone.npz").read_bytes()
        assert (out_dir / "model.ckpt").read_bytes() == (ws / "model.npz").read_bytes()
        assert (out_dir / "metrics.json").read_bytes() == (ws / "metrics.json").read_bytes()

    def test_train_rerun_gives_identical_checkpoint(self, workspace):
        ws, common = workspace
        before = (ws / "model.npz").read_bytes()
        run("train", *common)
        assert (ws / "model.npz").read_bytes() == before


def join_by_timestamp(calendar, node_ids, table_cal, table_values, table_ids):
    """Reference join: each target hour looked up in the table by its timestamp.

    Returns (values, None), or (None, the first target hour the table lacks).
    """
    row = {t: i for i, t in enumerate(table_cal.timestamps.tolist())}
    missing = [t for t in calendar.timestamps if t.tolist() not in row]
    if missing:
        return None, missing[0]
    values = table_values[[row[t] for t in calendar.timestamps.tolist()]]
    if len(table_ids) == 1:
        return values[:, 0], None
    return values[:, [list(table_ids).index(nid) for nid in node_ids]], None


class TestExogenousJoin:
    T0 = np.datetime64("2024-03-01T00", "h")
    NODES = ("north", "south", "east")
    T = 48

    # (first table hour and table length, relative to the series start; column ids)
    TABLES = {
        "starts_late": (5, 60, NODES),
        "ends_early": (-3, 44, NODES),
        "margins_on_both_sides": (-7, 63, NODES),
        "reordered_columns": (-2, 55, ("east", "north", "south")),
        "shared_column": (-4, 52, ("temperature",)),
        "disjoint_after": (100, 20, ("temperature",)),
        "disjoint_before": (-50, 40, NODES),
        "starts_one_hour_late": (1, 60, NODES),
        "ends_one_hour_early": (-2, 49, NODES),
    }

    @pytest.mark.parametrize("case", sorted(TABLES))
    def test_offset_join_matches_the_timestamp_join(self, case):
        offset, length, ids = self.TABLES[case]
        calendar = CalendarFrame(self.T0 + np.arange(self.T).astype("timedelta64[h]"))
        table_cal = CalendarFrame(self.T0 + np.arange(offset, offset + length).astype("timedelta64[h]"))
        rng = np.random.default_rng(sorted(self.TABLES).index(case))
        values = rng.normal(size=(length, len(ids)))
        want, missing = join_by_timestamp(calendar, self.NODES, table_cal, values, ids)
        args = (calendar, self.NODES, SeriesTensor(values[:, :, None]), table_cal, ids, "temperature")
        if missing is None:
            got = cli._align_exogenous(*args)
            assert got.shape == want.shape
            np.testing.assert_array_equal(got, want)
        else:
            with pytest.raises(DataError) as info:
                cli._align_exogenous(*args)
            assert str(info.value) == f"exogenous series 'temperature' is missing timestamp {missing}"


class TestExitCodes:
    def test_unknown_config_key_exits_2(self, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text("[vmd]\nkk = 1\n")
        proc = run("synth", "--config", str(bad), "--out-dir", str(tmp_path), check=False)
        assert proc.returncode == 2
        assert "configuration error:" in proc.stderr

    def test_missing_series_exits_3(self, tmp_path):
        proc = run("decompose", "--out-dir", str(tmp_path), check=False)
        assert proc.returncode == 3
        assert "data error:" in proc.stderr

    def test_numeric_overflow_exits_4(self, tmp_path):
        # a week of hours, so the default 168-step granule window fits and the front end runs
        stamps = np.datetime64("2024-01-01T00") + np.arange(168).astype("timedelta64[h]")
        with open(tmp_path / "series.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["timestamp", "a"])
            for i, ts in enumerate(stamps):
                writer.writerow([str(ts), repr(1e154 * (1.0 + (i % 5)))])
        proc = run("decompose", "--out-dir", str(tmp_path), check=False)
        assert proc.returncode == 4
        assert "numeric failure:" in proc.stderr

    def test_overflow_in_a_second_station_exits_4(self, tmp_path):
        # with two usable CPUs station b fails in a worker process
        stamps = np.datetime64("2024-01-01T00") + np.arange(168).astype("timedelta64[h]")
        with open(tmp_path / "series.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["timestamp", "a", "b"])
            for i, ts in enumerate(stamps):
                writer.writerow([str(ts), repr(3.0 + float(np.sin(i / 4.0))), repr(1e154 * (1.0 + (i % 5)))])
        proc = run("decompose", "--out-dir", str(tmp_path), check=False)
        assert proc.returncode == 4
        assert "numeric failure: mode extraction produced non-finite samples" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_duplicate_station_id_exits_3(self, tmp_path):
        stamps = np.datetime64("2024-01-01T00") + np.arange(48).astype("timedelta64[h]")
        with open(tmp_path / "series.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["timestamp", "a", "a", "b"])
            for i, ts in enumerate(stamps):
                writer.writerow([str(ts), *(repr(float(i % 7 + k)) for k in range(3))])
        proc = run("decompose", "--out-dir", str(tmp_path), check=False)
        assert proc.returncode == 3
        assert "data error:" in proc.stderr and "'a' repeats" in proc.stderr

    @pytest.mark.parametrize("station", ["/../../escaped", "a\\b", ""], ids=["escaping_path", "backslash", "empty"])
    def test_station_id_that_is_not_a_file_name_part_exits_3(self, tmp_path, capsys, station):
        out_dir = tmp_path / "inside" / "out"
        out_dir.mkdir(parents=True)
        (tmp_path / "light.ini").write_text("[fig]\nwindows = 24\n[vmd]\nk = 2\n[iceemdan]\nensemble_n = 2\n")
        stamps = np.datetime64("2024-01-01T00") + np.arange(48).astype("timedelta64[h]")
        with open(out_dir / "series.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["timestamp", station, "b"])
            for i, ts in enumerate(stamps):
                writer.writerow([str(ts), repr(3.0 + float(np.sin(i / 4.0))), repr(2.0 + i % 3)])
        before = sorted(tmp_path.rglob("*"))
        assert cli.main(["decompose", "--config", str(tmp_path / "light.ini"), "--out-dir", str(out_dir)]) == 3
        assert f"station id {station!r} is empty or holds" in capsys.readouterr().err
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize(
        "command, section, line",
        [
            ("decompose", "vmd", "k = 0"),
            ("decompose", "iceemdan", "ensemble_n = 0"),
            ("train", "iceemdan", "noise_amp = -1"),
            ("decompose", "fig", "windows = 0"),
            ("decompose", "train", "learning_rate = -1"),
            ("train", "fig", "windows = 24,24"),
            ("decompose", "relieff", "k = 0"),
            ("decompose", "vmd", "alpha = nan"),
            ("decompose", "vmd", "tol = inf"),
            ("train", "iceemdan", "noise_amp = nan"),
            ("synth", "synth", "noise_amp = inf"),
        ],
    )
    def test_out_of_range_value_exits_2_before_reading_data(
        self, tmp_path, monkeypatch, capsys, command, section, line
    ):
        bad = tmp_path / "bad.ini"
        bad.write_text(f"[{section}]\n{line}\n")
        reads = []
        monkeypatch.setattr(cli.cio, "load_charging_csv", lambda *a, **kw: reads.append(a))
        assert cli.main([command, "--config", str(bad), "--out-dir", str(tmp_path)]) == 2
        assert reads == []
        err = capsys.readouterr().err
        assert f"configuration error: [{section}]" in err
        assert line.split(" = ")[0] in err
        assert list(tmp_path.iterdir()) == [bad]  # no output written

    @pytest.mark.parametrize("command", ["pretrain", "train", "evaluate"])
    @pytest.mark.parametrize("key", ["train_ratio", "valid_ratio", "test_ratio"])
    def test_split_ratio_section_exits_2_before_reading_data(self, tmp_path, monkeypatch, capsys, command, key):
        bad = tmp_path / "bad.ini"
        bad.write_text(f"[data]\n{key} = 0.8\n")
        reads = []
        monkeypatch.setattr(cli.cio, "load_charging_csv", lambda *a, **kw: reads.append(a))
        assert cli.main([command, "--config", str(bad), "--out-dir", str(tmp_path)]) == 2
        assert reads == []
        assert f"configuration error: {bad}: unknown section [data]" in capsys.readouterr().err

    @staticmethod
    def with_lookback(data_copy, lookback):
        """data_copy's arguments with the light config at another [model] lookback."""
        out_dir, common = data_copy
        ini = out_dir / f"lookback{lookback}.ini"
        ini.write_text(LIGHT_INI.replace("lookback = 8", f"lookback = {lookback}"))
        return ["--config", str(ini), *common[2:]]

    @pytest.mark.parametrize("command", ["pretrain", "train", "evaluate"])
    def test_split_shorter_than_a_window_exits_3_before_the_front_end(self, data_copy, monkeypatch, capsys, command):
        calls = []
        monkeypatch.setattr(cli, "assemble_channels", lambda *a, **kw: calls.append(a))
        # 720 hours leave 72 validation steps, fewer than lookback+horizon = 203
        assert cli.main([command, *self.with_lookback(data_copy, 200)]) == 3
        assert calls == []
        assert "data error: valid split has 72 steps, fewer than the required 203" in capsys.readouterr().err

    def test_granule_window_longer_than_series_exits_3_before_decomposing(self, data_copy, monkeypatch, capsys):
        out_dir, _ = data_copy
        long = out_dir / "long.ini"
        long.write_text(LIGHT_INI.replace("windows = 24", "windows = 24,5000"))
        calls = []
        monkeypatch.setattr(channels, "_decompose_stations", lambda jobs: calls.append(jobs))
        assert cli.main(["decompose", "--config", str(long), "--seed", "11", "--out-dir", str(out_dir)]) == 3
        assert calls == []
        assert "data error: window 5000 exceeds series length 720" in capsys.readouterr().err

    def test_unknown_command_exits_2(self):
        proc = run("transmogrify", check=False)
        assert proc.returncode == 2

    def test_removed_flags_exit_2(self, tmp_path):
        for flag, value in (("--kind", "volume"), ("--horizon", "3"), ("--lookback", "8")):
            proc = run("synth", flag, value, "--out-dir", str(tmp_path), check=False)
            assert proc.returncode == 2
            assert f"unrecognized arguments: {flag} {value}" in proc.stderr

    def test_series_shorter_than_lookback_fails_forecast_before_the_front_end(self, data_copy, monkeypatch, capsys):
        out_dir, common = data_copy
        lines = (out_dir / "series.csv").read_text().splitlines(keepends=True)
        (out_dir / "series.csv").write_text("".join(lines[:8]))  # 7 steps, one fewer than lookback = 8

        def front_end(*args, **kwargs):
            raise AssertionError("the front end ran")

        monkeypatch.setattr(cli, "assemble_channels", front_end)
        assert cli.main(["forecast", *common]) == 3
        assert "data error: series has 7 steps; need at least lookback=8" in capsys.readouterr().err

    def test_evaluate_without_checkpoint_exits_3(self, data_copy):
        out_dir, common = data_copy
        # valid data directory, but no checkpoint has been trained here
        (out_dir / "model.npz").unlink()
        proc = run("evaluate", *common, check=False)
        assert proc.returncode == 3
        assert "data error:" in proc.stderr

    @pytest.mark.parametrize("command", ["train", "evaluate", "forecast"])
    def test_missing_adjacency_fails_before_the_front_end(self, data_copy, monkeypatch, command):
        out_dir, common = data_copy
        (out_dir / "adjacency.csv").unlink()
        calls = []
        monkeypatch.setattr(cli, "assemble_channels", lambda *a, **kw: calls.append(a))
        assert cli.main([command, *common]) == 3
        assert calls == []

    @pytest.mark.parametrize("damage", ["missing", "foreign_columns"])
    def test_bad_exogenous_file_exits_3_before_the_front_end(self, data_copy, monkeypatch, capsys, damage):
        out_dir, common = data_copy
        path = out_dir / "temperature.csv"
        if damage == "missing":
            path.unlink()
        else:
            _, rows = read_csv(path)
            with open(path, "w", newline="") as fh:
                csv.writer(fh).writerows([["timestamp", "north", "south"], *([r[0], r[1], r[1]] for r in rows)])
        calls = []
        monkeypatch.setattr(cli, "assemble_channels", lambda *a, **kw: calls.append(a))
        assert cli.main(["train", *common]) == 3
        assert calls == []
        err = capsys.readouterr().err
        assert "data error:" in err
        assert ("cannot read" if damage == "missing" else "neither the station ids nor one shared column") in err

    @pytest.mark.parametrize("name", ["series.csv", "temperature.csv"])
    def test_stamp_off_the_hour_exits_3_before_the_front_end(self, data_copy, monkeypatch, capsys, name):
        out_dir, common = data_copy
        path = out_dir / name
        header, rows = read_csv(path)
        rows[3][0] += ":30"
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows([header, *rows])
        calls = []
        monkeypatch.setattr(cli, "assemble_channels", lambda *a, **kw: calls.append(a))
        assert cli.main(["decompose", *common]) == 3
        assert calls == []
        assert f"data error: {path}: row 5: timestamp {rows[3][0]!r} is not on the hour" in capsys.readouterr().err

    def test_missing_exogenous_file_fails_pretrain_before_any_work(self, data_copy, monkeypatch, capsys):
        out_dir, common = data_copy
        (out_dir / "temperature.csv").unlink()
        (out_dir / "backbone.npz").unlink()
        calls = []
        monkeypatch.setattr(cli, "assemble_channels", lambda *a, **kw: calls.append(a))
        assert cli.main(["pretrain", *common]) == 3
        assert calls == []
        assert not (out_dir / "backbone.npz").exists()
        err = capsys.readouterr().err
        assert f"data error: cannot read {out_dir / 'temperature.csv'}" in err
        assert cli.main(["train", *common]) == 3
        assert f"data error: cannot read {out_dir / 'temperature.csv'}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, checkpoint",
        [("train", "backbone.npz"), ("evaluate", "model.npz"), ("forecast", "model.npz")],
    )
    def test_checkpoint_for_another_model_config_exits_2(self, data_copy, monkeypatch, capsys, command, checkpoint):
        out_dir, _ = data_copy
        before = (out_dir / "model.npz").read_bytes()
        calls = []
        monkeypatch.setattr(cli, "assemble_channels", lambda *a, **kw: calls.append(a))
        assert cli.main([command, *self.with_lookback(data_copy, 6)]) == 2
        assert calls == []
        err = capsys.readouterr().err
        assert "configuration error:" in err
        assert str(out_dir / checkpoint) in err
        assert (out_dir / "model.npz").read_bytes() == before

    @pytest.mark.parametrize("blocker", ["out_dir_is_a_file", "target_is_a_directory"])
    def test_unwritable_output_exits_3_and_leaves_no_temporary_file(self, tmp_path, blocker):
        if blocker == "out_dir_is_a_file":
            (tmp_path / "file").write_text("")
            out_dir = tmp_path / "file" / "sub"
        else:  # the temporary file is written, then cannot replace the target
            out_dir = tmp_path
            (out_dir / "series.csv").mkdir()
        proc = run("synth", "--out-dir", str(out_dir), check=False)
        assert proc.returncode == 3
        assert f"data error: cannot write {out_dir / 'series.csv'}" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert list(tmp_path.rglob("*.tmp")) == []

    def test_adapted_checkpoint_as_backbone_exits_2(self, data_copy, monkeypatch, capsys):
        out_dir, common = data_copy
        (out_dir / "backbone.npz").write_bytes((out_dir / "model.npz").read_bytes())
        before = (out_dir / "model.npz").read_bytes()
        calls = []
        monkeypatch.setattr(cli, "assemble_channels", lambda *a, **kw: calls.append(a))
        assert cli.main(["train", *common]) == 2
        assert calls == []  # refused before the front end runs
        assert not (out_dir / "channels.npz").exists()
        err = capsys.readouterr().err
        assert "configuration error: model is already in freeze mode 'partial'" in err
        assert str(out_dir / "backbone.npz") in err
        assert (out_dir / "model.npz").read_bytes() == before

    @pytest.mark.parametrize("command", ["evaluate", "forecast"])
    def test_a_container_without_a_codebook_as_checkpoint_exits_3(self, workspace, data_copy, capsys, command):
        ws, _ = workspace
        out_dir, common = data_copy
        (out_dir / "channels.npz").write_bytes((ws / "channels.npz").read_bytes())
        ini = out_dir / "channels_as_checkpoint.ini"
        ini.write_text(LIGHT_INI.replace("[io]\n", "[io]\ncheckpoint = channels.npz\n"))
        assert cli.main([command, "--config", str(ini), *common[2:]]) == 3
        path = out_dir / "channels.npz"
        assert f"data error: {path} is not a chargecast checkpoint: it has no nf4_codebook" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, damage",
        [("evaluate", "truncated"), ("forecast", "foreign"), ("evaluate", "missing_scale_codes")],
    )
    def test_malformed_checkpoint_exits_3(self, data_copy, command, damage):
        out_dir, common = data_copy
        path = out_dir / "model.npz"
        if damage == "truncated":
            data = path.read_bytes()
            path.write_bytes(data[: len(data) // 2])
        elif damage == "foreign":
            np.savez(path, weights=np.zeros(3))
        else:
            damage_checkpoint(path, damage)
        proc = run(command, *common, check=False)
        assert proc.returncode == 3
        assert "data error:" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("damage", sorted(CHECKPOINT_DAMAGE))
    def test_every_checkpoint_defect_exits_with_its_code(self, data_copy, monkeypatch, capsys, damage):
        out_dir, common = data_copy
        damage_checkpoint(out_dir / "model.npz", damage)
        calls = []
        monkeypatch.setattr(cli, "assemble_channels", lambda *a, **kw: calls.append(a))
        _, error, text = CHECKPOINT_DAMAGE[damage]
        code, label = (3, "data error:") if error is DataError else (2, "configuration error:")
        assert cli.main(["evaluate", *common]) == code
        assert calls == []
        err = capsys.readouterr().err
        assert label in err and text in err
        assert str(out_dir / "model.npz") in err
