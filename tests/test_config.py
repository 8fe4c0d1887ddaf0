"""Tests for layered configuration loading."""

from inspect import signature

import pytest

from chargecast import synth
from chargecast.bands import DecomposeConfig
from chargecast.channels import ChannelConfig
from chargecast.config import SCHEMA, load_config
from chargecast.errors import ConfigError
from chargecast.losses import LossConfig
from chargecast.model import ModelConfig
from chargecast.training import TrainConfig
from chargecast.vmd import VmdConfig


class TestDefaults:
    def test_defaults_load_without_a_file(self):
        cfg = load_config()
        assert cfg.get("seeds", "root") == 0
        assert cfg.get("vmd", "k") == 8
        assert cfg.get("train", "use_graph_mask") is True
        assert cfg.get("fig", "windows") == (24, 168)
        assert cfg.get("io", "exogenous") == ()

    def test_typed_builders_round_out(self):
        cfg = load_config()
        assert cfg.vmd_config().K == 8
        assert cfg.decompose_config().ensemble_n == 100
        assert cfg.channel_config().granule_windows == (24, 168)
        assert cfg.model_config(c_in=6).c_in == 6
        assert cfg.train_config().freeze_mode == "partial"
        assert cfg.loss_config().lambda_freq == 0.1

    def test_schema_defaults_equal_the_dataclass_defaults(self):
        cfg = load_config()
        assert cfg.vmd_config() == VmdConfig()
        assert cfg.decompose_config() == DecomposeConfig()
        assert cfg.channel_config() == ChannelConfig()
        assert cfg.model_config(c_in=1) == ModelConfig()
        assert cfg.train_config() == TrainConfig()
        assert cfg.loss_config() == LossConfig()
        params = signature(synth.generate).parameters
        names = ("n_stations", "days", "graph_density", "noise_amp")
        assert cfg.fields("synth") == {name: params[name].default for name in names}

    def test_every_schema_default_parses(self):
        cfg = load_config()
        for section in SCHEMA:
            for key in SCHEMA[section]:
                cfg.get(section, key)


class TestPrecedence:
    def test_file_beats_default(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[vmd]\nk = 5\n")
        cfg = load_config(str(path))
        assert cfg.get("vmd", "k") == 5

    def test_override_beats_file(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[seeds]\nroot = 3\n")
        cfg = load_config(str(path), overrides={("seeds", "root"): "9"})
        assert cfg.seed() == 9

    def test_untouched_keys_keep_defaults(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[vmd]\nk = 5\n")
        cfg = load_config(str(path))
        assert cfg.get("vmd", "alpha") == 100.0

    def test_values_are_taken_literally(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[io]\nout_dir = runs/100%\nseries = %(out_dir)s.csv\n")
        cfg = load_config(str(path))
        assert cfg.get("io", "out_dir") == "runs/100%"
        assert cfg.get("io", "series") == "%(out_dir)s.csv"

    def test_byte_order_mark_is_ignored(self, tmp_path):
        text = "[synth]\nstations = 5\n[vmd]\nk = 5\n"
        plain, marked = tmp_path / "plain.ini", tmp_path / "marked.ini"
        plain.write_bytes(text.encode("utf-8"))
        marked.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
        cfg = load_config(str(marked))
        assert cfg.get("synth", "stations") == 5
        assert cfg.config_hash() == load_config(str(plain)).config_hash()


class TestRejection:
    def test_unknown_section(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[physics]\ngravity = 9.8\n")
        with pytest.raises(ConfigError, match=r"unknown section \[physics\]"):
            load_config(str(path))

    @pytest.mark.parametrize(
        "text", ["[DEFAULT]\nstations = 5\n", "[DEFAULT]\nk = 4\n[synth]\ndays = 20\n"], ids=["alone", "beside_synth"]
    )
    def test_default_section_is_unknown(self, tmp_path, text):
        # configparser would otherwise drop a lone [DEFAULT] or copy its keys into every section
        path = tmp_path / "run.ini"
        path.write_text(text)
        with pytest.raises(ConfigError, match=r"unknown section \[DEFAULT\]"):
            load_config(str(path))

    def test_unknown_key(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[vmd]\nkk = 5\n")
        with pytest.raises(ConfigError, match="unknown key 'kk'"):
            load_config(str(path))

    def test_unknown_override(self):
        with pytest.raises(ConfigError, match="unknown override vmd.kk"):
            load_config(overrides={("vmd", "kk"): "5"})

    def test_bad_value_names_section_key_and_text(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[vmd]\nk = many\n")
        with pytest.raises(ConfigError, match=r"\[vmd\] k = 'many'"):
            load_config(str(path))

    def test_bad_boolean(self):
        with pytest.raises(ConfigError, match="not a boolean"):
            load_config(overrides={("train", "use_graph_mask"): "maybe"})

    def test_channel_switches_are_unknown_keys(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[train]\nuse_bands = false\n")
        with pytest.raises(ConfigError, match="unknown key 'use_bands' in \\[train\\]"):
            load_config(str(path))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read config file"):
            load_config(str(tmp_path / "absent.ini"))

    def test_malformed_file(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("k = 5\n")  # key before any section header
        with pytest.raises(ConfigError, match="malformed"):
            load_config(str(path))

    def test_non_finite_lambda(self):
        with pytest.raises(ConfigError, match=r"\[loss\] lambda_freq must be finite"):
            load_config(overrides={("loss", "lambda_freq"): "nan"})

    @pytest.mark.parametrize(
        "section, key, value, message",
        [
            ("vmd", "k", "0", r"\[vmd\] k must be >= 2"),
            ("vmd", "k", "1", r"\[vmd\] k must be >= 2, got 1"),
            ("iceemdan", "ensemble_n", "0", r"\[iceemdan\] ensemble_n must be >= 1"),
            ("iceemdan", "noise_amp", "-1", r"\[iceemdan\] noise_amp must be >= 0"),
            ("relieff", "k", "0", r"\[relieff\] k must be >= 1"),
            ("fig", "windows", "0", r"\[fig\] granule windows must be >= 1"),
            ("fig", "windows", "24,24", r"\[fig\] granule windows must not repeat"),
            ("relieff", "top_n", "-1", r"\[relieff\] top_n must be >= 0"),
            ("train", "learning_rate", "-1", r"\[train\] learning_rate must be positive"),
            ("train", "freeze_mode", "solid", r"\[train\] freeze_mode"),
            ("model", "heads", "5", r"\[model\] heads must be >= 1 and divide"),
            ("synth", "stations", "1", r"\[synth\] stations must be >= 2"),
            ("synth", "density", "2", r"\[synth\] density must lie in \[0, 1\]"),
            ("vmd", "alpha", "nan", r"\[vmd\] alpha must be > 0 and finite, got nan"),
            ("vmd", "tol", "inf", r"\[vmd\] tol must be > 0 and finite, got inf"),
            ("iceemdan", "noise_amp", "nan", r"\[iceemdan\] noise_amp must be >= 0 and finite, got nan"),
            ("synth", "noise_amp", "inf", r"\[synth\] noise_amp must be non-negative and finite, got inf"),
            ("io", "exogenous", "a/temp.csv, b/temp.csv", r"\[io\] exogenous = .*file stem 'temp' repeats"),
            ("io", "exogenous", "temp.csv, data/holiday.csv", r"\[io\] exogenous = .*file stem 'holiday' is reserved"),
        ],
    )
    def test_out_of_range_values_fail_at_load(self, section, key, value, message):
        with pytest.raises(ConfigError, match=message):
            load_config(overrides={(section, key): value})

    @pytest.mark.parametrize(
        "section, key",
        [
            ("train", "optimizer"),
            ("train", "use_freq_loss"),
            ("model", "block_size_q"),
            ("model", "ln_eps"),
            ("data", "kind"),
            ("vmd", "tau"),
            ("vmd", "init"),
        ],
    )
    def test_removed_keys_are_unknown(self, tmp_path, section, key):
        path = tmp_path / "run.ini"
        path.write_text(f"[{section}]\n{key} = 1\n")
        message = r"unknown section \[data\]" if section == "data" else f"unknown key '{key}'"
        with pytest.raises(ConfigError, match=message):
            load_config(str(path))

    @pytest.mark.parametrize("key", ["train_ratio", "valid_ratio", "test_ratio"])
    def test_split_ratios_are_not_settings(self, tmp_path, key):
        # the split is domain.SPLIT_RATIOS
        path = tmp_path / "run.ini"
        path.write_text(f"[data]\n{key} = 0.8\n")
        with pytest.raises(ConfigError, match=r"unknown section \[data\]"):
            load_config(str(path))
        with pytest.raises(ConfigError, match=f"unknown override data.{key}"):
            load_config(overrides={("data", key): "0.8"})

    def test_empty_windows(self):
        with pytest.raises(ConfigError, match="window"):
            load_config(overrides={("fig", "windows"): ","})


DEFAULT_ECHO = """\
fig.windows = 24,168
iceemdan.ensemble_n = 100
iceemdan.noise_amp = 0.2
io.adjacency = adjacency.csv
io.backbone = backbone.npz
io.checkpoint = model.npz
io.exogenous =\x20
io.holidays = holidays.txt
io.out_dir = .
io.series = series.csv
loss.lambda_freq = 0.1
model.d_embed = 32
model.f_frozen = 2
model.heads = 4
model.horizon = 3
model.lookback = 12
model.rank = 4
model.u_unfrozen = 2
relieff.k = 70
relieff.top_n = 2
seeds.root = 0
synth.days = 60
synth.density = 0.5
synth.noise_amp = 0.1
synth.stations = 8
train.batch_size = 64
train.freeze_mode = partial
train.learning_rate = 0.01
train.max_epochs = 300
train.pretrain_epochs = 40
train.use_graph_mask = true
vmd.alpha = 100.0
vmd.k = 8
vmd.max_iter = 500
vmd.tol = 1e-07
"""


class TestEchoAndHash:
    def test_default_echo_is_pinned(self):
        assert load_config().resolved_text() == DEFAULT_ECHO

    def test_resolved_text_lists_every_key_sorted(self):
        cfg = load_config()
        text = cfg.resolved_text()
        lines = text.strip().splitlines()
        assert len(lines) == sum(len(keys) for keys in SCHEMA.values())
        assert lines == sorted(lines)
        assert "seeds.root = 0" in lines
        assert text.endswith("\n")

    def test_hash_is_stable_and_sensitive(self):
        a = load_config()
        b = load_config()
        c = load_config(overrides={("seeds", "root"): "1"})
        assert a.config_hash() == b.config_hash()
        assert a.config_hash() != c.config_hash()
        assert len(a.config_hash()) == 12

    def test_equivalent_layers_hash_identically(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[seeds]\nroot = 4\n")
        via_file = load_config(str(path))
        via_flag = load_config(overrides={("seeds", "root"): "4"})
        assert via_file.config_hash() == via_flag.config_hash()
