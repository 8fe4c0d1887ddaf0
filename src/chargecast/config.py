"""Sectioned key-value configuration with defaults, file, and flag layers.

Precedence is command-line flag over config file over shipped default.
Every command echoes the fully resolved configuration and a short hash of
it, so runs can be compared by eye or by machine.
"""

from __future__ import annotations

import configparser
import hashlib
import os
import re
from dataclasses import dataclass
from inspect import signature

from . import synth
from .bands import DecomposeConfig
from .channels import ChannelConfig
from .errors import ConfigError
from .losses import LossConfig
from .model import ModelConfig
from .training import TrainConfig
from .vmd import VmdConfig

__all__ = ["PipelineConfig", "load_config", "SCHEMA"]


def _parse_bool(text: str) -> bool:
    t = text.strip().lower()
    if t in ("1", "true", "yes", "on"):
        return True
    if t in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parse_windows(text: str) -> tuple:
    windows = tuple(int(part) for part in text.split(",") if part.strip())
    if not windows:
        raise ValueError("expected a comma-separated list of window sizes")
    return windows


def _parse_paths(text: str) -> tuple:
    """Exogenous file paths; a file's stem names its channel, so no two stems may
    match and none may be ``holiday``, the holiday flag's name in the ranking."""
    paths = tuple(part.strip() for part in text.split(",") if part.strip())
    stems = [os.path.splitext(os.path.basename(path))[0] for path in paths]
    if "holiday" in stems:
        raise ValueError("file stem 'holiday' is reserved for the holiday flag")
    for stem in stems:
        if stems.count(stem) > 1:
            raise ValueError(f"file stem {stem!r} repeats")
    return paths


def _keys(*same, **renamed) -> dict:
    """{INI key: field or parameter name}: names in same are both."""
    return {**{name: name for name in same}, **renamed}


# section -> (typed config or synth.generate, its INI keys); each key's default
# and parser come from the default of the field or parameter it names
_TYPED = {
    "vmd": (VmdConfig, _keys("alpha", "tol", "max_iter", k="K")),
    "iceemdan": (DecomposeConfig, _keys("ensemble_n", "noise_amp")),
    "fig": (ChannelConfig, _keys(windows="granule_windows")),
    "relieff": (ChannelConfig, _keys("top_n", k="relieff_k")),
    "model": (ModelConfig, _keys("d_embed", "f_frozen", "u_unfrozen", "heads", "rank", "lookback", "horizon")),
    "train": (TrainConfig, _keys("learning_rate", "max_epochs", "batch_size", "freeze_mode")),
    "loss": (LossConfig, _keys("lambda_freq")),
    "synth": (synth.generate, _keys("days", "noise_amp", stations="n_stations", density="graph_density")),
}


def _row(default) -> tuple:
    """(default text, parser) for a field's default; a tuple is a list of windows."""
    if isinstance(default, tuple):
        return ",".join(map(str, default)), _parse_windows
    return str(default), type(default)


# section -> key -> (default string, parser)
SCHEMA = {
    section: {key: _row(signature(target).parameters[name].default) for key, name in keys.items()}
    for section, (target, keys) in _TYPED.items()
}
SCHEMA["train"].update(pretrain_epochs=("40", int), use_graph_mask=("true", _parse_bool))
SCHEMA.update(
    io={
        "series": ("series.csv", str),
        "adjacency": ("adjacency.csv", str),
        "holidays": ("holidays.txt", str),
        "exogenous": ("", _parse_paths),
        "backbone": ("backbone.npz", str),
        "checkpoint": ("model.npz", str),
        "out_dir": (".", str),
    },
    seeds={"root": ("0", int)},
)


@dataclass(frozen=True)
class PipelineConfig:
    raw: dict  # {(section, key): source string}

    def get(self, section: str, key: str):
        parser = SCHEMA[section][key][1]
        text = self.raw[(section, key)]
        try:
            return parser(text)
        except ValueError as exc:
            raise ConfigError(f"[{section}] {key} = {text!r}: {exc}") from exc

    def resolved_text(self) -> str:
        lines = []
        for section in sorted(SCHEMA):
            for key in sorted(SCHEMA[section]):
                lines.append(f"{section}.{key} = {self.raw[(section, key)]}")
        return "\n".join(lines) + "\n"

    def config_hash(self) -> str:
        return hashlib.sha256(self.resolved_text().encode()).hexdigest()[:12]

    # typed sub-configs ------------------------------------------------------

    def fields(self, section: str) -> dict:
        """{field or parameter: value} for the keys _TYPED maps in section."""
        return {name: self.get(section, key) for key, name in _TYPED[section][1].items()}

    def vmd_config(self) -> VmdConfig:
        return VmdConfig(**self.fields("vmd"))

    def decompose_config(self) -> DecomposeConfig:
        return DecomposeConfig(vmd=self.vmd_config(), **self.fields("iceemdan"))

    def channel_config(self) -> ChannelConfig:
        return ChannelConfig(decompose=self.decompose_config(), **self.fields("fig"), **self.fields("relieff"))

    def model_config(self, c_in: int) -> ModelConfig:
        """c_in comes from the data."""
        return ModelConfig(c_in=c_in, **self.fields("model"))

    def train_config(self) -> TrainConfig:
        """[train] use_graph_mask is not part of it: it marks the model's blocks at adaptation."""
        return TrainConfig(seed=self.seed(), **self.fields("train"))

    def loss_config(self) -> LossConfig:
        return LossConfig(**self.fields("loss"))

    def seed(self) -> int:
        return self.get("seeds", "root")


def load_config(path: str | None = None, overrides: dict | None = None) -> PipelineConfig:
    """Merge defaults, an optional INI-style file, and flag overrides.

    overrides maps (section, key) to source strings. Unknown sections or
    keys from either layer are rejected, and so is any value that a typed
    sub-config or ``synth.check_settings`` refuses, so a bad setting fails
    before any input is read.
    """
    raw = {(s, k): SCHEMA[s][k][0] for s in SCHEMA for k in SCHEMA[s]}

    if path is not None:
        parser = configparser.ConfigParser(interpolation=None)
        try:
            with open(path, encoding="utf-8-sig") as fh:
                parser.read_file(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        except configparser.Error as exc:
            raise ConfigError(f"malformed config file {path}: {exc}") from exc
        if parser.defaults():  # configparser merges [DEFAULT] into every other section
            raise ConfigError(f"{path}: unknown section [DEFAULT]")
        for section in parser.sections():
            if section not in SCHEMA:
                raise ConfigError(f"{path}: unknown section [{section}]")
            for key, value in parser.items(section):
                if key not in SCHEMA[section]:
                    raise ConfigError(f"{path}: unknown key {key!r} in [{section}]")
                raw[(section, key)] = value

    for (section, key), value in (overrides or {}).items():
        if section not in SCHEMA or key not in SCHEMA[section]:
            raise ConfigError(f"unknown override {section}.{key}")
        raw[(section, key)] = str(value)

    cfg = PipelineConfig(raw=raw)
    for section in SCHEMA:
        for key in SCHEMA[section]:
            cfg.get(section, key)  # force-parse so bad values fail up front
    for section, (target, keys) in _TYPED.items():
        check = synth.check_settings if section == "synth" else target
        try:
            check(**cfg.fields(section))
        except (ConfigError, ValueError) as exc:
            message = str(exc)
            for key, name in keys.items():  # name the INI key, not the field it sets
                message = re.sub(rf"\b{name}\b", key, message)
            raise ConfigError(f"[{section}] {message}") from exc
    return cfg
