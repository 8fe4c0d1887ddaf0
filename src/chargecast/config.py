"""Sectioned key-value configuration with defaults, file, and flag layers.

Precedence is command-line flag over config file over shipped default.
Every command echoes the fully resolved configuration and a short hash of
it, so runs can be compared by eye or by machine.
"""

from __future__ import annotations

import configparser
import hashlib
from dataclasses import dataclass

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
    return tuple(part.strip() for part in text.split(",") if part.strip())


# section -> key -> (default string, parser)
SCHEMA = {
    "io": {
        "series": ("series.csv", str),
        "adjacency": ("adjacency.csv", str),
        "holidays": ("holidays.txt", str),
        "exogenous": ("", _parse_paths),
        "backbone": ("backbone.npz", str),
        "checkpoint": ("model.npz", str),
        "out_dir": (".", str),
    },
    "seeds": {"root": ("0", int)},
    "data": {
        "train_ratio": ("0.8", float),
        "valid_ratio": ("0.1", float),
        "test_ratio": ("0.1", float),
    },
    "vmd": {
        "k": ("8", int),
        "alpha": ("100.0", float),
        "tol": ("1e-7", float),
        "max_iter": ("500", int),
    },
    "iceemdan": {
        "ensemble_n": ("100", int),
        "noise_amp": ("0.2", float),
    },
    "fig": {"windows": ("24,168", _parse_windows)},
    "relieff": {"k": ("70", int), "top_n": ("2", int)},
    "model": {
        "d_embed": ("32", int),
        "f_frozen": ("2", int),
        "u_unfrozen": ("2", int),
        "heads": ("4", int),
        "rank": ("4", int),
        "lookback": ("12", int),
        "horizon": ("3", int),
    },
    "train": {
        "learning_rate": ("0.01", float),
        "max_epochs": ("300", int),
        "pretrain_epochs": ("40", int),
        "batch_size": ("64", int),
        "use_graph_mask": ("true", _parse_bool),
        "freeze_mode": ("partial", str),
    },
    "loss": {"lambda_freq": ("0.1", float)},
    "synth": {
        "stations": ("8", int),
        "days": ("60", int),
        "density": ("0.5", float),
        "noise_amp": ("0.1", float),
    },
}


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

    def vmd_config(self) -> VmdConfig:
        return VmdConfig(
            K=self.get("vmd", "k"),
            alpha=self.get("vmd", "alpha"),
            tol=self.get("vmd", "tol"),
            max_iter=self.get("vmd", "max_iter"),
        )

    def decompose_config(self) -> DecomposeConfig:
        return DecomposeConfig(
            vmd=self.vmd_config(),
            ensemble_n=self.get("iceemdan", "ensemble_n"),
            noise_amp=self.get("iceemdan", "noise_amp"),
        )

    def channel_config(self) -> ChannelConfig:
        return ChannelConfig(
            decompose=self.decompose_config(),
            granule_windows=self.get("fig", "windows"),
            relieff_k=self.get("relieff", "k"),
            top_n=self.get("relieff", "top_n"),
        )

    def model_config(self, c_in: int) -> ModelConfig:
        """The [model] keys are ModelConfig's field names; c_in comes from the data."""
        return ModelConfig(c_in=c_in, **{key: self.get("model", key) for key in SCHEMA["model"]})

    def train_config(self) -> TrainConfig:
        """[train] use_graph_mask is not part of it: it marks the model's blocks at adaptation."""
        return TrainConfig(
            learning_rate=self.get("train", "learning_rate"),
            max_epochs=self.get("train", "max_epochs"),
            batch_size=self.get("train", "batch_size"),
            seed=self.get("seeds", "root"),
            freeze_mode=self.get("train", "freeze_mode"),
        )

    def loss_config(self) -> LossConfig:
        return LossConfig(lambda_freq=self.get("loss", "lambda_freq"))

    def ratios(self) -> tuple:
        r = (
            self.get("data", "train_ratio"),
            self.get("data", "valid_ratio"),
            self.get("data", "test_ratio"),
        )
        if min(r) <= 0:
            raise ConfigError(f"split ratios must be > 0, got {r}")
        if abs(sum(r) - 1.0) > 1e-9:
            raise ConfigError(f"split ratios must sum to 1, got {r}")
        return r

    def seed(self) -> int:
        return self.get("seeds", "root")


def load_config(path: str | None = None, overrides: dict | None = None) -> PipelineConfig:
    """Merge defaults, an optional INI-style file, and flag overrides.

    overrides maps (section, key) to source strings. Unknown sections or
    keys from either layer are rejected, and so is any value that a typed
    sub-config refuses, so a bad setting fails before any input is read.
    """
    raw = {(s, k): SCHEMA[s][k][0] for s in SCHEMA for k in SCHEMA[s]}

    if path is not None:
        parser = configparser.ConfigParser()
        try:
            with open(path, encoding="utf-8") as fh:
                parser.read_file(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        except configparser.Error as exc:
            raise ConfigError(f"malformed config file {path}: {exc}") from exc
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
    sub_configs = (
        ("[vmd]", cfg.vmd_config),
        ("[iceemdan]", cfg.decompose_config),
        ("[fig]", lambda: ChannelConfig(granule_windows=cfg.get("fig", "windows"))),
        ("[relieff]", lambda: ChannelConfig(relieff_k=cfg.get("relieff", "k"), top_n=cfg.get("relieff", "top_n"))),
        ("[train]", cfg.train_config),
        ("[loss]", cfg.loss_config),
        ("[model]", lambda: cfg.model_config(c_in=1)),
        ("[data]", cfg.ratios),
    )
    for section, make in sub_configs:
        try:
            make()
        except (ConfigError, ValueError) as exc:
            raise ConfigError(f"{section} {exc}") from exc
    return cfg
