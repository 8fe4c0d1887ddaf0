"""Charging-series forecasting: multi-frequency preprocessing, feature
selection, and a partially frozen graph-attention forecaster with
quantized low-rank adaptation."""

from .bands import BandSet, DecomposeConfig, multi_frequency_pipeline
from .channels import AssembledChannels, ChannelConfig, assemble_channels
from .config import PipelineConfig, load_config
from .domain import (
    CalendarFrame,
    SeriesTensor,
    StationGraph,
    Windows,
    make_windows,
    split_dataset,
)
from .emd import emd, iceemdan
from .entropy import msse_curve, sample_entropy
from .errors import ChargecastError, ConfigError, DataError, NumericError
from .granulate import fig_granulate, granule_channels, membership
from .losses import LossConfig, combined_loss, frequency_loss, mae_loss, metrics
from .model import (
    ModelConfig,
    PfgaModel,
    build_model,
    forward_batch,
    freeze_and_adapt,
    load_checkpoint,
    save_checkpoint,
    trainable_parameter_count,
)
from .quantize import NF4_CODEBOOK, QuantizedTensor, dequantize, quantize
from .relieff import FeatureTable, FeatureWeights, relieff, select_features
from .synth import generate
from .training import EvalReport, FitResult, TrainConfig, evaluate, fit, persistence_forecast
from .vmd import VmdConfig, vmd

__version__ = "0.1.0"

__all__ = [
    "AssembledChannels",
    "BandSet",
    "CalendarFrame",
    "ChannelConfig",
    "ChargecastError",
    "ConfigError",
    "DataError",
    "DecomposeConfig",
    "EvalReport",
    "FeatureTable",
    "FeatureWeights",
    "FitResult",
    "LossConfig",
    "ModelConfig",
    "NF4_CODEBOOK",
    "NumericError",
    "PfgaModel",
    "PipelineConfig",
    "QuantizedTensor",
    "SeriesTensor",
    "StationGraph",
    "TrainConfig",
    "VmdConfig",
    "Windows",
    "assemble_channels",
    "build_model",
    "combined_loss",
    "dequantize",
    "emd",
    "evaluate",
    "fig_granulate",
    "fit",
    "forward_batch",
    "freeze_and_adapt",
    "frequency_loss",
    "generate",
    "granule_channels",
    "iceemdan",
    "load_checkpoint",
    "load_config",
    "mae_loss",
    "make_windows",
    "membership",
    "metrics",
    "msse_curve",
    "multi_frequency_pipeline",
    "persistence_forecast",
    "quantize",
    "relieff",
    "sample_entropy",
    "save_checkpoint",
    "select_features",
    "split_dataset",
    "trainable_parameter_count",
    "vmd",
    "__version__",
]
