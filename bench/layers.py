"""The layers a traced run measures: which public functions, patched where.

Modules import functions by name (``from .vmd import vmd``), so a wrapper
must replace the name in every namespace that calls it, not only in the
defining module.
"""

from __future__ import annotations

import hashlib
import inspect
import tracemalloc

from spans import Patches, Tracer, layer_totals

IO_FUNCTIONS = (
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
)

# layer name -> patch targets ("module:attribute" or "module:Class.method")
LAYERS = {
    # front end
    "vmd.vmd": ("chargecast.bands:vmd",),
    "emd.iceemdan": ("chargecast.bands:iceemdan",),
    "emd.emd": ("chargecast.emd:emd",),
    "entropy.msse_curve": ("chargecast.bands:msse_curve",),
    "entropy.sample_entropy": ("chargecast.entropy:sample_entropy",),
    "bands.multi_frequency_pipeline": (
        "chargecast.channels:multi_frequency_pipeline",
        "chargecast.cli:multi_frequency_pipeline",
    ),
    "bands.band_recombine": ("chargecast.bands:band_recombine",),
    "granulate.granule_channels": (
        "chargecast.channels:granule_channels",
        "chargecast.cli:granule_channels",
    ),
    "relieff.relieff": ("chargecast.channels:relieff", "chargecast.cli:relieff"),
    "channels.assemble_channels": (
        "chargecast.channels:assemble_channels",
        "chargecast.cli:assemble_channels",
    ),
    # model stack
    "model.forward_batch": ("chargecast.training:forward_batch", "chargecast.cli:forward_batch"),
    "autodiff.backward": ("chargecast.autodiff:Tensor.backward",),
    "losses.combined_loss": ("chargecast.training:combined_loss",),
    "training.optimizer_step": ("chargecast.training:Adam.step",),
    "training.fit": ("chargecast.training:fit", "chargecast.cli:fit"),
    "training.evaluate": ("chargecast.training:evaluate", "chargecast.cli:evaluate"),
    "model.freeze_and_adapt": (
        "chargecast.model:freeze_and_adapt",
        "chargecast.cli:freeze_and_adapt",
    ),
    "quantize.quantize": ("chargecast.model:quantize",),
    "quantize.dequantize": ("chargecast.model:dequantize",),
    "model.save_checkpoint": ("chargecast.model:save_checkpoint", "chargecast.cli:save_checkpoint"),
    "model.load_checkpoint": ("chargecast.model:load_checkpoint", "chargecast.cli:load_checkpoint"),
    # shell
    "synth.generate": ("chargecast.synth:generate",),
    "config.load_config": ("chargecast.config:load_config", "chargecast.cli:load_config"),
    **{f"io.{fn}": (f"chargecast.io:{fn}",) for fn in IO_FUNCTIONS},
}

# forward_batch is reported per caller: under training.fit, or anywhere else
SPAN_NAMES = tuple(
    name
    for layer in LAYERS
    for name in (
        (f"{layer}.train", f"{layer}.eval") if layer == "model.forward_batch" else (layer,)
    )
)


class LayerTrace:
    """Wraps every target in LAYERS with a span while installed."""

    def __init__(self):
        self.tracer = Tracer()
        self.patches = Patches()
        self.entropy_peak_mb = 0.0
        self.assemble_calls = 0
        self.assemble_repeats = 0
        self._assemble_seen = set()

    def install(self) -> None:
        for layer, targets in LAYERS.items():
            for target in targets:
                self.patches.apply(target, lambda fn, layer=layer: self._wrapper(layer, fn))

    def restore(self) -> None:
        self.patches.restore()

    def _wrapper(self, layer, fn):
        if layer == "model.forward_batch":
            return self.tracer.wrap(
                fn, lambda: layer + (".train" if self.tracer.inside("training.fit") else ".eval")
            )
        if layer == "entropy.sample_entropy":
            return self.tracer.wrap(self._peak_memory(fn), layer)
        if layer == "channels.assemble_channels":
            return self._count_repeats(fn, self.tracer.wrap(fn, layer))
        return self.tracer.wrap(fn, layer)

    def _peak_memory(self, fn):
        def measured(*args, **kwargs):
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                self.entropy_peak_mb = max(self.entropy_peak_mb, peak / 2**20)

        return measured

    def _count_repeats(self, fn, wrapped):
        """Count calls whose (series digest, config, seed) was already seen."""
        signature = inspect.signature(fn)

        def counted(*args, **kwargs):
            bound = signature.bind(*args, **kwargs).arguments
            digest = hashlib.sha256(bound["series"].values.tobytes()).hexdigest()
            key = (digest, repr(bound["cfg"]), repr(bound["seed"]))
            self.assemble_calls += 1
            if key in self._assemble_seen:
                self.assemble_repeats += 1
            self._assemble_seen.add(key)
            return wrapped(*args, **kwargs)

        return counted

    def metrics(self) -> dict:
        """Per-layer ``{metric: (value, unit)}`` from the recorded spans."""
        totals = layer_totals(self.tracer.spans)
        out = {}
        for name in SPAN_NAMES:
            calls, self_s = totals.get(name, (0, 0.0))
            out[f"{name}.calls"] = (calls, "count")
            out[f"{name}.self_s"] = (self_s, "s")
        out["entropy.sample_entropy.peak_mb"] = (self.entropy_peak_mb, "MB")
        share = self.assemble_repeats / self.assemble_calls if self.assemble_calls else 0.0
        out["channels.assemble_channels.repeat_share"] = (share, "share")
        out["trace.missing_targets"] = (len(self.patches.missing), "count")
        return out
