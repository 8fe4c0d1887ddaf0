"""Charging-series forecasting: multi-frequency preprocessing, feature
selection, and a partially frozen graph-attention forecaster with
quantized low-rank adaptation.

Each module's ``__all__`` is its public API; import a name from the module
that defines it (``from chargecast.channels import assemble_channels``).
Importing the package loads the library modules and binds no other names.
"""

from . import (
    autodiff, bands, channels, config, domain, emd, entropy, errors, granulate, io,
    losses, model, quantize, relieff, seeds, synth, training, vmd,
)
