"""Helpers shared by the test modules."""

import os

import numpy as np

import chargecast
from chargecast import io as cio
from chargecast.errors import ConfigError, DataError


def child_env():
    """Environment whose PYTHONPATH leads with the directory holding the imported chargecast.

    A child ``python -m chargecast`` then runs the same package as this
    process, whether it comes from an install or from a relative
    ``PYTHONPATH=src`` that would not resolve from the child's working
    directory.
    """
    env = dict(os.environ)
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(chargecast.__file__)))
    rest = env.get("PYTHONPATH")
    env["PYTHONPATH"] = package_root + (os.pathsep + rest if rest else "")
    return env


def nf4_codes(qt):
    """The codebook index of each element of the QuantizedTensor qt, read from its
    codes two per byte, low nibble first."""
    per_element = np.stack([qt.codes % 16, qt.codes // 16], axis=1).reshape(-1)
    return per_element[: int(np.prod(qt.shape))]


def _set(mapping, key, value):
    mapping[key] = value


# defects of a saved checkpoint of a model with one frozen and one graph block:
# name -> (edit of its arrays and decoded meta, error load_checkpoint raises, text the error holds)
CHECKPOINT_DAMAGE = {
    "missing_scale_codes": (lambda a, m: a.pop("q_scale_codes__block1__w_q"), DataError, "q_scale_codes__block1__w_q"),
    "missing_codes": (lambda a, m: a.pop("q_codes__block1__w_k"), DataError, "q_codes__block1__w_k"),
    "missing_adapter": (lambda a, m: a.pop("block1__heads__m_v"), DataError, "block1__heads__m_v"),
    "unknown_config_key": (lambda a, m: _set(m["config"], "bogus", 1), DataError, "bogus"),
    "invalid_model_size": (lambda a, m: _set(m["config"], "heads", 0), DataError, "malformed checkpoint"),
    "missing_masked": (lambda a, m: m.pop("masked"), DataError, "masked"),
    "short_masked": (lambda a, m: _set(m, "masked", m["masked"][:1]), DataError, "malformed checkpoint"),
    "short_weight": (lambda a, m: _set(a, "block0__w_q", a["block0__w_q"][:3]), DataError, "block0__w_q"),
    "misshapen_scale_min": (
        lambda a, m: _set(a, "q_scale_min__block1__w_v", np.zeros(2)), DataError, "q_scale_min__block1__w_v"
    ),
    "extra_array": (lambda a, m: _set(a, "block9__w_q", a["block0__w_q"]), DataError, "block9__w_q"),
    # json.dumps writes a NaN float as NaN, which JSON has no literal for
    "meta_not_json": (lambda a, m: _set(m, "version", float("nan")), DataError, "malformed"),
    "unknown_freeze_mode": (lambda a, m: _set(m, "freeze_mode", "sideways"), ConfigError, "unknown freeze_mode"),
    "foreign_codebook": (lambda a, m: _set(a, "nf4_codebook", -a["nf4_codebook"]), ConfigError, "codebook"),
    "foreign_version": (lambda a, m: _set(m, "version", 4), ConfigError, "unsupported checkpoint version"),
}


def damage_checkpoint(path, damage):
    """Rewrite the checkpoint at path with the CHECKPOINT_DAMAGE defect named damage."""
    meta, arrays = cio.read_npz(path)
    CHECKPOINT_DAMAGE[damage][0](arrays, meta)
    cio.write_npz(path, meta, arrays)
