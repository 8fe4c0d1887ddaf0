"""Variational mode decomposition.

Extracts K band-limited modes by minimizing summed spectral bandwidth
subject to relaxed reconstruction. The solver runs the ADMM updates of
Dragomiretskiy & Zosso (IEEE TSP 2014) in the Fourier domain without
dual ascent (their tau = 0, the setting for noisy input): a
Wiener-filter mode update and a power-weighted center-frequency update,
with the centers starting evenly spaced at 0.5k/K. The input is
mirror-extended by half its length on each side to suppress boundary
effects, and the extension is cropped off the returned modes.

The updates act on the one-sided (analytic) spectrum: the target's
negative half is zeroed, so every mode spectrum stays identically zero
there. The solver therefore iterates on the non-negative half of the
shifted frequency grid only and rebuilds the two-sided, Hermitian
spectra just for the final inverse FFT.

``vmd`` returns the modes as one (K, T) array, in ascending center
order, together with the (K,) array of their center frequencies.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import NumericError

__all__ = ["VmdConfig", "vmd"]


@dataclass(frozen=True)
class VmdConfig:
    """Solver settings.

    K : mode count, at least 2 since the pipeline drops the top mode as noise
    alpha : bandwidth penalty
    tol : stop when the summed relative change of mode spectra drops below
    max_iter : iteration cap
    """

    K: int = 8
    alpha: float = 100.0
    tol: float = 1e-7
    max_iter: int = 500

    def __post_init__(self):
        if self.K < 2:
            raise ValueError(f"K must be >= 2, got {self.K}")
        if not 0 < self.alpha < np.inf:
            raise ValueError(f"alpha must be > 0 and finite, got {self.alpha}")
        if not 0 < self.tol < np.inf:
            raise ValueError(f"tol must be > 0 and finite, got {self.tol}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")


def _mirror_extend(x: np.ndarray) -> tuple[np.ndarray, int]:
    n = x.size
    lpad = n // 2
    rpad = n - lpad
    left = x[:lpad][::-1]
    right = x[n - rpad :][::-1]
    return np.concatenate([left, x, right]), lpad


def vmd(signal, cfg: VmdConfig) -> tuple[np.ndarray, np.ndarray]:
    """Decompose a signal into cfg.K modes, ordered by ascending center frequency.

    Returns (modes, centers): the (K, T) float64 modes and their (K,)
    float64 center frequencies in cycles/sample, clipped to [0, 0.5].
    Raises NumericError if a mode is not finite.
    """
    x = np.asarray(signal, dtype=float)
    if x.ndim != 1:
        raise ValueError("signal must be 1-D")
    if not np.all(np.isfinite(x)):
        raise ValueError("signal contains non-finite values")
    if x.size < 2 * cfg.K:
        raise ValueError(f"signal length {x.size} too short for K={cfg.K} modes")

    ext, lpad = _mirror_extend(x)
    n_ext = ext.size  # 2 * x.size, so both halves of the grid have `half` bins
    half = n_ext // 2
    # non-negative half of the shifted grid np.arange(n_ext) / n_ext - 0.5
    pos = np.arange(half, n_ext) / n_ext - 0.5
    f_plus = np.fft.fftshift(np.fft.fft(ext))[half:]

    omega = (0.5 / cfg.K) * np.arange(cfg.K)
    u_hat = np.zeros((cfg.K, half), dtype=complex)
    # |u_hat|^2 and |u_hat - u_prev|^2 on the full grid, zero below half:
    # the stop test sums them in exactly the two-sided order
    power = np.zeros((cfg.K, n_ext))
    step = np.zeros((cfg.K, n_ext))

    for it in range(cfg.max_iter):
        u_prev = u_hat.copy()
        # the previous iteration left |u_prev|^2 in power
        den = power.sum(axis=1)
        others = u_hat.sum(axis=0)
        for k in range(cfg.K):
            others -= u_hat[k]
            u_hat[k] = (f_plus - others) / (1.0 + 2.0 * cfg.alpha * (pos - omega[k]) ** 2)
            mode_power = power[k, half:]
            np.square(np.abs(u_hat[k]), out=mode_power)
            total = mode_power.sum()
            if total > 0.0:
                omega[k] = float((pos * mode_power).sum() / total)
            others += u_hat[k]
        if it > 0:
            np.square(np.abs(u_hat - u_prev), out=step[:, half:])
            num = step.sum(axis=1)
            # a mode that is zero and stays zero (an all-zero input) has
            # not changed; any other mode with den == 0 blocks the stop
            moved = den > 0.0
            if np.all(moved | (num == 0.0)):
                change = float((num[moved] / den[moved]).sum())
                if change < cfg.tol:
                    break
    else:
        warnings.warn(
            f"vmd did not converge: K={cfg.K}, alpha={cfg.alpha} reached "
            f"max_iter={cfg.max_iter} without meeting tol={cfg.tol}",
            RuntimeWarning,
            stacklevel=2,
        )

    # rebuild the Hermitian two-sided spectra, invert, and crop the extension
    full = np.zeros((cfg.K, n_ext), dtype=complex)
    full[:, half:] = u_hat
    full[:, 1 : half + 1] = np.conj(u_hat[:, ::-1])
    full[:, 0] = np.conj(full[:, -1])
    time_modes = np.real(np.fft.ifft(np.fft.ifftshift(full, axes=1), axis=1))
    time_modes = time_modes[:, lpad : lpad + x.size]
    if not np.all(np.isfinite(time_modes)):
        raise NumericError("mode extraction produced non-finite samples")

    omega = np.clip(omega, 0.0, 0.5)
    order = np.argsort(omega, kind="stable")
    return time_modes[order], omega[order]
