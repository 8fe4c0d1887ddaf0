"""4-bit block quantization: codebook shape, error bounds, exact paths.

The EXPECTED_CODEBOOK literals were derived once from the normal-quantile
construction (15 evenly spaced probability points on each sign, offset
0.9677083, normalized to +/-1 with an exact zero) and frozen here, so a
codebook regression cannot hide behind the code that builds it.
"""

import subprocess
import sys

import numpy as np
import pytest
from conftest import child_env, nf4_codes

import chargecast.quantize as quantize_module
from chargecast.quantize import NF4_CODEBOOK, dequantize, quantize

EXPECTED_CODEBOOK = np.array(
    [
        -1.0,
        -0.69619289060372,
        -0.5250730386952291,
        -0.3949174906993099,
        -0.2844413576181077,
        -0.18477343519288886,
        -0.09104999214427931,
        0.0,
        0.07958032909416937,
        0.16093017270493618,
        0.2461122939299359,
        0.33791519352165506,
        0.44070980241319013,
        0.562616970075237,
        0.7229567278928821,
        1.0,
    ]
)
MAX_GAP = 0.30380710939628


def test_codebook_matches_frozen_values():
    np.testing.assert_array_equal(NF4_CODEBOOK, EXPECTED_CODEBOOK)


def test_codebook_structure():
    assert NF4_CODEBOOK.shape == (16,)
    assert NF4_CODEBOOK[0] == -1.0 and NF4_CODEBOOK[-1] == 1.0
    assert 0.0 in NF4_CODEBOOK
    assert np.all(np.diff(NF4_CODEBOOK) > 0)
    assert abs(float(np.max(np.diff(NF4_CODEBOOK))) - MAX_GAP) < 1e-15


def test_roundtrip_error_bound_per_block():
    """|x - dq(q(x))| <= absmax * gap/2 + scale_step/2 for every element."""
    rng = np.random.default_rng(0)
    x = rng.normal(size=4096)
    qt = quantize(x)
    back = dequantize(qt)
    err = np.abs(back - x)
    for b in range(qt.n_blocks):
        lo, hi = b * 64, min((b + 1) * 64, x.size)
        absmax = np.max(np.abs(x[lo:hi]))
        step = float(qt.scale_step[b // 256])  # superblocks group 256 block scales
        bound = absmax * MAX_GAP / 2.0 + step / 2.0 + 1e-12
        assert err[lo:hi].max() <= bound


def test_error_bound_on_large_gaussian():
    rng = np.random.default_rng(1)
    x = rng.normal(0.0, 2.5, size=100_000)
    qt = quantize(x)
    back = dequantize(qt)
    err = np.abs(back - x)
    scales = qt.block_scales()
    for b in range(qt.n_blocks):
        lo, hi = b * 64, min((b + 1) * 64, x.size)
        absmax = np.max(np.abs(x[lo:hi]))
        step = float(qt.scale_step[b // 256])
        assert err[lo:hi].max() <= absmax * MAX_GAP / 2.0 + step / 2.0 + 1e-12
        # the stored scale can drift from absmax only by the 8-bit scale grid
        assert abs(float(scales[b]) - absmax) <= step / 2.0 + 1e-15


def test_codebook_valued_blocks_roundtrip_bitwise():
    """Inputs already on the grid with a shared absmax run through untouched."""
    rng = np.random.default_rng(2)
    levels = rng.integers(0, 16, size=1024)
    x = NF4_CODEBOOK[levels] * 3.0
    x[::64] = 3.0  # pin every block's absmax so all scale codes agree
    qt = quantize(x)
    back = dequantize(qt)
    np.testing.assert_array_equal(back, x)
    again = dequantize(quantize(back))
    np.testing.assert_array_equal(again, back)


def test_idempotent_after_one_pass_on_uniform_scale_blocks():
    rng = np.random.default_rng(3)
    x = rng.normal(size=512)
    x[::64] = np.max(np.abs(x)) + 1.0  # equalize block absmax
    once = dequantize(quantize(x))
    twice = dequantize(quantize(once))
    np.testing.assert_array_equal(once, twice)


def test_zero_blocks_stay_zero():
    x = np.zeros(200)
    qt = quantize(x)
    np.testing.assert_array_equal(dequantize(qt), x)


def test_all_equal_block_is_exact():
    x = np.full(64, 0.73)
    np.testing.assert_array_equal(dequantize(quantize(x)), x)


def test_tie_picks_lower_code_index():
    # halving cb[8] is exact in binary fp, so the distance to cb[7]=0 and
    # cb[8] agrees bitwise and argmin must take the lower index (the zero)
    mid = float(NF4_CODEBOOK[8]) / 2.0
    assert abs(mid - 0.0) == abs(mid - NF4_CODEBOOK[8])
    x = np.full(64, 0.0)
    x[0] = 1.0  # absmax 1 so normalization is exact
    x[1] = mid
    qt = quantize(x)
    assert nf4_codes(qt)[1] == 7


def test_tail_block_shorter_than_block_size():
    rng = np.random.default_rng(4)
    x = rng.normal(size=150)  # 64 + 64 + 22
    back = dequantize(quantize(x))
    assert back.shape == (150,)
    assert np.isfinite(back).all()


def test_matrix_shape_preserved():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(48, 96))
    qt = quantize(x)
    assert qt.shape == (48, 96)
    assert dequantize(qt).shape == (48, 96)


def test_rejects_bad_input():
    with pytest.raises(ValueError):
        quantize(np.array([]))
    with pytest.raises(ValueError):
        quantize(np.array([1.0, np.nan]))


def test_quantize_deterministic():
    rng = np.random.default_rng(6)
    x = rng.normal(size=1000)
    a = quantize(x)
    b = quantize(x)
    np.testing.assert_array_equal(a.codes, b.codes)
    np.testing.assert_array_equal(a.scale_codes, b.scale_codes)


def loop_quantize(values, block_size, superblock):
    """Block-by-block reference: codes, scale codes, scale min/step, dequantized."""
    flat = np.asarray(values, dtype=float).reshape(-1)
    n_blocks = -(-flat.size // block_size)
    absmax = np.zeros(n_blocks)
    codes = np.empty(flat.size, dtype=np.uint8)
    for b in range(n_blocks):
        lo, hi = b * block_size, min((b + 1) * block_size, flat.size)
        block = flat[lo:hi]
        absmax[b] = np.max(np.abs(block))
        normalized = np.zeros_like(block) if absmax[b] == 0.0 else block / absmax[b]
        codes[lo:hi] = np.abs(normalized[:, None] - NF4_CODEBOOK[None, :]).argmin(axis=1)
    n_super = -(-n_blocks // superblock)
    scale_min, scale_step = np.zeros(n_super), np.zeros(n_super)
    scale_codes = np.zeros(n_blocks, dtype=np.uint8)
    for s in range(n_super):
        lo, hi = s * superblock, min((s + 1) * superblock, n_blocks)
        group = absmax[lo:hi]
        scale_min[s] = group.min()
        scale_step[s] = (group.max() - group.min()) / 255.0
        if scale_step[s] != 0.0:
            ratio = np.round((group - scale_min[s]) / scale_step[s])
            scale_codes[lo:hi] = np.clip(ratio, 0, 255)
    back = NF4_CODEBOOK[codes].copy()
    for b in range(n_blocks):
        sb = b // superblock
        back[b * block_size : (b + 1) * block_size] *= scale_min[sb] + scale_step[sb] * scale_codes[b]
    return codes, scale_codes, scale_min, scale_step, back.reshape(np.shape(values))


def _ragged_cases():
    rng = np.random.default_rng(7)
    constant = np.tile(np.r_[2.0, np.full(15, -0.5)], 8)  # every block's absmax is 2
    return {
        "partial last block": (rng.normal(size=150), 64, 256),
        "partial last superblock": (rng.normal(size=(9, 37)), 16, 4),
        "all-zero block": (np.r_[rng.normal(size=64), np.zeros(64), rng.normal(size=40)], 64, 2),
        "constant superblock": (constant, 16, 4),
        "block and superblock of one": (rng.normal(size=37), 1, 1),
    }


def quantize_in_blocks(monkeypatch, x, block_size, superblock):
    monkeypatch.setattr(quantize_module, "BLOCK_SIZE", block_size)
    monkeypatch.setattr(quantize_module, "SUPERBLOCK", superblock)
    return quantize(x)


@pytest.mark.parametrize("case", sorted(_ragged_cases()))
def test_array_form_is_bit_identical_to_loop_form(monkeypatch, case):
    x, block_size, superblock = _ragged_cases()[case]
    qt = quantize_in_blocks(monkeypatch, x, block_size, superblock)
    codes, scale_codes, scale_min, scale_step, back = loop_quantize(x, block_size, superblock)
    assert qt.codes.dtype == np.uint8 and qt.codes.shape == ((codes.size + 1) // 2,)
    np.testing.assert_array_equal(nf4_codes(qt), codes)
    np.testing.assert_array_equal(qt.scale_codes, scale_codes)
    np.testing.assert_array_equal(qt.scale_min, scale_min)
    np.testing.assert_array_equal(qt.scale_step, scale_step)
    np.testing.assert_array_equal(dequantize(qt), back)


def test_constant_superblock_has_zero_step(monkeypatch):
    x, block_size, superblock = _ragged_cases()["constant superblock"]
    qt = quantize_in_blocks(monkeypatch, x, block_size, superblock)
    assert np.all(qt.scale_step == 0.0) and np.all(qt.scale_codes == 0)


def test_import_does_not_load_scipy_stats():
    probe = "import sys, chargecast; print('scipy.stats' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", probe], env=child_env(), capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"
