"""Tests for the partially frozen graph-attention network.

The soundness tests treat a single attention block as the unit: with the
adjacency mask applied, a node's output must be bitwise indifferent to the
inputs of nodes it is not connected to.
"""

import numpy as np
import pytest
from conftest import CHECKPOINT_DAMAGE, damage_checkpoint, nf4_codes

from chargecast import io as cio
from chargecast.autodiff import no_grad
from chargecast.errors import ConfigError, DataError
from chargecast.model import (
    FREEZE_MODES,
    ModelConfig,
    _positional_rows,
    build_model,
    forward_batch,
    freeze_and_adapt,
    graph_attention_block,
    load_checkpoint,
    mask_bias,
    save_checkpoint,
    trainable_parameter_count,
)
from chargecast.quantize import dequantize

TINY = ModelConfig(
    d_embed=8,
    lookback=6,
    horizon=2,
    c_in=3,
    f_frozen=1,
    u_unfrozen=1,
    heads=2,
    rank=2,
)


def random_symmetric_adjacency(rng, n, density=0.5):
    upper = rng.random((n, n)) < density
    adj = np.triu(upper, k=1)
    adj = (adj | adj.T).astype(float)
    np.fill_diagonal(adj, 1.0)
    return adj


def random_batch(rng, cfg, b=2, n=5):
    hist = rng.normal(size=(b, cfg.lookback, n, cfg.c_in))
    hours = rng.integers(0, 24, size=b)
    dows = rng.integers(0, 7, size=b)
    return hist, hours, dows


def unmask(model):
    """Clear every block's mask mark: the model then attends over all nodes."""
    for blk in model.blocks:
        blk.masked = False
    return model


def tape_size(out):
    """Number of autodiff nodes reachable from out, leaves included."""
    seen, stack = set(), [out]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(node._parents)
    return len(seen)


class TestModelConfig:
    def test_width_and_head_dim(self):
        assert TINY.width == 24
        assert TINY.d_k == 12

    def test_heads_must_divide_width(self):
        with pytest.raises(ConfigError, match="divide"):
            ModelConfig(d_embed=8, heads=5)

    def test_rank_below_head_dim(self):
        with pytest.raises(ConfigError, match="rank"):
            ModelConfig(d_embed=8, heads=2, rank=12)

    def test_at_least_one_graph_block(self):
        with pytest.raises(ConfigError, match="u_unfrozen"):
            ModelConfig(u_unfrozen=0)

    def test_positive_sizes(self):
        with pytest.raises(ConfigError):
            ModelConfig(lookback=0)


class TestPositionalEncoding:
    def test_deterministic(self):
        assert np.array_equal(_positional_rows(16, 24), _positional_rows(16, 24))

    def test_rows_prefix_property(self):
        assert np.array_equal(_positional_rows(5, 24), _positional_rows(16, 24)[:5])

    def test_rows_have_no_node_cap(self):
        rows = _positional_rows(129, 24)
        assert rows.shape == (129, 24)
        assert np.array_equal(rows[:64], _positional_rows(64, 24))

    def test_even_dims_sine_odd_dims_cosine(self):
        rows = _positional_rows(8, 6)
        assert np.allclose(rows[0, 0::2], 0.0)
        assert np.allclose(rows[0, 1::2], 1.0)
        assert np.allclose(rows[3, 0], np.sin(3.0)) and np.allclose(rows[3, 1], np.cos(3.0))


class TestEmbeddingHelpers:
    """The temporal embedding, seen through forward_batch."""

    def test_temporal_embedding_range_checks(self):
        rng = np.random.default_rng(0)
        model = build_model(TINY, rng)
        hist, _, _ = random_batch(rng, TINY, b=1, n=3)
        adj = np.ones((3, 3))
        with pytest.raises(ConfigError, match="hour"):
            forward_batch(model, hist, np.array([24]), np.array([0]), adj)
        with pytest.raises(ConfigError, match="day-of-week"):
            forward_batch(model, hist, np.array([0]), np.array([7]), adj)

    def test_temporal_embedding_is_table_sum(self):
        """Moving w_w[2] into w_d[5] as their sum leaves the (5, 2) forecast bit-identical."""
        rng = np.random.default_rng(0)
        model = build_model(TINY, rng)
        hist, _, _ = random_batch(rng, TINY, b=1, n=3)
        hours, dows, adj = np.array([5]), np.array([2]), np.ones((3, 3))
        want = forward_batch(model, hist, hours, dows, adj).data
        model.embed.w_d.data[5] = model.embed.w_d.data[5] + model.embed.w_w.data[2]
        model.embed.w_w.data[2] = 0.0
        got = forward_batch(model, hist, hours, dows, adj).data
        assert np.array_equal(got, want)


class TestMaskBias:
    def test_zero_on_edges_large_negative_off(self):
        adj = np.array([[1.0, 0.0], [1.0, 1.0]])
        bias = mask_bias(adj)
        assert bias[0, 0] == 0.0 and bias[1, 0] == 0.0 and bias[1, 1] == 0.0
        assert bias[0, 1] <= -1e8

    def test_rejects_missing_self_loop(self):
        with pytest.raises(ConfigError, match="diagonal"):
            mask_bias(np.array([[1.0, 1.0], [1.0, 0.0]]))


class TestMaskSoundness:
    """Perturbing a non-adjacent node must not move a node's block output."""

    def test_non_adjacent_nodes_have_zero_influence(self):
        rng = np.random.default_rng(77)
        model = build_model(TINY, rng)
        blk = model.blocks[TINY.f_frozen]
        for trial in range(12):
            n = int(rng.integers(3, 9))
            adj = random_symmetric_adjacency(rng, n, density=0.4)
            i, j = rng.choice(n, size=2, replace=False)
            adj[i, j] = adj[j, i] = 0.0
            x = rng.normal(size=(n, TINY.width))
            bumped = x.copy()
            bumped[j] += rng.normal(size=TINY.width)
            base = graph_attention_block(x, adj, blk, TINY).data
            moved = graph_attention_block(bumped, adj, blk, TINY).data
            free = (adj[:, j] == 0.0) & (np.arange(n) != j)
            assert free[i]
            assert np.max(np.abs(moved[free] - base[free])) <= 1e-12
            # the perturbed node itself must move, or the check proves nothing
            assert np.max(np.abs(moved[j] - base[j])) > 1e-8

    def test_adjacent_nodes_do_feel_the_perturbation(self):
        rng = np.random.default_rng(78)
        model = build_model(TINY, rng)
        blk = model.blocks[TINY.f_frozen]
        n = 6
        adj = random_symmetric_adjacency(rng, n, density=0.9)
        adj[0, 1] = adj[1, 0] = 1.0
        x = rng.normal(size=(n, TINY.width))
        bumped = x.copy()
        bumped[1] += rng.normal(size=TINY.width)
        base = graph_attention_block(x, adj, blk, TINY).data
        moved = graph_attention_block(bumped, adj, blk, TINY).data
        assert np.max(np.abs(moved[0] - base[0])) > 1e-8

    def test_unmasked_block_mixes_everything(self):
        rng = np.random.default_rng(79)
        model = unmask(build_model(TINY, rng))
        n = 6
        hist, hours, dows = random_batch(rng, TINY, b=1, n=n)
        bumped = hist.copy()
        bumped[:, :, 3] += rng.normal(size=(TINY.lookback, TINY.c_in))
        sparse = np.eye(n)
        base = forward_batch(model, hist, hours, dows, sparse).data
        moved = forward_batch(model, bumped, hours, dows, sparse).data
        deltas = np.max(np.abs(moved - base)[0, :, :, 0], axis=0)
        assert np.all(deltas > 1e-10)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(81)
        model = build_model(TINY, rng)
        blk = model.blocks[-1]
        n = 7
        adj = random_symmetric_adjacency(rng, n)
        x = rng.normal(size=(n, TINY.width))
        perm = rng.permutation(n)
        out = graph_attention_block(x, adj, blk, TINY).data
        out_p = graph_attention_block(x[perm], adj[perm][:, perm], blk, TINY).data
        assert np.allclose(out_p, out[perm], rtol=1e-12, atol=1e-12)

    def test_adjacency_validation(self):
        rng = np.random.default_rng(82)
        model = build_model(TINY, rng)
        blk = model.blocks[-1]
        x = rng.normal(size=(4, TINY.width))
        with pytest.raises(ConfigError, match="adjacency"):
            graph_attention_block(x, np.ones((3, 3)), blk, TINY)
        no_diag = np.ones((4, 4))
        no_diag[2, 2] = 0.0
        with pytest.raises(ConfigError, match="diagonal"):
            graph_attention_block(x, no_diag, blk, TINY)


class TestBuildModel:
    def test_same_seed_same_parameters(self):
        a = build_model(TINY, np.random.default_rng(3))
        b = build_model(TINY, np.random.default_rng(3))
        for (name_a, ta), (name_b, tb) in zip(a.named_parameters(), b.named_parameters()):
            assert name_a == name_b
            assert np.array_equal(ta.data, tb.data)

    def test_starts_fully_trainable(self):
        model = build_model(TINY, np.random.default_rng(4))
        assert model.freeze_mode == "none"
        assert all(t.requires_grad for _, t in model.named_parameters())

    def test_masked_flags_mark_graph_blocks(self):
        cfg = ModelConfig(d_embed=8, heads=2, rank=2, f_frozen=2, u_unfrozen=3)
        model = build_model(cfg, np.random.default_rng(5))
        assert [blk.masked for blk in model.blocks] == [False, False, True, True, True]

    def test_forward_batch_shape(self):
        rng = np.random.default_rng(6)
        model = build_model(TINY, rng)
        hist, hours, dows = random_batch(rng, TINY, b=3, n=5)
        adj = random_symmetric_adjacency(rng, 5)
        out = forward_batch(model, hist, hours, dows, adj)
        assert out.shape == (3, TINY.horizon, 5, 1)
        assert np.all(np.isfinite(out.data))

    def test_forward_batch_validation(self):
        rng = np.random.default_rng(8)
        model = build_model(TINY, rng)
        hist, hours, dows = random_batch(rng, TINY, b=2, n=4)
        adj = random_symmetric_adjacency(rng, 4)
        with pytest.raises(ConfigError, match="shape"):
            forward_batch(model, hist[:, :-1], hours, dows, adj)
        with pytest.raises(ConfigError, match=r"\(B,\)"):
            forward_batch(model, hist, np.tile(hours, (2, 1)), dows, adj)
        with pytest.raises(ConfigError, match="hour"):
            forward_batch(model, hist, np.array([25, 0]), dows, adj)
        with pytest.raises(ConfigError, match="day-of-week"):
            forward_batch(model, hist, hours, np.array([0, 9]), adj)
        with pytest.raises(ConfigError, match="adjacency"):
            forward_batch(model, hist, hours, dows, np.ones((3, 3)))

    def test_forward_batch_rejects_zero_diagonal(self):
        """Without self-loops a node's attention row is all fill, i.e. unmasked."""
        rng = np.random.default_rng(18)
        model = build_model(TINY, rng)
        hist, hours, dows = random_batch(rng, TINY, b=2, n=4)
        with pytest.raises(ConfigError, match="diagonal"):
            forward_batch(model, hist, hours, dows, np.zeros((4, 4)))
        # with no block masked the adjacency values are never read
        forward_batch(unmask(model), hist, hours, dows, np.zeros((4, 4)))

    def test_tape_size_does_not_grow_with_heads(self):
        sizes = []
        for heads in (2, 6):
            cfg = ModelConfig(d_embed=8, lookback=6, horizon=2, c_in=3, heads=heads, rank=2)
            rng = np.random.default_rng(19)
            model = build_model(cfg, rng)
            freeze_and_adapt(model, rng, freeze_mode="partial")
            hist, hours, dows = random_batch(rng, cfg, b=2, n=4)
            adj = random_symmetric_adjacency(rng, 4)
            sizes.append(tape_size(forward_batch(model, hist, hours, dows, adj)))
        assert sizes[0] == sizes[1]

    def test_mask_off_equals_complete_graph(self):
        rng = np.random.default_rng(9)
        model = build_model(TINY, rng)
        hist, hours, dows = random_batch(rng, TINY, b=2, n=5)
        sparse = np.eye(5)
        ones = np.ones((5, 5))
        complete = forward_batch(model, hist, hours, dows, ones)
        unmasked = forward_batch(unmask(model), hist, hours, dows, sparse)
        assert np.allclose(unmasked.data, complete.data, rtol=0.0, atol=1e-15)

    @pytest.mark.parametrize("freeze_mode", ["partial", "none", "all_graph"])
    def test_no_grad_forward_is_bit_identical(self, freeze_mode):
        cfg = ModelConfig(c_in=3)
        rng = np.random.default_rng(20)
        model = build_model(cfg, rng)
        freeze_and_adapt(model, rng, freeze_mode=freeze_mode)
        for blk in model.blocks:
            if blk.adapters is not None:  # nonzero up factors, so adapters act
                blk.adapters.m_q.data = rng.normal(size=blk.adapters.m_q.shape) * 0.1
                blk.adapters.m_v.data = rng.normal(size=blk.adapters.m_v.shape) * 0.1
        adj = random_symmetric_adjacency(rng, 8)
        for b in (64, 256):
            hist, hours, dows = random_batch(rng, cfg, b=b, n=8)
            taped = forward_batch(model, hist, hours, dows, adj)
            with no_grad():
                bare = forward_batch(model, hist, hours, dows, adj)
            assert taped.requires_grad
            assert bare._parents == () and not bare.requires_grad
            assert np.array_equal(bare.data, taped.data)


class TestFreezeAndAdapt:
    def test_partial_trainable_set(self):
        rng = np.random.default_rng(10)
        model = build_model(TINY, rng)
        freeze_and_adapt(model, rng, freeze_mode="partial")
        trainable = {name for name, t in model.named_parameters() if t.requires_grad}
        for name in trainable:
            ok = (
                name.startswith("embed.")
                or name in ("head_w", "head_b")
                or ".ln" in name
                or ".head" in name
            )
            assert ok, name
        assert "block1.ln1_gamma" in trainable
        assert "block1.heads.l_q" in trainable
        assert "block0.ln1_gamma" not in trainable
        assert "block1.w_q" not in trainable
        a = model.blocks[-1].adapters
        assert a.l_q.shape == a.l_v.shape == (TINY.heads, TINY.width, TINY.rank)
        assert a.m_q.shape == a.m_v.shape == (TINY.heads, TINY.rank, TINY.d_k)
        assert model.blocks[0].adapters is None

    def test_partial_quantizes_attention_bases(self):
        from chargecast.quantize import dequantize

        rng = np.random.default_rng(11)
        model = build_model(TINY, rng)
        freeze_and_adapt(model, rng, freeze_mode="partial")
        graph_blk = model.blocks[-1]
        assert set(graph_blk.quant) == {"w_q", "w_k", "w_v", "w_o"}
        for name, qt in graph_blk.quant.items():
            assert np.array_equal(getattr(graph_blk, name).data, dequantize(qt))
        assert model.blocks[0].quant == {}

    def test_fresh_adapters_change_nothing_at_init(self):
        rng = np.random.default_rng(12)
        model = build_model(TINY, rng)
        freeze_and_adapt(model, rng, freeze_mode="partial")
        hist, hours, dows = random_batch(rng, TINY, b=2, n=4)
        adj = random_symmetric_adjacency(rng, 4)
        with_adapters = forward_batch(model, hist, hours, dows, adj).data
        blk = model.blocks[-1]
        saved = blk.adapters
        blk.adapters = None
        without = forward_batch(model, hist, hours, dows, adj).data
        blk.adapters = saved
        assert np.array_equal(with_adapters, without)

    def test_tuned_adapters_do_change_the_output(self):
        rng = np.random.default_rng(13)
        model = build_model(TINY, rng)
        freeze_and_adapt(model, rng, freeze_mode="partial")
        hist, hours, dows = random_batch(rng, TINY, b=2, n=4)
        adj = random_symmetric_adjacency(rng, 4)
        before = forward_batch(model, hist, hours, dows, adj).data
        a = model.blocks[-1].adapters
        a.m_q.data = rng.normal(size=a.m_q.data.shape) * 0.1
        a.m_v.data = rng.normal(size=a.m_v.data.shape) * 0.1
        after = forward_batch(model, hist, hours, dows, adj).data
        assert np.max(np.abs(after - before)) > 1e-6

    def test_none_mode_keeps_everything_trainable(self):
        rng = np.random.default_rng(14)
        model = build_model(TINY, rng)
        before = {n: t.data.copy() for n, t in model.named_parameters()}
        freeze_and_adapt(model, rng, freeze_mode="none")
        assert all(t.requires_grad for _, t in model.named_parameters())
        for n, t in model.named_parameters():
            assert np.array_equal(t.data, before[n])
        assert [b.masked for b in model.blocks] == [False, True]

    def test_all_graph_masks_every_block(self):
        rng = np.random.default_rng(15)
        model = build_model(TINY, rng)
        freeze_and_adapt(model, rng, freeze_mode="all_graph")
        assert all(b.masked for b in model.blocks)
        assert all(t.requires_grad for _, t in model.named_parameters())

    def test_mask_flag_respected_when_disabled(self):
        rng = np.random.default_rng(16)
        model = build_model(TINY, rng)
        freeze_and_adapt(model, rng, freeze_mode="partial", use_graph_mask=False)
        assert all(not b.masked for b in model.blocks)

    @pytest.mark.parametrize("freeze_mode", ["none", "all_graph"])
    def test_mask_flag_respected_in_none_and_all_graph(self, freeze_mode):
        rng = np.random.default_rng(21)
        model = build_model(TINY, rng)
        freeze_and_adapt(model, rng, freeze_mode=freeze_mode, use_graph_mask=False)
        assert all(not b.masked for b in model.blocks)

    def test_unknown_mode_rejected(self):
        rng = np.random.default_rng(17)
        model = build_model(TINY, rng)
        with pytest.raises(ConfigError, match="freeze_mode"):
            freeze_and_adapt(model, rng, freeze_mode="glacial")

    @pytest.mark.parametrize("first", ["partial", "all_graph"])
    def test_an_adapted_model_is_not_adapted_again(self, first):
        rng = np.random.default_rng(22)
        model = build_model(TINY, rng)
        freeze_and_adapt(model, rng, freeze_mode=first)
        before = {n: t.data.copy() for n, t in model.named_parameters()}
        for again in FREEZE_MODES:
            with pytest.raises(ConfigError, match=f"already in freeze mode '{first}'"):
                freeze_and_adapt(model, rng, freeze_mode=again)
        assert model.freeze_mode == first
        assert all(np.array_equal(t.data, before[n]) for n, t in model.named_parameters())


class TestTrainableCount:
    @pytest.mark.parametrize("mode", ["partial", "none", "all_graph"])
    def test_closed_form_matches_actual_tensors(self, mode):
        rng = np.random.default_rng(20)
        model = build_model(TINY, rng)
        freeze_and_adapt(model, rng, freeze_mode=mode)
        assert model.trainable_count() == trainable_parameter_count(TINY, mode)

    def test_closed_form_on_a_wider_config(self):
        cfg = ModelConfig(
            d_embed=16, lookback=8, horizon=4, c_in=5, f_frozen=3, u_unfrozen=2, heads=4, rank=3
        )
        rng = np.random.default_rng(21)
        model = build_model(cfg, rng)
        freeze_and_adapt(model, rng, freeze_mode="partial")
        assert model.trainable_count() == trainable_parameter_count(cfg, "partial")

    def test_partial_is_much_smaller_than_full(self):
        full = trainable_parameter_count(TINY, "none")
        partial = trainable_parameter_count(TINY, "partial")
        assert partial < full / 2


class TestCheckpoint:
    def roundtrip(self, tmp_path, mode):
        rng = np.random.default_rng(30)
        model = build_model(TINY, rng)
        freeze_and_adapt(model, rng, freeze_mode=mode)
        hist, hours, dows = random_batch(rng, TINY, b=2, n=5)
        adj = random_symmetric_adjacency(rng, 5)
        want = forward_batch(model, hist, hours, dows, adj).data
        path = str(tmp_path / "model.npz")
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        got = forward_batch(loaded, hist, hours, dows, adj).data
        return model, loaded, want, got

    def test_partial_roundtrip_forward_is_bit_identical(self, tmp_path):
        model, loaded, want, got = self.roundtrip(tmp_path, "partial")
        assert np.array_equal(want, got)
        assert loaded.freeze_mode == "partial"
        for (na, ta), (nb, tb) in zip(model.named_parameters(), loaded.named_parameters()):
            assert na == nb
            assert ta.requires_grad == tb.requires_grad
            assert np.array_equal(ta.data, tb.data), na

    def test_none_roundtrip_forward_is_bit_identical(self, tmp_path):
        model, loaded, want, got = self.roundtrip(tmp_path, "none")
        assert np.array_equal(want, got)
        assert loaded.freeze_mode == "none"
        assert all(t.requires_grad for _, t in loaded.named_parameters())

    def test_quantized_codes_survive_storage(self, tmp_path):
        model, loaded, _, _ = self.roundtrip(tmp_path, "partial")
        blk_a = model.blocks[-1]
        blk_b = loaded.blocks[-1]
        for name in ("w_q", "w_k", "w_v", "w_o"):
            assert np.array_equal(blk_a.quant[name].codes, blk_b.quant[name].codes)
            assert np.array_equal(blk_a.quant[name].scale_codes, blk_b.quant[name].scale_codes)
            assert not getattr(blk_b, name).requires_grad

    def test_adapter_values_are_restored(self, tmp_path):
        rng = np.random.default_rng(31)
        model = build_model(TINY, rng)
        freeze_and_adapt(model, rng, freeze_mode="partial")
        a = model.blocks[-1].adapters
        a.m_q.data = rng.normal(size=a.m_q.data.shape)
        path = str(tmp_path / "model.npz")
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        b = loaded.blocks[-1].adapters
        assert np.array_equal(a.m_q.data, b.m_q.data)
        assert np.array_equal(a.l_q.data, b.l_q.data)

    def test_masked_flags_survive(self, tmp_path):
        rng = np.random.default_rng(32)
        model = build_model(TINY, rng)
        freeze_and_adapt(model, rng, freeze_mode="all_graph")
        path = str(tmp_path / "model.npz")
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        assert [b.masked for b in loaded.blocks] == [True, True]

    def test_a_path_without_npz_is_written_as_given(self, tmp_path):
        rng = np.random.default_rng(33)
        model = build_model(TINY, rng)
        freeze_and_adapt(model, rng, freeze_mode="partial")
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, str(path))
        assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]
        loaded = load_checkpoint(str(path))
        for (na, ta), (nb, tb) in zip(model.named_parameters(), loaded.named_parameters()):
            assert na == nb
            assert np.array_equal(ta.data, tb.data), na

    def saved_arrays(self, tmp_path, seed, version=None):
        """Model, meta and arrays of a saved partial-mode TINY checkpoint, with ``version`` written into its meta."""
        rng = np.random.default_rng(seed)
        model = build_model(TINY, rng)
        freeze_and_adapt(model, rng, freeze_mode="partial")
        path = str(tmp_path / "model.npz")
        save_checkpoint(model, path)
        meta, arrays = cio.read_npz(path)
        if version is not None:
            meta["version"] = version
        return model, meta, arrays

    def test_version_1_checkpoint_is_rejected(self, tmp_path):
        _, meta, arrays = self.saved_arrays(tmp_path, 33, version=1)
        old = str(tmp_path / "old.npz")
        cio.write_npz(old, meta, arrays)
        with pytest.raises(ConfigError, match="unsupported checkpoint version 1"):
            load_checkpoint(old)

    def test_version_2_checkpoint_is_rejected(self, tmp_path):
        model, meta, arrays = self.saved_arrays(tmp_path, 35, version=2)
        for i, blk in enumerate(model.blocks):
            for name, qt in blk.quant.items():
                arrays[f"q_codes__block{i}__{name}"] = nf4_codes(qt)  # version 2: one byte per code
        old = str(tmp_path / "old.npz")
        cio.write_npz(old, meta, arrays)
        with pytest.raises(ConfigError, match="unsupported checkpoint version 2"):
            load_checkpoint(old)

    def test_version_3_checkpoint_is_rejected(self, tmp_path):
        _, meta, arrays = self.saved_arrays(tmp_path, 38, version=3)
        meta["n_max"] = 64  # version 3 also stored these three fields
        meta["config"].update(block_size_q=64, ln_eps=1e-5)
        old = str(tmp_path / "old.npz")
        cio.write_npz(old, meta, arrays)
        with pytest.raises(ConfigError, match="unsupported checkpoint version 3"):
            load_checkpoint(old)

    def test_version_4_checkpoint_is_rejected(self, tmp_path):
        model, meta, arrays = self.saved_arrays(tmp_path, 42, version=4)
        # version 4 also listed the trainable names and each quantized basis's layout
        meta["trainable"] = [n for n, t in model.named_parameters() if t.requires_grad]
        meta["quantized"] = [
            {"name": f"block1.{name}", "shape": list(qt.shape), "block_size": 64, "superblock": 256}
            for name, qt in model.blocks[1].quant.items()
        ]
        old = str(tmp_path / "old.npz")
        cio.write_npz(old, meta, arrays)
        with pytest.raises(ConfigError, match="unsupported checkpoint version 4"):
            load_checkpoint(old)

    def test_meta_holds_version_freeze_mode_sizes_and_masks_only(self, tmp_path):
        _, meta, _ = self.saved_arrays(tmp_path, 39)
        assert set(meta) == {"version", "freeze_mode", "config", "masked"}
        assert meta["version"] == 5
        assert meta["freeze_mode"] == "partial"
        assert set(meta["config"]) == {
            "d_embed", "lookback", "horizon", "c_in", "f_frozen", "u_unfrozen", "heads", "rank"
        }
        assert meta["masked"] == [False, True]

    @pytest.mark.parametrize("use_graph_mask", [True, False], ids=["masked", "unmasked"])
    @pytest.mark.parametrize("mode", FREEZE_MODES)
    def test_load_replays_the_freeze_regime(self, tmp_path, mode, use_graph_mask):
        rng = np.random.default_rng(43)
        model = build_model(TINY, rng)
        freeze_and_adapt(model, rng, freeze_mode=mode, use_graph_mask=use_graph_mask)
        for _, t in model.trainable_parameters():  # values a fine-tuning could leave
            t.data = t.data + rng.normal(scale=0.1, size=t.data.shape)
        path = str(tmp_path / "model.npz")
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        assert loaded.freeze_mode == mode
        assert [b.masked for b in loaded.blocks] == [b.masked for b in model.blocks]
        pairs = list(zip(model.named_parameters(), loaded.named_parameters(), strict=True))
        for (na, ta), (nb, tb) in pairs:
            assert (na, ta.requires_grad) == (nb, tb.requires_grad)
            assert np.array_equal(ta.data, tb.data), na
        for blk_a, blk_b in zip(model.blocks, loaded.blocks):
            assert blk_a.quant.keys() == blk_b.quant.keys()
            for name, qa in blk_a.quant.items():
                qb = blk_b.quant[name]
                assert qa.shape == qb.shape
                for part in ("codes", "scale_codes", "scale_min", "scale_step"):
                    assert np.array_equal(getattr(qa, part), getattr(qb, part)), (name, part)
        hist, hours, dows = random_batch(rng, TINY, b=2, n=5)
        adj = random_symmetric_adjacency(rng, 5)
        want = forward_batch(model, hist, hours, dows, adj).data
        assert np.array_equal(forward_batch(loaded, hist, hours, dows, adj).data, want)

    @pytest.mark.parametrize("damage", sorted(CHECKPOINT_DAMAGE))
    def test_malformed_checkpoint_is_rejected(self, tmp_path, damage):
        _, error, text = CHECKPOINT_DAMAGE[damage]
        rng = np.random.default_rng(44)
        model = build_model(TINY, rng)
        freeze_and_adapt(model, rng, freeze_mode="partial")
        path = tmp_path / "model.npz"
        save_checkpoint(model, str(path))
        damage_checkpoint(path, damage)
        with pytest.raises(error, match=text):
            load_checkpoint(str(path))

    def test_unmasked_marks_survive(self, tmp_path):
        rng = np.random.default_rng(40)
        model = build_model(TINY, rng)
        freeze_and_adapt(model, rng, freeze_mode="partial", use_graph_mask=False)
        path = str(tmp_path / "model.npz")
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        assert [b.masked for b in loaded.blocks] == [False, False]
        hist, hours, dows = random_batch(rng, TINY, b=2, n=4)
        sparse = np.eye(4)
        want = forward_batch(model, hist, hours, dows, sparse).data
        assert np.array_equal(forward_batch(loaded, hist, hours, dows, sparse).data, want)

    def test_odd_code_count_packs_two_codes_per_byte(self, tmp_path):
        # width 9: every attention basis holds 81 codes, an odd count
        cfg = ModelConfig(d_embed=3, lookback=6, horizon=2, c_in=3, f_frozen=1, u_unfrozen=1, heads=3, rank=2)
        rng = np.random.default_rng(36)
        model = build_model(cfg, rng)
        freeze_and_adapt(model, rng, freeze_mode="partial")
        path = tmp_path / "model.npz"
        save_checkpoint(model, str(path))
        loaded = load_checkpoint(str(path))
        _, arrays = cio.read_npz(path)
        stored = {k: v for k, v in arrays.items() if k.startswith("q_codes__")}
        blk_a, blk_b = model.blocks[-1], loaded.blocks[-1]
        assert len(stored) == len(blk_a.quant) == 4
        for name, qt in blk_a.quant.items():
            assert nf4_codes(qt).size == 81
            assert qt.codes.dtype == np.uint8 and qt.codes.shape == (41,)
            assert qt.codes[-1] >> 4 == 0
            assert np.array_equal(stored[f"q_codes__block1__{name}"], qt.codes)
            assert np.array_equal(blk_b.quant[name].codes, qt.codes)
            assert blk_b.quant[name].codes.dtype == np.uint8
            assert np.array_equal(dequantize(blk_b.quant[name]), dequantize(qt))
        again = tmp_path / "again.npz"
        save_checkpoint(loaded, str(again))
        save_checkpoint(model, str(path))
        assert again.read_bytes() == path.read_bytes()

    def test_short_packed_codes_are_a_data_error(self, tmp_path):
        _, meta, arrays = self.saved_arrays(tmp_path, 37)
        arrays["q_codes__block1__w_q"] = arrays["q_codes__block1__w_q"][:-1]
        path = str(tmp_path / "short.npz")
        cio.write_npz(path, meta, arrays)
        with pytest.raises(DataError, match="q_codes__block1__w_q"):
            load_checkpoint(path)

    @pytest.mark.parametrize("save", [np.savez, np.save], ids=["npz_without_meta", "bare_array"])
    def test_foreign_numpy_file_is_a_data_error(self, tmp_path, save):
        path = tmp_path / "other.npz"
        with open(path, "wb") as fh:
            save(fh, np.zeros(3))
        with pytest.raises(DataError, match="not a chargecast checkpoint"):
            load_checkpoint(str(path))

    def test_truncated_checkpoint_is_a_data_error(self, tmp_path):
        rng = np.random.default_rng(34)
        model = build_model(TINY, rng)
        path = tmp_path / "model.npz"
        save_checkpoint(model, str(path))
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(DataError, match="cannot read checkpoint"):
            load_checkpoint(str(path))
