"""Layer-level checks: shape contracts, closed-form special cases,
permutation properties, and finite-difference gradient agreement."""

import numpy as np
import pytest

from granp import autodiff as ad
from granp import layers
from granp.errors import DataError, ShapeError


def _rng(seed=0):
    return np.random.default_rng(seed)


# ---------------------------------------------------------------------------
# MlpBlock

def test_mlp_identity_layer():
    block = layers.MlpBlock("m", [3, 3], _rng())
    block.weights[0].data = np.eye(3)
    block.biases[0].data = np.zeros(3)
    x = ad.Tensor([[1.0, -2.0, 3.0]])
    np.testing.assert_allclose(block.forward(x).data, x.data)


def test_mlp_shape_rule():
    block = layers.MlpBlock("m", [4, 8, 8], _rng(1))
    out = block.forward(ad.Tensor(np.zeros((2, 4))))
    assert out.shape == (2, 8)
    with pytest.raises(ShapeError):
        block.forward(ad.Tensor(np.zeros((2, 5))))


def test_mlp_grad_check(f64):
    block = layers.MlpBlock("m", [4, 6, 3], _rng(2))
    x = ad.constant(_rng(3).normal(size=(2, 4)))
    errs = ad.grad_check(lambda: block.forward(x).sum(), block.parameters())
    assert max(errs.values()) < 1e-4


# ---------------------------------------------------------------------------
# LstmEncoder

def test_lstm_zero_weights_zero_input():
    enc = layers.LstmEncoder("l", 3, 4, _rng(4))
    for p in enc.parameters():
        p.data = np.zeros_like(p.data)
    out = enc.encode(ad.Tensor(np.zeros((5, 2, 3))))
    np.testing.assert_array_equal(out.data, np.zeros((2, 4)))


def _lstm_cell_oracle(x, h, c, wx, wh, b):
    hs = h.shape[1]
    z = x @ wx + h @ wh + b

    def sig(v):
        return 1.0 / (1.0 + np.exp(-v))

    i, f = sig(z[:, :hs]), sig(z[:, hs:2 * hs])
    g, o = np.tanh(z[:, 2 * hs:3 * hs]), sig(z[:, 3 * hs:])
    c_new = f * c + i * g
    return o * np.tanh(c_new), c_new


def test_lstm_single_step_matches_cell(f64):
    enc = layers.LstmEncoder("l", 3, 4, _rng(5))
    x = _rng(6).normal(size=(1, 2, 3))
    out = enc.encode(ad.Tensor(x))
    expected, _ = _lstm_cell_oracle(
        x[0], np.zeros((2, 4)), np.zeros((2, 4)),
        enc.w_x.data, enc.w_h.data, enc.b.data)
    np.testing.assert_allclose(out.data, expected, atol=1e-12)


def test_lstm_multi_step_matches_iterated_cell(f64):
    enc = layers.LstmEncoder("l", 3, 4, _rng(14))
    x = _rng(15).normal(size=(5, 3, 3))
    h = c = np.zeros((3, 4))
    for x_t in x:
        h, c = _lstm_cell_oracle(x_t, h, c, enc.w_x.data, enc.w_h.data, enc.b.data)
    out = enc.encode(ad.Tensor(x))
    np.testing.assert_allclose(out.data, h, rtol=0, atol=1e-12)


def test_lstm_projects_every_input_step_in_one_matmul():
    # x @ Wx runs once over [T, B, in]; the recurrence, h @ Wh included,
    # is one ad.lstm node
    t_len = 6
    enc = layers.LstmEncoder("l", 3, 4, _rng(16))
    seq = ad.Tensor(_rng(17).normal(size=(t_len, 2, 3)), requires_grad=True)
    with ad.Tape() as tape:
        enc.encode(seq)

    def reading(w):
        return sum(any(t is w.tensor for t in node.inputs) for node in tape.nodes)

    assert (reading(enc.w_x), reading(enc.w_h)) == (1, 1)


def test_lstm_tape_nodes_do_not_grow_with_sequence_length():
    enc = layers.LstmEncoder("l", 3, 4, _rng(10))

    def nodes(t_len):
        seq = ad.Tensor(_rng(11).normal(size=(t_len, 2, 3)), requires_grad=True)
        with ad.Tape() as tape:
            enc.encode(seq)
        return len(tape)

    assert nodes(1) == nodes(15)


def test_lstm_parameter_names_and_shapes_are_pinned():
    enc = layers.LstmEncoder("lstm", 3, 4, _rng(12))
    assert [(p.name, p.data.shape) for p in enc.parameters()] == [
        ("lstm.Wx", (3, 16)), ("lstm.Wh", (4, 16)), ("lstm.b", (16,))]
    np.testing.assert_array_equal(enc.b.data, np.repeat([0.0, 1.0, 0.0, 0.0], 4))


def test_lstm_rejects_empty_sequence():
    enc = layers.LstmEncoder("l", 3, 4, _rng(7))
    with pytest.raises(DataError):
        enc.encode(ad.Tensor(np.zeros((0, 2, 3))))


def test_lstm_grad_check_unrolled(f64):
    enc = layers.LstmEncoder("l", 2, 3, _rng(8))
    seq = ad.constant(_rng(9).normal(size=(5, 2, 2)))
    errs = ad.grad_check(lambda: enc.encode(seq).sum(), enc.parameters())
    assert max(errs.values()) < 1e-4


# ---------------------------------------------------------------------------
# ConvMlpEncoder

def test_conv_mlp_identity_composition_is_temporal_mean():
    enc = layers.ConvMlpEncoder("c", 1, 1, 1, 3, _rng(10))
    for w in enc.conv_w:
        w.data = np.array([[[0.0, 1.0, 0.0]]])
    for b in enc.conv_b:
        b.data = np.zeros((1, 1))
    for w in enc.mlp.weights:
        w.data = np.eye(1)
    for b in enc.mlp.biases:
        b.data = np.zeros(1)
    x = np.abs(_rng(11).normal(size=(2, 1, 9))) + 0.1  # positive: ReLU transparent
    out = enc.encode(ad.Tensor(x))
    np.testing.assert_allclose(out.data, x.mean(axis=2), rtol=1e-6)


def test_conv_mlp_output_dim_independent_of_length():
    enc = layers.ConvMlpEncoder("c", 3, 8, 5, 3, _rng(12))
    for t in (3, 7, 15, 40):
        out = enc.encode(ad.Tensor(np.zeros((2, 3, t))))
        assert out.shape == (2, 5)


def test_conv_mlp_rejects_short_sequence():
    enc = layers.ConvMlpEncoder("c", 3, 8, 5, 3, _rng(13))
    with pytest.raises(DataError):
        enc.encode(ad.Tensor(np.zeros((2, 3, 2))))


def test_conv_mlp_tiling_invariance_through_mean_pool(f64):
    # Length enters only through the mean-pool.  Each conv stage consumes one
    # flank zero, so with bias-free convs and one zero per stage on each end
    # the tiled sequence convolves to the tiled output exactly.
    enc = layers.ConvMlpEncoder("c", 2, 6, 4, 3, _rng(14))
    for b in enc.conv_b:
        b.data = np.zeros_like(b.data)
    x = _rng(15).normal(size=(2, 2, 12))
    x[:, :, :3] = 0.0
    x[:, :, -3:] = 0.0
    single = enc.encode(ad.Tensor(x)).data
    doubled = enc.encode(ad.Tensor(np.tile(x, (1, 1, 2)))).data
    np.testing.assert_allclose(single, doubled, atol=1e-6)


def test_conv_mlp_grad_check(f64):
    enc = layers.ConvMlpEncoder("c", 2, 4, 3, 3, _rng(16))
    x = ad.constant(_rng(17).normal(size=(2, 2, 6)))
    errs = ad.grad_check(lambda: enc.encode(x).sum(), enc.parameters())
    assert max(errs.values()) < 1e-4


# ---------------------------------------------------------------------------
# GatLayer

def _full_adjacency(n):
    return np.ones((n, n))


def test_gat_single_node_self_loop():
    gat = layers.GatLayer("g", 4, 3, 2, _rng(18))
    node = _rng(19).normal(size=(1, 4))
    out, attn = gat.forward_seq(ad.Tensor(node), np.ones((1, 1)))
    np.testing.assert_allclose(attn, np.ones((2, 1, 1)), atol=1e-7)
    expected = np.maximum(
        np.mean([node.astype(np.float32) @ w for w in gat.w.data], axis=0), 0.0)
    np.testing.assert_allclose(out.data, expected, rtol=1e-5)


def test_gat_masked_pairs_get_exact_zero():
    gat = layers.GatLayer("g", 3, 3, 4, _rng(20))
    adj = np.eye(5)
    adj[0, 1] = adj[1, 0] = 0.8
    nodes = ad.Tensor(_rng(21).normal(size=(5, 3)))
    _, attn = gat.forward_seq(nodes, adj)
    mask = adj > 0
    assert (attn[:, ~mask] == 0.0).all()


def test_gat_rows_sum_to_one_over_neighborhood():
    gat = layers.GatLayer("g", 3, 6, 4, _rng(22))
    rng = _rng(23)
    adj = (rng.random((6, 6)) > 0.4).astype(float)
    adj = np.maximum(adj, adj.T)
    np.fill_diagonal(adj, 1.0)
    nodes = ad.Tensor(rng.normal(size=(6, 3)))
    _, attn = gat.forward_seq(nodes, adj)
    np.testing.assert_allclose(attn.sum(axis=-1), 1.0, atol=1e-6)


def test_gat_permutation_equivariance(f64):
    for seed in range(10):
        rng = _rng(100 + seed)
        n = int(rng.integers(2, 7))
        gat = layers.GatLayer("g", 4, 4, 2, rng)
        nodes = rng.normal(size=(n, 4))
        adj = (rng.random((n, n)) > 0.3).astype(float)
        adj = np.maximum(adj, adj.T)
        np.fill_diagonal(adj, 1.0)
        out, _ = gat.forward_seq(ad.Tensor(nodes), adj)
        perm = rng.permutation(n)
        out_p, _ = gat.forward_seq(ad.Tensor(nodes[perm]),
                                   adj[np.ix_(perm, perm)])
        np.testing.assert_allclose(out_p.data, out.data[perm], atol=1e-6)


def test_gat_rejects_mask_row_without_edge():
    # with no edge the row's softmax has nothing to normalize over
    gat = layers.GatLayer("g", 3, 3, 2, _rng(24))
    adj = np.ones((4, 4))
    adj[2] = 0.0
    with pytest.raises(DataError, match=r"mask row \[2\] has no edge"):
        gat.forward_seq(ad.Tensor(np.zeros((4, 3))), adj)


def test_gat_adjacency_shape_mismatch():
    gat = layers.GatLayer("g", 3, 3, 2, _rng(24))
    with pytest.raises(ShapeError):
        gat.forward_seq(ad.Tensor(np.zeros((4, 3))), np.ones((3, 3)))


def test_gat_grad_check(f64):
    gat = layers.GatLayer("g", 3, 3, 2, _rng(25))
    rng = _rng(26)
    nodes = ad.constant(rng.normal(size=(4, 3)))
    adj = np.maximum((rng.random((4, 4)) > 0.3).astype(float), np.eye(4))
    adj = np.maximum(adj, adj.T)
    errs = ad.grad_check(lambda: gat.forward_seq(nodes, adj)[0].sum(),
                         gat.parameters())
    assert max(errs.values()) < 1e-4


def test_gat_seq_matches_per_step(f64):
    gat = layers.GatLayer("g", 3, 5, 2, _rng(27))
    rng = _rng(28)
    seq = rng.normal(size=(4, 3, 3))
    adj = _full_adjacency(3)
    out_seq, attn_seq = gat.forward_seq(ad.Tensor(seq), adj)
    for t in range(4):
        out_t, attn_t = gat.forward_seq(ad.Tensor(seq[t]), adj)
        np.testing.assert_allclose(out_seq.data[t], out_t.data, atol=1e-12)
        np.testing.assert_allclose(attn_seq[:, t], attn_t, atol=1e-12)


def _padded_mask(counts):
    """Scene-membership mask of a padded batch, as GranpModel._stack."""
    n_max = max(counts)
    real = np.arange(n_max) < np.array(counts)[:, None]
    return (real[:, :, None] & real[:, None, :]) | np.eye(n_max, dtype=bool)


def _gat_reference(gat, x, mask):
    """Plain numpy GAT, one head at a time: (out, attention [heads, ...])."""
    d = gat.out_dim
    outs, attn = [], []
    for w, a in zip(gat.w.data, gat.a.data):
        wh = x @ w
        e = wh @ a[:d, None] + np.swapaxes(wh @ a[d:, None], -1, -2)
        e = np.where(e > 0, e, ad.LEAKY_SLOPE * e)
        e = np.where(mask, e, -np.inf)
        e = np.exp(e - e.max(axis=-1, keepdims=True))
        alpha = e / e.sum(axis=-1, keepdims=True)
        attn.append(alpha)
        outs.append(alpha @ wh)
    return np.maximum(np.mean(outs, axis=0), 0.0), np.stack(attn)


@pytest.mark.parametrize("heads", [1, 2, 4])
def test_gat_matches_per_head_reference_on_padded_batch(f64, heads):
    gat = layers.GatLayer("g", 5, 6, heads, _rng(40 + heads))
    mask = _padded_mask([1, 4, 7])
    x = _rng(41).normal(size=(3,) + mask.shape[:2] + (5,))
    out, attn = gat.forward_seq(ad.Tensor(x), mask)
    ref_out, ref_attn = _gat_reference(gat, x, mask)
    assert attn.shape == ref_attn.shape
    assert attn.size == heads * 3 * mask.size
    np.testing.assert_allclose(out.data, ref_out, rtol=0, atol=1e-12)
    np.testing.assert_allclose(attn, ref_attn, rtol=0, atol=1e-12)


def test_gat_grad_check_padded_batch(f64):
    gat = layers.GatLayer("g", 3, 4, 2, _rng(42))
    mask = _padded_mask([2, 1, 3])
    x = ad.constant(_rng(43).normal(size=(2,) + mask.shape[:2] + (3,)))
    errs = ad.grad_check(lambda: gat.forward_seq(x, mask)[0].sum(),
                         gat.parameters())
    assert max(errs.values()) < 1e-4


def test_gat_ego_row_is_row_zero_of_the_full_layer(f64):
    # mask[:, :1] queries the first node only; every node stays a key
    gat = layers.GatLayer("g", 5, 6, 3, _rng(50))
    mask = _padded_mask([1, 4, 7])
    x = ad.Parameter("x", _rng(51).normal(size=(3,) + mask.shape[:2] + (5,)))
    up = _rng(52).normal(size=(3, 3, 1, 6))
    runs = []
    for rows in (mask, mask[:, :1]):
        with ad.Tape() as tape:
            out, attn = gat.forward_seq(x.tensor, rows)
            root = (out[:, :, :1] * up).sum()
        runs.append([out.data[:, :, :1], attn[..., :1, :]]
                    + list(ad.backward(tape, root, gat.parameters() + [x]).values()))
    assert runs[1][0].shape == (3, 3, 1, 6)
    assert runs[1][1].shape == (3, 3, 3, 1, 7)
    for full, ego in zip(*runs):
        assert np.abs(ego - full).max() <= 1e-12 * np.abs(full).max()


def test_gat_parameter_names_and_shapes_are_pinned():
    # checkpoints store every head's W and score vector stacked, under
    # these names
    gat = layers.GatLayer("gat0", 5, 6, 3, _rng(44))
    assert [(p.name, p.data.shape) for p in gat.parameters()] == [
        ("gat0.W", (3, 5, 6)), ("gat0.a", (3, 12))]


def test_gat_node_sized_tape_work_does_not_grow_with_heads():
    # the layer is one tape node whatever the heads, with every query row
    # or the first only
    mask = _padded_mask([5, 3])
    for heads in (1, 2, 4):
        gat = layers.GatLayer("g", 3, 4, heads, _rng(45))
        x = ad.Tensor(_rng(46).normal(size=(7, 2, 5, 3)))
        for rows in (mask, mask[:, :1]):
            with ad.Tape() as tape:
                gat.forward_seq(x, rows)
            assert len(tape) == 1


# ---------------------------------------------------------------------------
# CrossAttention

def test_cross_attention_single_key():
    att = layers.CrossAttention("x", 4, 2, _rng(29))
    rng = _rng(30)
    q = rng.normal(size=(3, 4))
    v = rng.normal(size=(1, 4))
    out = att.attend(ad.Tensor(q), ad.Tensor(rng.normal(size=(1, 4))), ad.Tensor(v))
    expected = (v.astype(np.float32) @ att.w_v.data) @ att.w_o.data
    np.testing.assert_allclose(out.data, np.repeat(expected, 3, axis=0), rtol=1e-5)


def test_cross_attention_context_permutation_invariance(f64):
    for seed in range(10):
        rng = _rng(200 + seed)
        att = layers.CrossAttention("x", 8, 2, rng)
        q = ad.Tensor(rng.normal(size=(3, 8)))
        kv = rng.normal(size=(5, 8))
        out = att.attend(q, ad.Tensor(kv), ad.Tensor(kv))
        perm = rng.permutation(5)
        out_p = att.attend(q, ad.Tensor(kv[perm]), ad.Tensor(kv[perm]))
        np.testing.assert_allclose(out_p.data, out.data, atol=1e-6)


def _cross_reference(att, queries, keys, values):
    """Plain numpy multi-head attention, one head at a time."""
    q, k, v = queries @ att.w_q.data, keys @ att.w_k.data, values @ att.w_v.data
    outs = []
    for h in range(att.heads):
        cols = slice(h * att.head_dim, (h + 1) * att.head_dim)
        scores = q[:, cols] @ k[:, cols].T / np.sqrt(att.head_dim)
        e = np.exp(scores - scores.max(axis=1, keepdims=True))
        outs.append(e / e.sum(axis=1, keepdims=True) @ v[:, cols])
    return np.concatenate(outs, axis=1) @ att.w_o.data


@pytest.mark.parametrize("heads", [1, 2, 4, 8])
def test_cross_attention_matches_per_head_reference(f64, heads):
    att = layers.CrossAttention("x", 16, heads, _rng(34 + heads))
    rng = _rng(35)
    q, k, v = (rng.normal(size=(n, 16)) for n in (3, 5, 5))
    out = att.attend(ad.Tensor(q), ad.Tensor(k), ad.Tensor(v))
    np.testing.assert_allclose(out.data, _cross_reference(att, q, k, v),
                               rtol=0, atol=1e-12)


def test_cross_attention_tape_does_not_grow_with_heads():
    # every head runs in the same batched primitives; a per-head loop
    # records three slices, a softmax and two matmuls more per head
    counts = []
    for heads in (1, 2, 4, 8):
        att = layers.CrossAttention("x", 16, heads, _rng(36))
        rng = _rng(37)
        with ad.Tape() as tape:
            att.attend(ad.Tensor(rng.normal(size=(3, 16))),
                       ad.Tensor(rng.normal(size=(5, 16))),
                       ad.Tensor(rng.normal(size=(5, 16))))
        counts.append(len(tape))
    assert counts == [counts[0]] * 4


def test_cross_attention_rejects_empty_context():
    att = layers.CrossAttention("x", 4, 2, _rng(31))
    with pytest.raises(DataError):
        att.attend(ad.Tensor(np.zeros((2, 4))), ad.Tensor(np.zeros((0, 4))),
                   ad.Tensor(np.zeros((0, 4))))


def test_cross_attention_grad_check(f64):
    att = layers.CrossAttention("x", 4, 2, _rng(32))
    rng = _rng(33)
    q = ad.constant(rng.normal(size=(2, 4)))
    kv = ad.constant(rng.normal(size=(3, 4)))
    errs = ad.grad_check(lambda: att.attend(q, kv, kv).sum(), att.parameters())
    assert max(errs.values()) < 1e-4
