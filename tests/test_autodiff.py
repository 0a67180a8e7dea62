"""Checks for the reverse-mode engine: shape rules, backward rules, and
finite-difference agreement for every primitive."""

import contextlib
import os
import time
import tracemalloc

import numpy as np
import pytest

from granp import autodiff as ad
from granp.errors import DataError, NumericError, ShapeError
from granp.verification import _layer_cases, _primitive_cases


def test_matmul_identity():
    a = ad.Tensor([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    out = ad.matmul(a, ad.Tensor(np.eye(3)))
    np.testing.assert_array_equal(out.data, a.data)


def test_matmul_shape_rule():
    a = ad.Tensor(np.zeros((2, 3)))
    b = ad.Tensor(np.zeros((3, 5)))
    assert ad.matmul(a, b).shape == (2, 5)
    with pytest.raises(ShapeError, match="matmul"):
        ad.matmul(a, ad.Tensor(np.zeros((4, 5))))


@pytest.mark.parametrize("kind", ["add", "sub", "mul", "div"])
def test_elementwise_shape_rule_names_the_op(kind):
    a = ad.Tensor(np.ones((2, 3)))
    b = ad.Tensor(np.ones(4))
    op = getattr(ad, kind)
    assert op(a, ad.Tensor(np.ones(3))).shape == (2, 3)
    with pytest.raises(ShapeError, match=rf"^{kind}: .*\(2, 3\).*\(4,\)"):
        op(a, b)
    with pytest.raises(ShapeError, match=rf"^{kind}: "):
        op(b, a)


def test_elementwise_sugar_shape_rule():
    a = ad.Tensor(np.ones((2, 3)))
    b = ad.Tensor(np.ones(4))
    with pytest.raises(ShapeError, match="^add: "):
        a + b
    with pytest.raises(ShapeError, match="^mul: "):
        a * b
    with pytest.raises(ShapeError, match="^sub: "):
        a - np.ones(4)
    with pytest.raises(ShapeError, match="^div: "):
        a / np.ones(4)


def test_matmul_batched_leading_dims(f64):
    rng = np.random.default_rng(0)
    a = rng.normal(size=(4, 2, 3))
    b = rng.normal(size=(3, 5))
    out = ad.matmul(ad.Tensor(a), ad.Tensor(b))
    np.testing.assert_allclose(out.data, a @ b, rtol=1e-12)


def test_matmul_mismatched_leading_dims_raise():
    # only equal leading dims batch; a 2-D right operand takes any left
    a = ad.Tensor(np.zeros((1, 3, 4)))
    with pytest.raises(ShapeError, match="leading dims"):
        ad.matmul(a, ad.Tensor(np.zeros((5, 4, 6))))
    assert ad.matmul(a, ad.Tensor(np.zeros((1, 4, 6)))).shape == (1, 3, 6)


@pytest.mark.parametrize("a_shape,b_shape", [
    ((2, 3), (3, 5)), ((4, 2, 3), (3, 5)), ((4, 2, 3), (4, 3, 5))])
def test_matmul_takes_no_unbroadcast_path(a_shape, b_shape, f64, monkeypatch):
    def refuse(*_):
        raise AssertionError("matmul summed a broadcast gradient")
    monkeypatch.setattr(ad, "_unbroadcast", refuse)
    rng = np.random.default_rng(3)
    a = ad.Parameter("a", rng.normal(size=a_shape))
    b = ad.Parameter("b", rng.normal(size=b_shape))
    with ad.Tape() as tape:
        root = ad.reduce_sum(ad.matmul(a.tensor, b.tensor))
    grads = ad.backward(tape, root, [a, b])
    g = np.ones(a_shape[:-1] + b_shape[-1:])
    np.testing.assert_allclose(grads["a"], g @ np.swapaxes(b.data, -1, -2),
                               rtol=1e-12)
    assert grads["b"].shape == b_shape


def test_softmax_rows_constant_row_is_uniform():
    for c in (-3.0, 0.0, 7.5):
        out = ad.softmax_rows(ad.Tensor([[c, c, c]]))
        np.testing.assert_allclose(out.data, [[1 / 3, 1 / 3, 1 / 3]], atol=1e-12)


def test_softmax_rows_sums_and_bounds(f64):
    rng = np.random.default_rng(1)
    x = ad.Tensor(rng.normal(scale=5.0, size=(6, 9)))
    out = ad.softmax_rows(x)
    np.testing.assert_allclose(out.data.sum(axis=-1), 1.0, atol=1e-9)
    assert (out.data > 0).all() and (out.data < 1).all()


def test_conv1d_identity_kernel():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(2, 1, 7))
    w = np.array([[[0.0, 1.0, 0.0]]])
    out = ad.conv1d(ad.Tensor(x), ad.Tensor(w))
    np.testing.assert_allclose(out.data, x, atol=1e-7)


def test_conv1d_preserves_length():
    for t in (3, 4, 9, 20):
        x = ad.Tensor(np.zeros((1, 2, t)))
        w = ad.Tensor(np.zeros((4, 2, 3)))
        assert ad.conv1d(x, w).shape == (1, 4, t)


def _conv1d_loop(x, w, g):
    """Loop reference for conv1d with zero same-padding, pad_l = (k-1)//2:
    the output, and the gradients of sum(out * g) for x and w."""
    b, c, t = x.shape
    o, _, k = w.shape
    pad_l = (k - 1) // 2
    out, gx, gw = np.zeros((b, o, t)), np.zeros(x.shape), np.zeros(w.shape)
    for bi in range(b):
        for oi in range(o):
            for ti in range(t):
                for ci in range(c):
                    for dk in range(k):
                        src = ti + dk - pad_l
                        if 0 <= src < t:
                            out[bi, oi, ti] += x[bi, ci, src] * w[oi, ci, dk]
                            gx[bi, ci, src] += g[bi, oi, ti] * w[oi, ci, dk]
                            gw[oi, ci, dk] += g[bi, oi, ti] * x[bi, ci, src]
    return out, gx, gw


def _conv1d_taped(x, w, g):
    px, pw = ad.Parameter("x", x), ad.Parameter("w", w)
    with ad.Tape() as tape:
        out = ad.conv1d(px.tensor, pw.tensor)
        root = ad.reduce_sum(ad.mul(out, ad.constant(g)))
    grads = ad.backward(tape, root, [px, pw])
    return out.data, grads["x"], grads["w"]


@pytest.mark.parametrize("b", [1, 3])
@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_conv1d_matches_loop_reference(k, b, f64):
    rng = np.random.default_rng(10 * k + b)
    for t in (7, max(k - 1, 1)):    # the second is T < k for every k > 1
        x = rng.normal(size=(b, 2, t))
        w = rng.normal(size=(3, 2, k))
        g = rng.normal(size=(b, 3, t))
        for got, want in zip(_conv1d_taped(x, w, g), _conv1d_loop(x, w, g)):
            assert got.shape == want.shape
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


def test_conv1d_f32_stays_f32():
    rng = np.random.default_rng(12)
    x, w, g = (rng.normal(size=s) for s in ((2, 3, 6), (4, 3, 3), (2, 4, 6)))
    got = _conv1d_taped(x, w, g)
    assert [a.dtype for a in got] == [np.float32] * 3
    for a, want in zip(got, _conv1d_loop(x, w, g)):
        np.testing.assert_allclose(a, want, rtol=1e-4, atol=1e-4)


def test_conv1d_shape_errors():
    with pytest.raises(ShapeError, match="conv1d: expected 3-D"):
        ad.conv1d(ad.Tensor(np.zeros((2, 6))), ad.Tensor(np.zeros((4, 2, 3))))
    with pytest.raises(ShapeError, match="conv1d: channel mismatch"):
        ad.conv1d(ad.Tensor(np.zeros((1, 2, 6))), ad.Tensor(np.zeros((4, 3, 3))))


def test_conv1d_runs_without_einsum_or_pad(f64, monkeypatch):
    # conv1d is one GEMM per pass; a per-tap einsum or an np.pad copy in
    # the forward or backward would fail here
    def banned(*args, **kwargs):
        raise AssertionError("conv1d must not call np.einsum or np.pad")

    monkeypatch.setattr(np, "einsum", banned)
    monkeypatch.setattr(np, "pad", banned)
    rng = np.random.default_rng(13)
    x, w, g = (rng.normal(size=s) for s in ((3, 4, 9), (5, 4, 3), (3, 5, 9)))
    for got, want in zip(_conv1d_taped(x, w, g), _conv1d_loop(x, w, g)):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


def test_backward_square_sum():
    p = ad.Parameter("x", [3.0])
    x = p.tensor
    with ad.Tape() as tape:
        root = ad.reduce_sum(ad.mul(x, x))
    grads = ad.backward(tape, root, [p])
    np.testing.assert_allclose(grads["x"], [6.0])


def test_backward_constant_root_empty_map():
    p = ad.Parameter("w", [1.0, 2.0])
    c = ad.Tensor([5.0])
    with ad.Tape() as tape:
        root = ad.reduce_sum(ad.mul(c, c))
    grads = ad.backward(tape, root, [p])
    np.testing.assert_array_equal(grads["w"], np.zeros(2))


def test_backward_leaky_relu_mean():
    # hand evaluation: d mean/dx_i = 1/2; slopes 0.2 at x<0, 1 at x>0
    p = ad.Parameter("x", [-1.0, 2.0])
    with ad.Tape() as tape:
        root = ad.reduce_mean(ad.leaky_relu(p.tensor))
    grads = ad.backward(tape, root, [p])
    np.testing.assert_allclose(grads["x"], [0.1, 0.5])


def test_backward_rejects_non_scalar_root():
    p = ad.Parameter("x", [1.0, 2.0])
    with ad.Tape() as tape:
        y = ad.mul(p.tensor, p.tensor)
    with pytest.raises(ShapeError):
        ad.backward(tape, y, [p])


@pytest.mark.parametrize("shape", [(), (1,), (1, 1)])
def test_item_reads_a_one_element_tensor(shape):
    assert ad.Tensor(np.full(shape, 2.5)).item() == 2.5


@pytest.mark.parametrize("shape", [(2,), (1, 3), (0,)])
def test_item_rejects_a_tensor_of_other_size(shape):
    # numpy's item() rule: element 0 of a larger tensor is not its value
    with pytest.raises(ShapeError, match="^item: "):
        ad.Tensor(np.ones(shape)).item()


def test_backward_deterministic_bit_identical():
    rng = np.random.default_rng(3)
    p = ad.Parameter("w", rng.normal(size=(4, 4)))
    x = ad.Tensor(rng.normal(size=(2, 4)))

    def run():
        with ad.Tape() as tape:
            root = ad.reduce_sum(ad.tanh(ad.matmul(x, p.tensor)))
        return ad.backward(tape, root, [p])["w"]

    g1, g2 = run(), run()
    assert (g1 == g2).all()


def test_shared_input_accumulates():
    p = ad.Parameter("x", [2.0])
    x = p.tensor
    with ad.Tape() as tape:
        root = ad.reduce_sum(ad.add(ad.mul(x, x), x))  # x^2 + x -> 2x + 1 = 5
    grads = ad.backward(tape, root, [p])
    np.testing.assert_allclose(grads["x"], [5.0])


# ---------------------------------------------------------------------------
# lstm: one tape node, bit for bit the unrolled per-op recurrence


def _unrolled_lstm(xw, wh):
    """The recurrence as one tape node per op, as LstmEncoder once ran it."""
    t_len, batch, _ = xw.shape
    n = wh.shape[0]
    h = ad.constant(np.zeros((batch, n)))
    c = ad.constant(np.zeros((batch, n)))
    for t in range(t_len):
        z = ad.add(xw[t], ad.matmul(h, wh))
        gates = ad.sigmoid(z)
        g = ad.tanh(z[:, 2 * n:3 * n])
        c = ad.add(ad.mul(gates[:, n:2 * n], c), ad.mul(gates[:, :n], g))
        h = ad.mul(gates[:, 3 * n:], ad.tanh(c))
    return h


@pytest.mark.parametrize("prec", ["f32", "f64"])
@pytest.mark.parametrize("t_len,batch,hidden", [(1, 1, 3), (4, 3, 5), (15, 32, 64)])
@pytest.mark.parametrize("scale", [1.0, 8.0])   # 8: saturated gates, zero grads
def test_lstm_matches_unrolled_recurrence_bit_for_bit(prec, t_len, batch, hidden, scale):
    rng = np.random.default_rng(t_len * 100 + batch)
    with ad.precision(prec):
        xw = ad.Parameter("xw", rng.normal(size=(t_len, batch, 4 * hidden)) * scale)
        wh = ad.Parameter("wh", rng.uniform(-1.0, 1.0, size=(hidden, 4 * hidden))
                          / np.sqrt(hidden))
        up = ad.constant(rng.normal(size=(batch, hidden)))
        runs = []
        for fn in (ad.lstm, _unrolled_lstm):
            with ad.Tape() as tape:
                out = fn(xw.tensor, wh.tensor)
                root = ad.reduce_sum(ad.mul(out, up))
            grads = ad.backward(tape, root, [xw, wh])
            runs.append([out.data.tobytes(), grads["xw"].tobytes(),
                         grads["wh"].tobytes()])
    assert runs[0] == runs[1]


# ---------------------------------------------------------------------------
# graph_attention: one tape node, against the tape composition it replaced


def _padded_mask(counts):
    """Scene-membership mask of a padded batch, as GranpModel._stack."""
    n_max = max(counts)
    real = np.arange(n_max) < np.array(counts)[:, None]
    return (real[:, :, None] & real[:, None, :]) | np.eye(n_max, dtype=bool)


def _penalty_softmax_rows(x, mask):
    """Masking by an added -1e9 penalty, then an unmasked softmax."""
    return ad.softmax_rows(x + ad.constant(np.where(mask, 0.0, -1e9)))


def _composed_graph_attention(x, w, a, mask, softmax=ad.softmax_rows):
    """The layer as one tape node per primitive, as GatLayer once ran it:
    each head's W_k and a_k sliced from the stacked w and a, every query
    row, attention heads-inner [..., n, H, n]."""
    heads, d_in, d_out = w.shape
    ws = [w[k] for k in range(heads)]
    avs = [a[k].reshape((2 * d_out, 1)) for k in range(heads)]
    lead, n = tuple(x.shape[:-2]), x.shape[-2]
    swap = tuple(range(x.ndim - 2)) + (x.ndim - 1, x.ndim - 2)
    a_fold = ad.concat([ad.matmul(w, a[:d_out]) for w, a in zip(ws, avs)]
                       + [ad.matmul(w, a[d_out:]) for w, a in zip(ws, avs)], axis=1)
    f = ad.matmul(x, a_fold)
    f1 = f[..., :heads].reshape(lead + (n, heads, 1))
    f2 = ad.transpose(f[..., heads:], swap).reshape(lead + (1, heads, n))
    alpha = softmax(ad.leaky_relu(f1 + f2), mask[..., :, None, :])
    w_mean = ad.concat(list(ws), axis=0) * ad.constant(1.0 / heads)
    out = ad.matmul(ad.matmul(alpha.reshape(lead + (n * heads, n)), x)
                    .reshape(lead + (n, heads * d_in)), w_mean)
    return ad.relu(out), np.moveaxis(alpha.data, -2, 0)


def _graph_attention_runs(composed, counts, heads, seed):
    """(out, attention, gradients) of the node and of ``composed`` on one
    padded batch, with T 3, D 5 and head width 6."""
    rng = np.random.default_rng(seed)
    mask = _padded_mask(counts)
    x = ad.Parameter("x", rng.normal(size=(3,) + mask.shape[:2] + (5,)))
    # drawn head by head, W_k then a_k, and stacked
    draws = [rng.normal(size=shape) for _ in range(heads) for shape in ((5, 6), (12,))]
    w = ad.Parameter("w", np.stack(draws[0::2]))
    a = ad.Parameter("a", np.stack(draws[1::2]))
    up = ad.constant(rng.normal(size=(3,) + mask.shape[:2] + (6,)))
    runs = []
    for fn in (ad.graph_attention, composed):
        with ad.Tape() as tape:
            out, attn = fn(x.tensor, w.tensor, a.tensor, mask)
            root = ad.reduce_sum(ad.mul(out, up))
        runs.append((out.data, attn, ad.backward(tape, root, [x, w, a])))
    return runs


@pytest.mark.parametrize("counts", [[1], [4], [7], [1, 4, 7]])
@pytest.mark.parametrize("heads", [1, 3])
def test_graph_attention_matches_tape_composition(f64, counts, heads):
    (out, attn, grads), (ref_out, ref_attn, ref_grads) = _graph_attention_runs(
        _composed_graph_attention, counts, heads, seed=10 * len(counts) + heads)
    assert out.tobytes() == ref_out.tobytes()
    assert attn.shape == ref_attn.shape
    assert attn.tobytes() == ref_attn.tobytes()
    for name, ref in ref_grads.items():
        assert np.abs(grads[name] - ref).max() <= 1e-12 * np.abs(ref).max(), name


@pytest.mark.parametrize("precision", ["f32", "f64"])
def test_graph_attention_mask_matches_penalty_bit_for_bit(precision):
    # the node's mask sets a -inf score: a -1e9 penalty added before an
    # unmasked softmax gives the same bits
    def penalty(x, w, a, mask):
        return _composed_graph_attention(x, w, a, mask, _penalty_softmax_rows)

    with ad.precision(precision):
        ours, ref = _graph_attention_runs(penalty, [1, 4, 7], 3, seed=47)
    assert ours[0].tobytes() == ref[0].tobytes()
    assert ours[1].tobytes() == ref[1].tobytes()
    for name, g in ref[2].items():
        np.testing.assert_array_equal(ours[2][name], g, err_msg=name)


@pytest.mark.parametrize("x_shape,w_shape,a_shape,mask_shape", [
    ((4, 3), (2, 3, 2), (2, 4), (5, 4)),        # more queries than nodes
    ((4, 3), (2, 3, 2), (2, 4), (4, 3)),        # mask keys differ from nodes
    ((2, 4, 3), (2, 3, 2), (2, 4), (2, 4, 4)),  # a mask per leading index of T
    ((4, 3), (2, 2, 2), (2, 4), (4, 4)),        # W rows differ from x features
    ((4, 3), (3, 2), (2, 4), (4, 4)),           # w is not [H, D, d]
    ((4, 3), (2, 3, 2), (2, 2), (4, 4)),        # a is not [H, 2d]
    ((4, 3), (2, 3, 2), (3, 4), (4, 4)),        # a's heads differ from w's
    ((4, 3), (2, 3, 2), (4, 1), (4, 4)),        # a is one head's [2d, 1]
    ((3,), (2, 3, 2), (2, 4), (1, 1)),          # x not at least 2-D
])
def test_graph_attention_shape_errors(x_shape, w_shape, a_shape, mask_shape):
    w, a = ad.Tensor(np.zeros(w_shape)), ad.Tensor(np.zeros(a_shape))
    with pytest.raises(ShapeError, match="^graph_attention: "):
        ad.graph_attention(ad.Tensor(np.zeros(x_shape)), w, a, np.ones(mask_shape, bool))


# ---------------------------------------------------------------------------
# mlp and cross_attention: one tape node each, bit for bit the composition


def _composed_mlp(x, weights, biases):
    """The block as one tape node per primitive, as MlpBlock once ran it."""
    h = x
    for i, (w, b) in enumerate(zip(weights, biases)):
        h = ad.matmul(h, w) + b
        if i != len(weights) - 1:
            h = ad.relu(h)
    return h


def _mlp_params(rng, widths):
    """Weights, and biases drawn nonzero so that every ReLU both passes and
    blocks some entries."""
    ws = [ad.Parameter(f"{i}.W", rng.normal(size=pair))
          for i, pair in enumerate(zip(widths[:-1], widths[1:]))]
    bs = [ad.Parameter(f"{i}.b", rng.normal(size=n)) for i, n in enumerate(widths[1:])]
    return ws, bs


def _bytes_of_runs(fns, run):
    """run(fn) -> (out, grads) for each fn, as bytes."""
    results = []
    for fn in fns:
        out, grads = run(fn)
        results.append([out.data.tobytes()]
                       + [(name, g.tobytes()) for name, g in sorted(grads.items())])
    return results


@pytest.mark.parametrize("prec", ["f32", "f64"])
@pytest.mark.parametrize("lead", [(7,), (3, 2)])            # 2-D and 3-D input
@pytest.mark.parametrize("widths", [[5, 4], [5, 6, 6, 6, 3]])  # 1 and 4 layers
@pytest.mark.parametrize("x_grad", [True, False])
def test_mlp_matches_tape_composition(prec, lead, widths, x_grad):
    rng = np.random.default_rng(len(lead) * 10 + len(widths))
    with ad.precision(prec):
        ws, bs = _mlp_params(rng, widths)
        x = ad.Parameter("x", rng.normal(size=lead + (widths[0],)))
        x_in = x.tensor if x_grad else ad.constant(x.data)
        up = ad.constant(rng.normal(size=lead + (widths[-1],)))

        def run(fn):
            with ad.Tape() as tape:
                out = fn(x_in, [w.tensor for w in ws], [b.tensor for b in bs])
                root = ad.reduce_sum(ad.mul(out, up))
            return out, ad.backward(tape, root, [x] + ws + bs)

        ours, ref = _bytes_of_runs((ad.mlp, _composed_mlp), run)
    assert ours == ref


@pytest.mark.parametrize("prec", ["f32", "f64"])
def test_mlp_block_called_twice_in_one_tape(prec):
    # as latent_mlp: a prior on the first rows' mean, a posterior on all
    # rows' mean, of one upstream tensor
    rng = np.random.default_rng(5)
    with ad.precision(prec):
        ws, bs = _mlp_params(rng, [6, 6, 4])
        s = ad.Parameter("s", rng.normal(size=(5, 6)))
        up = ad.constant(rng.normal(size=(1, 4)))

        def run(fn):
            with ad.Tape() as tape:
                args = ([w.tensor for w in ws], [b.tensor for b in bs])
                prior = fn(s.tensor[:2].mean(axis=0, keepdims=True), *args)
                post = fn(s.tensor.mean(axis=0, keepdims=True), *args)
                root = ad.reduce_sum(ad.mul(ad.sub(post, prior), up))
            return root, ad.backward(tape, root, [s] + ws + bs)

        ours, ref = _bytes_of_runs((ad.mlp, _composed_mlp), run)
    assert ours == ref


def test_mlp_gives_a_constant_input_no_gradient():
    rng = np.random.default_rng(6)
    ws, bs = _mlp_params(rng, [3, 4, 2])
    with ad.Tape() as tape:
        ad.mlp(ad.constant(rng.normal(size=(2, 3))), [w.tensor for w in ws],
               [b.tensor for b in bs])
    (node,) = tape.nodes
    grads = node.bwd(np.ones((2, 2), np.float32))
    assert grads[0] is None
    assert [g.shape for g in grads[1:]] == [(3, 4), (4, 2), (4,), (2,)]


@pytest.mark.parametrize("x_shape,w_shapes,b_shapes", [
    ((4,), [(4, 3)], [(3,)]),                   # x not at least 2-D
    ((2, 4), [(4, 3)], []),                     # no bias for the layer
    ((2, 4), [], []),                           # no layer
    ((2, 4), [(5, 3)], [(3,)]),                 # W rows differ from x features
    ((2, 4), [(4, 3), (2, 2)], [(3,), (2,)]),   # W rows differ from the last width
    ((2, 4), [(4, 3)], [(1, 3)]),               # b is not [w_out]
    ((2, 4), [(4, 3)], [(4,)]),                 # b width differs from W's
    ((2, 4), [(2, 4, 3)], [(3,)]),              # W is not 2-D
])
def test_mlp_shape_errors(x_shape, w_shapes, b_shapes):
    ws = [ad.Tensor(np.zeros(s)) for s in w_shapes]
    bs = [ad.Tensor(np.zeros(s)) for s in b_shapes]
    with pytest.raises(ShapeError, match="^mlp: "):
        ad.mlp(ad.Tensor(np.zeros(x_shape)), ws, bs)


def _composed_cross_attention(queries, keys, values, wq, wk, wv, wo, heads):
    """Attention as one tape node per primitive, as CrossAttention once ran
    it: every head in one pass over [H, k, hd] and [H, hd, m] views."""
    n_q, n_kv, dim = queries.shape[0], keys.shape[0], wq.shape[0]
    hd = dim // heads
    q = ad.transpose(ad.matmul(queries, wq).reshape((n_q, heads, hd)), (1, 0, 2))
    k = ad.transpose(ad.matmul(keys, wk).reshape((n_kv, heads, hd)), (1, 2, 0))
    v = ad.transpose(ad.matmul(values, wv).reshape((n_kv, heads, hd)), (1, 0, 2))
    alpha = ad.softmax_rows(ad.matmul(q, k) * ad.constant(1.0 / np.sqrt(hd)))
    merged = ad.transpose(ad.matmul(alpha, v), (1, 0, 2)).reshape((n_q, dim))
    return ad.matmul(merged, wo)


@pytest.mark.parametrize("prec", ["f32", "f64"])
@pytest.mark.parametrize("heads", [1, 2, 4])
@pytest.mark.parametrize("inputs", ["slice", "shared", "constant"])
def test_cross_attention_matches_tape_composition(prec, heads, inputs):
    """slice: the keys are the queries' first rows, as in elbo_loss; shared:
    one tensor is keys and values and has another consumer, so the order in
    which its three gradients are summed shows; constant: no input needs a
    gradient, as in the gradient check's layer case."""
    rng = np.random.default_rng(heads)
    with ad.precision(prec):
        ws = [ad.Parameter(name, rng.normal(size=(8, 8)) / 3.0)
              for name in ("wq", "wk", "wv", "wo")]
        h = ad.Parameter("h", rng.normal(size=(6, 8)))
        r = ad.Parameter("r", rng.normal(size=(3, 8)))
        up = ad.constant(rng.normal(size=(6, 8)))

        def run(fn):
            with ad.Tape() as tape:
                if inputs == "slice":
                    qkv = h.tensor, h.tensor[:3], r.tensor
                elif inputs == "shared":
                    qkv = h.tensor, r.tensor, r.tensor
                else:
                    qkv = ad.constant(h.data), ad.constant(r.data), ad.constant(r.data)
                out = fn(*qkv, *(w.tensor for w in ws), heads)
                root = ad.reduce_sum(ad.mul(out, up))
                if inputs == "shared":
                    root = ad.add(root, ad.reduce_sum(ad.mul(r.tensor, r.tensor)))
            return out, ad.backward(tape, root, [h, r] + ws)

        ours, ref = _bytes_of_runs((ad.cross_attention, _composed_cross_attention), run)
    assert ours == ref


def test_cross_attention_gives_constant_inputs_no_gradient():
    rng = np.random.default_rng(8)
    ws = [ad.Parameter(name, rng.normal(size=(4, 4))) for name in ("q", "k", "v", "o")]
    kv = ad.constant(rng.normal(size=(3, 4)))
    with ad.Tape() as tape:
        ad.cross_attention(ad.constant(rng.normal(size=(2, 4))), kv, kv,
                           *(w.tensor for w in ws), 2)
    (node,) = tape.nodes
    grads = node.bwd(np.ones((2, 4), np.float32))
    assert grads[:3] == (None, None, None)
    assert all(g.shape == (4, 4) for g in grads[3:])


@pytest.mark.parametrize("q_shape,k_shape,v_shape,w_shape,heads", [
    ((2, 4), (3, 4), (3, 4), (4, 4), 3),        # dim not divisible by heads
    ((2, 4), (3, 4), (3, 4), (4, 4), 0),        # no head
    ((2, 4), (0, 4), (0, 4), (4, 4), 2),        # no key
    ((2, 4), (3, 4), (2, 4), (4, 4), 2),        # values differ from keys
    ((2, 4), (3, 5), (3, 5), (4, 4), 2),        # keys' dim differs from queries'
    ((2, 2, 4), (3, 4), (3, 4), (4, 4), 2),     # queries not [k, D]
    ((4,), (3, 4), (3, 4), (4, 4), 2),          # queries 1-D
    ((2, 4), (3, 4), (3, 4), (4, 5), 2),        # weights not [D, D]
])
def test_cross_attention_shape_errors(q_shape, k_shape, v_shape, w_shape, heads):
    ws = [ad.Tensor(np.zeros(w_shape))] * 4
    with pytest.raises(ShapeError, match="^cross_attention: "):
        ad.cross_attention(ad.Tensor(np.zeros(q_shape)), ad.Tensor(np.zeros(k_shape)),
                           ad.Tensor(np.zeros(v_shape)), *ws, heads)


def test_lstm_without_tape_keeps_no_per_step_arrays():
    rng = np.random.default_rng(7)
    xw = ad.Parameter("xw", rng.normal(size=(15, 32, 4 * 64)))
    wh = ad.Parameter("wh", rng.normal(size=(64, 4 * 64)) / 8.0)

    def peak(recorded):
        tracemalloc.start()
        try:
            if recorded:
                with ad.Tape():
                    ad.lstm(xw.tensor, wh.tensor)
            else:
                ad.lstm(xw.tensor, wh.tensor)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    taped, untaped = peak(True), peak(False)
    # taped: 15 steps of gates, g, c, h and tanh(c), about 1 MB in f32
    assert untaped < taped / 4, (untaped, taped)


@pytest.mark.parametrize("xw_shape,wh_shape", [
    ((2, 8), (2, 8)),           # xw not 3-D
    ((0, 1, 8), (2, 8)),        # no steps
    ((3, 1, 12), (2, 8)),       # xw's 4h differs from wh's
    ((3, 1, 8), (2, 4)),        # wh not [h, 4h]
    ((3, 1, 8), (8,)),          # wh not 2-D
])
def test_lstm_shape_errors(xw_shape, wh_shape):
    with pytest.raises(ShapeError, match="^lstm: "):
        ad.lstm(ad.Tensor(np.zeros(xw_shape)), ad.Tensor(np.zeros(wh_shape)))


# ---------------------------------------------------------------------------
# numeric_errors: numpy raises at the op that fails; saturation is not one

# each check runs once under numpy's defaults, where the global
# error::RuntimeWarning filter catches a warning, and once in the channel
_NO_WARNING_AND_NO_RAISE = [contextlib.nullcontext, lambda: ad.numeric_errors("saturated")]


@pytest.mark.parametrize("x", [-100.0, 100.0])
@pytest.mark.parametrize("ctx", _NO_WARNING_AND_NO_RAISE, ids=["defaults", "channel"])
def test_sigmoid_and_softplus_saturate_in_f32(x, ctx):
    p = ad.Parameter("x", np.full(3, x))
    runs = {}
    with ctx():
        for fn in (ad.sigmoid, ad.softplus):
            with ad.Tape() as tape:
                out = fn(p.tensor)
                root = ad.reduce_sum(out)
            runs[fn] = out.data, ad.backward(tape, root, [p])["x"]
    s, g_s = runs[ad.sigmoid]
    sp, g_sp = runs[ad.softplus]
    assert s.dtype == sp.dtype == np.float32
    np.testing.assert_array_equal(s, 1.0 if x > 0 else 0.0)
    np.testing.assert_array_equal(g_s, 0.0)
    np.testing.assert_allclose(sp, max(x, 0.0), rtol=0, atol=1e-30)
    np.testing.assert_array_equal(g_sp, 1.0 if x > 0 else 0.0)


@pytest.mark.parametrize("x", [-100.0, 100.0])
@pytest.mark.parametrize("ctx", _NO_WARNING_AND_NO_RAISE, ids=["defaults", "channel"])
def test_lstm_saturates_in_f32(x, ctx):
    rng = np.random.default_rng(4)
    t_len, hidden = 5, 3
    xw = ad.Parameter("xw", np.full((t_len, 2, 4 * hidden), x))
    wh = ad.Parameter("wh", rng.uniform(-1.0, 1.0, size=(hidden, 4 * hidden)))
    with ctx():
        with ad.Tape() as tape:
            out = ad.lstm(xw.tensor, wh.tensor)
            root = ad.reduce_sum(out)
        grads = ad.backward(tape, root, [xw, wh])
    # every gate 1: c counts the steps; every gate 0: c and h stay 0
    expected = np.tanh(np.float32(t_len)) if x > 0 else 0.0
    np.testing.assert_array_equal(out.data, np.full((2, hidden), expected, np.float32))
    for g in grads.values():    # saturated gates pass no gradient
        np.testing.assert_array_equal(g, 0.0)


def test_numeric_errors_restores_numpys_error_state():
    before = np.geterr()
    with ad.numeric_errors("fine"):
        assert np.geterr() == {"divide": "raise", "over": "raise",
                               "under": "ignore", "invalid": "raise"}
    assert np.geterr() == before
    with pytest.raises(NumericError):
        with ad.numeric_errors("failing"):
            np.full(2, 3e38, np.float32) * np.float32(10.0)
    assert np.geterr() == before


@pytest.mark.parametrize("op,what", [
    (lambda: np.full(2, 3e38, np.float32) * np.float32(10.0), "overflow encountered in multiply"),
    (lambda: np.log(np.zeros(2)), "divide by zero encountered in log"),
    (lambda: np.sqrt(np.full(2, -1.0)), "invalid value encountered in sqrt"),
], ids=["overflow", "divide", "invalid"])
def test_numeric_errors_names_the_place_and_the_op(op, what):
    with pytest.raises(NumericError, match=f"^epoch 3, batch 1: {what}$"):
        with ad.numeric_errors("epoch 3, batch 1"):
            op()


def test_numeric_errors_ignores_underflow():
    with ad.numeric_errors("underflow"):
        tiny = np.exp(np.full(2, -200.0, np.float32))
    np.testing.assert_array_equal(tiny, 0.0)


# ---------------------------------------------------------------------------
# Finite-difference agreement, every primitive, 10 seeds each


ALL_PRIMITIVES = sorted(_primitive_cases(np.random.default_rng(0)))


@pytest.mark.parametrize("kind", ALL_PRIMITIVES)
def test_primitive_gradients_match_finite_differences(kind, f64):
    for seed in range(10):
        fn, params = _primitive_cases(np.random.default_rng(seed))[kind]
        errs = ad.grad_check(fn, params)
        worst = max(errs.values())
        assert worst < 1e-4, f"{kind} seed {seed}: rel err {worst:.3e}"


def test_grad_check_linear_map_is_exact(f64):
    rng = np.random.default_rng(7)
    w = ad.Parameter("w", rng.normal(size=(3, 3)))
    x = ad.constant(rng.normal(size=(2, 3)))
    errs = ad.grad_check(lambda: ad.reduce_sum(ad.matmul(x, w.tensor)), [w])
    assert max(errs.values()) < 1e-8


def test_matmul_4d_by_weight_grad_check(f64):
    rng = np.random.default_rng(8)
    a = ad.Parameter("a", rng.normal(size=(2, 3, 4, 5)))
    w = ad.Parameter("w", rng.normal(size=(5, 3)))
    off = ad.constant(rng.normal(size=(2, 3, 4, 3)))
    errs = ad.grad_check(
        lambda: ad.reduce_sum(ad.mul(ad.tanh(ad.matmul(a.tensor, w.tensor)), off)),
        [a, w])
    assert max(errs.values()) < 1e-4


def test_matmul_weight_gradient_matches_batched_outer_product(f64):
    rng = np.random.default_rng(9)
    a = ad.Parameter("a", rng.normal(size=(3, 4, 6, 5)))
    w = ad.Parameter("w", rng.normal(size=(5, 7)))
    g = rng.normal(size=(3, 4, 6, 7))
    with ad.Tape() as tape:
        root = ad.reduce_sum(ad.mul(ad.matmul(a.tensor, w.tensor), ad.constant(g)))
    grads = ad.backward(tape, root, [a, w])
    gb_batched = (np.swapaxes(a.data, -1, -2) @ g).sum(axis=(0, 1))
    np.testing.assert_allclose(grads["w"], gb_batched, rtol=0, atol=1e-12)
    np.testing.assert_allclose(grads["a"], g @ w.data.T, rtol=0, atol=1e-12)


def test_grad_check_constant_objective_zero_error(f64):
    w = ad.Parameter("w", [1.0, 2.0])
    c = ad.constant([4.0])
    errs = ad.grad_check(lambda: ad.reduce_sum(ad.mul(c, c)), [w])
    assert errs["w"] == 0.0


def test_grad_check_requires_f64():
    w = ad.Parameter("w", [1.0])
    with pytest.raises(DataError):
        ad.grad_check(lambda: ad.reduce_sum(w.tensor), [w])


def _cpus(monkeypatch, n):
    """Make grad_check see n CPUs, or none at all (n None): no affinity call."""
    if n is None:
        monkeypatch.delattr(os, "sched_getaffinity")
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)),
                            raising=False)


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_grad_check_split_gives_the_serial_result(f64, monkeypatch):
    fn, params = _layer_cases(np.random.default_rng(3))["cross_attention"]
    before = [p.data.tobytes() for p in params]
    results = {}
    for n in (None, 1, 2, 3):
        _cpus(monkeypatch, n)
        results[n] = ad.grad_check(fn, params)
        _assert_no_child_left()
        assert [p.data.tobytes() for p in params] == before
    serial = results[1]
    assert len(serial) == len(params) > 1
    for n, errs in results.items():
        assert list(errs) == list(serial), n
        assert [(type(v), v) for v in errs.values()] == \
            [(type(v), v) for v in serial.values()], n


def _failing_on_two_entries():
    """Entries 2 (a[2]) and 4 (b[1]) fail on their minus step: log of a
    negative number and a division by zero.  With 2 CPUs they fall in the
    parent's slice and a child's; with 3 CPUs in two children's."""
    a = ad.Parameter("a", [1.0, 2.0, 3.0])
    b = ad.Parameter("b", [4.0, 5.0, 6.0])
    ca = ad.constant(a.data - [1.0, 1.0, 0.5 * ad.FD_STEP])
    cb = ad.constant(b.data - [1.0, ad.FD_STEP, 1.0])
    one = ad.constant(1.0)
    fn = lambda: ad.add(ad.reduce_sum(ad.log(ad.sub(a.tensor, ca))),
                        ad.reduce_sum(ad.div(one, ad.sub(b.tensor, cb))))
    return fn, [a, b]


@pytest.mark.parametrize("cpus", [1, 2, 3])
@pytest.mark.parametrize("channel", ["non-finite", "numeric_errors"])
def test_grad_check_raises_the_first_failing_entry(f64, monkeypatch, cpus, channel):
    _cpus(monkeypatch, cpus)
    fn, params = _failing_on_two_entries()
    before = [p.data.tobytes() for p in params]
    if channel == "non-finite":
        ctx = np.errstate(all="ignore")
        expected = "^grad_check: non-finite objective perturbing 'a'$"
    else:
        # the FloatingPointError crosses from a child as itself
        ctx = ad.numeric_errors("gradcheck")
        expected = "^gradcheck: invalid value encountered in log$"
    with pytest.raises(NumericError, match=expected), ctx:
        ad.grad_check(fn, params)
    _assert_no_child_left()
    assert [p.data.tobytes() for p in params] == before


def test_grad_check_restores_the_entry_the_objective_failed_on(f64, monkeypatch):
    _cpus(monkeypatch, 1)
    w = ad.Parameter("w", [1.0, 2.0])
    c = ad.constant([1.0 - 0.5 * ad.FD_STEP, 0.0])
    with pytest.raises(NumericError, match="invalid value encountered in log"):
        with ad.numeric_errors("gradcheck"):
            ad.grad_check(lambda: ad.reduce_sum(ad.log(ad.sub(w.tensor, c))), [w])
    assert w.data.tobytes() == np.array([1.0, 2.0]).tobytes()


class _TwoPartError(Exception):
    """Pickles, but does not load: its one arg is not what __init__ takes."""

    def __init__(self, what, where):
        super().__init__(f"{what} {where}")


@pytest.mark.parametrize("dumps", [False, True])
def test_grad_check_error_that_does_not_pickle_crosses_by_message(f64, monkeypatch, dumps):
    class LocalError(Exception):    # a local class does not pickle
        pass

    error = _TwoPartError("moved", "w[1]") if dumps else LocalError("moved w[1]")
    _cpus(monkeypatch, 2)
    w = ad.Parameter("w", [1.0, 2.0])

    def fn():
        if w.data[1] != 2.0:
            raise error
        return ad.reduce_sum(w.tensor)

    with pytest.raises(RuntimeError,
                       match=f"^{type(error).__name__}: moved w\\[1\\]$"):
        ad.grad_check(fn, [w])
    _assert_no_child_left()


def test_grad_check_reports_a_child_that_died(f64, monkeypatch):
    _cpus(monkeypatch, 2)
    w = ad.Parameter("w", [1.0, 2.0])
    parent = os.getpid()

    def fn():
        if os.getpid() != parent:
            os._exit(3)
        return ad.reduce_sum(w.tensor)

    with pytest.raises(RuntimeError, match="entries 1..2 ended without a result"):
        ad.grad_check(fn, [w])
    _assert_no_child_left()


def test_grad_check_interrupted_kills_its_children(f64, monkeypatch):
    _cpus(monkeypatch, 2)
    w = ad.Parameter("w", [1.0, 2.0])
    parent = os.getpid()
    calls = []

    def fn():
        calls.append(None)
        if os.getpid() != parent:
            time.sleep(60)            # the child would outlive the call
        elif len(calls) > 1:          # the analytic pass is call 1
            raise KeyboardInterrupt
        return ad.reduce_sum(w.tensor)

    start = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        ad.grad_check(fn, [w])
    _assert_no_child_left()
    assert time.perf_counter() - start < 30
    assert w.data.tolist() == [1.0, 2.0]


def test_precision_switch_changes_dtype():
    assert ad.Tensor([1.0]).data.dtype == np.float32
    with ad.precision("f64"):
        assert ad.Tensor([1.0]).data.dtype == np.float64
    assert ad.Tensor([1.0]).data.dtype == np.float32
    with ad.precision("f32"):
        with ad.precision("f64"):
            assert ad.dtype() == np.float64
            assert ad.Tensor([1.0]).data.dtype == np.float64
        assert ad.dtype() == np.float32
        assert ad.Tensor([1.0]).data.dtype == np.float32


def test_unknown_precision_leaves_precision_and_dtype(f64):
    with pytest.raises(DataError, match="unknown precision"):
        ad.set_precision("f16")
    assert ad.get_precision() == "f64"
    assert ad.dtype() == np.float64
    assert ad.Tensor([1.0]).data.dtype == np.float64
