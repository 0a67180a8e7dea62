"""Differentiable building blocks: MLP, LSTM encoder, Conv-MLP pair encoder,
graph attention layer, and multi-head cross-attention.

Weight matrices initialize uniform in [-1/sqrt(fan_in), +1/sqrt(fan_in)];
biases start at zero except the LSTM forget gate (1.0, training stability).
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Parameter, Tensor
from .errors import DataError, ShapeError


def _uniform(rng: np.random.Generator, fan_in: int, shape) -> np.ndarray:
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


class MlpBlock:
    """Stack of affine layers with ReLU between stages and identity output."""

    def __init__(self, name: str, widths, rng: np.random.Generator):
        if len(widths) < 2:
            raise ShapeError(f"{name}: MlpBlock needs at least [in, out] widths, got {widths}")
        self.widths = list(widths)
        self.weights = []
        self.biases = []
        for i, (w_in, w_out) in enumerate(zip(widths[:-1], widths[1:])):
            self.weights.append(Parameter(f"{name}.{i}.W", _uniform(rng, w_in, (w_in, w_out))))
            self.biases.append(Parameter(f"{name}.{i}.b", np.zeros(w_out)))

    def parameters(self):
        return [p for pair in zip(self.weights, self.biases) for p in pair]

    def forward(self, x: Tensor) -> Tensor:
        if x.shape[-1] != self.widths[0]:
            raise ShapeError(
                f"mlp_forward: input extent {x.shape[-1]} does not match width {self.widths[0]}")
        h = x
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            h = ad.matmul(h, w.tensor) + b.tensor
            if i != last:
                h = ad.relu(h)
        return h


class LstmEncoder:
    """Single-layer LSTM; returns the final hidden state."""

    def __init__(self, name: str, input_size: int, hidden_size: int, rng: np.random.Generator):
        self.input_size = input_size
        self.hidden_size = hidden_size
        h = hidden_size
        self.w_x = Parameter(f"{name}.Wx", _uniform(rng, input_size, (input_size, 4 * h)))
        self.w_h = Parameter(f"{name}.Wh", _uniform(rng, h, (h, 4 * h)))
        bias = np.zeros(4 * h)
        bias[h:2 * h] = 1.0  # forget gate
        self.b = Parameter(f"{name}.b", bias)

    def parameters(self):
        return [self.w_x, self.w_h, self.b]

    def encode(self, seq: Tensor) -> Tensor:
        """seq: [T, batch, input_size] -> final hidden state [batch, hidden]."""
        if seq.ndim != 3 or seq.shape[2] != self.input_size:
            raise ShapeError(f"lstm_encode: expected [T, batch, {self.input_size}], got {seq.shape}")
        t_len, batch, _ = seq.shape
        if t_len == 0:
            raise DataError("lstm_encode: empty sequence")
        hs = self.hidden_size
        # the input projection does not depend on the recurrence: one GEMM
        # over every step, so only h @ Wh stays in the loop
        xw = ad.matmul(seq, self.w_x.tensor) + self.b.tensor   # [T, batch, 4h]
        h = ad.constant(np.zeros((batch, hs)))
        c = ad.constant(np.zeros((batch, hs)))
        for t in range(t_len):
            z = xw[t] + ad.matmul(h, self.w_h.tensor)
            # one sigmoid for the i, f, o gates; its g block goes unused
            gates = ad.sigmoid(z)
            g = ad.tanh(z[:, 2 * hs:3 * hs])
            c = gates[:, hs:2 * hs] * c + gates[:, :hs] * g
            h = gates[:, 3 * hs:] * ad.tanh(c)
        return h


class ConvMlpEncoder:
    """Three same-padding conv1d+ReLU stages, temporal mean-pool, then four
    fully connected layers (ReLU between, identity at the end)."""

    N_CONV = 3
    N_LINEAR = 4

    def __init__(self, name: str, in_channels: int, hidden: int, out_dim: int,
                 kernel_size: int, rng: np.random.Generator):
        self.kernel_size = kernel_size
        self.conv_w = []
        self.conv_b = []
        channels = [in_channels] + [hidden] * self.N_CONV
        for i, (c_in, c_out) in enumerate(zip(channels[:-1], channels[1:])):
            self.conv_w.append(Parameter(
                f"{name}.conv{i}.W", _uniform(rng, c_in * kernel_size, (c_out, c_in, kernel_size))))
            self.conv_b.append(Parameter(f"{name}.conv{i}.b", np.zeros((c_out, 1))))
        widths = [hidden] * self.N_LINEAR + [out_dim]
        self.mlp = MlpBlock(f"{name}.fc", widths, rng)

    def parameters(self):
        convs = [p for pair in zip(self.conv_w, self.conv_b) for p in pair]
        return convs + self.mlp.parameters()

    def encode(self, seq: Tensor) -> Tensor:
        """seq: [batch, channels, T] -> [batch, out_dim]."""
        if seq.ndim != 3:
            raise ShapeError(f"conv_mlp_encode: expected [batch, channels, T], got {seq.shape}")
        if seq.shape[2] < self.kernel_size:
            raise DataError(
                f"conv_mlp_encode: sequence length {seq.shape[2]} shorter than kernel {self.kernel_size}")
        h = seq
        for w, b in zip(self.conv_w, self.conv_b):
            h = ad.relu(ad.conv1d(h, w.tensor) + b.tensor)
        pooled = h.mean(axis=2)
        return self.mlp.forward(pooled)


class GatLayer:
    """Multi-head graph attention over a masked neighborhood.

    Attention scores are a learned linear form on concatenated transformed
    node pairs, passed through LeakyReLU and softmax-normalized over each
    node's neighbors. Head outputs are averaged (not concatenated) and the
    result passes through ReLU.
    """

    def __init__(self, name: str, in_dim: int, out_dim: int, heads: int,
                 rng: np.random.Generator):
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.heads = heads
        self.w = [Parameter(f"{name}.W.h{k}", _uniform(rng, in_dim, (in_dim, out_dim)))
                  for k in range(heads)]
        self.a = [Parameter(f"{name}.a.h{k}", _uniform(rng, 2 * out_dim, (2 * out_dim, 1)))
                  for k in range(heads)]

    def parameters(self):
        return [p for pair in zip(self.w, self.a) for p in pair]

    def forward_seq(self, nodes_seq: Tensor, mask):
        """nodes [..., n, in_dim] -> (out [..., n, out_dim], attention
        [heads, ..., n, n]); the leading dims may be none.

        ``mask`` holds one graph per leading index of nodes but the first,
        which every step T shares: [n, n] for nodes [n, in_dim] or
        [T, n, in_dim], [B, n, n] for [T, B, n, in_dim].  Entries > 0 are
        edges, and every row needs one.  A batch of scenes comes in the
        padded layout, one n_max x n_max block per scene, so attention
        stays within a scene.

        All heads run in one pass.  Head k's scores are x W_k a1_k and
        x W_k a2_k, so the score vectors are folded through their
        projections and every head's scores come from one x @ [in_dim, 2H]
        GEMM.  Attention is held heads-inner, [T, ..., n, H, n], so that
        sum_k alpha_k x W_k / H is one batched alpha @ x followed by one
        GEMM with the per-head W stacked along rows; no node-sized array
        is made per head.
        """
        edges = np.asarray(mask) > 0
        lead, n = tuple(nodes_seq.shape[:-2]), nodes_seq.shape[-2]
        if edges.shape != lead[1:] + (n, n):
            raise ShapeError(f"gat_forward: nodes {nodes_seq.shape} but mask is {edges.shape}")
        isolated = np.argwhere(~edges.any(axis=-1))
        if len(isolated):
            raise DataError(f"gat_forward: mask row {isolated[0].tolist()} has no edge")
        heads, d_out = self.heads, self.out_dim
        swap = tuple(range(nodes_seq.ndim - 2)) + (nodes_seq.ndim - 1, nodes_seq.ndim - 2)
        # column k is W_k a1_k, column H + k is W_k a2_k
        a_fold = ad.concat(
            [ad.matmul(w.tensor, a.tensor[:d_out]) for w, a in zip(self.w, self.a)]
            + [ad.matmul(w.tensor, a.tensor[d_out:]) for w, a in zip(self.w, self.a)],
            axis=1)
        f = ad.matmul(nodes_seq, a_fold)                         # [T, ..., n, 2H]
        f1 = f[..., :heads].reshape(lead + (n, heads, 1))
        f2 = ad.transpose(f[..., heads:], swap).reshape(lead + (1, heads, n))
        alpha = ad.softmax_rows(ad.leaky_relu(f1 + f2),
                                edges[..., :, None, :])         # [T, ..., n, H, n]
        w_mean = ad.concat([w.tensor for w in self.w], axis=0) * ad.constant(1.0 / heads)
        # alpha @ x, [T, ..., n·H, in_dim], is the widest temporary; no
        # name holds it past the projection
        out = ad.matmul(ad.matmul(alpha.reshape(lead + (n * heads, n)), nodes_seq)
                        .reshape(lead + (n, heads * self.in_dim)), w_mean)
        return ad.relu(out), np.moveaxis(alpha.data, -2, 0)

    forward = forward_seq   # the name single-graph callers use


class CrossAttention:
    """Multi-head scaled dot-product attention from target queries over a
    context set; heads are concatenated and linearly projected."""

    def __init__(self, name: str, dim: int, heads: int, rng: np.random.Generator):
        if dim % heads != 0:
            raise ShapeError(f"cross-attention dim {dim} not divisible by {heads} heads")
        self.dim = dim
        self.heads = heads
        self.head_dim = dim // heads
        self.w_q = Parameter(f"{name}.Wq", _uniform(rng, dim, (dim, dim)))
        self.w_k = Parameter(f"{name}.Wk", _uniform(rng, dim, (dim, dim)))
        self.w_v = Parameter(f"{name}.Wv", _uniform(rng, dim, (dim, dim)))
        self.w_o = Parameter(f"{name}.Wo", _uniform(rng, dim, (dim, dim)))

    def parameters(self):
        return [self.w_q, self.w_k, self.w_v, self.w_o]

    def attend(self, queries: Tensor, keys: Tensor, values: Tensor) -> Tensor:
        """queries: [k, dim]; keys/values: [m, dim] -> [k, dim]."""
        if keys.shape[0] == 0:
            raise DataError("cross_attend: empty context")
        if queries.shape[-1] != self.dim or keys.shape[-1] != self.dim:
            raise ShapeError(
                f"cross_attend: expected feature dim {self.dim}, got {queries.shape} / {keys.shape}")
        n_q, n_kv = queries.shape[0], keys.shape[0]
        heads, hd = self.heads, self.head_dim
        # every head in one pass: q [H, k, hd], k^T [H, hd, m], v [H, m, hd]
        q = ad.transpose(ad.matmul(queries, self.w_q.tensor).reshape((n_q, heads, hd)), (1, 0, 2))
        k = ad.transpose(ad.matmul(keys, self.w_k.tensor).reshape((n_kv, heads, hd)), (1, 2, 0))
        v = ad.transpose(ad.matmul(values, self.w_v.tensor).reshape((n_kv, heads, hd)), (1, 0, 2))
        alpha = ad.softmax_rows(ad.matmul(q, k) * ad.constant(1.0 / np.sqrt(hd)))  # [H, k, m]
        merged = ad.transpose(ad.matmul(alpha, v), (1, 0, 2)).reshape((n_q, self.dim))
        return ad.matmul(merged, self.w_o.tensor)
