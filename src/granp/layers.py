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
    """Stack of affine layers with ReLU between stages and identity output;
    ``forward`` is one tape node, ``ad.mlp``."""

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
        return ad.mlp(x, [w.tensor for w in self.weights], [b.tensor for b in self.biases])


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
        if seq.shape[0] == 0:
            raise DataError("lstm_encode: empty sequence")
        # the input projection does not depend on the recurrence: one GEMM
        # over every step, then the whole recurrence is one tape node
        xw = ad.matmul(seq, self.w_x.tensor) + self.b.tensor   # [T, batch, 4h]
        return ad.lstm(xw, self.w_h.tensor)


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
        # head k's W_k is w[k] and its score vector a[k]
        self.w = Parameter(f"{name}.W", _uniform(rng, in_dim, (heads, in_dim, out_dim)))
        self.a = Parameter(f"{name}.a", _uniform(rng, 2 * out_dim, (heads, 2 * out_dim)))

    def parameters(self):
        return [self.w, self.a]

    def forward_seq(self, nodes_seq: Tensor, mask):
        """nodes [..., n, in_dim] -> (out [..., q, out_dim], attention
        [heads, ..., q, n]); the leading dims may be none.

        ``mask`` holds one graph per leading index of nodes but the first,
        which every step T shares: [q, n] for nodes [n, in_dim] or
        [T, n, in_dim], [B, q, n] for [T, B, n, in_dim].  Entries > 0 are
        edges, and every row needs one.  Row i is query node i, so q = n
        updates every node and ``mask[:, :1]`` only the first (the ego's
        row, exact: every node stays a key).  A batch of scenes comes in
        the padded layout, one block per scene, so attention stays within
        a scene.

        The layer is one tape node, ``ad.graph_attention``, which checks
        the shapes and the edges.
        """
        return ad.graph_attention(nodes_seq, self.w.tensor, self.a.tensor,
                                  np.asarray(mask) > 0)


class CrossAttention:
    """Multi-head scaled dot-product attention from target queries over a
    context set; heads are concatenated and linearly projected.  ``attend``
    is one tape node, ``ad.cross_attention``."""

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
        return ad.cross_attention(queries, keys, values, self.w_q.tensor, self.w_k.tensor,
                                  self.w_v.tensor, self.w_o.tensor, self.heads)
