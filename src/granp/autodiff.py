"""Reverse-mode automatic differentiation over dense numpy arrays.

A dynamic tape records primitive applications during the forward pass;
``backward`` replays it in reverse to accumulate gradients. The precision
(float32 for training, float64 for gradient checks) is a global run
configuration, not a per-tensor property.
"""

from __future__ import annotations

import contextlib
import os
import pickle
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .errors import DataError, NumericError, ShapeError

# ---------------------------------------------------------------------------
# Precision configuration

_DTYPES = {"f32": np.dtype(np.float32), "f64": np.dtype(np.float64)}
_precision = "f32"
_dtype = _DTYPES[_precision]  # cached: every Tensor reads it


def set_precision(name: str) -> None:
    """Set the global floating-point precision ("f32" or "f64")."""
    global _precision, _dtype
    if name not in _DTYPES:
        raise DataError(f"unknown precision {name!r}; expected 'f32' or 'f64'")
    _precision = name
    _dtype = _DTYPES[name]


def get_precision() -> str:
    return _precision


def dtype() -> np.dtype:
    """Numpy dtype for the current global precision."""
    return _dtype


@contextlib.contextmanager
def precision(name: str):
    """Temporarily switch the global precision."""
    prev = _precision
    set_precision(name)
    try:
        yield
    finally:
        set_precision(prev)


@contextlib.contextmanager
def numeric_errors(where: str):
    """Run the block with numpy raising at the op that overflows, divides by
    zero or makes a NaN, as NumericError "<where>: <numpy's message>";
    underflow is ignored.  NaN inputs raise nothing, so must not enter."""
    try:
        with np.errstate(all="raise", under="ignore"):
            yield
    except FloatingPointError as err:
        raise NumericError(f"{where}: {err}") from None


# ---------------------------------------------------------------------------
# Tensor / Tape / Parameter

class Tensor:
    """Dense multi-dimensional array; ``requires_grad`` marks it for the tape."""

    __slots__ = ("data", "requires_grad")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=_dtype)
        self.requires_grad = requires_grad

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # arithmetic sugar; scalars and arrays are lifted to constants
    def __add__(self, other):
        return add(self, constant(other))

    def __radd__(self, other):
        return add(constant(other), self)

    def __sub__(self, other):
        return sub(self, constant(other))

    def __mul__(self, other):
        return mul(self, constant(other))

    def __rmul__(self, other):
        return mul(constant(other), self)

    def __truediv__(self, other):
        return div(self, constant(other))

    def __getitem__(self, key):
        return slice_(self, key)

    def reshape(self, shape) -> "Tensor":
        return reshape(self, shape)

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        return reduce_sum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        return reduce_mean(self, axis=axis, keepdims=keepdims)


def constant(x) -> Tensor:
    """Non-trainable tensor in the current precision; a Tensor passes
    through unchanged."""
    return x if isinstance(x, Tensor) else Tensor(x)


class Parameter:
    """Named trainable tensor; ``backward`` keys its gradient by the name.
    Its data is a writeable C-contiguous copy of the input in the run's
    precision; assigning ``data`` writes into it in place, same shape only."""

    __slots__ = ("name", "tensor")

    def __init__(self, name: str, data):
        self.name = name
        self.tensor = Tensor(np.array(data, dtype=_dtype, order="C"), requires_grad=True)

    @property
    def data(self) -> np.ndarray:
        return self.tensor.data

    @data.setter
    def data(self, value) -> None:
        if np.shape(value) != self.data.shape:
            raise ShapeError(f"parameter {self.name!r}: shape {np.shape(value)}, "
                             f"expected {self.data.shape}")
        self.tensor.data[...] = value

    def __repr__(self):
        return f"Parameter({self.name!r}, shape={self.tensor.shape})"


class _Node:
    __slots__ = ("out", "inputs", "bwd")

    def __init__(self, out: Tensor, inputs: Sequence[Tensor], bwd: Callable):
        self.out = out
        self.inputs = inputs
        self.bwd = bwd


class Tape:
    """Ordered record of primitive applications for one forward pass.

    Nodes are appended in execution order, which is a valid topological
    order; ``backward`` walks the list once in reverse.
    """

    def __init__(self):
        self.nodes: list[_Node] = []

    def __len__(self):
        return len(self.nodes)

    def __enter__(self) -> "Tape":
        _tape_stack.append(self)
        return self

    def __exit__(self, *exc):
        _tape_stack.pop()
        return False


_tape_stack: list[Tape] = []


def active_tape() -> Optional[Tape]:
    return _tape_stack[-1] if _tape_stack else None


def _recording(inputs: Sequence[Tensor]) -> Optional[Tape]:
    """The tape that an op on these inputs is recorded on, or None: no tape
    is active, or no input requires a gradient."""
    if _tape_stack and any(t.requires_grad for t in inputs):
        return _tape_stack[-1]
    return None


def _record(out: Tensor, inputs: Sequence[Tensor], bwd: Callable) -> Tensor:
    tape = _recording(inputs)
    if tape is not None:
        out.requires_grad = True
        tape.nodes.append(_Node(out, tuple(inputs), bwd))
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum gradient over axes that numpy broadcasting expanded."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and grad.shape[ax] != 1:
            grad = grad.sum(axis=ax, keepdims=True)
    return grad


# ---------------------------------------------------------------------------
# Primitives

def _binary(kind: str, fn: Callable, a: Tensor, b: Tensor, bwd: Callable) -> Tensor:
    """Elementwise ufunc ``fn`` with numpy broadcasting.  ``bwd(g)`` gives
    both input gradients at the output shape; each is summed back down to
    its input's shape."""
    try:
        out = Tensor(fn(a.data, b.data))
    except ValueError:
        raise ShapeError(f"{kind}: shapes {a.shape} and {b.shape} do not broadcast") from None

    def unbroadcast_bwd(g):
        ga, gb = bwd(g)
        return _unbroadcast(ga, a.shape), _unbroadcast(gb, b.shape)

    return _record(out, (a, b), unbroadcast_bwd)


def add(a: Tensor, b: Tensor) -> Tensor:
    return _binary("add", np.add, a, b, lambda g: (g, g))


def sub(a: Tensor, b: Tensor) -> Tensor:
    return _binary("sub", np.subtract, a, b, lambda g: (g, -g))


def mul(a: Tensor, b: Tensor) -> Tensor:
    return _binary("mul", np.multiply, a, b, lambda g: (g * b.data, g * a.data))


def div(a: Tensor, b: Tensor) -> Tensor:
    return _binary("div", np.divide, a, b,
                   lambda g: (g / b.data, -g * a.data / (b.data * b.data)))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product: [..., a, b] x [b, c] -> [..., a, c], or batched
    [..., a, b] x [..., b, c] with equal leading dims.

    A 2-D ``b`` (a weight) is applied to ``a`` flattened to rows, so the
    forward and both gradients are one GEMM each instead of one per leading
    index of ``a``.
    """
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul: operands must be at least 2-D, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul: inner extents differ for {a.shape} and {b.shape}")
    if b.ndim == 2:
        k, n = b.data.shape
        rows = a.data.reshape(-1, k)
        out = Tensor((rows @ b.data).reshape(a.data.shape[:-1] + (n,)))

        def bwd_weight(g):
            g_rows = g.reshape(-1, n)
            return (g_rows @ b.data.T).reshape(a.data.shape), rows.T @ g_rows

        return _record(out, (a, b), bwd_weight)
    if a.shape[:-2] != b.shape[:-2]:
        raise ShapeError(f"matmul: leading dims of {a.shape} and {b.shape} differ")
    out = Tensor(a.data @ b.data)

    def bwd(g):
        return g @ np.swapaxes(b.data, -1, -2), np.swapaxes(a.data, -1, -2) @ g

    return _record(out, (a, b), bwd)


def _im2col(xt: np.ndarray, k: int) -> np.ndarray:
    """Columns of a time-major padded input [B, T + k - 1, C]: [B·T, C·k],
    row b·T + t holding the k-tap window at t of every channel, channel-major.
    Built from k shifted slices, the mirror of the backward's slice-adds."""
    b, tp, c = xt.shape
    t = tp - k + 1
    cols = np.empty((b, t, c, k), dtype=xt.dtype)
    for dk in range(k):
        cols[..., dk] = xt[:, dk:dk + t]
    return cols.reshape(b * t, c * k)


def conv1d(x: Tensor, w: Tensor) -> Tensor:
    """1-D convolution, zero same-padding, stride 1.

    x: [batch, in_channels, T]; w: [out_channels, in_channels, k].
    Output: [batch, out_channels, T] (length preserved exactly).

    Lowered to one GEMM per pass (im2col): the forward and each gradient
    multiply the [B·T, C·k] window columns by the [O, C·k] flattened kernel.
    """
    if x.ndim != 3 or w.ndim != 3:
        raise ShapeError(f"conv1d: expected 3-D x and w, got {x.shape} and {w.shape}")
    if x.shape[1] != w.shape[1]:
        raise ShapeError(f"conv1d: channel mismatch between x {x.shape} and w {w.shape}")
    b, c, t = x.shape
    o, _, k = w.shape
    pad_l = (k - 1) // 2
    xt = np.zeros((b, t + k - 1, c), dtype=x.data.dtype)
    xt[:, pad_l:pad_l + t] = x.data.transpose(0, 2, 1)
    w2 = w.data.reshape(o, c * k)
    out = Tensor((_im2col(xt, k) @ w2.T).reshape(b, t, o).transpose(0, 2, 1))

    def bwd(g):
        # cols is rebuilt from xt, not kept: on the tape it would hold k
        # copies of the input from the forward pass until this runs
        g_rows = g.transpose(0, 2, 1).reshape(b * t, o)
        gw = (g_rows.T @ _im2col(xt, k)).reshape(o, c, k)
        gcols = (g_rows @ w2).reshape(b, t, c, k)
        gxt = np.zeros_like(xt)
        for dk in range(k):
            gxt[:, dk:dk + t] += gcols[..., dk]
        return gxt[:, pad_l:pad_l + t].transpose(0, 2, 1), gw

    return _record(out, (x, w), bwd)


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = [constant(t) for t in tensors]
    if not tensors:
        raise ShapeError("concat: empty input list")
    try:
        out = Tensor(np.concatenate([t.data for t in tensors], axis=axis))
    except ValueError as e:
        raise ShapeError(f"concat: {e}") from None
    sizes = [t.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def bwd(g):
        return tuple(np.split(g, splits, axis=axis))

    return _record(out, tuple(tensors), bwd)


def slice_(x: Tensor, key) -> Tensor:
    """Basic indexing (ints and slices); gradient scatters back."""
    out = Tensor(x.data[key])

    def bwd(g):
        gx = np.zeros_like(x.data)
        gx[key] = g
        return (gx,)

    return _record(out, (x,), bwd)


def reshape(x: Tensor, shape) -> Tensor:
    try:
        out = Tensor(x.data.reshape(shape))
    except ValueError:
        raise ShapeError(f"reshape: cannot view {x.shape} as {tuple(shape)}") from None
    return _record(out, (x,), lambda g: (g.reshape(x.shape),))


def transpose(x: Tensor, axes) -> Tensor:
    out = Tensor(np.transpose(x.data, axes))
    inv = np.argsort(axes)
    return _record(out, (x,), lambda g: (np.transpose(g, inv),))


def reduce_sum(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out = Tensor(x.data.sum(axis=axis, keepdims=keepdims))

    def bwd(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, x.shape).copy(),)

    return _record(out, (x,), bwd)


def reduce_mean(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    total = reduce_sum(x, axis=axis, keepdims=keepdims)
    return total / (x.size // max(total.size, 1))


def log(x: Tensor) -> Tensor:
    out = Tensor(np.log(x.data))
    return _record(out, (x,), lambda g: (g / x.data,))


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic in tanh form: 1 / (1 + exp(-x)) overflows below -88 in f32."""
    return 0.5 + 0.5 * np.tanh(0.5 * x)


def sigmoid(x: Tensor) -> Tensor:
    out = Tensor(_sigmoid(x.data))
    return _record(out, (x,), lambda g: (g * out.data * (1.0 - out.data),))


def tanh(x: Tensor) -> Tensor:
    out = Tensor(np.tanh(x.data))
    return _record(out, (x,), lambda g: (g * (1.0 - out.data * out.data),))


def relu(x: Tensor) -> Tensor:
    out = Tensor(np.maximum(x.data, 0.0))
    return _record(out, (x,), lambda g: (g * (x.data > 0),))


LEAKY_SLOPE = 0.2  # canonical negative slope for graph-attention scoring


def leaky_relu(x: Tensor) -> Tensor:
    out = Tensor(np.where(x.data > 0, x.data, LEAKY_SLOPE * x.data))
    return _record(out, (x,), lambda g: (np.where(x.data > 0, g, LEAKY_SLOPE * g),))


def softplus(x: Tensor) -> Tensor:
    """log(1 + exp(x)) as max(x, 0) + log1p(exp(-|x|)), which cannot overflow."""
    out = Tensor(np.maximum(x.data, 0.0) + np.log1p(np.exp(-np.abs(x.data))))
    return _record(out, (x,), lambda g: (g * _sigmoid(x.data),))


def softmax_rows(x: Tensor, mask=None) -> Tensor:
    """Softmax along the last axis; each row sums to 1.

    ``mask`` is a boolean array that broadcasts to x's shape: False entries
    are set to -inf before the row max, so they come out exactly 0 and pass
    no gradient.  Every row needs at least one True entry.
    """
    e = x.data.copy() if mask is None else np.where(mask, x.data, -np.inf)
    e -= e.max(axis=-1, keepdims=True)
    np.exp(e, out=e)        # in place: the widest temporary is the output
    e /= e.sum(axis=-1, keepdims=True)
    out = Tensor(e)

    def bwd(g):
        s = out.data
        return (s * (g - (g * s).sum(axis=-1, keepdims=True)),)

    return _record(out, (x,), bwd)


def lstm(xw: Tensor, wh: Tensor) -> Tensor:
    """Zero-state LSTM recurrence as one tape node: the final hidden state
    [B, h].

    xw: [T, B, 4h], the input projection seq @ Wx + b with gates in i, f,
    g, o order; wh: [h, 4h], the recurrent weight.  Step t computes
    z = xw[t] + h @ Wh, one sigmoid over all of z (its g block unused),
    g = tanh(z[:, 2h:3h]), c = f * c + i * g and h = o * tanh(c).

    The backward is backpropagation through time.  It applies the ops that
    the tape of the unrolled steps would, in the same order, and sums dWh
    one step at a time, latest first, as that tape did, so both gradients
    match it bit for bit.  The per-step arrays that backward reads are kept
    only when the call is recorded; otherwise each step's are freed as the
    next one runs.
    """
    if xw.ndim != 3 or xw.shape[0] == 0:
        raise ShapeError(f"lstm: xw must be [T, B, 4h] with T >= 1, got {xw.shape}")
    if wh.ndim != 2 or wh.shape[1] != 4 * wh.shape[0]:
        raise ShapeError(f"lstm: wh must be [h, 4h], got {wh.shape}")
    if xw.shape[-1] != wh.shape[1]:
        raise ShapeError(f"lstm: xw {xw.shape} does not match wh {wh.shape}")
    t_len, batch, _ = xw.shape
    n = wh.shape[0]
    w = wh.data
    keep = _recording((xw, wh)) is not None
    steps = []      # per step: (h and c entering it, sigmoid, g, tanh(c))
    h = c = np.zeros((batch, n), dtype=xw.data.dtype)
    for t in range(t_len):
        z = xw.data[t] + h @ w
        s = _sigmoid(z)
        g = np.tanh(z[:, 2 * n:3 * n])
        c_out = s[:, n:2 * n] * c + s[:, :n] * g
        tc = np.tanh(c_out)
        if keep:
            steps.append((h, c, s, g, tc))
        h = s[:, 3 * n:] * tc
        c = c_out
    out = Tensor(h)

    def bwd(dh):
        dxw = np.empty_like(xw.data)
        dwh = None
        dc_next = None      # what reaches c_t through step t + 1's f * c_t
        for t in reversed(range(t_len)):
            h_in, c_in, s, g, tc = steps[t]
            dc = (dh * s[:, 3 * n:]) * (1.0 - tc * tc)
            if dc_next is not None:
                dc = dc_next + dc
            ds = np.zeros_like(s)
            ds[:, 3 * n:] = dh * tc
            ds[:, :n] = dc * g
            ds[:, n:2 * n] = dc * c_in
            # the g block first, then the sigmoid's share, as the tape
            # summed them: every entry gains a +0.0, so zero signs agree
            dz = np.zeros_like(s)
            dz[:, 2 * n:3 * n] = (dc * s[:, :n]) * (1.0 - g * g)
            dz += ds * s * (1.0 - s)
            dxw[t] = dz
            dw_t = h_in.T @ dz
            dwh = dw_t if dwh is None else dwh + dw_t
            dh = dz @ w.T
            dc_next = dc * s[:, n:2 * n]
        return dxw, dwh

    return _record(out, (xw, wh), bwd)


def _over_rows(op, a: np.ndarray) -> np.ndarray:
    """Reduce [..., n, m] over n with the ufunc ``op``, keeping the axis.
    One op per row on [..., m] slices, in row order: numpy's reduce over a
    short middle axis makes one inner call per row instead."""
    out = a[..., :1, :].copy()
    for j in range(1, a.shape[-2]):
        op(out, a[..., j:j + 1, :], out=out)
    return out


def graph_attention(x: Tensor, w: Tensor, a: Tensor, mask):
    """One multi-head graph-attention layer as one tape node: (out
    [..., q, d] Tensor, attention [H, ..., q, n] array).

    x: [..., n, D], the nodes; w: [H, D, d], head k's projection W_k; a:
    [H, 2d], head k's score vector, a1_k then a2_k; mask: boolean
    [*x.shape[1:-2], q, n], one graph per leading index of x but the first,
    which every step shares.  The first q nodes are the queries, row i of
    the mask holds query i's edges, and every node is a key.  Head k scores
    query i against key j as LeakyReLU(x_i W_k a1_k + x_j W_k a2_k),
    softmaxes over i's edges, and the output is
    ReLU(sum_k alpha_k x W_k / H).

    a is folded through W, so every head's scores come from one x @ [D, 2H]
    GEMM, and the head mean is one GEMM of alpha @ x against w viewed as
    [H·D, d].  Attention is held key-major, [..., n, q, H]: the softmax's
    max and sum reduce over an outer axis, and alpha @ x and its x gradient
    are batched GEMMs over a contiguous [n, q·H] alpha.  The backward sums
    each gradient in the order the tape of the composed primitives did.
    """
    if w.ndim != 3 or a.shape != (w.shape[0], 2 * w.shape[2]):
        raise ShapeError(f"graph_attention: w must be [H, D, d] and a [H, 2d], "
                         f"got {w.shape} and {a.shape}")
    heads, d_in, d_out = w.shape
    edges = np.asarray(mask, dtype=bool)
    lead, n = x.shape[:-2], x.shape[-2] if x.ndim >= 2 else 0
    q = edges.shape[-2] if edges.ndim >= 2 else 0
    if (x.shape[-1:] != (d_in,) or edges.shape != lead[1:] + (q, n)
            or not 1 <= q <= n):
        raise ShapeError(f"graph_attention: nodes {x.shape} but mask is {edges.shape}")
    isolated = np.argwhere(~edges.any(axis=-1))
    if len(isolated):
        raise DataError(f"graph_attention: mask row {isolated[0].tolist()} has no edge")
    xd, wd, av = x.data, w.data, a.data
    dt = xd.dtype
    rows = xd.reshape(-1, d_in)
    a1, a2 = av[:, :d_out, None], av[:, d_out:, None]      # [H, d, 1]
    # column k is W_k a1_k, column H + k is W_k a2_k; C order, as an f32
    # GEMM against a transposed fold rounds differently
    fold = np.ascontiguousarray(np.concatenate([wd @ a1, wd @ a2])[..., 0].T)
    f = (rows @ fold).reshape(lead + (n, 2 * heads))
    # the scores e, key j by (query i, head k): each key's scores tiled
    # once per query, plus the queries' scores, as contiguous rows
    e = np.tile(f[..., heads:], q)
    e += f[..., :q, :heads].reshape(lead + (1, q * heads))
    alpha = LEAKY_SLOPE * e
    np.maximum(e, alpha, out=e)                 # LeakyReLU
    penalty = np.zeros(edges.shape[:-2] + (n, q, heads), dtype=dt)
    penalty[~np.swapaxes(edges, -1, -2)] = -np.inf
    np.add(e, penalty.reshape(edges.shape[:-2] + (n, q * heads)), out=alpha)
    alpha -= _over_rows(np.maximum, alpha)
    np.exp(alpha, out=alpha)
    alpha /= _over_rows(np.add, alpha)

    def aggregate():
        # alpha @ x, [..., q·H, D], the widest array, as the projection
        # GEMM's rows.  The backward recomputes it rather than keeping it on
        # the tape: one batched GEMM, and a training step's peak RSS is
        # about 3 MB lower.
        return (np.swapaxes(alpha, -1, -2) @ xd).reshape(-1, heads * d_in)

    scale = dt.type(1.0 / heads)
    w_mean = wd.reshape(heads * d_in, d_out) * scale
    pre = (aggregate() @ w_mean).reshape(lead + (q, d_out))
    out = Tensor(np.maximum(pre, 0.0, out=pre))

    def bwd(g):
        g_rows = (g * (out.data > 0)).reshape(-1, d_out)
        agg = aggregate()
        g_w_mean = (agg.T @ g_rows) * scale
        # the gradient of alpha @ x overwrites it: one widest array, not two
        g_agg = np.matmul(g_rows, w_mean.T, out=agg).reshape(lead + (q * heads, d_in))
        del g_rows, agg     # each node-sized array is freed once used
        g_e = xd @ np.swapaxes(g_agg, -1, -2)
        g_x = alpha @ g_agg
        del g_agg
        # softmax over the keys, then the LeakyReLU: 1 where e > 0, else
        # the slope
        tmp = g_e * alpha
        g_e -= _over_rows(np.add, tmp)
        g_e *= alpha
        np.sign(e, out=tmp)
        g_e *= np.maximum(tmp, LEAKY_SLOPE, out=tmp)
        g_f = np.zeros(lead + (n, 2 * heads), dtype=dt)
        # a query's score gradient sums over its keys, a key's over its queries
        g_f[..., :q, :heads] = _over_rows(np.add, g_e).reshape(lead + (q, heads))
        g_f[..., heads:] = _over_rows(np.add, g_e.reshape(lead + (n, q, heads)))[..., 0, :]
        g_f = g_f.reshape(-1, 2 * heads)
        g_x += (g_f @ fold.T).reshape(xd.shape)
        g_fold = (rows.T @ g_f).T[:, :, None]          # [2H, D, 1]
        g1, g2 = g_fold[:heads], g_fold[heads:]
        g_w = (g_w_mean.reshape(heads, d_in, d_out)
               + g2 * av[:, None, d_out:] + g1 * av[:, None, :d_out])
        g_a = np.concatenate([np.swapaxes(wd, -1, -2) @ g for g in (g1, g2)], axis=1)
        return g_x, g_w, g_a[..., 0]

    attention = np.moveaxis(alpha.reshape(lead + (n, q, heads)), (-1, -3), (0, -1))
    return _record(out, (x, w, a), bwd), attention


# ---------------------------------------------------------------------------
# Backward pass and gradient checking

def backward(tape: Tape, root: Tensor,
             params: Iterable[Parameter]) -> dict[str, np.ndarray]:
    """Accumulate gradients of a scalar root through the tape.

    Returns a map of Parameter name to gradient; Parameters unreachable
    from the root receive zeros.
    """
    if root.size != 1:
        raise ShapeError(f"backward: root must be scalar, got shape {root.shape}")
    grads: dict[int, np.ndarray] = {id(root): np.ones_like(root.data)}
    for node in reversed(tape.nodes):
        g = grads.get(id(node.out))
        if g is None:
            continue
        for t, ig in zip(node.inputs, node.bwd(g)):
            if not t.requires_grad or ig is None:
                continue
            acc = grads.get(id(t))
            grads[id(t)] = ig if acc is None else acc + ig
        if node.out is not root:
            del grads[id(node.out)]  # intermediate; free once consumed

    out: dict[str, np.ndarray] = {}
    for p in params:
        g = grads.get(id(p.tensor))
        out[p.name] = np.zeros_like(p.tensor.data) if g is None else g
    return out


FD_STEP = 1e-5  # central-difference step of grad_check


def grad_check(fn: Callable[[], Tensor], params: Sequence[Parameter]) -> dict[str, float]:
    """Compare reverse-mode gradients against central finite differences.

    ``fn`` must evaluate a scalar objective from the current values of
    ``params``. Requires the global precision to be f64. Returns, per
    Parameter, max over entries of |g_ad - g_fd| / max(|g_fd|, 1e-8).

    The entries, numbered in ``params`` order, are cut into one contiguous
    slice per CPU the process may run on.  This process checks the first
    slice; each other slice runs in a forked child that only calls ``fn``
    and ends with ``os._exit``.  The result, and any error raised (that of
    the first failing entry), are those of checking every entry here in
    turn, and every child is reaped before this returns or raises.
    """
    if get_precision() != "f64":
        raise DataError("grad_check requires the global precision to be f64")
    for p in params:
        if p.data.dtype != np.float64:
            raise DataError(f"grad_check: parameter {p.name!r} is not float64")

    with Tape() as tape:
        value = fn()
    if not np.isfinite(value.data).all():
        raise NumericError("grad_check: objective is not finite")
    analytic = backward(tape, value, params)

    entries = sum(p.tensor.data.size for p in params)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = max(1, min(cpus, entries))
    bounds = [entries * w // workers for w in range(workers + 1)]
    children = []  # (pid, read end of its pipe), in slice order, not yet reaped
    try:
        for w in range(1, workers):
            children.append(_fork_slice(fn, params, analytic, bounds[w], bounds[w + 1]))
        outcomes = [_fd_slice(fn, params, analytic, bounds[0], bounds[1])]
        while children and outcomes[-1][1] is None:
            pid, pipe = children[0]
            data = pipe.read()
            pipe.close()
            _, status = os.waitpid(pid, 0)
            del children[0]
            if not data:
                raise RuntimeError(f"grad_check: the worker for entries {bounds[len(outcomes)]}.."
                                   f"{bounds[len(outcomes) + 1]} ended without a result "
                                   f"(wait status {status})")
            outcomes.append(pickle.loads(data))
    finally:
        # left when a slice raised or the wait was interrupted: stop and reap
        for pid, pipe in children:
            from signal import SIGKILL  # not loaded by importing granp
            pipe.close()
            os.kill(pid, SIGKILL)
            os.waitpid(pid, 0)

    worst = [0.0] * len(params)
    for slice_worst, failure in outcomes:
        if failure is not None:
            raise failure
        worst = [max(a, b) for a, b in zip(worst, slice_worst)]
    return {p.name: w for p, w in zip(params, worst)}


def _fd_slice(fn, params, analytic, start: int, stop: int):
    """Central differences of the entries [start, stop), numbered across
    ``params`` in order.  Returns (worst error per parameter, None), or
    (None, exception) for the first entry whose check raised."""
    h = FD_STEP
    worst = [0.0] * len(params)
    offset = 0
    try:
        for k, p in enumerate(params):
            flat = p.tensor.data.reshape(-1)
            g_ad = analytic[p.name].reshape(-1)
            for i in range(max(start - offset, 0), min(stop - offset, flat.size)):
                orig = flat[i]
                try:
                    flat[i] = orig + h
                    f_plus = fn().item()
                    flat[i] = orig - h
                    f_minus = fn().item()
                finally:
                    flat[i] = orig
                if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
                    raise NumericError(f"grad_check: non-finite objective perturbing {p.name!r}")
                g_fd = (f_plus - f_minus) / (2.0 * h)
                rel = abs(g_ad[i] - g_fd) / max(abs(g_fd), 1e-8)
                worst[k] = max(worst[k], rel)
            offset += flat.size
    except Exception as err:
        return None, err
    return worst, None


def _fork_slice(fn, params, analytic, start: int, stop: int):
    """Fork a child that checks the entries [start, stop) and writes
    _fd_slice's outcome, pickled, to a pipe; returns (pid, read end)."""
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        # the child: it never returns into the caller's stack
        try:
            os.close(read_fd)
            outcome = _fd_slice(fn, params, analytic, start, stop)
            try:
                data = pickle.dumps(outcome)
                pickle.loads(data)  # an exception can pickle and not load
            except Exception:
                # such an exception crosses as its type name and message
                err = outcome[1]
                data = pickle.dumps((None, RuntimeError(f"{type(err).__name__}: {err}")))
            with os.fdopen(write_fd, "wb") as pipe:
                pipe.write(data)
        finally:
            os._exit(0)
    os.close(write_fd)
    return pid, os.fdopen(read_fd, "rb")
