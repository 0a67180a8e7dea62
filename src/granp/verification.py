"""64-bit finite-difference verification of every gradient path.

One scalar objective per primitive, per layer, and for the full ELBO on a
two-scene batch; each is run through grad_check (central differences,
h=1e-5) and reported as the worst relative error over its parameters.
grad_check deals each case's entries across the CPUs the process may run
on, forking a child per extra CPU, and the results are byte-identical
whatever their number.  The whole-model case is about 99% of the suite's
time: 4140 entries, each two ELBO forwards.

Central differences resolve a gradient entry only when it is exactly zero
(the perturbation leaves the objective bit-identical) or well above the
objective's floating-point evaluation noise.  The whole-model check
therefore uses single-vehicle scenes: every attention softmax then has one
key, its weight is pinned at exactly 1, and the attention-jacobian terms
vanish identically instead of leaving sub-noise residue.  Multi-node
attention gradients are exercised by the layer checks.
"""

import numpy as np

from . import autodiff as ad
from . import layers
from .autodiff import grad_check
from .data import PreparedBatch
from .model import GranpModel, ModelConfig, PreparedScene

GRAD_TOLERANCE = 1e-4


def _primitive_cases(rng: np.random.Generator) -> dict:
    w = ad.Parameter("w", rng.normal(size=(3, 4)))
    off = ad.constant(rng.normal(size=(3, 4)) + 2.5)    # keeps div/log off 0
    proj = ad.constant(rng.normal(size=(4, 5)))
    kw = ad.Parameter("kw", rng.normal(size=(2, 3, 3)) * 0.5)
    kx = ad.constant(rng.normal(size=(2, 3, 6)))
    # a child generator: the draws after this point are the same as they
    # were before the lstm case existed
    lstm_rng = rng.spawn(1)[0]
    lx = ad.Parameter("lx", lstm_rng.normal(size=(3, 2, 8)))     # T 3, B 2
    lh = ad.Parameter("lh", lstm_rng.normal(size=(2, 8)))        # h 2
    # graph_attention: T 2 over 2 padded graphs of 4 and 1 nodes, D 3,
    # 2 heads of width 3; 2 of the 4 nodes query, and graph 2's second
    # query row is padding, with only its self-loop.  Scaled so that no
    # softmax saturates.
    gat_rng = rng.spawn(1)[0]
    gx = ad.Parameter("gx", gat_rng.normal(size=(2, 2, 4, 3)))
    # drawn head by head, W_k then a_k, and stacked: the draws of the
    # per-head parameters this case once had
    draws = [gat_rng.normal(size=shape) * 0.5 for _ in range(2) for shape in ((3, 3), (6,))]
    gw = ad.Parameter("gw", np.stack(draws[0::2]))
    ga = ad.Parameter("ga", np.stack(draws[1::2]))
    gat_mask = np.eye(4, dtype=bool)[None].repeat(2, axis=0)
    gat_mask[0] = True
    gat_off = ad.constant(gat_rng.normal(size=(2, 2, 2, 3)))
    t = w.tensor
    objectives = {
        "add": lambda: ad.reduce_sum(ad.mul(ad.add(t, off), off)),
        "sub": lambda: ad.reduce_sum(ad.mul(ad.sub(t, off), off)),
        "mul": lambda: ad.reduce_sum(ad.mul(ad.mul(t, off), off)),
        "div": lambda: ad.reduce_sum(ad.div(t, off)),
        "matmul": lambda: ad.reduce_sum(ad.tanh(ad.matmul(t, proj))),
        "conv1d": lambda: ad.reduce_sum(ad.tanh(ad.conv1d(kx, kw.tensor))),
        "concat": lambda: ad.reduce_sum(ad.tanh(ad.concat([t, off], axis=1))),
        "slice": lambda: ad.reduce_sum(ad.mul(t[1:, :2], t[1:, :2])),
        "reshape": lambda: ad.reduce_sum(ad.tanh(ad.reshape(t, (4, 3)))),
        "transpose": lambda: ad.reduce_sum(
            ad.tanh(ad.matmul(ad.transpose(t, (1, 0)), t))),
        "sum": lambda: ad.reduce_sum(ad.tanh(ad.reduce_sum(t, axis=1))),
        "mean": lambda: ad.reduce_sum(ad.tanh(ad.reduce_mean(t, axis=0))),
        "log": lambda: ad.reduce_sum(
            ad.log(ad.add(ad.mul(t, t), ad.constant(1.0)))),
        "sigmoid": lambda: ad.reduce_sum(ad.sigmoid(t)),
        "tanh": lambda: ad.reduce_sum(ad.tanh(t)),
        "relu": lambda: ad.reduce_sum(ad.mul(ad.relu(t), off)),
        "leaky_relu": lambda: ad.reduce_sum(ad.mul(ad.leaky_relu(t), off)),
        "softplus": lambda: ad.reduce_sum(ad.softplus(t)),
        "softmax_rows": lambda: ad.reduce_sum(ad.mul(ad.softmax_rows(t), off)),
        "lstm": lambda: ad.reduce_sum(ad.lstm(lx.tensor, lh.tensor)),
        "graph_attention": lambda: ad.reduce_sum(ad.mul(ad.graph_attention(
            gx.tensor, gw.tensor, ga.tensor, gat_mask[:, :2])[0], gat_off)),
    }
    params = {"conv1d": [kw], "lstm": [lx, lh], "graph_attention": [gx, gw, ga]}
    return {name: (fn, params.get(name, [w]))
            for name, fn in objectives.items()}


def _layer_cases(rng: np.random.Generator) -> dict:
    cases = {}

    mlp = layers.MlpBlock("mlp", [4, 6, 3], rng)
    mx = ad.constant(rng.normal(size=(2, 4)))
    cases["mlp_block"] = (lambda: mlp.forward(mx).sum(), mlp.parameters())

    lstm = layers.LstmEncoder("lstm", 2, 3, rng)
    seq = ad.constant(rng.normal(size=(5, 2, 2)))
    cases["lstm_encoder"] = (lambda: lstm.encode(seq).sum(),
                             lstm.parameters())

    conv = layers.ConvMlpEncoder("conv", 2, 4, 3, 3, rng)
    cx = ad.constant(rng.normal(size=(2, 2, 6)))
    cases["conv_mlp_encoder"] = (lambda: conv.encode(cx).sum(),
                                 conv.parameters())

    gat = layers.GatLayer("gat", 3, 3, 2, rng)
    nodes = ad.constant(rng.normal(size=(4, 3)))
    adj = np.maximum((rng.random((4, 4)) > 0.3).astype(float), np.eye(4))
    adj = np.maximum(adj, adj.T)
    cases["gat_layer"] = (lambda: gat.forward_seq(nodes, adj)[0].sum(),
                          gat.parameters())

    sw = ad.Parameter("sw", rng.normal(size=(4, 4)))
    sv = ad.constant(rng.normal(size=(4, 4)))
    cases["masked_softmax"] = (
        lambda: (ad.softmax_rows(sw.tensor, adj > 0) * sv).sum(), [sw])

    cross = layers.CrossAttention("cross", 4, 2, rng)
    q = ad.constant(rng.normal(size=(2, 4)))
    kv = ad.constant(rng.normal(size=(3, 4)))
    cases["cross_attention"] = (lambda: cross.attend(q, kv, kv).sum(),
                                cross.parameters())
    return cases


def _elbo_case():
    """Full model on two single-vehicle scenes, randomized parameters."""
    cfg = ModelConfig(hidden=8, heads=2, t_n=4, t_f=3)
    rng = np.random.default_rng(5)
    scenes = []
    for _ in range(2):
        rng.uniform(-20.0, 20.0, size=(1, 2))  # unused; fixes the seeded inputs
        future = rng.normal(size=(cfg.t_f, 2))
        scenes.append(PreparedScene(
            ids=(0,), states=rng.normal(size=(cfg.t_n, 1, 4)),
            future=future))
    batch = PreparedBatch(scenes=scenes, m=1)
    model = GranpModel(cfg, seed=0)
    prng = np.random.default_rng(24)
    for p in model.parameters():
        # off the zero-bias ReLU kinks that central differences would cross
        p.data = prng.uniform(-0.5, 0.5, size=p.data.shape)
    noise = np.random.default_rng(7).standard_normal((1, cfg.latent))
    return lambda: model.elbo_loss(batch, noise)[0], model.parameters()


def run_gradient_checks() -> dict:
    """Name -> worst relative error, in report order.  Always runs in f64."""
    results = {}
    with ad.precision("f64"):
        rng = np.random.default_rng(11)
        cases = _primitive_cases(rng)
        cases.update(_layer_cases(rng))
        cases["elbo_micro_batch"] = _elbo_case()
        for name, (fn, params) in cases.items():
            results[name] = max(grad_check(fn, params).values())
    return results
