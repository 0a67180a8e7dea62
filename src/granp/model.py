"""Graph-recurrent attentive neural process for trajectory prediction.

Pair embedding runs per-timestep graph attention over the scene graph and an
LSTM over the ego node's sequence.  The linear state embedding is stored as
the [5, d] weight that the first attention layer reads, so that layer runs on
4 features and a constant 1 per node.  Context futures are
length-matched by an interpolation layer, fused with the history features by
two Conv-MLP encoders (one per path), and consumed by a deterministic
cross-attention path and a latent Gaussian path.  The decoder emits per-step
Gaussian distributions over future positions; training maximizes the ELBO.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Parameter, Tensor
from .errors import DataError, NumericError, ShapeError
from .layers import (ConvMlpEncoder, CrossAttention, GatLayer, LstmEncoder,
                     MlpBlock, _uniform)
from .scene_graph import select_grid_nodes
from .data import T_F, T_N, PreparedBatch, seeded_rng

LOG_2PI = math.log(2.0 * math.pi)

LATENT_SIGMA_MIN = 0.1
LATENT_SIGMA_SPAN = 0.9
DECODER_SIGMA_MIN = 0.01

STATE_FEATURES = 4      # x, y, s, a
MAX_DIMENSION = 1024    # largest model dimension a config may set
CONV_KERNEL = 3         # temporal kernel of the Conv-MLP encoders
PREDICT_CHUNK = 32      # scenes per encode pass, context or targets; bounds memory


@dataclass
class ModelConfig:
    """Architecture knobs.  The tested envelope is hidden in {16, 32, 64,
    128} and heads in {2, 4, 8}; smaller values work and keep finite
    difference checks cheap.  No dimension exceeds MAX_DIMENSION, so a
    tampered manifest cannot make the model allocate without bound."""

    hidden: int = 64
    heads: int = 4
    latent: int = 0         # 0 -> same as hidden
    t_n: int = T_N
    t_f: int = T_F

    def __post_init__(self):
        if self.latent == 0:
            self.latent = self.hidden
        dims = (self.hidden, self.heads, self.latent, self.t_n, self.t_f)
        if min(dims) < 1:
            raise DataError(f"non-positive model dimensions in {self}")
        if max(dims) > MAX_DIMENSION:
            raise DataError(f"model dimensions above {MAX_DIMENSION} in {self}")
        if self.hidden % self.heads != 0:
            raise DataError(f"hidden {self.hidden} not divisible by "
                            f"{self.heads} heads")


@dataclass
class PreparedScene:
    """A scene ready for the model: z-scored states stacked node-major and
    the z-scored future.  Every node lies inside the ego's grid, so the
    scene's graph is complete and the node count is all the GAT needs."""

    ids: tuple
    states: np.ndarray          # [t_n, n, 4], normalized
    future: np.ndarray | None   # [t_f, 2], normalized


@dataclass
class LatentDistribution:
    """Diagonal Gaussian over the episode latent; sigma is bounded to
    [0.1, 1.0] by construction."""

    mu: Tensor      # [1, latent]
    sigma: Tensor   # [1, latent]

    @property
    def dim(self):
        return self.mu.shape[-1]


@dataclass
class PredictiveDistribution:
    """Per-step Gaussian prediction in meters, with sampled trajectories and
    the 95% band; a band that overflows raises NumericError naming it."""

    mean: np.ndarray        # [t_f, 2]
    std: np.ndarray         # [t_f, 2]
    samples: np.ndarray     # [S, t_f, 2] decoded means per latent draw

    @property
    def ci_low(self) -> np.ndarray:
        with ad.numeric_errors("ci_low"):
            return self.mean - 1.96 * self.std

    @property
    def ci_high(self) -> np.ndarray:
        with ad.numeric_errors("ci_high"):
            return self.mean + 1.96 * self.std


def gaussian_nll(y, mu, sigma) -> np.ndarray:
    """Elementwise negative log density of y under N(mu, sigma^2)."""
    return 0.5 * LOG_2PI + np.log(sigma) + np.square(y - mu) / (2.0 * np.square(sigma))


def prepare_scenes(scenes, stats) -> list:
    """Keep each scene's grid-gated nodes (ego first), then z-score its
    states and future; returns the PreparedScenes in input order.  The
    gating must come from meters: the grid is a physical extent.

    Works PREDICT_CHUNK scenes at a time.  A chunk's states fill one f64
    buffer, one row assignment per vehicle, and each scene's states are a
    C-contiguous [t_n, n, 4] view of it; its futures share a second buffer.
    The buffers are z-scored in place, with the operations and so the bytes
    of stats.apply_states and stats.apply_xy.  A prepared scene keeps its
    chunk's buffers alive.  No buffer spans every scene: see README.

    Raises DataError, naming the ego of the first bad scene in input order,
    when a z-scored value is NaN or beyond the largest finite value of the
    run's precision, where the model's cast would make it infinite: a
    finite input such as -1e308 overflows f32."""
    scenes = list(scenes)
    limit = np.finfo(ad.dtype()).max

    def fits(arr):
        # written so that NaN, for which every comparison is False, fails
        return (np.abs(arr) <= limit).all()

    prepared = []
    for start in range(0, len(scenes), PREDICT_CHUNK):
        chunk = scenes[start:start + PREDICT_CHUNK]
        orders = [select_grid_nodes(sc, T_N - 1) for sc in chunk]
        rows = np.empty((T_N * sum(map(len, orders)), STATE_FEATURES))
        futures = np.empty((len(chunk), T_F, 2))
        states = []
        offset = 0
        for i, (sc, order) in enumerate(zip(chunk, orders)):
            view = rows[offset:offset + T_N * len(order)].reshape(
                T_N, len(order), STATE_FEATURES)
            offset += T_N * len(order)
            for j, v in enumerate(order):
                view[:, j] = sc.history[v]
            futures[i] = sc.future
            states.append(view)
        rows -= stats.mean
        rows /= stats.std
        futures -= stats.mean[:2]
        futures /= stats.std[:2]
        if not (fits(rows) and fits(futures)):
            for sc, st, fu in zip(chunk, states, futures):
                for name, arr in (("states", st), ("future", fu)):
                    if not fits(arr):
                        raise DataError(f"prepare_scene: scene of ego {sc.ego}: "
                                        f"normalized {name} is NaN or would "
                                        f"overflow {ad.get_precision()}")
        prepared += [PreparedScene(ids=tuple(order), states=s, future=f)
                     for order, s, f in zip(orders, states, futures)]
    return prepared


def prepare_scene(scene, stats) -> PreparedScene:
    """prepare_scenes of one scene."""
    return prepare_scenes([scene], stats)[0]


def kl_diag(posterior: LatentDistribution, prior: LatentDistribution) -> Tensor:
    """Closed-form KL(posterior || prior) between diagonal Gaussians."""
    if posterior.dim != prior.dim:
        raise ShapeError(f"kl_diag: dimensions {posterior.dim} vs {prior.dim}")
    for d in (posterior, prior):
        if not np.isfinite(d.sigma.data).all():
            raise NumericError("kl_diag: non-finite sigma")
        if not (d.sigma.data > 0).all():
            raise DataError("kl_diag: non-positive sigma")
    sq, sp = posterior.sigma, prior.sigma
    dmu = posterior.mu - prior.mu
    terms = ad.log(sp) - ad.log(sq) + (sq * sq + dmu * dmu) / (2.0 * sp * sp) - 0.5
    return terms.sum()


def sample_latent(dist: LatentDistribution, noise) -> Tensor:
    """Reparameterized draws z = mu + sigma * noise, one row per row of the
    [S, latent] noise; gradients reach mu and sigma."""
    noise = np.asarray(noise)
    if noise.ndim != 2 or noise.shape[1] != dist.dim:
        raise ShapeError(f"sample_latent: noise {noise.shape}, expected "
                         f"[S, {dist.dim}]")
    return dist.mu + dist.sigma * ad.constant(noise)


def _chunks(scenes):
    """Yield (rows, chunk): at most PREDICT_CHUNK scenes grouped by node
    count, largest first (stable), so no chunk pads to one large scene."""
    order = sorted(range(len(scenes)),
                   key=lambda i: -scenes[i].states.shape[1])
    for start in range(0, len(order), PREDICT_CHUNK):
        rows = order[start:start + PREDICT_CHUNK]
        yield rows, [scenes[i] for i in rows]


class GranpModel:

    def __init__(self, config: ModelConfig, seed=0):
        self.config = config
        rng = seeded_rng(seed)
        d, lat = config.hidden, config.latent
        # [W_e; b_e]: the feature rows, then the bias row, which starts at 0
        self.embed = Parameter("embed.W", np.vstack([
            _uniform(rng, STATE_FEATURES, (STATE_FEATURES, d)), np.zeros((1, d))]))
        self.gat = [GatLayer(f"gat{i}", d, d, config.heads, rng)
                    for i in range(2)]
        self.lstm = LstmEncoder("lstm", d, d, rng)
        self.interp = MlpBlock("interp", [config.t_f, config.t_n], rng)
        self.enc_det = ConvMlpEncoder("det", d + 2, d, d, CONV_KERNEL, rng)
        self.enc_lat = ConvMlpEncoder("lat", d + 2, d, d, CONV_KERNEL, rng)
        self.latent_mlp = MlpBlock("latent", [d, d, 2 * lat], rng)
        self.cross = CrossAttention("cross", d, config.heads, rng)
        self.decoder = MlpBlock(
            "decoder", [2 * d + lat, 2 * d, 2 * d, 4 * config.t_f], rng)
        # one [P] buffer in parameters() order; each parameter views its slice
        params = self.parameters()
        self.flat = np.concatenate([p.data.reshape(-1) for p in params])
        cuts = np.cumsum([p.data.size for p in params])[:-1]
        for p, part in zip(params, np.split(self.flat, cuts)):
            p.tensor.data = part.reshape(p.data.shape)
        self._context_memo = None     # (key, (h_ctx, r_ctx, prior))

    def parameters(self):
        params = [self.embed]
        for g in self.gat:
            params += g.parameters()
        params += self.lstm.parameters()
        params += self.interp.parameters()
        params += self.enc_det.parameters()
        params += self.enc_lat.parameters()
        params += self.latent_mlp.parameters()
        params += self.cross.parameters()
        params += self.decoder.parameters()
        return params

    # -- pair embedding ----------------------------------------------------

    def _stack(self, scenes):
        """Padded per-scene batching, the ``to_dense_batch`` layout.

        Scene i's nodes fill ``states[:, i, :n_i]`` of a [t_n, B, n_max, 5]
        array, ego at node 0; the states are homogeneous, the 4 features
        then a constant 1 on every node.  The boolean mask is [B, n_max,
        n_max]: scene i's n_i real nodes form a full top-left block (the
        scene graph is complete), and every padding node has only its
        self-loop so no softmax row is empty.  Real nodes have no edge to a
        padding node, so padding never reaches a real node's output.
        """
        cfg = self.config
        # prepare_scenes' rule, for hand-built scenes too: NaN fails it, as
        # NaN arithmetic raises nothing in ad.numeric_errors
        limit = np.finfo(ad.dtype()).max
        for sc in scenes:
            if sc.states.shape[0] != cfg.t_n or sc.states.shape[2] != STATE_FEATURES:
                raise DataError(f"scene states {sc.states.shape}, expected "
                                f"[{cfg.t_n}, n, {STATE_FEATURES}]")
            if sc.states.shape[1] == 0:
                raise DataError(f"scene with ids {sc.ids}: states "
                                f"{sc.states.shape} have no nodes")
            if sc.future is not None and not (np.abs(sc.future) <= limit).all():
                raise DataError(f"scene with ids {sc.ids}: future is NaN or "
                                f"would overflow {ad.get_precision()}")
        counts = np.array([sc.states.shape[1] for sc in scenes])
        n_max = counts.max()
        states = np.zeros((cfg.t_n, len(scenes), n_max, STATE_FEATURES + 1))
        states[..., STATE_FEATURES] = 1.0
        for i, sc in enumerate(scenes):
            states[:, i, :counts[i], :STATE_FEATURES] = sc.states
        # the states in one pass per chunk
        if not (np.abs(states) <= limit).all():
            bad = next(sc for sc in scenes if not (np.abs(sc.states) <= limit).all())
            raise DataError(f"scene with ids {bad.ids}: states are NaN or "
                            f"would overflow {ad.get_precision()}")
        real = np.arange(n_max) < counts[:, None]               # [B, n_max]
        mask = (real[:, :, None] & real[:, None, :]) | np.eye(n_max, dtype=bool)
        return states, mask

    def encode_pairs(self, scenes):
        """Per-timestep GAT over the padded scene graphs, then the LSTM over
        each ego sequence.  Returns (H [B, d], ego_seq [t_n, B, d],
        attention), with one [heads, t_n, B, q, n_max] array per GAT layer:
        q is n_max but for the last layer, which computes only the ego's
        query row (q = 1), the one row that the LSTM reads.

        The embedding x = s W_e + b_e is affine and a GAT layer reads its
        input only through x W_k, which is [s, 1] ([W_e; b_e] W_k) exactly.
        embed.W is [W_e; b_e], so the first layer runs on the homogeneous
        states [s, 1] with the [H, 5, d] weight embed.W @ gat0.W: its
        alpha @ x aggregate and projection GEMMs are 5 columns wide per head
        instead of d."""
        states, mask = self._stack(scenes)
        gat0, gat1 = self.gat
        e = self.embed.tensor
        # one copy per head: matmul's batched path takes equal leading dims
        w_0 = ad.matmul(e + ad.constant(np.zeros((gat0.heads,) + e.shape)),
                        gat0.w.tensor)
        h, att0 = ad.graph_attention(ad.constant(states), w_0, gat0.a.tensor, mask)
        h, att1 = gat1.forward_seq(h, mask[:, :1])
        ego_seq = h[:, :, 0]
        return self.lstm.encode(ego_seq), ego_seq, [att0, att1]

    def pair_features(self, ego_seq: Tensor, futures: np.ndarray) -> Tensor:
        """Fuse history features with length-matched future positions:
        [B, d + 2, t_n] channels for the Conv-MLP encoders."""
        chan = ad.transpose(ego_seq, (1, 2, 0))                  # [B, d, t_n]
        y = ad.constant(np.transpose(futures, (0, 2, 1)))        # [B, 2, t_f]
        y_matched = self.interp.forward(y)                       # [B, 2, t_n]
        return ad.concat([chan, y_matched], axis=1)

    # -- paths ---------------------------------------------------------------

    def latent_path(self, s: Tensor) -> LatentDistribution:
        """Mean-pool pair representations, then map to (mu, sigma)."""
        if s.shape[0] == 0:
            raise DataError("latent_path: no pair representations")
        pooled = s.mean(axis=0, keepdims=True)
        raw = self.latent_mlp.forward(pooled)
        lat = self.config.latent
        mu = raw[:, :lat]
        sigma = LATENT_SIGMA_MIN + LATENT_SIGMA_SPAN * ad.sigmoid(raw[:, lat:])
        return LatentDistribution(mu=mu, sigma=sigma)

    def encode_context(self, context):
        """Everything the ANP head takes from the context alone: the pair
        embeddings h_ctx [m, d], their deterministic representations r_ctx
        [m, d] and the latent prior.  Scene graphs carry no cross-scene
        edges, so the context encodes once for any number of targets.

        Outside a tape the last result is kept, read-only, and returned
        again while the precision, every parameter and every context
        array are unchanged byte for byte; an in-place edit is a change.
        """
        if any(sc.future is None for sc in context):
            raise DataError("encode_context: context pairs need futures")
        if ad.active_tape() is not None:
            return self._encode_context(context)
        key = self._context_key(context)
        if self._context_memo is None or self._context_memo[0] != key:
            encoded = self._encode_context(context)
            h_ctx, r_ctx, prior = encoded
            for t in (h_ctx, r_ctx, prior.mu, prior.sigma):
                t.data.flags.writeable = False
            self._context_memo = (key, encoded)
        return self._context_memo[1]

    def _context_key(self, context):
        """Exact snapshot of what the context encoding reads."""
        arrays = [self.flat]
        for sc in context:
            arrays += [sc.states, sc.future]
        return ad.get_precision(), [(a.shape, a.dtype.str, a.tobytes())
                                    for a in arrays]

    def _encode_context(self, context):
        # chunked as the targets are: the GAT holds every head's attention
        chunks = [chunk for _, chunk in _chunks(context)]
        parts = [self.encode_pairs(chunk)[:2] for chunk in chunks]
        h_ctx = ad.concat([h for h, _ in parts], axis=0)
        ego_ctx = ad.concat([ego for _, ego in parts], axis=1)
        feats = self.pair_features(ego_ctx, np.stack(
            [sc.future for chunk in chunks for sc in chunk]))
        r_ctx = self.enc_det.encode(feats)
        prior = self.latent_path(self.enc_lat.encode(feats))
        return h_ctx, r_ctx, prior

    def decode(self, h_target: Tensor, r_star: Tensor, z: Tensor):
        """(H_T, r*, z) -> per-step position Gaussians, normalized units;
        one z row per target row.

        Returns (mu [k, t_f, 2], sigma [k, t_f, 2]) tensors.
        """
        cfg = self.config
        k = h_target.shape[0]
        if (h_target.shape[-1] != cfg.hidden or r_star.shape != h_target.shape
                or z.shape != (k, cfg.latent)):
            raise ShapeError(
                f"decode: got H_T {h_target.shape}, r* {r_star.shape}, "
                f"z {z.shape} for d={cfg.hidden}, latent={cfg.latent}")
        out = self.decoder.forward(ad.concat([h_target, r_star, z], axis=1))
        out = out.reshape((k, cfg.t_f, 4))
        mu = out[:, :, :2]
        sigma = DECODER_SIGMA_MIN + ad.softplus(out[:, :, 2:])
        return mu, sigma

    # -- training and prediction ----------------------------------------------

    def elbo_loss(self, batch: PreparedBatch, noise):
        """Negative ELBO per target pair per step, with diagnostics.

        loss = [sum of per-step Gaussian NLLs + KL(q(z|S_T) || q(z|S_C))]
               / (k * t_f), one reparameterized z draw per call: noise is
        [1, latent], and any other shape is a ShapeError before any encode.
        """
        scenes, m = batch.scenes, batch.m
        noise = np.asarray(noise)
        if noise.shape != (1, self.config.latent):
            raise ShapeError(f"elbo_loss: noise {noise.shape}, expected "
                             f"[1, {self.config.latent}]")
        if any(sc.future is None for sc in scenes):
            raise DataError("elbo_loss: every target needs a future")
        k = len(scenes)
        h_all, ego_seq, _ = self.encode_pairs(scenes)
        futures = np.stack([sc.future for sc in scenes])
        feats = self.pair_features(ego_seq, futures)
        s_all = self.enc_lat.encode(feats)
        r_ctx = self.enc_det.encode(feats[:m])
        prior = self.latent_path(s_all[:m])
        posterior = self.latent_path(s_all)
        z = sample_latent(posterior, noise)
        r_star = self.cross.attend(h_all, h_all[:m], r_ctx)
        # the one draw, broadcast to every target row
        z_rows = z + ad.constant(np.zeros((k, self.config.latent)))
        mu, sigma = self.decode(h_all, r_star, z_rows)

        y = ad.constant(futures)
        err = y - mu
        nll = 0.5 * LOG_2PI + ad.log(sigma) + (err * err) / (2.0 * sigma * sigma)
        nll_sum = nll.sum()
        kl = kl_diag(posterior, prior)
        denom = float(k * self.config.t_f)
        loss = (nll_sum + kl) / denom
        return loss, {"recon_nll": nll_sum.item() / denom, "kl": kl.item()}

    def predict(self, targets, context, stats, samples: int = 30, seed=0):
        """Pooled predictive distributions of the targets, in input order,
        each with its S sampled trajectories in meters; see pool_targets.

        Runs under ad.numeric_errors("predict"): an op that overflows, as
        an overflowing parameter makes one, raises NumericError naming it.
        """
        targets = list(targets)
        results = [None] * len(targets)
        with ad.numeric_errors("predict"):
            for rows, mus, mean_m, sd_m in self.pool_targets(
                    targets, context, stats, samples, seed):
                samples_m = stats.invert_xy(mus)
                for j, i in enumerate(rows):
                    results[i] = PredictiveDistribution(
                        mean=mean_m[j], std=sd_m[j], samples=samples_m[:, j])
        return results

    def pool_targets(self, targets, context, stats, samples, seed):
        """Decode S latent draws from the context prior and pool them, one
        target chunk at a time: yields (rows, mus, mean, sd), the chunk's f64
        draws [S, k, t_f, 2] in normalized units and its pooled [k, t_f, 2]
        mean and sd in meters.  Nothing is kept from one chunk to the next.

        The draws are seeded_rng(seed).standard_normal((samples, latent)),
        so (samples, seed) fix them.  Pooled variance adds the decoder
        variance to the spread of the sampled means; outputs are
        de-normalized to meters via stats.  Callers iterate it under
        ad.numeric_errors("predict").
        """
        if not context:
            raise DataError("predict: empty context")
        if samples < 1:
            raise DataError(f"predict: samples must be >= 1, got {samples}")
        noise = seeded_rng(seed).standard_normal((samples, self.config.latent))
        for rows, mus, sigmas in self.decode_targets(targets, context, noise):
            mus = mus.astype(np.float64)
            sig2 = np.square(sigmas).mean(axis=0, dtype=np.float64)
            pooled_sd = np.sqrt(sig2 + mus.var(axis=0))
            yield (rows, mus, stats.invert_xy(mus.mean(axis=0)),
                   stats.scale_xy(pooled_sd))

    def decode_targets(self, targets, context, noise):
        """Encode the context and draw z from its prior (a row per noise row)
        once, then yield (rows, mu, sigma) per target chunk: [S, k, t_f, 2]
        arrays in normalized units, all S draws decoded in one pass."""
        h_ctx, r_ctx, prior = self.encode_context(list(context))
        z = sample_latent(prior, noise)                     # [S, latent]
        n_draws = z.shape[0]
        for rows, chunk in _chunks(targets):
            h_t = self.encode_pairs(chunk)[0]
            r_star = self.cross.attend(h_t, h_ctx, r_ctx)
            # row s * k + j is draw s of target j
            mu, sigma = self.decode(
                ad.constant(np.tile(h_t.data, (n_draws, 1))),
                ad.constant(np.tile(r_star.data, (n_draws, 1))),
                ad.constant(np.repeat(z.data, len(chunk), axis=0)))
            shape = (n_draws, len(chunk), self.config.t_f, 2)
            yield rows, mu.data.reshape(shape), sigma.data.reshape(shape)

    def attention_maps(self, scene: PreparedScene):
        """Per-layer attention over one scene: a list of [heads, t_n, n, n]
        arrays, the last one [heads, t_n, 1, n], the ego's row only.

        Runs under ad.numeric_errors("attention_maps"), as predict does."""
        with ad.numeric_errors("attention_maps"):
            _, _, attention = self.encode_pairs([scene])
        return scene.ids, [att[:, :, 0] for att in attention]
