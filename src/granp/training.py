"""Adam training of the ELBO, validation-tracked checkpointing, per-horizon
RMSE/NLL evaluation, and kinematic baselines."""

import csv
import hashlib
import json
import math
import os
from dataclasses import asdict, dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, backward
from .data import (NormalizationStats, TARGET_HZ, T_F, make_episode,
                   scenes_from_doc, scenes_to_doc, seeded_rng)
from .errors import DataError, FormatError, NumericError
from .model import (CONV_KERNEL, GAT_LAYERS, GranpModel, ModelConfig,
                    PredictiveDistribution, STATE_FEATURES, gaussian_nll,
                    prepare_scene)

CHECKPOINT_VERSION = 1
# params.bin element type per manifest "precision"
_PARAM_DTYPES = {"f32": np.dtype("<f4"), "f64": np.dtype("<f8")}
# config keys that manifests written before the architecture was fixed
# carry, with the only values they could hold
_FIXED_CONFIG = {"gat_layers": GAT_LAYERS, "kernel": CONV_KERNEL}
HORIZONS_S = (1, 2, 3, 4, 5)
SAMPLE_DT = 1.0 / TARGET_HZ
ADAM_BETA1 = 0.9        # canonical Adam moment decays and denominator guard
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class AdamState:
    """Adam with bias correction; lr 5e-4 by default."""

    def __init__(self, params, lr: float = 5e-4):
        self.params = list(params)
        names = [p.name for p in self.params]
        if len(set(names)) != len(names):
            raise DataError("duplicate parameter names")
        self.lr = lr
        self.t = 0
        self.m = {p.name: np.zeros_like(p.data) for p in self.params}
        self.v = {p.name: np.zeros_like(p.data) for p in self.params}

    def step(self, grads: dict):
        """One update from a gradient map keyed by parameter name."""
        missing = [p.name for p in self.params if p.name not in grads]
        if missing:
            raise DataError(f"adam_step: missing gradient for {missing[0]!r}")
        self.t += 1
        c1 = 1.0 - ADAM_BETA1 ** self.t
        c2 = 1.0 - ADAM_BETA2 ** self.t
        for p in self.params:
            g = grads[p.name]
            m = self.m[p.name] = ADAM_BETA1 * self.m[p.name] + (1 - ADAM_BETA1) * g
            v = self.v[p.name] = ADAM_BETA2 * self.v[p.name] + (1 - ADAM_BETA2) * g * g
            p.data = p.data - self.lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)


@dataclass
class TrainSettings:
    epochs: int = 200
    lr: float = 5e-4
    batch_size: int = 32
    val_fraction: float = 0.1
    reference_size: int = 64

    def __post_init__(self):
        if self.epochs < 1:
            raise DataError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 3:
            raise DataError(f"batch size must be >= 3 (an episode needs a "
                            f"context and targets), got {self.batch_size}")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise DataError(f"lr must be finite and positive, got {self.lr}")
        if not 0 < self.val_fraction < 1:
            raise DataError(f"val_fraction must be in (0, 1), got "
                            f"{self.val_fraction}")
        if self.reference_size < 1:
            raise DataError(f"reference_size must be >= 1, got "
                            f"{self.reference_size}")


@dataclass
class TrainResult:
    model: GranpModel
    stats: NormalizationStats
    reference: list               # raw scenes persisted as inference context
    history: list                 # per-epoch dicts: loss, recon_nll, kl, val_nll
    best_epoch: int

    @property
    def val_nll(self) -> list:
        """Per-epoch validation NLL, read from history."""
        return [row["val_nll"] for row in self.history]


def validation_nll(model: GranpModel, val_prepared, ref_prepared) -> float:
    """Deterministic held-out reconstruction NLL per target per step,
    normalized units: z is the context-prior mean (zero noise)."""
    stream = model.decode_targets(val_prepared, ref_prepared,
                                  np.zeros((1, model.config.latent)))
    total = sum(gaussian_nll(np.stack([val_prepared[i].future for i in rows]),
                             mu, sigma).sum() for rows, mu, sigma in stream)
    return float(total / (len(val_prepared) * model.config.t_f))


def train(scenes, config: ModelConfig, settings: TrainSettings, seed=0) -> TrainResult:
    """Seeded 90/10 split, per-epoch episode batches, Adam on the ELBO;
    keeps the parameters of the best validation epoch."""
    n = len(scenes)
    rng = seeded_rng(seed)
    n_val = max(1, int(round(settings.val_fraction * n)))
    if n - n_val < 3:
        raise DataError(f"need at least {n_val + 3} scenes, got {n}")
    perm = rng.permutation(n)
    val_raw = [scenes[i] for i in perm[:n_val]]
    train_raw = [scenes[i] for i in perm[n_val:]]

    stats = NormalizationStats.fit(train_raw)
    prep_train = [prepare_scene(s, stats) for s in train_raw]
    prep_val = [prepare_scene(s, stats) for s in val_raw]
    ref_n = min(settings.reference_size, len(train_raw))
    ref_idx = rng.choice(len(train_raw), size=ref_n, replace=False)
    ref_raw = [train_raw[i] for i in ref_idx]
    ref_prep = [prep_train[i] for i in ref_idx]

    model = GranpModel(config, seed=seed)
    adam = AdamState(model.parameters(), lr=settings.lr)
    history = []
    best_val = math.inf
    best_params = None
    best_epoch = 0
    for epoch in range(1, settings.epochs + 1):
        order = rng.permutation(len(prep_train))
        sums = np.zeros(3)
        batches = 0
        for b, start in enumerate(range(0, len(order), settings.batch_size)):
            chunk = [prep_train[i] for i in order[start:start + settings.batch_size]]
            if len(chunk) < 3:
                continue    # tail too small to form an episode
            batch = make_episode(chunk, rng)
            noise = rng.standard_normal(config.latent)
            with Tape() as tape:
                try:
                    loss, diag = model.elbo_loss(batch, noise)
                except NumericError as err:
                    # Divergence can surface as non-finite sigmas inside the
                    # forward pass before a loss value exists.
                    raise NumericError(
                        f"non-finite loss at epoch {epoch}, batch {b}") from err
            if not np.isfinite(loss.data).all():
                raise NumericError(
                    f"non-finite loss at epoch {epoch}, batch {b}")
            grads = backward(tape, loss, model.parameters())
            adam.step(grads)
            sums += (loss.item(), diag["recon_nll"], diag["kl"])
            batches += 1
        avg = sums / max(batches, 1)
        v = validation_nll(model, prep_val, ref_prep)
        history.append({"epoch": epoch, "loss": float(avg[0]),
                        "recon_nll": float(avg[1]), "kl": float(avg[2]),
                        "val_nll": v})
        if v < best_val:
            best_val = v
            best_epoch = epoch
            best_params = [p.data.copy() for p in model.parameters()]
    if best_params is None:
        raise NumericError(f"validation NLL was not finite in any of "
                           f"{len(history)} epochs")
    for p, data in zip(model.parameters(), best_params):
        p.data = data
    return TrainResult(model=model, stats=stats, reference=ref_raw,
                       history=history, best_epoch=best_epoch)


HISTORY_COLUMNS = ("epoch", "loss", "recon_nll", "kl", "val_nll")


def save_history(history, path):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(HISTORY_COLUMNS)
        for row in history:
            writer.writerow([row["epoch"]] + [repr(row[c])
                                              for c in HISTORY_COLUMNS[1:]])


# ---------------------------------------------------------------------------
# Evaluation

@dataclass
class EvalReport:
    rmse_m: dict                  # "1s".."5s" -> meters
    nll_nats: dict
    n_scenes: int

    def to_json(self) -> str:
        return json.dumps({"rmse_m": self.rmse_m, "nll_nats": self.nll_nats,
                           "n_scenes": self.n_scenes},
                          sort_keys=True, separators=(",", ":"))


def _horizon_steps(t_f: int):
    steps = {}
    for h in HORIZONS_S:
        idx = h * TARGET_HZ - 1
        if idx >= t_f:
            raise DataError(f"horizon {h} s needs step {idx + 1}, but the "
                            f"future has {t_f}")
        steps[f"{h}s"] = idx
    return steps


def metrics_from_predictions(predictions, futures_m, t_f: int) -> EvalReport:
    """Per-horizon RMSE of the pooled mean and NLL of the truth under the
    pooled per-axis Gaussians, both in meters."""
    if not predictions:
        raise DataError("metrics: no predictions")
    if len(predictions) != len(futures_m):
        raise DataError(f"metrics: {len(predictions)} predictions but "
                        f"{len(futures_m)} futures")
    steps = _horizon_steps(t_f)
    mean = np.stack([p.mean for p in predictions])      # [N, t_f, 2]
    sd = np.stack([p.std for p in predictions])
    truth = np.stack(futures_m)
    err2 = np.square(mean - truth).sum(axis=2)          # [N, t_f]
    nll = gaussian_nll(truth, mean, sd).sum(axis=2)
    rmse = {k: float(np.sqrt(err2[:, i].mean())) for k, i in steps.items()}
    nlls = {k: float(nll[:, i].mean()) for k, i in steps.items()}
    return EvalReport(rmse_m=rmse, nll_nats=nlls, n_scenes=len(predictions))


def evaluate(model: GranpModel, scenes, stats, reference, samples: int = 30,
             seed=0) -> EvalReport:
    """Pooled predictive metrics on raw scenes against their true futures."""
    if not scenes:
        raise DataError("evaluate: no scenes")
    targets = [prepare_scene(s, stats) for s in scenes]
    context = [prepare_scene(s, stats) for s in reference]
    preds = model.predict(targets, context, stats, samples=samples, seed=seed)
    return metrics_from_predictions(preds, [s.future for s in scenes],
                                    model.config.t_f)


def cv_baseline(scene) -> PredictiveDistribution:
    """Constant-velocity extrapolation from the last two history positions
    over the T_F future steps; sigma fixed at 0.5 m."""
    hist = scene.history[scene.ego]
    vel = (hist[-1, :2] - hist[-2, :2]) / SAMPLE_DT
    steps = np.arange(1, T_F + 1)[:, None] * SAMPLE_DT
    mean = hist[-1, :2] + steps * vel
    sd = np.full((T_F, 2), 0.5)
    return PredictiveDistribution(mean=mean, std=sd, samples=mean[None])


def constant_position_baseline(scene) -> PredictiveDistribution:
    """Predicts the last observed position for T_F steps; sigma 0.5 m."""
    mean = np.tile(scene.history[scene.ego][-1, :2], (T_F, 1))
    sd = np.full((T_F, 2), 0.5)
    return PredictiveDistribution(mean=mean, std=sd, samples=mean[None])


def baseline_report(scenes, kind: str = "cv") -> EvalReport:
    fns = {"cv": cv_baseline, "constant_position": constant_position_baseline}
    if kind not in fns:
        raise DataError(f"unknown baseline {kind!r}")
    preds = [fns[kind](s) for s in scenes]
    return metrics_from_predictions(preds, [s.future for s in scenes], T_F)


# ---------------------------------------------------------------------------
# Checkpoints

def save_checkpoint(dir_path, model: GranpModel, stats: NormalizationStats,
                    reference_scenes):
    """manifest.json + params.bin (little-endian, manifest order), stored in
    the parameters' own precision: float32 as f32, float64 as f64, whatever
    the process precision.  Each file is replaced atomically and the
    manifest records params.bin's SHA-256."""
    os.makedirs(dir_path, exist_ok=True)
    # the model's own, not ad.get_precision(): the process may have switched
    precision = "f64" if model.parameters()[0].data.dtype == np.float64 else "f32"
    dt = _PARAM_DTYPES[precision]
    entries = []
    blobs = []
    offset = 0
    for p in model.parameters():
        raw = np.ascontiguousarray(p.data, dtype=dt).tobytes()
        entries.append({"name": p.name, "shape": list(p.data.shape),
                        "offset": offset})
        blobs.append(raw)
        offset += len(raw)
    params_blob = b"".join(blobs)
    manifest = {
        "version": CHECKPOINT_VERSION,
        "precision": precision,
        "config": asdict(model.config),
        "normalization": {"mean": stats.mean.tolist(),
                          "std": stats.std.tolist()},
        "reference_context": scenes_to_doc(reference_scenes),
        "parameters": entries,
        "params_sha256": hashlib.sha256(params_blob).hexdigest(),
    }
    # params.bin first: until the new manifest lands, the old manifest's
    # digest refuses the new weights
    _write_atomic(os.path.join(dir_path, "params.bin"), params_blob)
    _write_atomic(os.path.join(dir_path, "manifest.json"),
                  json.dumps(manifest, sort_keys=True,
                             separators=(",", ":")).encode("utf-8"))
    return dir_path


def _write_atomic(path, data: bytes):
    """Write through a temporary file in the same directory, then rename it
    over path, so a reader sees the old file or the new one, never a part."""
    tmp = path + ".tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def load_checkpoint(dir_path):
    """Returns (model, stats, reference_scenes)."""
    manifest_path = os.path.join(dir_path, "manifest.json")
    try:
        with open(manifest_path, encoding="utf-8") as fh:
            manifest = json.load(fh)
    except (OSError, ValueError, RecursionError) as e:
        raise FormatError(f"{manifest_path}: unreadable manifest ({e})") from None
    if not isinstance(manifest, dict):
        raise FormatError(f"{manifest_path}: manifest is not a JSON object")
    if manifest.get("version") != CHECKPOINT_VERSION:
        raise FormatError(f"{manifest_path}: version {manifest.get('version')}"
                          f", expected {CHECKPOINT_VERSION}")
    try:
        precision = manifest["precision"]
        if precision not in _PARAM_DTYPES:
            raise FormatError(f"{manifest_path}: unknown precision "
                              f"{precision!r}")
        if precision == "f64" and ad.get_precision() == "f32":
            raise FormatError(f"{manifest_path}: an f64 checkpoint loses "
                              f"precision in an f32 process; load it under "
                              f"f64 (GRANP_PRECISION=f64)")
        dt = _PARAM_DTYPES[precision]
        config_doc = {**manifest["config"]}
        for key, fixed in _FIXED_CONFIG.items():
            if key in config_doc and config_doc.pop(key) != fixed:
                raise FormatError(f"{manifest_path}: config {key} must be "
                                  f"{fixed}")
        config = ModelConfig(**config_doc)
        model = GranpModel(config, seed=0)
        params = model.parameters()
        entries = manifest["parameters"]
        if len(entries) != len(params):
            raise FormatError(f"{manifest_path}: {len(entries)} parameters, "
                              f"model has {len(params)}")
        params_path = os.path.join(dir_path, "params.bin")
        with open(params_path, "rb") as fh:
            blob = fh.read()
        offset = 0
        for p, entry in zip(params, entries):
            shape = tuple(entry["shape"])
            if entry["name"] != p.name or shape != p.data.shape:
                raise FormatError(f"{manifest_path}: parameter "
                                  f"{entry['name']!r} {shape} does not match "
                                  f"model {p.name!r} {p.data.shape}")
            if entry["offset"] != offset:
                raise FormatError(f"{manifest_path}: offset {entry['offset']} "
                                  f"for {p.name!r}, expected {offset}")
            count = int(np.prod(shape)) if shape else 1
            end = offset + dt.itemsize * count
            if end > len(blob):
                raise FormatError(f"params.bin truncated at {p.name!r}: need "
                                  f"{end} bytes, have {len(blob)}")
            p.data = np.frombuffer(blob, dtype=dt, count=count,
                                   offset=offset).reshape(shape)
            if not np.isfinite(p.data).all():
                raise FormatError(f"{params_path}: parameter {p.name!r} is "
                                  f"not finite")
            offset = end
        if offset != len(blob):
            raise FormatError(
                f"params.bin has {len(blob) - offset} trailing bytes")
        # absent in checkpoints written before the digest was recorded
        digest = manifest.get("params_sha256")
        if digest is not None and hashlib.sha256(blob).hexdigest() != digest:
            raise FormatError(f"{params_path}: SHA-256 does not match the "
                              f"manifest's params_sha256; params.bin is "
                              f"from another save")
        norm = {k: np.array(manifest["normalization"][k])
                for k in ("mean", "std")}
        for k, v in norm.items():
            if v.shape != (STATE_FEATURES,) or not np.isfinite(v).all():
                raise FormatError(f"{manifest_path}: normalization {k} is "
                                  f"not {STATE_FEATURES} finite values")
        if (norm["std"] <= 0).any():
            raise FormatError(f"{manifest_path}: normalization std is not "
                              f"positive")
        stats = NormalizationStats(**norm)
        reference = scenes_from_doc(manifest["reference_context"],
                                    where=manifest_path)
    except (KeyError, TypeError, ValueError, OSError) as e:
        raise FormatError(f"{manifest_path}: malformed checkpoint "
                          f"({e})") from None
    return model, stats, reference
