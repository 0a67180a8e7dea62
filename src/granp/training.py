"""Adam training of the ELBO, validation-tracked checkpointing, per-horizon
RMSE/NLL evaluation, and kinematic baselines."""

import csv
import hashlib
import io
import math
import os
from dataclasses import asdict, dataclass
from typing import ClassVar

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, backward
from .data import (NormalizationStats, TARGET_HZ, T_F, dump_json,
                   make_episode, read_json, scenes_from_doc, scenes_to_doc,
                   seeded_rng, write_atomic, write_json)
from .errors import DataError, FormatError, ShapeError
from .model import (GranpModel, ModelConfig, PredictiveDistribution,
                    gaussian_nll, prepare_scenes)
# unused here: the benchmark's tracer hooks this name (ROADMAP Item 1)
from .model import prepare_scene  # noqa: F401

CHECKPOINT_VERSION = 3
# params.bin element type per manifest "precision"
_PARAM_DTYPES = {"f32": np.dtype("<f4"), "f64": np.dtype("<f8")}
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
        """One update from a gradient map keyed by parameter name; a missing
        or misshapen gradient raises before any state changes."""
        for p in self.params:
            if p.name not in grads:
                raise DataError(f"adam_step: missing gradient for {p.name!r}")
            if np.shape(grads[p.name]) != p.data.shape:
                raise ShapeError(f"adam_step: gradient for {p.name!r} has shape "
                                 f"{np.shape(grads[p.name])}, expected {p.data.shape}")
        self.t += 1
        c1 = 1.0 - ADAM_BETA1 ** self.t
        c2 = 1.0 - ADAM_BETA2 ** self.t
        for p in self.params:
            g = grads[p.name]
            m = self.m[p.name] = ADAM_BETA1 * self.m[p.name] + (1 - ADAM_BETA1) * g
            v = self.v[p.name] = ADAM_BETA2 * self.v[p.name] + (1 - ADAM_BETA2) * g * g
            p.data -= self.lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)


@dataclass
class TrainSettings:
    epochs: int = 200
    lr: float = 5e-4
    batch_size: int = 32
    reference_size: int = 64
    val_fraction: ClassVar[float] = 0.1     # held-out share of the scenes

    def __post_init__(self):
        if self.epochs < 1:
            raise DataError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 3:
            raise DataError(f"batch size must be >= 3 (an episode needs a "
                            f"context and targets), got {self.batch_size}")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise DataError(f"lr must be finite and positive, got {self.lr}")
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
    prep_train = prepare_scenes(train_raw, stats)
    prep_val = prepare_scenes(val_raw, stats)
    ref_n = min(settings.reference_size, len(train_raw))
    ref_idx = rng.choice(len(train_raw), size=ref_n, replace=False)
    ref_raw = [train_raw[i] for i in ref_idx]
    ref_prep = [prep_train[i] for i in ref_idx]

    model = GranpModel(config, seed=seed)
    adam = AdamState(model.parameters(), lr=settings.lr)
    history = []
    best_val = math.inf
    best_flat = None
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
            noise = rng.standard_normal((1, config.latent))
            with ad.numeric_errors(f"epoch {epoch}, batch {b}"):
                with Tape() as tape:
                    loss, diag = model.elbo_loss(batch, noise)
                adam.step(backward(tape, loss, model.parameters()))
            sums += (loss.item(), diag["recon_nll"], diag["kl"])
            batches += 1
        avg = sums / max(batches, 1)
        with ad.numeric_errors(f"epoch {epoch}, validation"):
            v = validation_nll(model, prep_val, ref_prep)
        history.append({"epoch": epoch, "loss": float(avg[0]),
                        "recon_nll": float(avg[1]), "kl": float(avg[2]),
                        "val_nll": v})
        if v < best_val:
            best_val = v
            best_epoch = epoch
            best_flat = model.flat.copy()
    model.flat[:] = best_flat
    return TrainResult(model=model, stats=stats, reference=ref_raw,
                       history=history, best_epoch=best_epoch)


HISTORY_COLUMNS = ("epoch", "loss", "recon_nll", "kl", "val_nll")


def save_history(history, path):
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(HISTORY_COLUMNS)
    for row in history:
        writer.writerow([row["epoch"]] + [repr(row[c])
                                          for c in HISTORY_COLUMNS[1:]])
    write_atomic(path, buf.getvalue().encode("utf-8"))


# ---------------------------------------------------------------------------
# Evaluation

@dataclass
class EvalReport:
    rmse_m: dict                  # "1s".."5s" -> meters
    nll_nats: dict
    n_scenes: int

    def to_json(self) -> str:
        return dump_json(asdict(self))


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
    """horizon_metrics of a list of predictions and their true futures."""
    if not predictions:
        raise DataError("metrics: no predictions")
    if len(predictions) != len(futures_m):
        raise DataError(f"metrics: {len(predictions)} predictions but "
                        f"{len(futures_m)} futures")
    return horizon_metrics(np.stack([p.mean for p in predictions]),
                           np.stack([p.std for p in predictions]),
                           np.stack(futures_m), t_f)


def horizon_metrics(mean, sd, truth, t_f: int) -> EvalReport:
    """Per-horizon RMSE of the pooled mean and NLL of the truth under the
    pooled per-axis Gaussians, both in meters, from stacked [N, t_f, 2]
    arrays."""
    steps = _horizon_steps(t_f)
    err2 = np.square(mean - truth).sum(axis=2)          # [N, t_f]
    nll = gaussian_nll(truth, mean, sd).sum(axis=2)
    rmse = {k: float(np.sqrt(err2[:, i].mean())) for k, i in steps.items()}
    nlls = {k: float(nll[:, i].mean()) for k, i in steps.items()}
    return EvalReport(rmse_m=rmse, nll_nats=nlls, n_scenes=len(mean))


def evaluate(model: GranpModel, scenes, stats, reference, samples: int = 30,
             seed=0) -> EvalReport:
    """Pooled predictive metrics on raw scenes against their true futures:
    predict's draws and pooling, chunk by chunk, keeping only each target's
    pooled mean and sd, so memory does not grow with scenes x samples.
    Decoding and pooling run under ad.numeric_errors("predict"), the
    metrics under ad.numeric_errors("evaluate")."""
    if not scenes:
        raise DataError("evaluate: no scenes")
    targets = prepare_scenes(scenes, stats)
    context = prepare_scenes(reference, stats)
    shape = (len(targets), model.config.t_f, 2)
    mean, sd = np.empty(shape), np.empty(shape)
    with ad.numeric_errors("predict"):
        for rows, _, mean_m, sd_m in model.pool_targets(
                targets, context, stats, samples, seed):
            mean[rows], sd[rows] = mean_m, sd_m
    with ad.numeric_errors("evaluate"):
        return horizon_metrics(mean, sd, np.stack([s.future for s in scenes]),
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
    precision = "f64" if model.flat.dtype == np.float64 else "f32"
    dt = _PARAM_DTYPES[precision]
    entries = []
    offset = 0
    for p in model.parameters():
        entries.append({"name": p.name, "shape": list(p.data.shape),
                        "offset": offset})
        offset += dt.itemsize * p.data.size
    params_blob = model.flat.astype(dt, copy=False).tobytes()
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
    write_atomic(os.path.join(dir_path, "params.bin"), params_blob)
    write_json(os.path.join(dir_path, "manifest.json"), manifest)
    return dir_path


def load_checkpoint(dir_path):
    """Returns (model, stats, reference_scenes)."""
    manifest_path = os.path.join(dir_path, "manifest.json")
    manifest = read_json(manifest_path, "manifest")
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
        config = ModelConfig(**manifest["config"])
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
            offset += dt.itemsize * p.data.size
        if offset != len(blob):
            kind = "truncated" if len(blob) < offset else "has trailing bytes"
            raise FormatError(f"params.bin {kind}: {len(blob)} bytes, expected {offset}")
        model.flat[:] = np.frombuffer(blob, dtype=dt)
        for p in params:
            if not np.isfinite(p.data).all():
                raise FormatError(f"{params_path}: parameter {p.name!r} is "
                                  f"not finite")
        if hashlib.sha256(blob).hexdigest() != manifest["params_sha256"]:
            raise FormatError(f"{params_path}: SHA-256 does not match the "
                              f"manifest's params_sha256; params.bin is "
                              f"from another save")
        try:
            stats = NormalizationStats(**{k: np.array(manifest["normalization"][k])
                                          for k in ("mean", "std")})
        except DataError as err:
            raise FormatError(f"{manifest_path}: {err}") from None
        reference = scenes_from_doc(manifest["reference_context"],
                                    where=manifest_path)
    except (KeyError, TypeError, ValueError, OSError) as e:
        raise FormatError(f"{manifest_path}: malformed checkpoint "
                          f"({e})") from None
    return model, stats, reference
