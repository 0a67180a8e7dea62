"""The four benchmark workloads: set-up, one timed operation, and the output
checks, each driven only through granp's public entry points.

Every call goes through a module attribute (``granp.training.train``, not a
name imported here) so that the tracer's wrappers see it.
"""

import hashlib
import math
import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from statistics import median

import numpy as np

import granp
import granp.model
import granp.training
import granp.verification

MIX = 0.7               # lane-keeping share, as in the README's archive
GRADCHECK_CASES = 27    # cases in run_gradient_checks() at the time of writing
# The served checkpoint is one fixed deployment, as for a long-lived
# process; only the traffic varies with --seed.  Encoding the context is
# quadratic in its node count, so a per-seed context would move predict
# latency by up to a fifth between seeds.
DEPLOYMENT_SEED = 2404


@dataclass(frozen=True)
class Sizes:
    """Input sizes.  The defaults are the benchmark; the smoke test shrinks
    them."""

    scenes: int = 500       # train set, and the held-out eval archive
    context: int = 64       # reference scenes the serving model keeps
    samples: int = 30       # latent draws per prediction
    hidden: int = 64
    heads: int = 4
    batch: int = 32
    setup_reps: int = 5     # set-up runs per process; setup_s is their median


def nearest_rank(values, q):
    """q-quantile by the nearest-rank rule."""
    return sorted(values)[max(1, math.ceil(round(len(values) * q, 9))) - 1]


def beyond(values, q):
    """How many values lie above the nearest-rank q-quantile's rank."""
    return len(values) - max(1, math.ceil(round(len(values) * q, 9)))


def _finite(*arrays):
    return all(np.isfinite(np.asarray(a)).all() for a in arrays)


def _mean_nodes(scenes):
    # synthetic neighbours are always inside the grid, so every vehicle of
    # the history becomes a node
    return float(np.mean([len(sc.history) for sc in scenes]))


class Workload:
    """Defaults: one operation at least, no warm-up, the seed picks the
    inputs, and no checks beyond each operation's own."""

    min_ops = 1
    warmup = 0
    seed_applies = True

    def final_checks(self, state):
        """(label, passed) pairs run after the timed phase."""
        return []


class Train(Workload):
    """One ``granp.train()`` call of one epoch per operation."""

    name = "train"

    def __init__(self, sizes, seed, out_dir):
        self.sizes, self.seed = sizes, seed
        self.digest = None
        self.val_nll = []

    def setup(self):
        return granp.data.synth_scenes(self.sizes.scenes, self.seed, mix=MIX)

    def op(self, scenes, i):
        sz = self.sizes
        return granp.training.train(
            scenes, granp.ModelConfig(hidden=sz.hidden, heads=sz.heads),
            granp.TrainSettings(epochs=1, batch_size=sz.batch,
                                reference_size=sz.context),
            seed=self.seed)

    def check(self, scenes, i, result):
        rows = [[h["loss"], h["recon_nll"], h["kl"]] for h in result.history]
        if not rows or not _finite(rows, result.val_nll):
            return "non-finite training history or validation NLL"
        h = hashlib.sha256()
        for p in result.model.parameters():
            h.update(np.ascontiguousarray(p.data).tobytes())
        digest = h.hexdigest()
        if self.digest is None:
            self.digest = digest
        elif digest != self.digest:
            return "final parameters differ from the first run with this seed"
        self.val_nll.append(result.val_nll[-1])
        return None

    def traffic(self, scenes):
        val = max(1, int(round(granp.TrainSettings().val_fraction
                               * len(scenes))))
        return {"scenes": len(scenes), "trained_scenes": len(scenes) - val,
                "mean_nodes": _mean_nodes(scenes),
                "batch": self.sizes.batch, "context": self.sizes.context,
                "samples": 1, "epochs": 1}

    def figures(self, scenes, times):
        trained = self.traffic(scenes)["trained_scenes"]
        return {"train_scenes_per_s": (trained / median(times), "1/s"),
                "train_val_nll": (self.val_nll[-1] if self.val_nll
                                  else math.nan, "nats")}


class _Serving(Workload):
    """Shared set-up of ``predict`` and ``eval``: a served checkpoint and a
    held-out archive.

    The checkpoint is the deployment: an untrained default-config model,
    its reference context and normalization statistics, all from the fixed
    ``DEPLOYMENT_SEED`` and round-tripped through ``save_checkpoint`` and
    ``load_checkpoint``.  ``--seed`` picks the traffic, the held-out scenes
    that are predicted.  No data-dependent branch depends on the weight
    values, so the cost matches a trained model's."""

    warmup = 1

    def __init__(self, sizes, seed, out_dir):
        self.sizes, self.seed, self.out_dir = sizes, seed, out_dir

    def setup(self):
        sz = self.sizes
        reference = granp.data.synth_scenes(sz.context, DEPLOYMENT_SEED,
                                            mix=MIX)
        held_out = granp.data.synth_scenes(sz.scenes, self.seed, mix=MIX)
        stats = granp.NormalizationStats.fit(reference)
        model = granp.GranpModel(
            granp.ModelConfig(hidden=sz.hidden, heads=sz.heads),
            seed=DEPLOYMENT_SEED)
        ckpt = tempfile.mkdtemp(prefix="ckpt-", dir=self.out_dir)
        try:
            granp.training.save_checkpoint(ckpt, model, stats, reference)
            model, stats, reference = granp.training.load_checkpoint(ckpt)
        finally:
            shutil.rmtree(ckpt)
        return {"model": model, "stats": stats, "reference": reference,
                "held_out": held_out}

    def traffic(self, state, scenes_per_op, batch):
        return {"scenes": scenes_per_op,
                "mean_nodes": _mean_nodes(state["held_out"]),
                "context_mean_nodes": _mean_nodes(state["reference"]),
                "batch": batch, "context": len(state["reference"]),
                "samples": self.sizes.samples}


class Predict(_Serving):
    """Closed loop, one client: each request prepares one held-out target
    and predicts it against the context prepared once in set-up."""

    name = "predict"
    min_ops = 100       # so that at least 10 requests lie beyond p90
    warmup = 3

    def __init__(self, sizes, seed, out_dir):
        super().__init__(sizes, seed, out_dir)
        self.first = None

    def setup(self):
        state = super().setup()
        state["context"] = [granp.model.prepare_scene(s, state["stats"])
                            for s in state["reference"]]
        return state

    def op(self, state, i):
        held = state["held_out"]
        target = granp.model.prepare_scene(held[i % len(held)], state["stats"])
        return state["model"].predict([target], state["context"],
                                      state["stats"],
                                      samples=self.sizes.samples, seed=i)

    def check(self, state, i, result):
        if len(result) != 1:
            return f"{len(result)} predictions for one target"
        p = result[0]
        t_f = state["model"].config.t_f
        for field in ("mean", "std", "ci_low", "ci_high"):
            if getattr(p, field).shape != (t_f, 2):
                return f"{field} shape {getattr(p, field).shape}"
        if p.samples.shape != (self.sizes.samples, t_f, 2):
            return f"samples shape {p.samples.shape}"
        if not _finite(p.mean, p.std, p.ci_low, p.ci_high, p.samples):
            return "non-finite prediction"
        if not (p.std > 0).all():
            return "non-positive sd"
        if not ((p.ci_low < p.mean) & (p.mean < p.ci_high)).all():
            return "mean outside its 95% band"
        if i == 0:
            self.first = p
        return None

    def final_checks(self, state):
        """Repeat request 0; it must come back bit-identical."""
        p = self.op(state, 0)[0]
        same = self.first is not None and all(
            np.array_equal(getattr(p, f), getattr(self.first, f))
            for f in ("mean", "std", "ci_low", "ci_high", "samples"))
        return [("repeated request is bit-identical", same)]

    def traffic(self, state):
        return super().traffic(state, 1, 1)

    def figures(self, state, times):
        return {"predict_ms_p50": (1e3 * median(times), "ms"),
                "predict_ms_p90": (1e3 * nearest_rank(times, 0.9), "ms"),
                "predict_requests": (len(times), "count"),
                "predict_beyond_p90": (beyond(times, 0.9), "count")}


class Eval(_Serving):
    """Repeated ``granp.evaluate()`` over the held-out archive."""

    name = "eval"

    def __init__(self, sizes, seed, out_dir):
        super().__init__(sizes, seed, out_dir)
        self.first = None

    def op(self, state, i):
        return granp.training.evaluate(state["model"], state["held_out"],
                                       state["stats"], state["reference"],
                                       samples=self.sizes.samples, seed=0)

    def check(self, state, i, report):
        values = list(report.rmse_m.values()) + list(report.nll_nats.values())
        if not values or not _finite(values):
            return "non-finite eval report"
        if report.n_scenes != len(state["held_out"]):
            return (f"n_scenes {report.n_scenes}, expected "
                    f"{len(state['held_out'])}")
        text = report.to_json()
        if self.first is None:
            self.first = text
        elif text != self.first:
            return "report differs from the first call with the same seed"
        return None

    def traffic(self, state):
        # evaluate() streams targets in predict()'s default chunks of 32
        return super().traffic(state, len(state["held_out"]), 32)

    def figures(self, state, times):
        return {"eval_scenes_per_s":
                (len(state["held_out"]) / median(times), "1/s")}


class Gradcheck(Workload):
    """``run_gradient_checks()``: fixed f64 cases, so the seed does not
    apply.  Set-up is what every ``granp gradcheck`` pays before checking:
    a fresh interpreter importing granp."""

    name = "gradcheck"
    seed_applies = False

    def __init__(self, sizes, seed, out_dir):
        self.sizes = sizes
        self.cases = 0
        self.worst = math.nan

    def setup(self):
        src = os.path.dirname(os.path.dirname(granp.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        subprocess.run([sys.executable, "-c", "import granp"], env=env,
                       check=True, timeout=60)

    def op(self, state, i):
        return granp.verification.run_gradient_checks()

    def check(self, state, i, results):
        self.cases = len(results)
        self.worst = max(results.values(), default=math.nan)
        if len(results) < GRADCHECK_CASES:
            return (f"{len(results)} gradient checks, expected "
                    f"{GRADCHECK_CASES}")
        bad = [k for k, v in results.items()
               if not (math.isfinite(v)
                       and v < granp.verification.GRAD_TOLERANCE)]
        if bad:
            return f"gradient checks above tolerance: {bad}"
        return None

    def traffic(self, state):
        return {"scenes": 0, "cases": self.cases or GRADCHECK_CASES,
                "precision": "f64"}

    def figures(self, state, times):
        return {"gradcheck_s": (median(times), "s"),
                "gradcheck_worst_error": (self.worst, "ratio")}


WORKLOADS = {w.name: w for w in (Train, Predict, Eval, Gradcheck)}
