"""Release gate.  One test per criterion, each printing a PASS/FAIL line
with its measured values (visible with pytest -s, or on failure).

The trained-model criteria share one module fixture that runs the full
training configuration (500 scenes, 200 epochs, hidden 64, heads 4); expect
about five minutes for the whole module.  Those criteria are marked slow,
so ``pytest -m "not slow"`` leaves them, and that training, out.
"""

import json
import math
import time
from types import SimpleNamespace

import numpy as np
import pytest

from granp import autodiff as ad
from granp.cli import attention_export
from granp.data import (NormalizationStats, RawTrack, TrajectoryScene,
                        resample_and_window, scenes_to_doc, synth_scenes)
from granp.layers import GatLayer
from granp.model import (GranpModel, ModelConfig, PreparedBatch, kl_diag,
                         prepare_scene, prepare_scenes)
from granp.scene_graph import OccupancyGrid
from granp.training import (TrainSettings, baseline_report, load_checkpoint,
                            metrics_from_predictions, save_checkpoint, train)
from granp.verification import GRAD_TOLERANCE, run_gradient_checks


def _gate(name: str, ok: bool, detail: str):
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


def _dist(mu, sigma):
    from granp.model import LatentDistribution
    return LatentDistribution(mu=ad.constant(np.atleast_2d(mu)),
                              sigma=ad.constant(np.atleast_2d(sigma)))


@pytest.fixture(scope="module")
def trained():
    t0 = time.perf_counter()
    pool = synth_scenes(500, seed=42, mix=0.7)
    config = ModelConfig(hidden=64, heads=4)
    settings = TrainSettings(epochs=200, lr=5e-4, batch_size=32)
    result = train(pool, config, settings, seed=0)
    train_seconds = time.perf_counter() - t0
    test_scenes = synth_scenes(120, seed=1042, mix=0.7)
    reference = [prepare_scene(s, result.stats) for s in result.reference]
    prep_test = [prepare_scene(s, result.stats) for s in test_scenes]
    preds = result.model.predict(prep_test, reference, result.stats,
                                 samples=30, seed=0)
    report = metrics_from_predictions(
        preds, [s.future for s in test_scenes], config.t_f)
    return SimpleNamespace(result=result, test_scenes=test_scenes,
                           prep_test=prep_test, preds=preds, report=report,
                           train_seconds=train_seconds)


def test_gradient_suite_covers_every_path():
    t0 = time.perf_counter()
    results = run_gradient_checks()
    elapsed = time.perf_counter() - t0
    worst = max(results.values())
    ok = (worst < GRAD_TOLERANCE and elapsed < 120.0
          and "elbo_micro_batch" in results and len(results) >= 27)
    _gate("gradient suite", ok,
          f"{len(results)} checks, worst {worst:.3e} (< 1e-4), "
          f"{elapsed:.1f}s (< 120s)")


def test_kl_closed_form_on_1000_random_pairs(f64):
    rng = np.random.default_rng(123)
    worst = 0.0
    lowest = math.inf
    for _ in range(1000):
        dim = int(rng.integers(1, 17))
        mu_q, mu_p = rng.normal(size=(2, dim)) * 3.0
        sig_q, sig_p = rng.uniform(0.05, 4.0, size=(2, dim))
        got = kl_diag(_dist(mu_q, sig_q), _dist(mu_p, sig_p)).item()
        oracle = float(np.sum(np.log(sig_p / sig_q)
                              + (sig_q ** 2 + (mu_q - mu_p) ** 2)
                              / (2.0 * sig_p ** 2) - 0.5))
        worst = max(worst, abs(got - oracle))
        lowest = min(lowest, got)
    same = _dist(np.arange(1.0, 5.0), np.array([0.3, 1.0, 2.5, 0.7]))
    self_kl = kl_diag(same, same).item()
    ok = worst < 1e-9 and lowest >= -1e-9 and self_kl == 0.0
    _gate("kl closed form", ok,
          f"worst |err| {worst:.2e} (< 1e-9), min KL {lowest:.2e} "
          f"(>= -1e-9), self-KL {self_kl!r} (== 0.0)")


def test_context_permutation_invariance(f64):
    scenes = synth_scenes(10, seed=5, mix=0.5)
    stats = NormalizationStats.fit(scenes)
    prep = [prepare_scene(s, stats) for s in scenes]
    config = ModelConfig(hidden=16, heads=2)
    model = GranpModel(config, seed=3)
    noise = np.random.default_rng(4).standard_normal((1, config.latent))
    m = 6
    base_loss = model.elbo_loss(PreparedBatch(scenes=prep, m=m), noise)[0].item()
    targets, context = prep[m:], prep[:m]
    base_pred = model.predict(targets, context, stats, samples=4, seed=0)
    rng = np.random.default_rng(11)
    worst_loss = worst_pred = 0.0
    for _ in range(20):
        pi = rng.permutation(m)
        shuffled = [prep[i] for i in pi] + prep[m:]
        loss = model.elbo_loss(PreparedBatch(scenes=shuffled, m=m),
                               noise)[0].item()
        worst_loss = max(worst_loss, abs(loss - base_loss))
        pred = model.predict(targets, [context[i] for i in pi], stats,
                             samples=4, seed=0)
        worst_pred = max(worst_pred,
                         max(np.abs(p.mean - b.mean).max()
                             for p, b in zip(pred, base_pred)))

    gat = GatLayer("g", 4, 8, 2, np.random.default_rng(6))
    nodes = rng.normal(size=(5, 4))
    adj = np.maximum((rng.random((5, 5)) > 0.4).astype(float), np.eye(5))
    adj = np.maximum(adj, adj.T)
    base_out = gat.forward_seq(ad.constant(nodes), adj)[0].data
    worst_gat = 0.0
    for _ in range(20):
        pi = rng.permutation(5)
        out = gat.forward_seq(ad.constant(nodes[pi]),
                              adj[np.ix_(pi, pi)])[0].data
        worst_gat = max(worst_gat, np.abs(out - base_out[pi]).max())

    ok = worst_loss < 1e-5 and worst_pred < 1e-5 and worst_gat < 1e-6
    _gate("permutation invariance", ok,
          f"20 perms: elbo {worst_loss:.2e}, predict {worst_pred:.2e} "
          f"(< 1e-5), gat equivariance {worst_gat:.2e} (< 1e-6)")


def test_scene_graph_is_the_grid_gate_and_one_block_per_scene(f64):
    grid = OccupancyGrid()
    scenes = synth_scenes(60, seed=8, mix=0.5)
    # one vehicle 1 m ahead of the grid's front edge, so the gate drops one
    first = scenes[0]
    ahead = first.history[first.ego].copy()
    ahead[:, 1] += grid.length / 2.0 + 1.0
    history = {**first.history, max(first.history) + 1: ahead}
    scenes.append(TrajectoryScene(ego=first.ego, history=history,
                                  future=first.future))
    stats = NormalizationStats.fit(scenes)
    prep = prepare_scenes(scenes, stats)

    def inside(offset):
        return (abs(offset[0]) <= grid.width / 2.0 + 1e-9
                and abs(offset[1]) <= grid.length / 2.0 + 1e-9)

    gate_ok = read_ok = True
    dropped = 0
    for sc, p in zip(scenes, prep):
        # kept are exactly the vehicles inside the grid around the ego at
        # the last history step, in meters, ego first
        ego = sc.history[sc.ego][-1, :2]
        expected = [sc.ego] + [v for v in sorted(sc.history) if v != sc.ego
                               and inside(sc.history[v][-1, :2] - ego)]
        gate_ok &= list(p.ids) == expected
        dropped += len(sc.history) - len(p.ids)
        # what the model reads, back in meters, is inside the grid too
        pos = p.states[-1, :, :2] * stats.std[:2] + stats.mean[:2]
        read_ok &= all(inside(q - pos[0]) for q in pos)

    model = GranpModel(ModelConfig(hidden=16, heads=2), seed=3)
    batch = prep[:8]
    counts = [p.states.shape[1] for p in batch]
    n_max = max(counts)
    _, mask = model._stack(batch)
    eye = np.eye(n_max, dtype=bool)
    # [B, n_max, n_max]: one graph per scene, so no entry joins two scenes
    block_ok = mask.shape == (len(batch), n_max, n_max) and all(
        mask[i, :n, :n].all() and not mask[i, :n, n:].any()
        and (mask[i, n:] == eye[n:]).all() for i, n in enumerate(counts))
    padding = sum(n_max - n for n in counts)
    h_batch = model.encode_pairs(batch)[0].data
    worst = max(np.abs(h_batch[i] - model.encode_pairs([p])[0].data[0]).max()
                for i, p in enumerate(batch))
    ok = (gate_ok and read_ok and dropped == 1 and block_ok and padding > 0
          and worst < 1e-9)
    _gate("scene graph", ok,
          f"{len(scenes)} scenes: kept = inside the {grid.length} x "
          f"{grid.width} m grid {gate_ok} ({dropped} dropped, need 1), "
          f"prepared nodes inside {read_ok}; {len(batch)}-scene mask one "
          f"full block per scene, padding self-loop only {block_ok} "
          f"({padding} padding nodes), batch vs alone encode "
          f"{worst:.1e} (< 1e-9)")


@pytest.mark.slow
def test_training_beats_gates_within_budget(trained):
    res = trained.result
    v1 = res.val_nll[0]
    vbest = res.val_nll[res.best_epoch - 1]
    drop = (v1 - vbest) / abs(v1)
    base = baseline_report(trained.test_scenes, kind="constant_position")
    rmse5 = trained.report.rmse_m["5s"]
    rmse1 = trained.report.rmse_m["1s"]
    ok = (drop >= 0.30 and rmse5 <= 0.5 * base.rmse_m["5s"] and rmse1 < 1.0
          and trained.train_seconds < 1800.0)
    _gate("training progress", ok,
          f"val NLL {v1:.2f} -> {vbest:.2f} (drop {drop:.0%} >= 30%), "
          f"rmse@5s {rmse5:.2f} m vs constant-position "
          f"{base.rmse_m['5s']:.2f} m (need <= 50%), rmse@1s {rmse1:.2f} m "
          f"(< 1.0), train {trained.train_seconds / 60:.1f} min (< 30)")


@pytest.mark.slow
def test_uncertainty_grows_with_horizon(trained):
    per_scene = np.array([[p.std[4].mean(), p.std[24].mean()]
                          for p in trained.preds])
    sd1, sd5 = per_scene.mean(axis=0)
    wins = float((per_scene[:, 1] > per_scene[:, 0]).mean())
    ok = len(trained.preds) >= 100 and sd5 > sd1
    _gate("uncertainty growth", ok,
          f"mean pooled sd 1s {sd1:.3f} m < 5s {sd5:.3f} m over "
          f"{len(trained.preds)} scenes ({wins:.0%} scenes individually)")


def test_bit_identical_reruns_and_checkpoint_roundtrip(tmp_path):
    synth_ok = (json.dumps(scenes_to_doc(synth_scenes(12, seed=9, mix=0.5)))
                == json.dumps(scenes_to_doc(synth_scenes(12, seed=9, mix=0.5))))

    scenes = synth_scenes(30, seed=3, mix=0.5)
    config = ModelConfig(hidden=16, heads=2)
    settings = TrainSettings(epochs=3, batch_size=8, reference_size=8)
    r1 = train(scenes, config, settings, seed=1)
    r2 = train(scenes, config, settings, seed=1)
    train_ok = r1.history == r2.history and r1.val_nll == r2.val_nll

    reference = [prepare_scene(s, r1.stats) for s in r1.reference]
    targets = [prepare_scene(s, r1.stats) for s in scenes[:5]]
    p1 = r1.model.predict(targets, reference, r1.stats, samples=6, seed=2)
    p2 = r1.model.predict(targets, reference, r1.stats, samples=6, seed=2)
    predict_ok = all(np.array_equal(a.mean, b.mean)
                     and np.array_equal(a.std, b.std)
                     and np.array_equal(a.samples, b.samples)
                     for a, b in zip(p1, p2))

    save_checkpoint(tmp_path / "ck", r1.model, r1.stats, r1.reference)
    model, stats, ref_scenes = load_checkpoint(tmp_path / "ck")
    reloaded = model.predict([prepare_scene(s, stats) for s in scenes[:5]],
                             [prepare_scene(s, stats) for s in ref_scenes],
                             stats, samples=6, seed=2)
    roundtrip_ok = all(np.array_equal(a.mean, b.mean)
                       and np.array_equal(a.std, b.std)
                       for a, b in zip(p1, reloaded))

    ok = synth_ok and train_ok and predict_ok and roundtrip_ok
    _gate("determinism", ok,
          f"synth {synth_ok}, train history {train_ok}, "
          f"predict {predict_ok}, checkpoint roundtrip {roundtrip_ok} "
          f"(all bit-identical)")


def test_pipeline_window_and_normalization_arithmetic():
    n = 200
    t = np.arange(n) * 0.04
    track = RawTrack.from_kinematics(
        0, np.arange(n), np.full(n, 3.5), 30.0 * t, np.zeros(n),
        np.full(n, 30.0), np.zeros(n), np.zeros(n), np.ones(n, dtype=int))
    scenes, skipped = resample_and_window([track], 25)
    short = RawTrack.from_kinematics(
        1, np.arange(n - 1), np.full(n - 1, 3.5), 30.0 * t[:-1],
        np.zeros(n - 1), np.full(n - 1, 30.0), np.zeros(n - 1),
        np.zeros(n - 1), np.ones(n - 1, dtype=int))
    none, skipped_short = resample_and_window([short], 25)
    window_ok = (len(scenes), skipped, len(none), skipped_short) == (1, 0, 0, 1)

    sample = synth_scenes(60, seed=2, mix=0.5)
    stats = NormalizationStats.fit(sample)
    h = next(iter(sample[0].history.values()))
    roundtrip = np.abs(stats.invert_states(stats.apply_states(h)) - h).max()
    states = np.concatenate([stats.apply_states(arr) for sc in sample
                             for arr in sc.history.values()])
    mean_err = np.abs(states.mean(axis=0)).max()
    std_err = np.abs(states.std(axis=0) - 1.0).max()
    ok = (window_ok and roundtrip < 1e-9 and mean_err < 1e-6
          and std_err < 1e-6)
    _gate("pipeline arithmetic", ok,
          f"200-frame track -> exactly 1 window {window_ok}, z-score "
          f"roundtrip {roundtrip:.1e} (< 1e-9), normalized |mean| "
          f"{mean_err:.1e}, |std-1| {std_err:.1e} (< 1e-6)")


@pytest.mark.slow
def test_attention_export_rows_and_ranking(trained):
    worst_row = 0.0
    ranked = True
    for prep in trained.prep_test:
        ids, per_layer = trained.result.model.attention_maps(prep)
        for att in per_layer:
            worst_row = max(worst_row, np.abs(att.sum(axis=-1) - 1.0).max())
        doc = attention_export(ids, per_layer)
        weights = [entry["weight"] for entry in doc["top3"]]
        ranked &= weights == sorted(weights, reverse=True)
        ranked &= len(weights) == min(3, len(ids) - 1)
    ok = worst_row < 1e-6 and ranked
    _gate("attention export", ok,
          f"{len(trained.prep_test)} scenes: worst row-sum err "
          f"{worst_row:.1e} (< 1e-6), top-3 sorted descending {ranked}")
