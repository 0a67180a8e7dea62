import csv
import json
import math
import os
import tracemalloc

import numpy as np
import pytest

from granp import autodiff as ad
from granp.data import NormalizationStats, T_F, T_N, TrajectoryScene, synth_scenes
from granp.errors import DataError, FormatError, NumericError, ShapeError
from granp.model import GranpModel, ModelConfig, PredictiveDistribution, prepare_scene
from granp.training import (AdamState, EvalReport, TrainSettings,
                            baseline_report, constant_position_baseline,
                            cv_baseline, evaluate, load_checkpoint,
                            metrics_from_predictions, save_checkpoint,
                            save_history, train, validation_nll)

LOG_2PI = math.log(2.0 * math.pi)


def _params(values):
    return [ad.Parameter(f"p{i}", np.array(v)) for i, v in enumerate(values)]


def _tiny_config():
    return ModelConfig(hidden=4, heads=2)


def _straight_scene(v: float = 30.0) -> TrajectoryScene:
    """Constant velocity along +y, ego-centered at the last history step."""
    dt = 0.2
    t_hist = (np.arange(T_N) - (T_N - 1)) * dt
    hist = np.zeros((T_N, 4))
    hist[:, 1] = v * t_hist
    hist[:, 2] = v
    future = np.zeros((T_F, 2))
    future[:, 1] = v * dt * np.arange(1, T_F + 1)
    return TrajectoryScene(ego=0, history={0: hist}, future=future)


# -- adam ---------------------------------------------------------------------

def test_adam_zero_gradient_leaves_parameters():
    params = _params([[1.0, -2.0], [0.5]])
    before = [p.data.copy() for p in params]
    adam = AdamState(params, lr=1e-2)
    adam.step({p.name: np.zeros_like(p.data) for p in params})
    for p, b in zip(params, before):
        np.testing.assert_array_equal(p.data, b)


def test_adam_first_step_has_lr_magnitude():
    params = _params([[1.0, 1.0]])
    adam = AdamState(params, lr=5e-4)
    adam.step({"p0": np.array([2.0, -7.0])})
    delta = params[0].data - 1.0
    # f32 update arithmetic rounds the step to ~1e-4 relative
    np.testing.assert_allclose(np.abs(delta), 5e-4, rtol=1e-3)
    assert delta[0] < 0 and delta[1] > 0


def test_adam_is_deterministic():
    runs = []
    for _ in range(2):
        params = _params([[0.3, -0.7]])
        adam = AdamState(params, lr=1e-3)
        for t in range(5):
            adam.step({"p0": np.array([0.1 * (t + 1), -0.2])})
        runs.append(params[0].data.copy())
    np.testing.assert_array_equal(runs[0], runs[1])


def test_adam_rejects_duplicate_names():
    p = ad.Parameter("same", np.zeros(2))
    q = ad.Parameter("same", np.ones(2))
    with pytest.raises(DataError, match="duplicate"):
        AdamState([p, q])


def test_adam_rejects_missing_gradient():
    params = _params([[1.0], [2.0]])
    adam = AdamState(params)
    with pytest.raises(DataError, match="p1"):
        adam.step({"p0": np.zeros(1)})


def test_adam_rejects_misshapen_gradient_before_any_update():
    params = _params([[1.0], [2.0, 3.0]])
    adam = AdamState(params)
    with pytest.raises(ShapeError, match=r"'p1'.*\(1, 2\)"):
        adam.step({"p0": np.ones(1), "p1": np.ones((1, 2))})
    assert adam.t == 0
    assert params[0].data.tolist() == [1.0] and params[1].data.shape == (2,)
    assert not any(a.any() for a in [*adam.m.values(), *adam.v.values()])


# -- training loop -------------------------------------------------------------

def test_train_smoke_produces_history_and_best_epoch():
    scenes = synth_scenes(10, seed=0, mix=0.5)
    result = train(scenes, _tiny_config(),
                   TrainSettings(epochs=2, batch_size=8, reference_size=4),
                   seed=1)
    assert [row["epoch"] for row in result.history] == [1, 2]
    assert len(result.val_nll) == 2
    assert result.best_epoch in (1, 2)
    assert len(result.reference) == 4
    assert all(np.isfinite(row["loss"]) for row in result.history)
    assert [row["val_nll"] for row in result.history] == result.val_nll
    for p in result.model.parameters():
        assert np.isfinite(p.data).all()


def test_train_same_seed_is_bit_identical():
    scenes = synth_scenes(8, seed=3, mix=0.5)
    settings = TrainSettings(epochs=2, batch_size=8, reference_size=2)
    a = train(scenes, _tiny_config(), settings, seed=5)
    b = train(scenes, _tiny_config(), settings, seed=5)
    assert a.history == b.history
    assert a.val_nll == b.val_nll
    for pa, pb in zip(a.model.parameters(), b.model.parameters()):
        np.testing.assert_array_equal(pa.data, pb.data)


# An lr of 1e12 overflows within a few steps, and the error names the step
# whose numpy op overflowed.

def test_train_aborts_on_nonfinite_loss_naming_the_batch():
    scenes = synth_scenes(8, seed=3, mix=0.5)
    settings = TrainSettings(epochs=4, batch_size=3, lr=1e12,
                             reference_size=2)
    with pytest.raises(NumericError,
                       match=r"^epoch \d+, batch \d+: overflow encountered in "):
        train(scenes, _tiny_config(), settings, seed=5)


def test_train_aborts_in_validation_when_one_batch_makes_an_epoch():
    scenes = synth_scenes(8, seed=3, mix=0.5)
    settings = TrainSettings(epochs=4, batch_size=8, lr=1e12,
                             reference_size=2)
    with pytest.raises(NumericError,
                       match=r"^epoch 1, validation: overflow encountered in "):
        train(scenes, _tiny_config(), settings, seed=5)


def test_train_rejects_nan_in_a_validation_future():
    scenes = synth_scenes(10, seed=0, mix=0.5)
    # train() holds out the first index of its seeded permutation (n_val = 1)
    val = scenes[np.random.default_rng(1).permutation(len(scenes))[0]]
    val.future = val.future.copy()
    val.future[3, 0] = np.nan
    settings = TrainSettings(epochs=2, batch_size=8, reference_size=4)
    with pytest.raises(DataError, match="future is NaN"):
        train(scenes, _tiny_config(), settings, seed=1)


def test_train_rejects_bad_sizes():
    scenes = synth_scenes(3, seed=0, mix=0.5)
    with pytest.raises(DataError, match="scenes"):
        train(scenes, _tiny_config(), TrainSettings(epochs=1), seed=0)
    with pytest.raises(DataError, match="epochs"):
        train(synth_scenes(10, seed=0, mix=0.5), _tiny_config(),
              TrainSettings(epochs=0), seed=0)


def test_train_rejects_negative_seed():
    with pytest.raises(DataError, match="seed .* got -1"):
        train(synth_scenes(10, seed=0, mix=0.5), _tiny_config(),
              TrainSettings(epochs=1), seed=-1)


@pytest.mark.parametrize("field,value,match", [
    ("batch_size", 0, "batch size"),
    ("batch_size", -4, "batch size"),
    ("batch_size", 2, "batch size"),
    ("lr", -1.0, "lr"),
    ("lr", 0.0, "lr"),
    ("lr", float("nan"), "lr"),
    ("lr", float("inf"), "lr"),
    ("reference_size", 0, "reference_size"),
])
def test_train_settings_reject_bad_values(field, value, match):
    with pytest.raises(DataError, match=match):
        TrainSettings(**{field: value})


def test_val_fraction_is_a_constant_not_a_setting():
    assert TrainSettings().val_fraction == 0.1
    with pytest.raises(TypeError):
        TrainSettings(val_fraction=0.2)


def test_validation_nll_is_deterministic():
    scenes = synth_scenes(6, seed=2, mix=0.5)
    stats = NormalizationStats.fit(scenes)
    prep = [prepare_scene(s, stats) for s in scenes]
    model = GranpModel(_tiny_config(), seed=0)
    a = validation_nll(model, prep[:2], prep[2:])
    b = validation_nll(model, prep[:2], prep[2:])
    assert a == b
    assert np.isfinite(a)

# -- metrics -------------------------------------------------------------------

def _flat_predictions(n, mean_offset=0.0, sd=1.0, t_f=T_F):
    preds = []
    futures = []
    for _ in range(n):
        truth = np.zeros((t_f, 2))
        mean = truth + mean_offset
        s = np.full((t_f, 2), sd)
        preds.append(PredictiveDistribution(mean=mean, std=s,
                                            samples=mean[None]))
        futures.append(truth)
    return preds, futures


def test_metrics_perfect_prediction_oracle():
    preds, futures = _flat_predictions(4)
    report = metrics_from_predictions(preds, futures, T_F)
    assert set(report.rmse_m) == {"1s", "2s", "3s", "4s", "5s"}
    for h in report.rmse_m:
        assert report.rmse_m[h] == 0.0
        # truth at the mean of a unit Gaussian: two axes of 0.5*ln(2*pi)
        assert report.nll_nats[h] == pytest.approx(LOG_2PI, abs=1e-12)
    assert report.n_scenes == 4


def test_metrics_one_meter_offset_oracle():
    preds, futures = _flat_predictions(3, mean_offset=1.0 / np.sqrt(2))
    report = metrics_from_predictions(preds, futures, T_F)
    for h in report.rmse_m:
        assert report.rmse_m[h] == pytest.approx(1.0, abs=1e-12)
        assert report.nll_nats[h] == pytest.approx(LOG_2PI + 0.5, abs=1e-12)


def test_metrics_reject_short_future():
    preds, futures = _flat_predictions(2, t_f=20)
    with pytest.raises(DataError, match="horizon"):
        metrics_from_predictions(preds, futures, 20)


def test_metrics_reject_empty_input():
    with pytest.raises(DataError, match="no predictions"):
        metrics_from_predictions([], [], T_F)
    with pytest.raises(DataError, match="no predictions"):
        baseline_report([])


@pytest.mark.parametrize("n_futures", [1, 3])
def test_metrics_reject_count_mismatch(n_futures):
    # one future must not be scored against both predictions, and three
    # must not reach numpy's broadcasting
    preds, futures = _flat_predictions(3)
    with pytest.raises(DataError, match=rf"2 predictions but {n_futures} futures"):
        metrics_from_predictions(preds[:2], futures[:n_futures], T_F)


def test_eval_report_json_shape():
    preds, futures = _flat_predictions(2)
    doc = json.loads(metrics_from_predictions(preds, futures, T_F).to_json())
    assert set(doc) == {"rmse_m", "nll_nats", "n_scenes"}
    assert set(doc["rmse_m"]) == {"1s", "2s", "3s", "4s", "5s"}
    assert doc["n_scenes"] == 2


def test_evaluate_is_scene_order_invariant(f64):
    scenes = synth_scenes(8, seed=4, mix=0.5)
    stats = NormalizationStats.fit(scenes[:5])
    model = GranpModel(_tiny_config(), seed=0)
    targets, reference = scenes[5:], scenes[:5]
    a = evaluate(model, targets, stats, reference, samples=3, seed=0)
    b = evaluate(model, list(reversed(targets)), stats, reference,
                 samples=3, seed=0)
    for h in a.rmse_m:
        assert a.rmse_m[h] == pytest.approx(b.rmse_m[h], abs=1e-9)
        assert a.nll_nats[h] == pytest.approx(b.nll_nats[h], abs=1e-9)
    with pytest.raises(DataError, match="no scenes"):
        evaluate(model, [], stats, reference)


@pytest.mark.parametrize("precision", ["f32", "f64"])
def test_evaluate_matches_metrics_of_predict(precision):
    # evaluate streams the pooled chunks; the list path stacks predict's
    # distributions: one metrics core, so the reports agree byte for byte
    scenes = synth_scenes(45, seed=4, mix=0.5)
    stats = NormalizationStats.fit(scenes[:5])
    with ad.precision(precision):
        model = GranpModel(ModelConfig(hidden=8, heads=2), seed=0)
        targets, reference = scenes[5:], scenes[:5]
        report = evaluate(model, targets, stats, reference, samples=4, seed=2)
        preds = model.predict([prepare_scene(s, stats) for s in targets],
                              [prepare_scene(s, stats) for s in reference],
                              stats, samples=4, seed=2)
        listed = metrics_from_predictions(preds, [s.future for s in targets],
                                          T_F)
    assert report.to_json() == listed.to_json()


def test_evaluate_memory_does_not_grow_with_the_draws():
    # keeping every target's [S, t_f, 2] f64 draws until the metrics ran
    # would cost 480 * S * t_f * 2 * 8 bytes more for 480 more targets
    samples = 60
    scenes = synth_scenes(8 + 512, seed=6, mix=0.7)
    stats = NormalizationStats.fit(scenes[:8])
    model = GranpModel(ModelConfig(hidden=16, heads=2), seed=0)
    evaluate(model, scenes[8:10], stats, scenes[:8], samples=samples)
    peaks = []
    for n in (32, 512):
        tracemalloc.start()
        try:
            evaluate(model, scenes[8:8 + n], stats, scenes[:8],
                     samples=samples)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    kept_draws = 480 * samples * model.config.t_f * 2 * 8
    assert peaks[1] - peaks[0] < 0.5 * kept_draws


def test_evaluate_keeps_predicts_checks():
    scenes = synth_scenes(8, seed=4, mix=0.5)
    stats = NormalizationStats.fit(scenes[:5])
    model = GranpModel(_tiny_config(), seed=0)
    with pytest.raises(DataError, match="samples must be >= 1, got 0"):
        evaluate(model, scenes[5:], stats, scenes[:5], samples=0)
    with pytest.raises(DataError, match="^predict: empty context$"):
        evaluate(model, scenes[5:], stats, [])


def test_evaluate_decoding_that_overflows_is_a_predict_error():
    # an overflowing decoder weight fails in the decode and pooling, which
    # keep predict's numeric channel; the metrics keep "evaluate" (below)
    scenes = synth_scenes(8, seed=4, mix=0.5)
    stats = NormalizationStats.fit(scenes[:5])
    model = GranpModel(_tiny_config(), seed=0)
    weight = next(p for p in model.parameters() if p.name == "decoder.2.W")
    weight.data = np.full_like(weight.data, 3e38)
    with pytest.raises(NumericError, match=r"^predict: overflow encountered in "):
        evaluate(model, scenes[5:], stats, scenes[:5], samples=2, seed=0)


def test_evaluate_metrics_that_overflow_are_numeric_error():
    # a finite, positive sd of 1e180 m gives finite predictions, whose
    # squared errors overflow
    scenes = synth_scenes(8, seed=4, mix=0.5)
    fitted = NormalizationStats.fit(scenes[:5])
    std = fitted.std.copy()
    std[0] = 1e180
    stats = NormalizationStats(mean=fitted.mean, std=std)
    model = GranpModel(_tiny_config(), seed=0)
    with pytest.raises(NumericError, match=r"^evaluate: overflow encountered in "):
        evaluate(model, scenes[5:], stats, scenes[:5], samples=2, seed=0)


# -- baselines -------------------------------------------------------------------

def test_cv_baseline_exact_on_constant_velocity():
    scene = _straight_scene(v=30.0)
    pred = cv_baseline(scene)
    np.testing.assert_allclose(pred.mean, scene.future, atol=1e-9)
    report = baseline_report([scene], kind="cv")
    for h in report.rmse_m:
        assert report.rmse_m[h] == pytest.approx(0.0, abs=1e-9)


def test_cv_baseline_stationary_scene():
    scene = TrajectoryScene(ego=0, history={0: np.zeros((T_N, 4))},
                            future=np.zeros((T_F, 2)))
    pred = cv_baseline(scene)
    np.testing.assert_array_equal(pred.mean, 0.0)
    np.testing.assert_array_equal(pred.std, 0.5)


def test_constant_position_baseline_lags_moving_ego():
    scene = _straight_scene(v=30.0)
    report = baseline_report([scene], kind="constant_position")
    assert report.rmse_m["5s"] == pytest.approx(150.0, abs=1e-9)
    assert report.rmse_m["1s"] == pytest.approx(30.0, abs=1e-9)


def test_baseline_report_rejects_unknown_kind():
    with pytest.raises(DataError, match="baseline"):
        baseline_report([_straight_scene()], kind="oracle")


# -- checkpoints -----------------------------------------------------------------

def _roundtrip_setup():
    scenes = synth_scenes(4, seed=6, mix=0.5)
    stats = NormalizationStats.fit(scenes)
    model = GranpModel(_tiny_config(), seed=2)
    return model, stats, scenes[:2]


def test_checkpoint_roundtrip_is_bit_exact(tmp_path):
    model, stats, reference = _roundtrip_setup()
    save_checkpoint(tmp_path, model, stats, reference)
    loaded, lstats, lref = load_checkpoint(tmp_path)
    assert loaded.config == model.config
    for p, q in zip(model.parameters(), loaded.parameters()):
        assert p.name == q.name
        np.testing.assert_array_equal(p.data.astype("<f4"), q.data)
    np.testing.assert_allclose(lstats.mean, stats.mean, rtol=1e-6)
    np.testing.assert_allclose(lstats.std, stats.std, rtol=1e-6)
    assert len(lref) == 2
    assert lref[0].ego == reference[0].ego
    np.testing.assert_allclose(lref[0].future, reference[0].future,
                               rtol=1e-6)


def test_checkpoint_f64_roundtrip_is_bit_identical(tmp_path, f64):
    model, stats, reference = _roundtrip_setup()
    save_checkpoint(tmp_path, model, stats, reference)
    loaded, _, _ = load_checkpoint(tmp_path)
    for p, q in zip(model.parameters(), loaded.parameters()):
        assert q.data.dtype == np.float64
        np.testing.assert_array_equal(p.data, q.data)
    blob = open(os.path.join(tmp_path, "params.bin"), "rb").read()
    assert len(blob) == 8 * sum(p.data.size for p in model.parameters())


def test_parameters_own_their_data_and_a_model_views_one_buffer(tmp_path):
    with ad.precision("f64"):
        given = np.arange(6.0)
        p = ad.Parameter("p", given)
        p.data[0] = 9.0
        assert given[0] == 0.0                  # a copy, not the caller's array
        for data in (np.arange(6.0).reshape(3, 2).T,
                     np.frombuffer(np.arange(6.0).tobytes())):
            q = ad.Parameter("q", data)
            assert q.data.flags.writeable and q.data.flags.c_contiguous
            np.testing.assert_array_equal(q.data, data)
        with pytest.raises(ShapeError, match="'p'"):
            p.data = np.zeros((1, 6))
        assert p.data.shape == (6,)

    def views_flat(model):
        return all(np.shares_memory(p.data, model.flat) and p.data.flags.writeable
                   for p in model.parameters())

    model, stats, reference = _roundtrip_setup()
    assert views_flat(model)
    save_checkpoint(tmp_path, model, stats, reference)
    assert views_flat(load_checkpoint(tmp_path)[0])     # f32 under f32
    result = train(synth_scenes(10, seed=0, mix=0.5), _tiny_config(),
                   TrainSettings(epochs=2, batch_size=8, reference_size=4), seed=1)
    assert views_flat(result.model)


@pytest.mark.parametrize("saved,loaded", [("f32", None), ("f64", None), ("f32", "f64")])
def test_params_bin_is_each_parameter_little_endian_in_order(tmp_path, saved, loaded):
    with ad.precision(saved):
        model, stats, reference = _roundtrip_setup()
    if loaded:
        save_checkpoint(tmp_path / "saved", model, stats, reference)
        with ad.precision(loaded):
            model = load_checkpoint(tmp_path / "saved")[0]
    save_checkpoint(tmp_path, model, stats, reference)
    dt = "<f8" if (loaded or saved) == "f64" else "<f4"
    blob = open(os.path.join(tmp_path, "params.bin"), "rb").read()
    assert blob == b"".join(p.data.astype(dt).tobytes() for p in model.parameters())


def test_checkpoint_keeps_parameter_precision_not_process_precision(tmp_path):
    # an f64 model saved from an f32 process must not be rounded to f32
    with ad.precision("f64"):
        model, stats, reference = _roundtrip_setup()
    save_checkpoint(tmp_path, model, stats, reference)
    manifest = json.load(open(os.path.join(tmp_path, "manifest.json")))
    assert manifest["precision"] == "f64"
    with ad.precision("f64"):
        loaded, _, _ = load_checkpoint(tmp_path)
    for p, q in zip(model.parameters(), loaded.parameters()):
        assert q.data.dtype == np.float64
        assert p.data.tobytes() == q.data.tobytes()


def test_checkpoint_f64_in_f32_process_is_rejected(tmp_path):
    with ad.precision("f64"):
        model, stats, reference = _roundtrip_setup()
        save_checkpoint(tmp_path, model, stats, reference)
    with pytest.raises(FormatError, match="f64 checkpoint"):
        load_checkpoint(tmp_path)


def test_checkpoint_f32_loads_losslessly_under_f64(tmp_path):
    model, stats, reference = _roundtrip_setup()
    save_checkpoint(tmp_path, model, stats, reference)
    with ad.precision("f64"):
        loaded, _, _ = load_checkpoint(tmp_path)
    for p, q in zip(model.parameters(), loaded.parameters()):
        assert q.data.dtype == np.float64
        np.testing.assert_array_equal(p.data, q.data)


def test_checkpoint_ignores_legacy_reference_context_ids(tmp_path):
    model, stats, reference = _roundtrip_setup()
    save_checkpoint(tmp_path, model, stats, reference)
    path = os.path.join(tmp_path, "manifest.json")
    manifest = json.load(open(path))
    assert "reference_context_ids" not in manifest
    manifest["reference_context_ids"] = [int(sc.ego) for sc in reference]
    json.dump(manifest, open(path, "w"))
    _, _, lref = load_checkpoint(tmp_path)
    assert len(lref) == len(reference)


# version 1 manifests could carry these keys, with the values 2 and 3 the
# architecture fixes; no config key names them now, whatever the value
@pytest.mark.parametrize("key,value", [("gat_layers", 3), ("kernel", 5),
                                       ("gat_layers", 2), ("kernel", 3)])
def test_checkpoint_rejects_other_fixed_architecture(tmp_path, key, value):
    model, stats, reference = _roundtrip_setup()
    save_checkpoint(tmp_path, model, stats, reference)
    path = os.path.join(tmp_path, "manifest.json")
    manifest = json.load(open(path))
    assert key not in manifest["config"]
    manifest["config"][key] = value
    json.dump(manifest, open(path, "w"))
    with pytest.raises(FormatError, match="malformed checkpoint"):
        load_checkpoint(tmp_path)


@pytest.mark.parametrize("content", [b"\xff\xfe{}", b"[" * 100000 + b"]" * 100000],
                         ids=["not-utf8", "over-nested"])
def test_checkpoint_rejects_unreadable_manifest(tmp_path, content):
    with open(os.path.join(tmp_path, "manifest.json"), "wb") as fh:
        fh.write(content)
    with pytest.raises(FormatError, match="unreadable manifest"):
        load_checkpoint(tmp_path)


def test_checkpoint_rejects_manifest_that_is_not_an_object(tmp_path):
    with open(os.path.join(tmp_path, "manifest.json"), "w") as fh:
        fh.write("[]")
    with pytest.raises(FormatError, match="not a JSON object"):
        load_checkpoint(tmp_path)


def test_checkpoint_rejects_non_finite_parameter(tmp_path):
    model, stats, reference = _roundtrip_setup()
    save_checkpoint(tmp_path, model, stats, reference)
    blob_path = os.path.join(tmp_path, "params.bin")
    blob = bytearray(open(blob_path, "rb").read())
    blob[:4] = np.array([np.nan], dtype="<f4").tobytes()
    open(blob_path, "wb").write(bytes(blob))
    name = model.parameters()[0].name
    with pytest.raises(FormatError, match=f"params.bin: parameter '{name}'"):
        load_checkpoint(tmp_path)


@pytest.mark.parametrize("key,values", [
    ("mean", [0.0, float("inf"), 0.0, 0.0]),
    ("std", [1.0, float("nan"), 1.0, 1.0]),
    ("mean", [0.0, 0.0, 0.0]),
    ("std", [1.0, 0.0, 1.0, 1.0]),
])
def test_checkpoint_rejects_bad_normalization(tmp_path, key, values):
    model, stats, reference = _roundtrip_setup()
    save_checkpoint(tmp_path, model, stats, reference)
    path = os.path.join(tmp_path, "manifest.json")
    manifest = json.load(open(path))
    manifest["normalization"][key] = values
    json.dump(manifest, open(path, "w"))
    with pytest.raises(FormatError, match=f"manifest.json: normalization {key}"):
        load_checkpoint(tmp_path)


def test_checkpoint_rejects_unknown_precision(tmp_path):
    model, stats, reference = _roundtrip_setup()
    save_checkpoint(tmp_path, model, stats, reference)
    path = os.path.join(tmp_path, "manifest.json")
    manifest = json.load(open(path))
    manifest["precision"] = "f16"
    json.dump(manifest, open(path, "w"))
    with pytest.raises(FormatError, match="precision"):
        load_checkpoint(tmp_path)


def test_checkpoint_offsets_are_cumulative(tmp_path):
    model, stats, reference = _roundtrip_setup()
    save_checkpoint(tmp_path, model, stats, reference)
    with open(os.path.join(tmp_path, "manifest.json")) as fh:
        manifest = json.load(fh)
    offset = 0
    for entry in manifest["parameters"]:
        assert entry["offset"] == offset
        offset += 4 * int(np.prod(entry["shape"]))
    blob = open(os.path.join(tmp_path, "params.bin"), "rb").read()
    assert len(blob) == offset


def test_checkpoint_rejects_version_mismatch(tmp_path):
    model, stats, reference = _roundtrip_setup()
    save_checkpoint(tmp_path, model, stats, reference)
    path = os.path.join(tmp_path, "manifest.json")
    manifest = json.load(open(path))
    manifest["version"] = 99
    json.dump(manifest, open(path, "w"))
    with pytest.raises(FormatError, match="version"):
        load_checkpoint(tmp_path)


def test_checkpoint_rejects_truncated_blob(tmp_path):
    model, stats, reference = _roundtrip_setup()
    save_checkpoint(tmp_path, model, stats, reference)
    blob_path = os.path.join(tmp_path, "params.bin")
    blob = open(blob_path, "rb").read()
    for bad, word in ((blob[:-8], "truncated"), (blob + bytes(8), "trailing")):
        open(blob_path, "wb").write(bad)
        with pytest.raises(FormatError, match=word):
            load_checkpoint(tmp_path)


def test_checkpoint_rejects_tampered_shape(tmp_path):
    model, stats, reference = _roundtrip_setup()
    save_checkpoint(tmp_path, model, stats, reference)
    path = os.path.join(tmp_path, "manifest.json")
    manifest = json.load(open(path))
    manifest["parameters"][0]["shape"] = [1, 1]
    json.dump(manifest, open(path, "w"))
    with pytest.raises(FormatError, match="match"):
        load_checkpoint(tmp_path)


def test_checkpoint_rejects_bad_manifest(tmp_path):
    os.makedirs(tmp_path, exist_ok=True)
    with open(os.path.join(tmp_path, "manifest.json"), "w") as fh:
        fh.write("{not json")
    with pytest.raises(FormatError, match="manifest"):
        load_checkpoint(tmp_path)


def test_checkpoint_rejects_unknown_config_key(tmp_path):
    model, stats, reference = _roundtrip_setup()
    save_checkpoint(tmp_path, model, stats, reference)
    path = os.path.join(tmp_path, "manifest.json")
    manifest = json.load(open(path))
    manifest["config"]["bogus"] = 1
    json.dump(manifest, open(path, "w"))
    with pytest.raises(FormatError, match="malformed checkpoint"):
        load_checkpoint(tmp_path)


def test_checkpoint_rejects_missing_normalization(tmp_path):
    model, stats, reference = _roundtrip_setup()
    save_checkpoint(tmp_path, model, stats, reference)
    path = os.path.join(tmp_path, "manifest.json")
    manifest = json.load(open(path))
    del manifest["normalization"]
    json.dump(manifest, open(path, "w"))
    with pytest.raises(FormatError, match="malformed checkpoint"):
        load_checkpoint(tmp_path)


def test_checkpoint_rejects_params_from_another_save(tmp_path):
    model, stats, reference = _roundtrip_setup()
    other = GranpModel(_tiny_config(), seed=9)
    save_checkpoint(tmp_path / "a", model, stats, reference)
    save_checkpoint(tmp_path / "b", other, stats, reference)
    os.replace(tmp_path / "b" / "params.bin", tmp_path / "a" / "params.bin")
    with pytest.raises(FormatError, match="params_sha256"):
        load_checkpoint(tmp_path / "a")


def test_checkpoint_without_digest_is_refused(tmp_path):
    # without the digest, params.bin could be from another save
    model, stats, reference = _roundtrip_setup()
    save_checkpoint(tmp_path, model, stats, reference)
    path = os.path.join(tmp_path, "manifest.json")
    manifest = json.load(open(path))
    del manifest["params_sha256"]
    json.dump(manifest, open(path, "w"))
    with pytest.raises(FormatError, match="malformed checkpoint.*params_sha256"):
        load_checkpoint(tmp_path)


def test_checkpoint_save_interrupted_before_manifest_fails_closed(
        tmp_path, monkeypatch):
    model, stats, reference = _roundtrip_setup()
    save_checkpoint(tmp_path, model, stats, reference)
    real_replace = os.replace

    def replace(src, dst):
        if str(dst).endswith("manifest.json"):
            raise OSError("interrupted")
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", replace)
    with pytest.raises(OSError, match="interrupted"):
        save_checkpoint(tmp_path, GranpModel(_tiny_config(), seed=9), stats,
                        reference)
    monkeypatch.undo()
    assert sorted(os.listdir(tmp_path)) == ["manifest.json", "params.bin"]
    with pytest.raises(FormatError, match="params_sha256"):
        load_checkpoint(tmp_path)


def test_checkpoint_save_leaves_no_temporary_files(tmp_path):
    model, stats, reference = _roundtrip_setup()
    save_checkpoint(tmp_path, model, stats, reference)
    save_checkpoint(tmp_path, model, stats, reference)
    assert sorted(os.listdir(tmp_path)) == ["manifest.json", "params.bin"]


def test_save_history_csv_roundtrip(tmp_path):
    history = [{"epoch": 1, "loss": 2.5, "recon_nll": 2.0, "kl": 3.0,
                "val_nll": 2.75},
               {"epoch": 2, "loss": 1.25, "recon_nll": 1.0, "kl": 1.5,
                "val_nll": 0.5}]
    path = tmp_path / "loss.csv"
    save_history(history, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["epoch", "loss", "recon_nll", "kl", "val_nll"]
    assert len(rows) == 3
    assert float(rows[1][1]) == 2.5
    assert float(rows[1][4]) == 2.75
    assert int(rows[2][0]) == 2


def test_trained_history_csv_holds_plain_numbers(tmp_path):
    result = train(synth_scenes(10, seed=0, mix=0.5), _tiny_config(),
                   TrainSettings(epochs=1, batch_size=8, reference_size=4),
                   seed=1)
    save_history(result.history, tmp_path / "history.csv")
    with open(tmp_path / "history.csv", newline="") as fh:
        (_, row) = list(csv.reader(fh))
    assert [float(v) for v in row[1:]] == [
        result.history[0][c] for c in ("loss", "recon_nll", "kl", "val_nll")]
