"""End-to-end checks of the command-line pipeline: file side effects,
emitted JSON invariants, exit codes, and determinism."""

import copy
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import granp
from granp import autodiff as ad
from granp import cli
from granp.cli import run_cli
from granp.data import load_scenes


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """A small archive and a briefly trained checkpoint, shared read-only."""
    root = tmp_path_factory.mktemp("cli")
    data, ckpt = root / "data", root / "ckpt"
    assert run_cli(["synth", "--scenes", "20", "--seed", "3",
                    "--out", str(data)]) == 0
    assert run_cli(["train", "--data", str(data), "--out", str(ckpt),
                    "--epochs", "2", "--hidden", "16", "--heads", "2",
                    "--batch", "8", "--seed", "1"]) == 0
    return data, ckpt


# -- usage ---------------------------------------------------------------------

def test_no_command_is_usage_error(capsys):
    assert run_cli([]) == 2
    capsys.readouterr()


def test_unknown_command_is_usage_error(capsys):
    assert run_cli(["bogus"]) == 2
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert run_cli(["--help"]) == 0
    assert "synth" in capsys.readouterr().out


def test_hidden_dim_outside_sweep_is_usage_error(tmp_path, capsys):
    code = run_cli(["train", "--data", str(tmp_path), "--out",
                    str(tmp_path / "c"), "--hidden", "17"])
    assert code == 2
    capsys.readouterr()


def test_invalid_precision_env_is_usage_error(monkeypatch, capsys):
    monkeypatch.setenv("GRANP_PRECISION", "f99")
    assert run_cli(["gradcheck"]) == 2
    assert "precision" in capsys.readouterr().err


def test_precision_env_switches_global_dtype(monkeypatch, tmp_path):
    monkeypatch.setenv("GRANP_PRECISION", "f64")
    assert run_cli(["synth", "--scenes", "1", "--seed", "0",
                    "--out", str(tmp_path)]) == 0
    assert ad.get_precision() == "f64"


# -- synth ---------------------------------------------------------------------

def test_synth_writes_archive(tmp_path, capsys):
    assert run_cli(["synth", "--scenes", "4", "--seed", "9",
                    "--out", str(tmp_path)]) == 0
    scenes = load_scenes(tmp_path / "scenes.json")
    assert len(scenes) == 4
    assert "4 scenes" in capsys.readouterr().out


def test_synth_same_seed_byte_identical(tmp_path):
    for sub in ("a", "b"):
        run_cli(["synth", "--scenes", "6", "--seed", "7",
                 "--out", str(tmp_path / sub)])
    assert ((tmp_path / "a" / "scenes.json").read_bytes()
            == (tmp_path / "b" / "scenes.json").read_bytes())


def test_synth_rejects_nonpositive_count(tmp_path, capsys):
    assert run_cli(["synth", "--scenes", "0", "--seed", "0",
                    "--out", str(tmp_path)]) == 2
    assert ("error: argument --scenes: must be >= 1, got 0"
            in capsys.readouterr().err)


@pytest.mark.parametrize("command", ["eval", "predict"])
@pytest.mark.parametrize("samples", ["0", "-2"])
def test_nonpositive_samples_is_usage_error_before_any_read(tmp_path, capsys,
                                                            command, samples):
    out = "--report" if command == "eval" else "--out"
    argv = [command, "--data", str(tmp_path / "absent"), "--ckpt",
            str(tmp_path / "absent"), out, str(tmp_path / "o.json"),
            "--samples", samples]
    if command == "predict":
        argv += ["--scene", "0"]
    assert run_cli(argv) == 2
    assert (f"error: argument --samples: must be >= 1, got {samples}"
            in capsys.readouterr().err)
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("command", ["synth", "train", "predict"])
def test_negative_seed_is_usage_error(pipeline, tmp_path, capsys, command):
    # numpy rejects negative seeds; argparse must, before any work is done
    data, ckpt = pipeline
    args = {"synth": ["--scenes", "2", "--out", str(tmp_path / "d")],
            "train": ["--data", str(data), "--out", str(tmp_path / "c"),
                      "--epochs", "1", "--hidden", "16", "--heads", "2"],
            "predict": ["--data", str(data), "--ckpt", str(ckpt),
                        "--scene", "0", "--out", str(tmp_path / "p.json")]}
    assert run_cli([command, *args[command], "--seed", "-1"]) == 2
    assert "error: argument --seed: must be >= 0, got -1" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


# -- train ---------------------------------------------------------------------

def test_train_writes_checkpoint_and_history(pipeline):
    _, ckpt = pipeline
    assert (ckpt / "manifest.json").exists()
    assert (ckpt / "params.bin").exists()
    lines = (ckpt / "history.csv").read_text().strip().splitlines()
    assert lines[0] == "epoch,loss,recon_nll,kl,val_nll"
    assert len(lines) == 3    # header + 2 epochs


@pytest.mark.parametrize("flag,value", [
    ("--batch", "0"), ("--batch", "-4"), ("--lr", "-1"), ("--lr", "nan"),
    ("--latent", "1000000000000"),
])
def test_train_bad_setting_is_data_error(tmp_path, capsys, flag, value):
    data = tmp_path / "data"
    assert run_cli(["synth", "--scenes", "12", "--seed", "0",
                    "--out", str(data)]) == 0
    code = run_cli(["train", "--data", str(data), "--out",
                    str(tmp_path / "c"), "--epochs", "1", flag, value])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not (tmp_path / "c").exists()


@pytest.mark.parametrize("content", [b"\xff\xfe{}",
                                     b"[" * 100000 + b"]" * 100000],
                         ids=["not-utf8", "over-nested"])
def test_train_unreadable_archive_is_data_error(tmp_path, capsys, content):
    archive = tmp_path / "scenes.json"
    archive.write_bytes(content)
    code = run_cli(["train", "--data", str(archive), "--out",
                    str(tmp_path / "c"), "--epochs", "1"])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "unreadable scene archive" in err


def test_train_non_canonical_history_key_is_data_error(tmp_path, capsys):
    assert run_cli(["synth", "--scenes", "3", "--seed", "5", "--out",
                    str(tmp_path)]) == 0
    archive = tmp_path / "scenes.json"
    doc = json.loads(archive.read_text())
    history = doc["scenes"][0]["history"]
    history["01"] = history["1"]
    archive.write_text(json.dumps(doc))
    code = run_cli(["train", "--data", str(archive), "--out",
                    str(tmp_path / "c"), "--epochs", "1"])
    assert code == 3
    err = capsys.readouterr().err
    assert err == (f"error: {archive}: scene 0 history key '01' is not a "
                   f"canonical integer id\n")
    assert not (tmp_path / "c").exists()


def test_train_missing_data_is_data_error(tmp_path, capsys):
    code = run_cli(["train", "--data", str(tmp_path / "absent"),
                    "--out", str(tmp_path / "c")])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: {tmp_path / 'absent'}: unreadable scene "
                          f"archive") and len(err.splitlines()) == 1


def test_train_on_a_coordinate_whose_moments_overflow_is_data_error(
        pipeline, tmp_path, capsys):
    # finite, so the archive loads, but its square overflows the fit's std:
    # the x feature would be zeroed and the manifest would hold std inf
    data, _ = pipeline
    archive = json.loads((data / "scenes.json").read_text())
    # train --seed 1 holds out the first 2 of its seeded permutation of 20
    scene = archive["scenes"][int(np.random.default_rng(1).permutation(20)[-1])]
    scene["history"][str(scene["ego"])][4][0] = 1.7e308
    (tmp_path / "scenes.json").write_text(json.dumps(archive))
    out = tmp_path / "c"
    code = run_cli(["train", "--data", str(tmp_path / "scenes.json"),
                    "--out", str(out), "--epochs", "1", "--hidden", "16",
                    "--heads", "2", "--batch", "8", "--seed", "1"])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("error: normalization std [inf, ") and err.count("\n") == 1
    assert not (out / "manifest.json").exists()


# -- eval ----------------------------------------------------------------------

def test_eval_writes_report(pipeline, tmp_path, capsys):
    data, ckpt = pipeline
    report = tmp_path / "report.json"
    assert run_cli(["eval", "--data", str(data), "--ckpt", str(ckpt),
                    "--report", str(report), "--samples", "3"]) == 0
    doc = json.loads(report.read_text())
    assert set(doc) == {"rmse_m", "nll_nats", "n_scenes"}
    assert set(doc["rmse_m"]) == {"1s", "2s", "3s", "4s", "5s"}
    assert doc["n_scenes"] == 20
    assert json.loads(capsys.readouterr().out.strip()) == doc


def test_eval_leaves_checkpoint_bytes_unchanged(pipeline, tmp_path, capsys):
    data, ckpt = pipeline
    before = [(p.name, p.read_bytes()) for p in sorted(ckpt.iterdir())]
    run_cli(["eval", "--data", str(data), "--ckpt", str(ckpt),
             "--report", str(tmp_path / "r.json"), "--samples", "2"])
    capsys.readouterr()
    assert [(p.name, p.read_bytes()) for p in sorted(ckpt.iterdir())] == before


def test_eval_corrupt_checkpoint_is_data_error(pipeline, tmp_path, capsys):
    data, _ = pipeline
    bad = tmp_path / "bad"
    bad.mkdir()
    (bad / "manifest.json").write_text("{not json")
    code = run_cli(["eval", "--data", str(data), "--ckpt", str(bad),
                    "--report", str(tmp_path / "r.json")])
    assert code == 3
    capsys.readouterr()


# -- predict -------------------------------------------------------------------

def _run_predict(data, ckpt, out, scene=2, seed=0):
    return run_cli(["predict", "--data", str(data), "--ckpt", str(ckpt),
                    "--scene", str(scene), "--samples", "4",
                    "--seed", str(seed), "--out", str(out)])


def test_predict_ci_is_1p96_sigma(pipeline, tmp_path, capsys):
    data, ckpt = pipeline
    out = tmp_path / "pred.json"
    assert _run_predict(data, ckpt, out) == 0
    capsys.readouterr()
    doc = json.loads(out.read_text())
    mean, sd = np.array(doc["mean"]), np.array(doc["sd"])
    assert mean.shape == (25, 2)
    assert np.array(doc["samples"]).shape == (4, 25, 2)
    np.testing.assert_allclose(np.array(doc["ci_high"]) - mean,
                               1.96 * sd, atol=1e-5)
    np.testing.assert_allclose(mean - np.array(doc["ci_low"]),
                               1.96 * sd, atol=1e-5)


def test_predict_same_seed_byte_identical(pipeline, tmp_path, capsys):
    data, ckpt = pipeline
    for name in ("p1.json", "p2.json"):
        assert _run_predict(data, ckpt, tmp_path / name, seed=5) == 0
    capsys.readouterr()
    assert ((tmp_path / "p1.json").read_bytes()
            == (tmp_path / "p2.json").read_bytes())


@pytest.mark.parametrize("index", [-1, 20])
def test_predict_scene_out_of_range_is_usage_error(pipeline, tmp_path,
                                                   capsys, index):
    data, ckpt = pipeline
    assert _run_predict(data, ckpt, tmp_path / "p.json", scene=index) == 2
    assert "scene index" in capsys.readouterr().err


def test_predict_malformed_archive_is_data_error(pipeline, tmp_path, capsys):
    _, ckpt = pipeline
    (tmp_path / "scenes.json").write_text(
        '{"rate_hz":5,"scenes":[{"ego":0,"history":[1],"future":[]}]}')
    assert _run_predict(tmp_path, ckpt, tmp_path / "p.json", scene=0) == 3
    assert "history is not an object" in capsys.readouterr().err


def test_predict_manifest_not_an_object_is_data_error(pipeline, tmp_path,
                                                       capsys):
    data, _ = pipeline
    bad = tmp_path / "bad"
    bad.mkdir()
    (bad / "manifest.json").write_text("[]")
    assert _run_predict(data, bad, tmp_path / "p.json") == 3
    assert "not a JSON object" in capsys.readouterr().err


def test_predict_manifest_not_utf8_is_data_error(pipeline, tmp_path, capsys):
    data, _ = pipeline
    bad = tmp_path / "bad"
    bad.mkdir()
    (bad / "manifest.json").write_bytes(b"\xff\xfe{}")
    assert _run_predict(data, bad, tmp_path / "p.json") == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "unreadable manifest" in err


# A finite value too large for f32 overflows when the normalized scene is
# cast to the run's precision; it must fail closed, not print NaN.

def _edited_copy(pipeline, tmp_path, edit_manifest=None, edit_archive=None):
    data, ckpt = pipeline
    new_data, new_ckpt = tmp_path / "data", tmp_path / "ckpt"
    shutil.copytree(data, new_data)
    shutil.copytree(ckpt, new_ckpt)
    for edit, path in ((edit_manifest, new_ckpt / "manifest.json"),
                       (edit_archive, new_data / "scenes.json")):
        if edit is not None:
            doc = json.loads(path.read_text())
            edit(doc)
            path.write_text(json.dumps(doc))
    return new_data, new_ckpt


def test_predict_normalization_mean_too_large_for_f32_is_data_error(
        pipeline, tmp_path, capsys):
    def edit(doc):
        doc["normalization"]["mean"][0] = -1e308
    data, ckpt = _edited_copy(pipeline, tmp_path, edit_manifest=edit)
    assert _run_predict(data, ckpt, tmp_path / "p.json") == 3
    assert "overflow f32" in capsys.readouterr().err


def test_predict_history_too_large_for_f32_is_data_error(pipeline, tmp_path,
                                                         capsys):
    def edit(doc):
        scene = doc["scenes"][2]
        scene["history"][str(scene["ego"])][0][0] = -1e308
    data, ckpt = _edited_copy(pipeline, tmp_path, edit_archive=edit)
    assert _run_predict(data, ckpt, tmp_path / "p.json") == 3
    assert "overflow f32" in capsys.readouterr().err


def test_eval_future_too_large_for_f32_is_data_error(pipeline, tmp_path,
                                                     capsys):
    def edit(doc):
        doc["scenes"][0]["future"][3][1] = 1e308
    data, ckpt = _edited_copy(pipeline, tmp_path, edit_archive=edit)
    assert run_cli(["eval", "--data", str(data), "--ckpt", str(ckpt),
                    "--samples", "2", "--report", str(tmp_path / "r.json")]) == 3
    assert "overflow f32" in capsys.readouterr().err


# version 1 stored one W and one score vector per GAT head, version 2 the
# embedding as embed.0.W and embed.0.b; a config dimension above the bound
# would allocate without limit before any other check
@pytest.mark.parametrize("section,key,value,message", [
    (None, "version", 1, "version 1, expected 3"),
    (None, "version", 2, "version 2, expected 3"),
    ("config", "hidden", 10 ** 12, "model dimensions above 1024"),
    ("config", "heads", 10 ** 12, "model dimensions above 1024"),
    ("config", "t_n", 10 ** 12, "model dimensions above 1024"),
], ids=["version-1", "version-2", "hidden", "heads", "t_n"])
def test_predict_refused_manifest_is_data_error(pipeline, tmp_path, capsys,
                                                section, key, value, message):
    def edit(doc):
        (doc[section] if section else doc)[key] = value
    data, ckpt = _edited_copy(pipeline, tmp_path, edit_manifest=edit)
    assert _run_predict(data, ckpt, tmp_path / "p.json") == 3
    err = capsys.readouterr().err
    assert _one_error_line(err, "error: ") and message in err


@pytest.mark.parametrize("edit", ["edit_manifest", "edit_archive"])
def test_predict_non_integer_ego_is_data_error(pipeline, tmp_path, capsys,
                                                edit):
    # the manifest's reference context is read as an archive is
    def set_ego(doc):
        doc.get("reference_context", doc)["scenes"][0]["ego"] = 0.9
    data, ckpt = _edited_copy(pipeline, tmp_path, **{edit: set_ego})
    assert _run_predict(data, ckpt, tmp_path / "p.json") == 3
    assert "scene 0 ego 0.9 is not an integer" in capsys.readouterr().err


# A finite parameter near the f32 limit passes every load check, then
# overflows in the forward pass: the command must exit 4 and write nothing,
# not print NaN, which is not JSON.

def _tampered_copy(pipeline, tmp_path, names, value=3e38):
    """A copy of the checkpoint with every entry of the named parameters
    set to value and params_sha256 recomputed, so it loads."""
    _, ckpt = pipeline
    new_ckpt = tmp_path / "ckpt"
    shutil.copytree(ckpt, new_ckpt)
    manifest = json.loads((new_ckpt / "manifest.json").read_text())
    blob = bytearray((new_ckpt / "params.bin").read_bytes())
    for entry in manifest["parameters"]:
        if entry["name"] in names:
            count = int(np.prod(entry["shape"]))
            start = entry["offset"]
            blob[start:start + 4 * count] = np.full(count, value,
                                                    "<f4").tobytes()
    manifest["params_sha256"] = hashlib.sha256(blob).hexdigest()
    (new_ckpt / "params.bin").write_bytes(bytes(blob))
    (new_ckpt / "manifest.json").write_text(json.dumps(manifest))
    return new_ckpt


def _one_error_line(err: str, prefix: str) -> bool:
    """stderr is exactly one line, the error: line that starts with prefix;
    no numpy RuntimeWarning is printed before it."""
    return err.startswith(prefix) and err.count("\n") == 1 and err.endswith("\n")


def test_predict_overflowing_parameter_is_numeric_error(pipeline, tmp_path,
                                                        capsys):
    data, _ = pipeline
    ckpt = _tampered_copy(pipeline, tmp_path, {"decoder.2.W"})
    out = tmp_path / "p.json"
    assert _run_predict(data, ckpt, out) == 4
    assert _one_error_line(capsys.readouterr().err,
                           "error: predict: overflow encountered in ")
    assert not out.exists()


def test_eval_overflowing_parameter_is_numeric_error(pipeline, tmp_path,
                                                     capsys):
    data, _ = pipeline
    ckpt = _tampered_copy(pipeline, tmp_path, {"decoder.2.W"})
    report = tmp_path / "r.json"
    assert run_cli(["eval", "--data", str(data), "--ckpt", str(ckpt),
                    "--samples", "2", "--report", str(report)]) == 4
    assert _one_error_line(capsys.readouterr().err,
                           "error: predict: overflow encountered in ")
    assert not report.exists()


def test_eval_metrics_that_overflow_are_numeric_error(pipeline, tmp_path,
                                                     capsys):
    # a finite, positive sd of 1e180 m passes every load check and gives
    # finite predictions, whose squared errors overflow
    def edit(doc):
        doc["normalization"]["std"][0] = 1e180
    data, ckpt = _edited_copy(pipeline, tmp_path, edit_manifest=edit)
    report = tmp_path / "r.json"
    assert run_cli(["eval", "--data", str(data), "--ckpt", str(ckpt),
                    "--samples", "2", "--report", str(report)]) == 4
    assert _one_error_line(capsys.readouterr().err,
                           "error: evaluate: overflow encountered in ")
    assert not report.exists()


def test_predict_band_that_overflows_is_numeric_error(pipeline, tmp_path,
                                                      capsys):
    # the pooled mean is finite, near the f64 limit, and mean + 1.96 sd is
    # not; the band's own channel names it
    def edit(doc):
        doc["normalization"]["mean"][0] = 1.79e308
        doc["normalization"]["std"][0] = 1e306
    data, ckpt = _edited_copy(pipeline, tmp_path, edit_manifest=edit)
    out = tmp_path / "p.json"
    assert _run_predict(data, ckpt, out) == 4
    assert _one_error_line(capsys.readouterr().err,
                           "error: ci_high: overflow encountered in add")
    assert not out.exists()


def test_attention_overflowing_score_is_numeric_error(pipeline, tmp_path,
                                                      capsys):
    data, _ = pipeline
    ckpt = _tampered_copy(pipeline, tmp_path, {"gat1.a"})
    out = tmp_path / "att.json"
    assert run_cli(["attention", "--data", str(data), "--ckpt", str(ckpt),
                    "--scene", "2", "--out", str(out)]) == 4
    assert _one_error_line(capsys.readouterr().err,
                           "error: attention_maps: overflow encountered in ")
    assert not out.exists()


def test_overflowing_parameter_prints_one_line_in_a_real_process(pipeline,
                                                                 tmp_path):
    # in-process tests turn warnings into errors; a user's process prints
    # them under Python's default filter, so this runs one
    data, _ = pipeline
    ckpt = _tampered_copy(pipeline, tmp_path, {"decoder.2.W"})
    out = tmp_path / "p.json"
    env = {k: v for k, v in _child_env().items() if k != "PYTHONWARNINGS"}
    proc = subprocess.run(
        [sys.executable, "-m", "granp", "predict", "--data", str(data),
         "--ckpt", str(ckpt), "--scene", "2", "--samples", "4",
         "--out", str(out)], capture_output=True, text=True, env=env)
    assert proc.returncode == 4, proc.stderr
    assert _one_error_line(proc.stderr, "error: predict: overflow encountered in "), proc.stderr
    assert not out.exists()


# -- attention -----------------------------------------------------------------

def test_attention_rows_sum_to_one_and_top3_sorted(pipeline, tmp_path, capsys):
    data, ckpt = pipeline
    out = tmp_path / "att.json"
    assert run_cli(["attention", "--data", str(data), "--ckpt", str(ckpt),
                    "--scene", "0", "--out", str(out)]) == 0
    capsys.readouterr()
    doc = json.loads(out.read_text())
    assert doc["ego"] == doc["ids"][0]
    assert len(doc["layers"]) == 2
    for layer in doc["layers"]:
        for head in layer["heads"]:
            assert len(head["weights"]) == len(doc["ids"])
            assert abs(sum(head["weights"]) - 1.0) < 1e-6
    weights = [entry["weight"] for entry in doc["top3"]]
    assert len(weights) == min(3, len(doc["ids"]) - 1)
    assert weights == sorted(weights, reverse=True)
    assert all(entry["id"] != doc["ego"] for entry in doc["top3"])


# -- gradcheck -----------------------------------------------------------------

def test_gradcheck_prints_table_and_passes(monkeypatch, capsys):
    monkeypatch.setattr(cli, "run_gradient_checks",
                        lambda: {"add": 1e-9, "elbo_micro_batch": 2e-5})
    assert run_cli(["gradcheck"]) == 0
    out = capsys.readouterr().out
    assert "add" in out and "ok" in out
    assert "2/2" in out


def test_gradcheck_failure_exits_numeric(monkeypatch, capsys):
    monkeypatch.setattr(cli, "run_gradient_checks",
                        lambda: {"add": 1e-9, "lstm_encoder": 3e-3})
    assert run_cli(["gradcheck"]) == 4
    assert "FAIL" in capsys.readouterr().out


# -- file boundary -------------------------------------------------------------

@pytest.mark.parametrize("command,name", [
    ("synth", "scenes.json"), ("train", "params.bin"),
    ("train", "manifest.json"), ("train", "history.csv"),
    ("eval", "report.json"), ("predict", "p.json"), ("attention", "a.json")])
def test_interrupted_write_keeps_the_old_file(pipeline, tmp_path, monkeypatch,
                                              capsys, command, name):
    """An os.replace that fails on its way to one output leaves that file's
    previous bytes and no temporary file, and exits 3 with one error line."""
    data, ckpt = pipeline
    out = tmp_path / "out"
    out.mkdir()
    (out / name).write_bytes(b"previous")
    argv = {"synth": ["--scenes", "2", "--out", str(out)],
            "train": ["--data", str(data), "--out", str(out), "--epochs", "1",
                      "--hidden", "16", "--heads", "2", "--batch", "8"],
            "eval": ["--data", str(data), "--ckpt", str(ckpt), "--samples",
                     "2", "--report", str(out / name)],
            "predict": ["--data", str(data), "--ckpt", str(ckpt), "--scene",
                        "0", "--samples", "2", "--out", str(out / name)],
            "attention": ["--data", str(data), "--ckpt", str(ckpt),
                          "--scene", "0", "--out", str(out / name)]}
    replace = os.replace

    def interrupted(src, dst):
        if os.path.basename(dst) == name:
            raise OSError(f"interrupted replacing {name}")
        replace(src, dst)

    monkeypatch.setattr(os, "replace", interrupted)
    assert run_cli([command, *argv[command]]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert (out / name).read_bytes() == b"previous"
    assert list(out.glob("*.tmp")) == []


def test_json_outputs_end_with_one_newline_and_load_without_it(
        pipeline, tmp_path, capsys):
    """Archives and manifests written before outputs ended with a newline
    still load, and give the same prediction."""
    data, ckpt = pipeline
    old_data, old_ckpt = tmp_path / "data", tmp_path / "ckpt"
    shutil.copytree(data, old_data)
    shutil.copytree(ckpt, old_ckpt)
    for path in (old_data / "scenes.json", old_ckpt / "manifest.json"):
        text = path.read_bytes()
        assert text.endswith(b"}\n") and not text.endswith(b"\n\n")
        path.write_bytes(text[:-1])
    assert _run_predict(data, ckpt, tmp_path / "new.json") == 0
    assert _run_predict(old_data, old_ckpt, tmp_path / "old.json") == 0
    capsys.readouterr()
    assert ((tmp_path / "new.json").read_bytes()
            == (tmp_path / "old.json").read_bytes())


# -- mutation fuzz -------------------------------------------------------------

FUZZ_VALUES = [None, True, -1, 0, 7, 0.5, -1e308, 1e308, float("nan"),
               float("inf"), "", "x", [], [[]], {}, {"a": 1}]


def _mutate(doc, rng):
    """Copy of a JSON document with one node, reached by a random walk from
    the root, replaced by a fuzz value, deleted or (a list) truncated."""
    doc = copy.deepcopy(doc)
    parent, key, node = None, None, doc
    while (isinstance(node, (dict, list)) and node
           and (parent is None or rng.random() < 0.7)):
        keys = list(node) if isinstance(node, dict) else range(len(node))
        key = keys[int(rng.integers(len(keys)))]
        parent, node = node, node[key]
    if parent is None:
        return FUZZ_VALUES[int(rng.integers(len(FUZZ_VALUES)))]
    op = rng.random()
    if op < 0.15:
        del parent[key]
    elif op < 0.25 and isinstance(node, list):
        del node[len(node) // 2:]
    else:
        parent[key] = FUZZ_VALUES[int(rng.integers(len(FUZZ_VALUES)))]
    return doc


def test_mutated_manifest_and_archive_exit_with_a_documented_code(
        pipeline, tmp_path, capsys):
    """Seeded value and type mutations of a checkpoint manifest and of a
    scene archive, each run through predict and eval: every run ends with
    exit 0, 2, 3 or 4 and none raises."""
    data, ckpt = pipeline
    rng = np.random.default_rng(2024)
    manifest = json.loads((ckpt / "manifest.json").read_text())
    archive = json.loads((data / "scenes.json").read_text())
    escaped = []
    for i in range(60):
        case = tmp_path / str(i)
        fuzz_data, fuzz_ckpt = case / "data", case / "ckpt"
        shutil.copytree(ckpt, fuzz_ckpt)
        fuzz_data.mkdir()
        if i % 2:
            doc, path = archive, fuzz_data / "scenes.json"
        else:
            doc, path = manifest, fuzz_ckpt / "manifest.json"
            shutil.copy(data / "scenes.json", fuzz_data)
        path.write_text(json.dumps(_mutate(doc, rng)))
        runs = {
            "predict": ["predict", "--data", str(fuzz_data), "--ckpt",
                        str(fuzz_ckpt), "--scene", "0", "--samples", "2",
                        "--out", str(case / "p.json")],
            "eval": ["eval", "--data", str(fuzz_data), "--ckpt",
                     str(fuzz_ckpt), "--samples", "2",
                     "--report", str(case / "r.json")]}
        for command, argv in runs.items():
            try:
                code = run_cli(argv)
            except Exception as err:    # an escape is what this test finds
                escaped.append((i, command, repr(err)))
                continue
            if code not in (0, 2, 3, 4):
                escaped.append((i, command, code))
        capsys.readouterr()
    assert escaped == []


# -- module entry point ----------------------------------------------------------

def _child_env() -> dict:
    """The environment of a `python -m granp` child: it imports granp from
    where this process did, installed or not."""
    paths = [str(Path(granp.__file__).parents[1]),
             os.environ.get("PYTHONPATH")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}


def test_python_dash_m_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "granp", "synth", "--scenes", "2",
         "--seed", "1", "--out", str(tmp_path)],
        capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "scenes.json").exists()
