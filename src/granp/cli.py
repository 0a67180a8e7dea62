"""Command-line pipeline: scene synthesis, training, evaluation, prediction
with uncertainty bands, attention export, and the gradient-check table.

Exit codes: 0 success, 2 usage, 3 data or file format, 4 numeric failure.
The GRANP_PRECISION environment variable ("f32" or "f64") sets the global
floating-point precision before any command runs.
"""

import argparse
import os
import sys
from dataclasses import asdict

import numpy as np

from . import autodiff as ad
from .data import (TARGET_HZ, load_scenes, save_scenes, synth_scenes,
                   write_json)
from .errors import GranpError, NumericError
from .model import ModelConfig, prepare_scene, prepare_scenes
from .training import (TrainSettings, evaluate, load_checkpoint,
                       save_checkpoint, save_history, train)
from .verification import GRAD_TOLERANCE, run_gradient_checks

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

ARCHIVE_NAME = "scenes.json"


def _data_path(path: str) -> str:
    return os.path.join(path, ARCHIVE_NAME) if os.path.isdir(path) else path


def _scene_index_ok(index: int, count: int) -> bool:
    if 0 <= index < count:
        return True
    print(f"error: scene index {index} outside [0, {count - 1}]",
          file=sys.stderr)
    return False


def attention_export(ids, per_layer) -> dict:
    """Ego-row attention at the last history step, per layer and head, plus
    the top three neighbors ranked by the final layer's head-average."""
    layer_docs = []
    for li, att in enumerate(per_layer):
        rows = [{"head": h, "weights": att[h, -1, 0, :].tolist()}
                for h in range(att.shape[0])]
        layer_docs.append({"layer": li, "heads": rows})
    mean_row = per_layer[-1][:, -1, 0, :].mean(axis=0)
    ranked = 1 + np.argsort(mean_row[1:])[::-1][:3]     # ego sits at row 0
    return {"ids": [int(v) for v in ids], "ego": int(ids[0]),
            "layers": layer_docs,
            "top3": [{"id": int(ids[j]), "weight": float(mean_row[j])}
                     for j in ranked]}


def _cmd_synth(args) -> int:
    scenes = synth_scenes(args.scenes, seed=args.seed, mix=args.mix)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, ARCHIVE_NAME)
    save_scenes(scenes, path)
    print(f"wrote {len(scenes)} scenes to {path}")
    return EXIT_OK


def _cmd_train(args) -> int:
    scenes = load_scenes(_data_path(args.data))
    config = ModelConfig(hidden=args.hidden, heads=args.heads,
                         latent=args.latent)
    settings = TrainSettings(epochs=args.epochs, lr=args.lr,
                             batch_size=args.batch)
    result = train(scenes, config, settings, seed=args.seed)
    save_checkpoint(args.out, result.model, result.stats, result.reference)
    save_history(result.history, os.path.join(args.out, "history.csv"))
    print(f"trained {len(result.history)} epochs on {len(scenes)} scenes; "
          f"best validation NLL {result.val_nll[result.best_epoch - 1]:.4f} "
          f"at epoch {result.best_epoch}; checkpoint in {args.out}")
    return EXIT_OK


def _cmd_eval(args) -> int:
    scenes = load_scenes(_data_path(args.data))
    model, stats, reference = load_checkpoint(args.ckpt)
    report = evaluate(model, scenes, stats, reference, samples=args.samples)
    write_json(args.report, asdict(report))
    print(report.to_json())
    return EXIT_OK


def _cmd_predict(args) -> int:
    scenes = load_scenes(_data_path(args.data))
    if not _scene_index_ok(args.scene, len(scenes)):
        return EXIT_USAGE
    model, stats, reference = load_checkpoint(args.ckpt)
    target = prepare_scene(scenes[args.scene], stats)
    context = prepare_scenes(reference, stats)
    pred = model.predict([target], context, stats, samples=args.samples,
                         seed=args.seed)[0]
    write_json(args.out, {
        "scene": args.scene, "rate_hz": TARGET_HZ,
        "mean": pred.mean.tolist(), "sd": pred.std.tolist(),
        "ci_low": pred.ci_low.tolist(), "ci_high": pred.ci_high.tolist(),
        "samples": pred.samples.tolist()})
    print(f"wrote {args.samples}-sample prediction for scene {args.scene} "
          f"to {args.out}")
    return EXIT_OK


def _cmd_attention(args) -> int:
    scenes = load_scenes(_data_path(args.data))
    if not _scene_index_ok(args.scene, len(scenes)):
        return EXIT_USAGE
    model, stats, _ = load_checkpoint(args.ckpt)
    ids, per_layer = model.attention_maps(prepare_scene(scenes[args.scene],
                                                        stats))
    doc = attention_export(ids, per_layer)
    doc["scene"] = args.scene
    write_json(args.out, doc)
    print(f"wrote attention for scene {args.scene} "
          f"({len(ids)} vehicles) to {args.out}")
    return EXIT_OK


def _cmd_gradcheck(args) -> int:
    results = run_gradient_checks()
    width = max(len(name) for name in results)
    failed = [name for name, err in results.items()
              if not err < GRAD_TOLERANCE]
    for name, err in results.items():
        status = "FAIL" if name in failed else "ok"
        print(f"{name:<{width}}  {err:9.3e}  {status}")
    print(f"{len(results) - len(failed)}/{len(results)} gradient checks "
          f"within {GRAD_TOLERANCE:g}")
    return EXIT_NUMERIC if failed else EXIT_OK


def _at_least(low: int):
    """argparse type of an integer flag: below low is a usage error."""
    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    return integer


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="granp",
        description="Trajectory prediction on synthetic highway scenes.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic scene archive")
    p.add_argument("--scenes", type=_at_least(1), required=True,
                   help="number of scenes")
    p.add_argument("--seed", type=_at_least(0), default=0)
    p.add_argument("--mix", type=float, default=0.7,
                   help="fraction of lane-keeping scenes (default 0.7)")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("train", help="train a model on a scene archive")
    p.add_argument("--data", required=True,
                   help="scene archive file or its directory")
    p.add_argument("--out", required=True, help="checkpoint directory")
    p.add_argument("--epochs", type=int, default=200)
    p.add_argument("--lr", type=float, default=5e-4)
    p.add_argument("--batch", type=int, default=32)
    p.add_argument("--hidden", type=int, default=64,
                   choices=[16, 32, 64, 128])
    p.add_argument("--heads", type=int, default=4, choices=[2, 4, 8])
    p.add_argument("--latent", type=int, default=0,
                   help="latent dimension (0 matches --hidden)")
    p.add_argument("--seed", type=_at_least(0), default=0)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="per-horizon RMSE and NLL on an archive")
    p.add_argument("--data", required=True)
    p.add_argument("--ckpt", required=True, help="checkpoint directory")
    p.add_argument("--report", required=True, help="output JSON file")
    p.add_argument("--samples", type=_at_least(1), default=30)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("predict",
                       help="predict one scene with uncertainty bands")
    p.add_argument("--data", required=True)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--scene", type=int, required=True,
                   help="scene index into the archive")
    p.add_argument("--samples", type=_at_least(1), default=30)
    p.add_argument("--seed", type=_at_least(0), default=0)
    p.add_argument("--out", required=True, help="output JSON file")
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("attention",
                       help="export ego-row attention weights for one scene")
    p.add_argument("--data", required=True)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--scene", type=int, required=True)
    p.add_argument("--out", required=True, help="output JSON file")
    p.set_defaults(func=_cmd_attention)

    p = sub.add_parser("gradcheck",
                       help="finite-difference check of every gradient path")
    p.set_defaults(func=_cmd_gradcheck)
    return parser


def run_cli(argv=None) -> int:
    env = os.environ.get("GRANP_PRECISION")
    if env:
        try:
            ad.set_precision(env)
        except GranpError as err:
            print(f"error: {err}", file=sys.stderr)
            return EXIT_USAGE
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        # names the command for what it computes outside the library's own
        # channels, such as a band or a metric of finite predictions
        with ad.numeric_errors(args.command):
            return args.func(args)
    except NumericError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_NUMERIC
    except (GranpError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_DATA


def main() -> None:
    sys.exit(run_cli())
