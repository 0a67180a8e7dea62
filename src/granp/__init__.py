"""Vehicle trajectory prediction on highway scenes: graph attention and an
LSTM encode the scene, an attentive-neural-process head emits per-step
Gaussian futures.  Ships its own reverse-mode autodiff engine, a synthetic
scene generator, training and evaluation harnesses, and a CLI."""

from .data import (NormalizationStats, PreparedBatch, RawTrack,
                   TrajectoryScene, ingest_tracks, load_scenes, make_episode,
                   resample_and_window, save_scenes, synth_scenes)
from .errors import DataError, FormatError, GranpError, NumericError, ShapeError
from .model import (GranpModel, LatentDistribution, ModelConfig,
                    PredictiveDistribution, PreparedScene, kl_diag,
                    prepare_scene, prepare_scenes, sample_latent)
from .scene_graph import OccupancyGrid
from .training import (AdamState, EvalReport, TrainResult, TrainSettings,
                       baseline_report, evaluate, load_checkpoint,
                       save_checkpoint, train)
from .verification import GRAD_TOLERANCE, run_gradient_checks

__version__ = "0.1.0"

__all__ = [
    "AdamState", "DataError", "EvalReport", "FormatError", "GRAD_TOLERANCE",
    "GranpError", "GranpModel", "LatentDistribution", "ModelConfig",
    "NormalizationStats", "NumericError", "OccupancyGrid",
    "PredictiveDistribution", "PreparedBatch", "PreparedScene", "RawTrack",
    "ShapeError", "TrainResult", "TrainSettings", "TrajectoryScene",
    "baseline_report", "evaluate", "ingest_tracks", "kl_diag",
    "load_checkpoint", "load_scenes", "make_episode", "prepare_scene",
    "prepare_scenes", "resample_and_window", "run_gradient_checks",
    "sample_latent", "save_checkpoint", "save_scenes", "synth_scenes", "train",
]
