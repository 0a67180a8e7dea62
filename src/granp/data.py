"""Track ingestion, 5 Hz windowing into scenes, z-score normalization,
episode assembly, and the synthetic highway generator."""

import csv
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import DataError, FormatError
from .scene_graph import GRID

T_N = 15            # history steps (3 s at 5 Hz)
T_F = 25            # future steps (5 s at 5 Hz)
TARGET_HZ = 5
WINDOW = T_N + T_F  # 8 s of contiguous samples per scene

CSV_COLUMNS = ("frame", "id", "x", "y", "xVelocity", "yVelocity",
               "xAcceleration", "yAcceleration", "laneId")

LANES_X = (-3.5, 0.0, 3.5)


def seeded_rng(seed) -> np.random.Generator:
    """``np.random.default_rng(seed)``; a seed numpy rejects, such as a
    negative integer, is a DataError that names it."""
    try:
        return np.random.default_rng(seed)
    except (TypeError, ValueError):
        raise DataError(f"seed must be a non-negative integer, got {seed!r}") from None


def _heading_projection(vx, vy, ax, ay):
    """Speed and signed along-heading acceleration from velocity components."""
    s = np.hypot(vx, vy)
    a = (ax * vx + ay * vy) / np.maximum(s, 1e-6)
    return s, a


@dataclass
class RawTrack:
    vid: int
    frames: np.ndarray      # [n] int, strictly increasing, contiguous
    states: np.ndarray      # [n, 4] -> x, y, s, a
    lane: np.ndarray        # [n] int

    def __post_init__(self):
        if len(self.frames) > 1 and not (np.diff(self.frames) == 1).all():
            raise DataError(f"track {self.vid}: frames not contiguous")

    @classmethod
    def from_kinematics(cls, vid, frames, x, y, vx, vy, ax, ay, lane):
        s, a = _heading_projection(np.asarray(vx, dtype=np.float64),
                                   np.asarray(vy, dtype=np.float64),
                                   np.asarray(ax, dtype=np.float64),
                                   np.asarray(ay, dtype=np.float64))
        states = np.stack([np.asarray(x, dtype=np.float64),
                           np.asarray(y, dtype=np.float64), s, a], axis=1)
        return cls(vid=vid, frames=np.asarray(frames, dtype=np.int64),
                   states=states, lane=np.asarray(lane, dtype=np.int64))


@dataclass
class TrajectoryScene:
    """One prediction sample: per-vehicle 3 s histories and the ego's 5 s
    future, all at 5 Hz.  Positions are meters relative to the ego at the
    final history step."""

    ego: int
    history: dict           # vehicle id -> [T_N, 4] of (x, y, s, a)
    future: np.ndarray      # [T_F, 2] of (x, y)

    def __post_init__(self):
        if self.ego not in self.history:
            raise DataError(f"ego {self.ego} missing from history")
        for vid, h in self.history.items():
            if h.shape != (T_N, 4):
                raise DataError(f"vehicle {vid}: history shape {h.shape}, "
                                f"expected {(T_N, 4)}")
        if self.future.shape != (T_F, 2):
            raise DataError(f"future shape {self.future.shape}, expected "
                            f"{(T_F, 2)}")


def ingest_tracks(path) -> list:
    """Parse a tracks CSV into RawTrack objects grouped by vehicle id."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            try:
                header = tuple(next(reader))
            except StopIteration:
                raise FormatError(f"{path}: empty file") from None
            if header != CSV_COLUMNS:
                missing = [c for c in CSV_COLUMNS if c not in header]
                if missing:
                    raise FormatError(f"{path}: missing column '{missing[0]}'")
                raise FormatError(f"{path}: header {header} does not match "
                                  f"{CSV_COLUMNS}")
            rows = {}
            for i, row in enumerate(reader, start=1):
                if len(row) != len(CSV_COLUMNS):
                    raise FormatError(f"{path}: row {i} has {len(row)} fields")
                try:
                    frame, vid, lane = int(row[0]), int(row[1]), int(row[8])
                    vals = [float(v) for v in row[2:8]]
                except ValueError:
                    raise FormatError(f"{path}: non-numeric value in row {i}") from None
                for col, v in zip(CSV_COLUMNS[2:8], vals):
                    if not math.isfinite(v):
                        raise FormatError(f"{path}: non-finite {col} in row {i}")
                rows.setdefault(vid, []).append((frame, *vals, lane))
    except (UnicodeDecodeError, csv.Error) as e:
        raise FormatError(f"{path}: unreadable CSV ({e})") from None
    tracks = []
    for vid in sorted(rows):
        rec = sorted(rows[vid])
        arr = np.array([r[:7] for r in rec], dtype=np.float64)
        tracks.append(RawTrack.from_kinematics(
            vid, arr[:, 0].astype(np.int64), arr[:, 1], arr[:, 2],
            arr[:, 3], arr[:, 4], arr[:, 5], arr[:, 6],
            [r[7] for r in rec]))
    return tracks


def resample_and_window(tracks, source_hz: int, ego_ids=None):
    """Downsample to 5 Hz and slide 8 s windows over each ego track.

    Returns (scenes, skipped) where skipped counts ego tracks shorter than
    one window.  A neighbor joins a scene only if its track spans the whole
    history window and it sits inside the grid at the last history step.
    """
    if source_hz <= 0 or source_hz % TARGET_HZ != 0:
        raise DataError(f"source rate {source_hz} is not a positive multiple "
                        f"of {TARGET_HZ}")
    step = source_hz // TARGET_HZ
    by_id = {t.vid: t for t in tracks}
    if len(by_id) != len(tracks):
        raise DataError("duplicate vehicle ids across tracks")
    if ego_ids is None:
        ego_ids = sorted(by_id)
    unknown = [v for v in ego_ids if v not in by_id]
    if unknown:
        raise DataError(f"ego ids without a track: {unknown}")

    sampled = {}
    for vid, tr in by_id.items():
        count = len(tr.frames) // step
        keep = np.arange(count) * step
        sampled[vid] = (tr.frames[keep], tr.states[keep])

    scenes = []
    skipped = 0
    for ego in ego_ids:
        frames, states = sampled[ego]
        if len(frames) < WINDOW:
            skipped += 1
            continue
        for w in range(len(frames) - WINDOW + 1):
            ref = w + T_N - 1
            origin = states[ref, :2]
            ego_hist = states[w:w + T_N].copy()
            ego_hist[:, :2] -= origin
            history = {ego: ego_hist}
            for vid, (nf, ns) in sampled.items():
                if vid == ego or len(nf) == 0:
                    continue
                lo = frames[w] - nf[0]
                if lo < 0 or nf[0] + (len(nf) - 1) * step < frames[ref]:
                    continue
                if lo % step != 0:
                    continue
                lo //= step
                pos = ns[lo + T_N - 1, :2]
                if not GRID.contains(pos[0] - states[ref, 0],
                                     pos[1] - states[ref, 1]):
                    continue
                hist = ns[lo:lo + T_N].copy()
                hist[:, :2] -= origin
                history[vid] = hist
            future = states[w + T_N:w + WINDOW, :2] - origin
            scenes.append(TrajectoryScene(ego=ego, history=history,
                                          future=future))
    return scenes, skipped


@dataclass
class NormalizationStats:
    """Per-feature z-score parameters for (x, y, s, a), fitted on history
    states of the training split: four finite means and four finite,
    positive sds, or a DataError."""

    mean: np.ndarray    # [4]
    std: np.ndarray     # [4], guarded to be >= 1e-8 -> 1

    def __post_init__(self):
        for name, v in (("mean", self.mean), ("std", self.std)):
            if np.shape(v) != (4,) or not np.isfinite(v).all():
                raise DataError(f"normalization {name} "
                                f"{np.asarray(v).tolist()} is not 4 finite values")
        if not (np.asarray(self.std) > 0).all():
            raise DataError("normalization std is not positive")

    @classmethod
    def fit(cls, scenes):
        """Moments of every history state; a state so large that they
        overflow is a DataError, not a zeroed feature."""
        if len(scenes) < 2:
            raise DataError(f"need at least 2 scenes to fit, got {len(scenes)}")
        states = np.concatenate([h for sc in scenes
                                 for h in sc.history.values()], axis=0)
        with np.errstate(over="ignore", invalid="ignore"):   # __post_init__ checks
            mean = states.mean(axis=0)
            std = states.std(axis=0)
        std = np.where(std < 1e-8, 1.0, std)
        return cls(mean=mean, std=std)

    def apply_states(self, arr):
        return (np.asarray(arr) - self.mean) / self.std

    def invert_states(self, arr):
        return np.asarray(arr) * self.std + self.mean

    def apply_xy(self, arr):
        return (np.asarray(arr) - self.mean[:2]) / self.std[:2]

    def invert_xy(self, arr):
        return np.asarray(arr) * self.std[:2] + self.mean[:2]

    def scale_xy(self, arr):
        """Scale spreads (no shift): for standard deviations."""
        return np.asarray(arr) * self.std[:2]


@dataclass
class PreparedBatch:
    """Scene batch with its context prefix: context = scenes[:m], and every
    scene is a target."""

    scenes: list
    m: int

    def __post_init__(self):
        if not 1 <= self.m <= len(self.scenes):
            raise DataError(f"context size {self.m} outside batch of "
                            f"{len(self.scenes)}")


def make_episode(scenes, seed) -> PreparedBatch:
    """Seeded shuffle, then context size m ~ Uniform[3, N] as the prefix."""
    n = len(scenes)
    if n < 3:
        raise DataError(f"episode needs at least 3 scenes, got {n}")
    rng = seeded_rng(seed)
    order = rng.permutation(n)
    m = int(rng.integers(3, n + 1))
    return PreparedBatch(scenes=[scenes[i] for i in order], m=m)


# ---------------------------------------------------------------------------
# Synthetic highway scenes

def smoothstep(u):
    u = np.clip(u, 0.0, 1.0)
    return 3.0 * u ** 2 - 2.0 * u ** 3


def _fd(p, dt):
    """Central finite differences, one-sided at the ends."""
    v = np.empty_like(p)
    v[1:-1] = (p[2:] - p[:-2]) / (2 * dt)
    v[0] = (p[1] - p[0]) / dt
    v[-1] = (p[-1] - p[-2]) / dt
    return v


def _track_from_positions(vid, x, y, dt):
    vx, vy = _fd(x, dt), _fd(y, dt)
    ax, ay = _fd(vx, dt), _fd(vy, dt)
    lane = np.argmin(np.abs(x[:, None] - np.array(LANES_X)), axis=1) + 1
    return RawTrack.from_kinematics(vid, np.arange(len(x)), x, y,
                                    vx, vy, ax, ay, lane)


def _synth_tracks(rng, lane_keep: bool):
    n, dt = 200, 0.04     # 8 s at 25 Hz -> exactly one window
    t = np.arange(n) * dt
    v_ego = rng.uniform(25.0, 35.0)
    lane_i = int(rng.integers(0, 3))
    x0 = LANES_X[lane_i]
    y_ego = v_ego * t
    if lane_keep:
        # band-limited jitter: iid noise would make 25 Hz and 5 Hz finite
        # differences disagree by ~1 m/s, breaking kinematic consistency
        freq = rng.uniform(0.2, 0.5)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        x_ego = x0 + 0.05 * np.sqrt(2.0) * np.sin(2.0 * np.pi * freq * t + phase)
    else:
        t_lc = rng.uniform(3.0, 5.0)
        if lane_i == 0:
            d = 3.5
        elif lane_i == 2:
            d = -3.5
        else:
            d = 3.5 if rng.random() < 0.5 else -3.5
        x_ego = x0 + d * smoothstep(t / t_lc)
    tracks = [_track_from_positions(0, x_ego, y_ego, dt)]

    t_ref = (T_N - 1) / TARGET_HZ          # gating time within the window
    y_ref = v_ego * t_ref
    k = int(rng.integers(2, 7))
    adjacent = [j for j in range(3) if abs(j - lane_i) == 1]
    for j in range(k):
        lane_j = adjacent[int(rng.integers(0, len(adjacent)))]
        dy = rng.uniform(-28.0, 28.0)       # inside the grid at the gate
        v_j = v_ego + rng.uniform(-5.0, 5.0)
        yj = (y_ref + dy) + v_j * (t - t_ref)
        xj = np.full(n, LANES_X[lane_j])
        tracks.append(_track_from_positions(j + 1, xj, yj, dt))
    return tracks


def synth_scenes(count: int, seed, mix: float = 0.5):
    """Generate highway scenes: `mix` fraction lane-keeping, rest
    lane-changing, each producing exactly one 8 s window."""
    if count < 1:
        raise DataError(f"count must be >= 1, got {count}")
    if not 0.0 <= mix <= 1.0:
        raise DataError(f"mix must be in [0, 1], got {mix}")
    rng = seeded_rng(seed)
    n_keep = int(round(count * mix))
    scenes = []
    for i in range(count):
        tracks = _synth_tracks(rng, lane_keep=i < n_keep)
        got, _ = resample_and_window(tracks, 25, ego_ids=(0,))
        scenes.extend(got)
    return scenes


# ---------------------------------------------------------------------------
# Scene archive, and the file boundary: one atomic writer, one JSON text rule
# and one JSON reader

def scenes_to_doc(scenes) -> dict:
    return {"rate_hz": TARGET_HZ, "scenes": [
        {"ego": int(sc.ego),
         "history": {str(vid): h.tolist() for vid, h in sc.history.items()},
         "future": sc.future.tolist()}
        for sc in scenes]}


def scenes_from_doc(doc, where: str = "scene archive"):
    try:
        if doc["rate_hz"] != TARGET_HZ:
            raise FormatError(f"{where}: rate_hz {doc['rate_hz']}, expected "
                              f"{TARGET_HZ}")
        scenes = []
        for i, entry in enumerate(doc["scenes"]):
            if not isinstance(entry["history"], dict):
                raise FormatError(f"{where}: scene {i} history is not an "
                                  f"object")
            history = {}
            for key, h in entry["history"].items():
                # only the canonical form, or "01", "+1", " 1" and "1_0"
                # would each alias an id
                if str(int(key)) != key:
                    raise FormatError(f"{where}: scene {i} history key "
                                      f"{key!r} is not a canonical integer id")
                history[int(key)] = np.array(h, dtype=np.float64)
            future = np.array(entry["future"], dtype=np.float64)
            named = [("future", future)] + [(f"history of vehicle {vid}", h)
                                            for vid, h in history.items()]
            for name, arr in named:
                if not np.isfinite(arr).all():
                    raise FormatError(f"{where}: scene {i} {name} is not finite")
            ego = entry["ego"]
            if isinstance(ego, bool) or not isinstance(ego, int):
                raise FormatError(f"{where}: malformed scene archive (scene "
                                  f"{i} ego {ego!r} is not an integer)")
            try:
                scenes.append(TrajectoryScene(
                    ego=ego, history=history, future=future))
            except DataError as err:
                raise FormatError(f"{where}: scene {i}: {err}") from None
    except (KeyError, TypeError, ValueError, OverflowError) as e:
        raise FormatError(f"{where}: malformed scene archive ({e})") from None
    return scenes


def save_scenes(scenes, path):
    write_json(path, scenes_to_doc(scenes))


def load_scenes(path):
    return scenes_from_doc(read_json(path, "scene archive"), where=str(path))


def write_atomic(path, data: bytes):
    """Write through a temporary file in the same directory, then rename it
    over path, so a reader sees the old file or the new one, never a part."""
    path = os.path.realpath(path)   # replace a symlink's target, not the link
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


def dump_json(doc) -> str:
    """The JSON text of every document granp writes: sorted keys, no spaces."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def write_json(path, doc):
    write_atomic(path, (dump_json(doc) + "\n").encode("utf-8"))


def _unique_keys(pairs):
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise ValueError(f"duplicate key {key!r}")
        doc[key] = value
    return doc


def read_json(path, what: str):
    """Parse a UTF-8 JSON file; a failure, a key given twice in one object
    included, is a FormatError naming `what`."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh, object_pairs_hook=_unique_keys)
    except (OSError, ValueError, RecursionError) as e:
        # ValueError covers JSONDecodeError and UnicodeDecodeError
        raise FormatError(f"{path}: unreadable {what} ({e})") from None
