"""Data pipeline checks: CSV ingestion, windowing arithmetic, z-score
round-trips, episode splits, synthetic kinematics, archives."""

import ast
import json
import re
from pathlib import Path

import numpy as np
import pytest

from granp import data
from granp.errors import DataError, FormatError

HEADER = "frame,id,x,y,xVelocity,yVelocity,xAcceleration,yAcceleration,laneId"


def _write_csv(path, rows):
    path.write_text(HEADER + "\n" + "\n".join(rows) + "\n")
    return str(path)


def _straight_track(vid, n, v=30.0, x=0.0, first_frame=0, y0=0.0):
    dt = 0.04
    t = np.arange(n) * dt
    return data.RawTrack.from_kinematics(
        vid, np.arange(first_frame, first_frame + n),
        np.full(n, x), y0 + v * t, np.zeros(n), np.full(n, v),
        np.zeros(n), np.zeros(n), np.ones(n, dtype=int))


# ---------------------------------------------------------------------------
# ingestion

def test_ingest_round_trip(tmp_path):
    p = _write_csv(tmp_path / "t.csv", [
        "0,1,10.0,5.0,30.0,0.0,2.0,0.0,2",
        "1,1,10.0,6.2,30.0,0.0,2.0,0.0,2",
        "2,1,10.0,7.4,30.0,0.0,2.0,0.0,2",
    ])
    tracks = data.ingest_tracks(p)
    assert len(tracks) == 1 and tracks[0].vid == 1
    np.testing.assert_array_equal(tracks[0].states[:, 0], 10.0)
    np.testing.assert_allclose(tracks[0].states[0, 1], 5.0)
    # vx=30, vy=0, ax=2, ay=0 -> s=30, a=2
    np.testing.assert_allclose(tracks[0].states[:, 2], 30.0)
    np.testing.assert_allclose(tracks[0].states[:, 3], 2.0)


def test_ingest_zero_speed_guard(tmp_path):
    p = _write_csv(tmp_path / "t.csv", [
        "0,1,0,0,0,0,1.0,1.0,1",
        "1,1,0,0,0,0,1.0,1.0,1",
    ])
    tr = data.ingest_tracks(p)[0]
    assert tr.states[0, 2] == 0.0 and tr.states[0, 3] == 0.0


def test_ingest_missing_column(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("frame,id,x,y,xVelocity,yVelocity,xAcceleration,yAcceleration\n")
    with pytest.raises(FormatError, match="laneId"):
        data.ingest_tracks(str(p))


def test_ingest_non_numeric_names_row(tmp_path):
    p = _write_csv(tmp_path / "t.csv", [
        "0,1,0,0,0,0,0,0,1",
        "1,1,abc,0,0,0,0,0,1",
    ])
    with pytest.raises(FormatError, match="row 2"):
        data.ingest_tracks(p)


@pytest.mark.parametrize("value,column", [("nan", 2), ("inf", 5), ("-inf", 7)])
def test_ingest_non_finite_names_file_and_field(tmp_path, value, column):
    row = ["1", "1", "0", "0", "0", "0", "0", "0", "1"]
    row[column] = value
    p = _write_csv(tmp_path / "t.csv", ["0,1,0,0,0,0,0,0,1", ",".join(row)])
    name = HEADER.split(",")[column]
    with pytest.raises(FormatError, match=f"t.csv: non-finite {name} in row 2"):
        data.ingest_tracks(p)


@pytest.mark.parametrize("content", [
    b"\xff\xfe" + HEADER.encode(),
    (HEADER + '\n"' + "1" * 200000 + "\n").encode()],
    ids=["not-utf8", "field-over-csv-limit"])
def test_ingest_unreadable_file_is_format_error(tmp_path, content):
    p = tmp_path / "tracks.csv"
    p.write_bytes(content)
    with pytest.raises(FormatError, match="tracks.csv: unreadable CSV"):
        data.ingest_tracks(p)


def test_ingest_gap_in_frames_rejected(tmp_path):
    p = _write_csv(tmp_path / "t.csv", [
        "0,1,0,0,0,0,0,0,1",
        "2,1,0,0,0,0,0,0,1",
    ])
    with pytest.raises(DataError, match="contiguous"):
        data.ingest_tracks(p)


# ---------------------------------------------------------------------------
# windowing

def test_window_arithmetic_200_frames_one_scene():
    scenes, skipped = data.resample_and_window([_straight_track(1, 200)], 25)
    assert len(scenes) == 1 and skipped == 0
    sc = scenes[0]
    assert sc.history[1].shape == (15, 4) and sc.future.shape == (25, 2)


def test_window_arithmetic_199_frames_zero_scenes():
    scenes, skipped = data.resample_and_window([_straight_track(1, 199)], 25)
    assert scenes == [] and skipped == 1


def test_stride_one_yields_extra_window():
    scenes, _ = data.resample_and_window([_straight_track(1, 205)], 25)
    assert len(scenes) == 2


def test_downsample_keeps_first_frame_exactly():
    tr = _straight_track(1, 200, v=30.0)
    scenes, _ = data.resample_and_window([tr], 25)
    origin = tr.states[70, :2]  # sample 14 at 25 Hz
    np.testing.assert_array_equal(scenes[0].history[1][0, :2],
                                  tr.states[0, :2] - origin)
    np.testing.assert_array_equal(scenes[0].history[1][0, 2:], tr.states[0, 2:])


def test_ego_recentered_at_last_history_step():
    scenes, _ = data.resample_and_window([_straight_track(1, 200)], 25)
    np.testing.assert_array_equal(scenes[0].history[1][-1, :2], 0.0)


def test_neighbor_rules():
    ego = _straight_track(1, 200)
    near = _straight_track(2, 200, x=3.5, y0=10.0)
    far = _straight_track(3, 200, x=3.5, y0=40.0)       # outside grid at gate
    late = _straight_track(4, 170, x=-3.5, first_frame=30)  # misses window start
    scenes, _ = data.resample_and_window([ego, near, far, late], 25,
                                         ego_ids=(1,))
    assert set(scenes[0].history) == {1, 2}


def test_unknown_ego_id_is_data_error():
    with pytest.raises(DataError, match="99"):
        data.resample_and_window([_straight_track(1, 200)], 25, ego_ids=[99])


def test_neighbor_phase_alignment():
    ego = _straight_track(1, 200, first_frame=5)
    aligned = _straight_track(2, 210, x=3.5, y0=6.0, first_frame=0)
    offgrid_phase = _straight_track(3, 210, x=-3.5, y0=6.0, first_frame=2)
    scenes, _ = data.resample_and_window([ego, aligned, offgrid_phase], 25,
                                         ego_ids=(1,))
    assert set(scenes[0].history) == {1, 2}


def test_bad_source_rate_rejected():
    with pytest.raises(DataError):
        data.resample_and_window([_straight_track(1, 200)], 24)


@pytest.mark.parametrize("hz", [0, -25])
def test_non_positive_source_rate_rejected(hz):
    with pytest.raises(DataError, match="positive"):
        data.resample_and_window([_straight_track(1, 200)], hz)


def test_scene_shape_validation():
    with pytest.raises(DataError):
        data.TrajectoryScene(ego=1, history={1: np.zeros((14, 4))},
                             future=np.zeros((25, 2)))
    with pytest.raises(DataError):
        data.TrajectoryScene(ego=2, history={1: np.zeros((15, 4))},
                             future=np.zeros((25, 2)))


# ---------------------------------------------------------------------------
# normalization

def _toy_scenes(seed=0, count=4):
    return data.synth_scenes(count, seed)


def test_zscore_fit_apply_statistics():
    scenes = _toy_scenes()
    stats = data.NormalizationStats.fit(scenes)
    states = np.concatenate([stats.apply_states(h) for sc in scenes
                             for h in sc.history.values()], axis=0)
    np.testing.assert_allclose(states.mean(axis=0), 0.0, atol=1e-6)
    np.testing.assert_allclose(states.std(axis=0), 1.0, atol=1e-6)


def test_zscore_round_trip():
    scenes = _toy_scenes(1)
    stats = data.NormalizationStats.fit(scenes)
    arr = scenes[0].history[0]
    np.testing.assert_allclose(stats.invert_states(stats.apply_states(arr)),
                               arr, atol=1e-9)
    np.testing.assert_allclose(stats.invert_xy(stats.apply_xy(arr[:, :2])),
                               arr[:, :2], atol=1e-9)


def test_zscore_constant_feature_guard():
    h = np.zeros((15, 4))
    h[:, 1] = np.arange(15.0)
    scenes = [data.TrajectoryScene(ego=1, history={1: h.copy()},
                                   future=np.zeros((25, 2)))
              for _ in range(3)]
    stats = data.NormalizationStats.fit(scenes)
    assert stats.std[0] == 1.0  # constant x: guard replaces ~0 std
    np.testing.assert_array_equal(stats.apply_states(h)[:, 0], 0.0)


@pytest.mark.parametrize("mean,std,match", [
    ([0.0, np.inf, 0.0, 0.0], [1.0] * 4, r"mean \[0.0, inf, 0.0, 0.0\] is not 4 finite"),
    ([0.0] * 3, [1.0] * 4, "mean .* is not 4 finite"),
    ([0.0] * 4, [1.0, np.nan, 1.0, 1.0], "std .* is not 4 finite"),
    ([0.0] * 4, [1.0, 0.0, 1.0, 1.0], "std is not positive"),
], ids=["infinite-mean", "three-means", "nan-sd", "zero-sd"])
def test_normalization_stats_need_four_finite_means_and_positive_sds(mean, std, match):
    with pytest.raises(DataError, match=f"^normalization {match}"):
        data.NormalizationStats(mean=np.array(mean), std=np.array(std))


@pytest.mark.parametrize("huge_states,feature", [(1, "std"), (2, "mean")])
def test_fit_rejects_states_whose_moments_overflow(huge_states, feature):
    # one 1.7e308 overflows the square in the std; two overflow the sum
    scenes = _toy_scenes()
    for sc in scenes[:huge_states]:
        sc.history[sc.ego][4, 0] = 1.7e308
    with pytest.raises(DataError, match=rf"^normalization {feature} \[(inf|nan), "):
        data.NormalizationStats.fit(scenes)


def test_fit_needs_two_scenes():
    with pytest.raises(DataError):
        data.NormalizationStats.fit(_toy_scenes(count=2)[:1])


# ---------------------------------------------------------------------------
# episodes

def test_make_episode_structure():
    scenes = _toy_scenes(2, count=8)
    ep = data.make_episode(scenes, 0)
    assert len(ep.scenes) == 8 and 3 <= ep.m <= 8
    assert sorted(map(id, ep.scenes)) == sorted(map(id, scenes))


def test_make_episode_deterministic():
    scenes = _toy_scenes(3, count=6)
    a, b = data.make_episode(scenes, 42), data.make_episode(scenes, 42)
    assert a.m == b.m
    assert all(x is y for x, y in zip(a.scenes, b.scenes))


def test_make_episode_n3_forces_context_equals_target():
    scenes = _toy_scenes(4, count=3)
    ep = data.make_episode(scenes, 0)
    assert ep.m == len(ep.scenes) == 3


def test_make_episode_too_small():
    with pytest.raises(DataError):
        data.make_episode(_toy_scenes(count=3)[:2], 0)


@pytest.mark.parametrize("m", [0, 4])
def test_prepared_batch_rejects_context_outside_batch(m):
    with pytest.raises(DataError, match="context size"):
        data.PreparedBatch(scenes=[object()] * 3, m=m)


# ---------------------------------------------------------------------------
# synthetic scenes

def test_smoothstep_midpoint():
    assert data.smoothstep(0.5) == 0.5
    assert data.smoothstep(-1.0) == 0.0 and data.smoothstep(2.0) == 1.0


def test_synth_lane_keep_displacement():
    scenes = data.synth_scenes(5, 11, mix=1.0)
    for sc in scenes:
        v = sc.history[sc.ego][:, 2].mean()
        assert 25.0 <= v <= 35.0
        disp = sc.future[-1, 1]  # ego y is 0 at the last history step
        np.testing.assert_allclose(disp, v * 5.0, atol=0.05)


def test_synth_speed_consistent_with_positions():
    for sc in data.synth_scenes(20, 12, mix=0.5):
        for vid, h in sc.history.items():
            vx = data._fd(h[:, 0], 0.2)
            vy = data._fd(h[:, 1], 0.2)
            np.testing.assert_allclose(np.hypot(vx, vy), h[:, 2], atol=0.1)


def test_synth_deterministic():
    a = data.synth_scenes(4, 99)
    b = data.synth_scenes(4, 99)
    for sa, sb in zip(a, b):
        assert sa.ego == sb.ego and set(sa.history) == set(sb.history)
        for vid in sa.history:
            np.testing.assert_array_equal(sa.history[vid], sb.history[vid])
        np.testing.assert_array_equal(sa.future, sb.future)


def test_synth_has_neighbors_and_bounds():
    scenes = data.synth_scenes(10, 13, mix=1.0)
    for sc in scenes:
        assert 2 <= len(sc.history) - 1 <= 6  # lane-keepers keep all neighbors
        for h in sc.history.values():
            assert (h[:, 2] >= 0).all()


def test_synth_validates_arguments():
    with pytest.raises(DataError):
        data.synth_scenes(0, 0)
    with pytest.raises(DataError):
        data.synth_scenes(1, 0, mix=1.5)


def test_synth_rejects_negative_seed():
    with pytest.raises(DataError, match="seed .* got -1"):
        data.synth_scenes(2, seed=-1)


# ---------------------------------------------------------------------------
# archives

def test_archive_round_trip(tmp_path):
    scenes = _toy_scenes(5, count=3)
    p = tmp_path / "scenes.json"
    data.save_scenes(scenes, p)
    loaded = data.load_scenes(p)
    assert len(loaded) == 3
    for a, b in zip(scenes, loaded):
        assert a.ego == b.ego
        for vid in a.history:
            np.testing.assert_array_equal(a.history[vid], b.history[vid])
        np.testing.assert_array_equal(a.future, b.future)


def test_archive_bytes_deterministic(tmp_path):
    scenes = _toy_scenes(6, count=2)
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    data.save_scenes(scenes, p1)
    data.save_scenes(scenes, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_archive_rejects_bad_json(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    with pytest.raises(FormatError):
        data.load_scenes(p)


@pytest.mark.parametrize("content", [b"\xff\xfe{}",
                                     b"[" * 100000 + b"]" * 100000],
                         ids=["not-utf8", "over-nested"])
def test_archive_rejects_unreadable_file(tmp_path, content):
    p = tmp_path / "bad.json"
    p.write_bytes(content)
    with pytest.raises(FormatError, match="bad.json: unreadable scene archive"):
        data.load_scenes(p)


def test_archive_rejects_wrong_rate(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text('{"rate_hz":10,"scenes":[]}')
    with pytest.raises(FormatError, match="rate_hz"):
        data.load_scenes(p)


def test_archive_rejects_ragged_history(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text('{"rate_hz":5,"scenes":[{"ego":0,'
                 '"history":{"0":[[1,2],[3]]},"future":[]}]}')
    with pytest.raises(FormatError, match="malformed"):
        data.load_scenes(p)


def test_archive_rejects_history_that_is_not_an_object(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text('{"rate_hz":5,"scenes":[{"ego":0,"history":[1],'
                 '"future":[]}]}')
    with pytest.raises(FormatError, match="scene 0 history is not an object"):
        data.load_scenes(p)


def test_archive_rejects_infinite_ego_id(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text('{"rate_hz":5,"scenes":[{"ego":Infinity,"history":{},'
                 '"future":[]}]}')
    with pytest.raises(FormatError, match="malformed"):
        data.load_scenes(p)


@pytest.mark.parametrize("ego", [0.9, True, "0"])
def test_archive_rejects_an_ego_that_is_not_an_integer(tmp_path, ego):
    # int() read 0.9 and "0" as vehicle 0, and true as vehicle 1
    doc = data.scenes_to_doc(_toy_scenes(5, count=2))
    doc["scenes"][1]["ego"] = ego
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    with pytest.raises(FormatError, match=re.escape(
            f"scene 1 ego {ego!r} is not an integer")):
        data.load_scenes(p)


@pytest.mark.parametrize("field", ["future", "history"])
def test_archive_rejects_non_finite_values(tmp_path, field):
    doc = data.scenes_to_doc(_toy_scenes(5, count=2))
    entry = doc["scenes"][1]
    if field == "future":
        entry["future"][3][0] = float("nan")
    else:
        entry["history"][str(entry["ego"])][0][2] = float("inf")
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))     # json writes NaN and Infinity
    with pytest.raises(FormatError, match=f"bad.json: scene 1 {field}"):
        data.load_scenes(p)


@pytest.mark.parametrize("key", ["01", "1_0", " 1", "+1"])
def test_archive_rejects_a_history_key_that_is_not_canonical(tmp_path, key):
    # int() read each as an id: "01" silently replaced vehicle 1's history,
    # "1_0" loaded as vehicle 10, " 1" and "+1" as vehicle 1
    doc = data.scenes_to_doc(_toy_scenes(5, count=2))
    history = doc["scenes"][1]["history"]
    assert "1" in history
    history[key] = history["1"][::-1]
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    with pytest.raises(FormatError, match=re.escape(
            f"bad.json: scene 1 history key {key!r} is not a canonical "
            f"integer id")):
        data.load_scenes(p)


def test_archive_rejects_a_history_key_given_twice(tmp_path):
    # json keeps the last of two equal keys, so one vehicle's history was
    # silently dropped
    p = tmp_path / "bad.json"
    p.write_text('{"rate_hz":5,"scenes":[{"ego":0,"future":[],"history":'
                 '{"0":[[1,2,3,4]],"0":[[5,6,7,8]]}}]}')
    with pytest.raises(FormatError, match=re.escape(
            "bad.json: unreadable scene archive (duplicate key '0')")):
        data.load_scenes(p)


def test_archive_keeps_canonical_history_keys(tmp_path):
    scenes = _toy_scenes(5, count=2)
    doc = data.scenes_to_doc(scenes)
    doc["scenes"][1]["history"]["-3"] = doc["scenes"][1]["history"]["1"]
    p = tmp_path / "ok.json"
    p.write_text(json.dumps(doc))
    loaded = data.load_scenes(p)
    assert sorted(loaded[1].history) == [-3, 0, 1, 2, 4]
    np.testing.assert_array_equal(loaded[1].history[-3],
                                  scenes[1].history[1])


# ---------------------------------------------------------------------------
# file boundary

# The one function allowed to make each kind of file call.
_JSON_OWNERS = {"dump": "dump_json", "dumps": "dump_json",
                "load": "read_json", "loads": "read_json"}


def _file_call_owner(call):
    """The function that owns this call under the file boundary, or None: an
    open() that can write belongs to write_atomic, json.dump(s) to dump_json
    and json.load(s) to read_json."""
    fn = call.func
    if isinstance(fn, ast.Name) and fn.id == "open":
        mode = call.args[1] if len(call.args) > 1 else next(
            (k.value for k in call.keywords if k.arg == "mode"), None)
        writes = mode is not None and (not isinstance(mode, ast.Constant)
                                       or set(mode.value) & set("wax+"))
        return "write_atomic" if writes else None
    if (isinstance(fn, ast.Attribute) and isinstance(fn.value, ast.Name)
            and fn.value.id == "json"):
        return _JSON_OWNERS.get(fn.attr)
    return None


def test_one_writer_one_json_rule_one_json_reader():
    """Every file granp writes goes through write_atomic, and every JSON
    document through dump_json and read_json: no module opens a file for
    writing or calls json itself."""
    strays, owned = [], []

    def visit(node, func, module):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.Call):
            owner = _file_call_owner(node)
            if owner is not None:
                (owned if owner == func else strays).append(
                    f"{module}:{node.lineno} belongs in {owner}")
        for child in ast.iter_child_nodes(node):
            visit(child, func, module)

    for path in sorted(Path(data.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), None, path.name)
    assert strays == []
    assert len(owned) == 3      # the writer, the text rule and the reader


def test_write_atomic_replaces_a_symlinks_target_not_the_link(tmp_path):
    target, link = tmp_path / "target.json", tmp_path / "link.json"
    target.write_bytes(b"previous")
    link.symlink_to(target)
    data.write_atomic(link, b"new")
    assert link.is_symlink() and target.read_bytes() == b"new"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.json",
                                                          "target.json"]
