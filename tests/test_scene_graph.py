"""Grid gating and RBF adjacency checks against hand-computed values."""

from types import SimpleNamespace

import numpy as np
import pytest

from granp import scene_graph as sg
from granp.data import T_N, synth_scenes
from granp.errors import DataError

# Two grid-gated nodes are at most the grid diagonal, 2 * delta, apart, so
# their weight is at least e^-4 (less rounding).
MIN_IN_GRID_WEIGHT = np.exp(-4.0) * (1 - 1e-12)


def _scene(ego, positions):
    """Minimal scene stand-in: one history row per vehicle."""
    history = {vid: np.array([[x, y, 0.0, 0.0]]) for vid, (x, y) in positions.items()}
    return SimpleNamespace(ego=ego, history=history)


def test_grid_delta_half_diagonal():
    grid = sg.OccupancyGrid()
    assert abs(grid.delta - 30.943) < 1e-3
    assert grid.length == 60.96 and grid.width == 10.668


def test_select_includes_center_excludes_far_ahead():
    scene = _scene(1, {1: (0.0, 0.0), 2: (0.0, 0.0), 3: (0.0, 40.0)})
    kept = sg.select_grid_nodes(scene, 0)
    assert kept == [1, 2]  # 40 m ahead > 30.48 m half-length


def test_select_lateral_gate():
    scene = _scene(1, {1: (0.0, 0.0), 2: (5.0, 0.0), 3: (6.0, 0.0)})
    kept = sg.select_grid_nodes(scene, 0)
    assert kept == [1, 2]  # half-width 5.334 m


def test_select_ego_only_scene():
    scene = _scene(7, {7: (1.0, 2.0)})
    assert sg.select_grid_nodes(scene, 0) == [7]


def test_select_boundary_inclusive():
    scene = _scene(1, {1: (0.0, 0.0), 2: (0.0, 30.48), 3: (5.334, 0.0)})
    assert sg.select_grid_nodes(scene, 0) == [1, 2, 3]


def test_select_is_relative_to_ego():
    scene = _scene(1, {1: (0.0, 100.0), 2: (0.0, 110.0)})
    assert sg.select_grid_nodes(scene, 0) == [1, 2]


def test_adjacency_self_loops_and_range():
    rng = np.random.default_rng(0)
    pos = rng.uniform(-5, 5, size=(6, 2))
    adj = sg.build_adjacency(range(6), pos)
    np.testing.assert_array_equal(np.diag(adj.matrix), 1.0)
    assert (adj.matrix >= 0).all() and (adj.matrix <= 1).all()


def test_adjacency_at_bandwidth_distance():
    delta = sg.OccupancyGrid().delta
    adj = sg.build_adjacency([1, 2], [[0.0, 0.0], [0.0, delta]])
    assert abs(adj.matrix[0, 1] - np.exp(-1.0)) < 1e-12


def test_adjacency_exact_symmetry():
    rng = np.random.default_rng(1)
    pos = rng.uniform(-20, 20, size=(8, 2))
    adj = sg.build_adjacency(range(8), pos)
    assert (adj.matrix == adj.matrix.T).all()


def test_adjacency_monotone_in_distance():
    adj = sg.build_adjacency(
        [1, 2, 3], [[0.0, 0.0], [0.0, 3.0], [0.0, 10.0]])
    assert adj.matrix[0, 1] > adj.matrix[0, 2] > 0.0


def test_adjacency_opposite_grid_corners_stay_connected():
    grid = sg.OccupancyGrid()
    corner = np.array([grid.width, grid.length]) / 2.0
    w = sg.build_adjacency([1, 2], [corner, -corner]).matrix[0, 1]
    assert w == pytest.approx(np.exp(-4.0), rel=1e-12)   # the bound is tight
    assert w >= MIN_IN_GRID_WEIGHT and w > 0.0


def test_adjacency_has_no_zero_among_grid_gated_nodes():
    pairs = 0
    for scene in synth_scenes(40, seed=8):
        ids = sg.select_grid_nodes(scene, T_N - 1)
        pos = np.stack([scene.history[v][T_N - 1, :2] for v in ids])
        a = sg.build_adjacency(ids, pos).matrix
        assert (a >= MIN_IN_GRID_WEIGHT).all() and (a > 0).all()
        pairs += len(ids) * (len(ids) - 1)
    assert pairs > 0


def test_adjacency_duplicate_ids_rejected():
    with pytest.raises(DataError):
        sg.build_adjacency([1, 1], [[0.0, 0.0], [1.0, 1.0]])


def test_adjacency_position_shape_checked():
    with pytest.raises(DataError):
        sg.build_adjacency([1, 2], [[0.0, 0.0]])


def test_adjacency_index_mapping():
    adj = sg.build_adjacency([9, 4, 7], np.zeros((3, 2)))
    assert adj.ids == (9, 4, 7)
