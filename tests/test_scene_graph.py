"""Grid gating checks against hand-computed values."""

from types import SimpleNamespace

import numpy as np

from granp import scene_graph as sg
from granp.data import T_N, synth_scenes


def _scene(ego, positions):
    """Minimal scene stand-in: one history row per vehicle."""
    history = {vid: np.array([[x, y, 0.0, 0.0]]) for vid, (x, y) in positions.items()}
    return SimpleNamespace(ego=ego, history=history)


def test_grid_extents():
    grid = sg.OccupancyGrid()
    assert grid.length == 60.96 and grid.width == 10.668


def test_select_includes_center_excludes_far_ahead():
    scene = _scene(1, {1: (0.0, 0.0), 2: (0.0, 0.0), 3: (0.0, 40.0)})
    kept = sg.select_grid_nodes(scene)
    assert kept == [1, 2]  # 40 m ahead > 30.48 m half-length


def test_select_lateral_gate():
    scene = _scene(1, {1: (0.0, 0.0), 2: (5.0, 0.0), 3: (6.0, 0.0)})
    kept = sg.select_grid_nodes(scene)
    assert kept == [1, 2]  # half-width 5.334 m


def test_select_ego_only_scene():
    scene = _scene(7, {7: (1.0, 2.0)})
    assert sg.select_grid_nodes(scene) == [7]


def test_select_boundary_inclusive():
    scene = _scene(1, {1: (0.0, 0.0), 2: (0.0, 30.48), 3: (5.334, 0.0)})
    assert sg.select_grid_nodes(scene) == [1, 2, 3]


def test_select_is_relative_to_ego():
    scene = _scene(1, {1: (0.0, 100.0), 2: (0.0, 110.0)})
    assert sg.select_grid_nodes(scene) == [1, 2]


def test_grid_gated_nodes_lie_inside_the_grid():
    grid = sg.OccupancyGrid()
    pairs = 0
    for scene in synth_scenes(40, seed=8):
        ids = sg.select_grid_nodes(scene)
        ego = scene.history[scene.ego][T_N - 1, :2]
        for v in ids:
            dx, dy = scene.history[v][T_N - 1, :2] - ego
            assert abs(dx) <= grid.width / 2.0
            assert abs(dy) <= grid.length / 2.0
        pairs += len(ids) * (len(ids) - 1)
    assert pairs > 0


def test_select_gates_at_the_last_history_step():
    # vehicle 2 leaves the grid, vehicle 3 enters it; only the last row counts
    history = {1: np.zeros((T_N, 4)), 2: np.zeros((T_N, 4)),
               3: np.zeros((T_N, 4))}
    history[2][-1, 1] = 40.0
    history[3][:-1, 1] = 40.0
    scene = SimpleNamespace(ego=1, history=history)
    assert sg.select_grid_nodes(scene) == [1, 3]
