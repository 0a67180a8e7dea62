"""Interaction graph construction: occupancy-grid gating around the ego
vehicle and RBF-weighted adjacency over the surviving nodes."""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError


class OccupancyGrid:
    """Rectangle centered on the ego: length runs longitudinal (y), width
    lateral (x).  200 ft x 35 ft, stored in meters; positions are meters
    throughout."""

    length = 60.96
    width = 10.668
    delta = math.hypot(length / 2.0, width / 2.0)  # RBF bandwidth: center to corner

    def contains(self, dx: float, dy: float) -> bool:
        return abs(dy) <= self.length / 2.0 and abs(dx) <= self.width / 2.0


GRID = OccupancyGrid()  # gates every scene graph; delta is the RBF bandwidth


@dataclass
class AdjacencyMatrix:
    matrix: np.ndarray          # [n, n], symmetric, entries in [0, 1]
    ids: tuple                  # node index -> vehicle id


def select_grid_nodes(scene, reference_time: int):
    """Ids of vehicles inside the grid around the ego at reference_time.

    The ego is always first; neighbors follow in ascending id order.
    """
    ego_pos = scene.history[scene.ego][reference_time, :2]
    kept = [scene.ego]
    for vid in sorted(scene.history):
        if vid == scene.ego:
            continue
        pos = scene.history[vid][reference_time, :2]
        if GRID.contains(pos[0] - ego_pos[0], pos[1] - ego_pos[1]):
            kept.append(vid)
    return kept


def build_adjacency(ids, positions) -> AdjacencyMatrix:
    """RBF adjacency A_ij = exp(-dist^2 / delta^2) over grid-gated nodes.

    positions: [n, 2] meters, row i for ids[i].  Each unordered pair is
    computed once so the matrix is symmetric to the bit.
    """
    ids = tuple(ids)
    if len(set(ids)) != len(ids):
        raise DataError(f"duplicate node ids in {ids}")
    positions = np.asarray(positions, dtype=np.float64)
    if positions.shape != (len(ids), 2):
        raise DataError(f"expected positions [{len(ids)}, 2], got "
                        f"{positions.shape}")
    delta = GRID.delta
    n = len(ids)
    a = np.eye(n)
    for i in range(n):
        for j in range(i + 1, n):
            d2 = float(np.sum((positions[i] - positions[j]) ** 2))
            w = math.exp(-d2 / (delta * delta))
            a[i, j] = w
            a[j, i] = w
    return AdjacencyMatrix(matrix=a, ids=ids)
