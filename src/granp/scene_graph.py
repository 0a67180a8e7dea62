"""Interaction graph construction: occupancy-grid gating around the ego
vehicle.  The scene graph is complete over the kept nodes, so the gate is
all of it; see README, "Why the scene graph is complete"."""


class OccupancyGrid:
    """Rectangle centered on the ego: length runs longitudinal (y), width
    lateral (x).  200 ft x 35 ft, stored in meters; positions are meters
    throughout."""

    length = 60.96
    width = 10.668

    def contains(self, dx: float, dy: float) -> bool:
        return abs(dy) <= self.length / 2.0 and abs(dx) <= self.width / 2.0


GRID = OccupancyGrid()  # gates every scene graph


def select_grid_nodes(scene):
    """Ids of vehicles inside the grid around the ego at the last history
    step.

    The ego is always first; neighbors follow in ascending id order.
    """
    ego_pos = scene.history[scene.ego][-1, :2]
    kept = [scene.ego]
    for vid in sorted(scene.history):
        if vid == scene.ego:
            continue
        pos = scene.history[vid][-1, :2]
        if GRID.contains(pos[0] - ego_pos[0], pos[1] - ego_pos[1]):
            kept.append(vid)
    return kept
