"""Agent embodiment: the density sensor and the force motor.

An agent owns a fixed set of member entities.  Sensing produces a coarse
egocentric occupancy grid centered on the body's inertia-weighted
centroid: one channel counts positive entities in the window, the other
counts negative ones.  Acting submits one force vector per member, which
is validated, clamped to the per-member cap, and converted to
acceleration.  Resolution and the force cap are the whole information
bottleneck between agent and world, so nothing here may expose law
coefficients or exact entity coordinates.

An agent observes a reading through `SenseGrid.to_payload`: the tick and
a read-only view of the float64 `(R, R, 2)` grid, never a copy or a
list.  Over the wire only the occupied cells travel, and the agent side
rebuilds the same array (`protocol.grid_cells` and `cells_grid`).
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError, ContractViolation
from .worldgen import World, clamp_rows, minimal_image, wrap_positions


@dataclass(frozen=True)
class BodySpec:
    """Which entities an agent controls and how sharply it can see and push.

    Frozen, so the member rows derived from `member_ids` never go stale.
    Whether the members exist in a given world is checked once per
    episode, by the episode loop.
    """

    member_ids: tuple[int, ...]
    resolution: int = 8
    window_halfwidth: float = 8.0
    f_max: float = 4.0

    @cached_property
    def rows(self) -> np.ndarray:
        """`member_ids` as a read-only row index array, built once per body."""
        rows = np.array(self.member_ids, dtype=np.intp)
        rows.flags.writeable = False
        return rows

    def __post_init__(self):
        if not self.member_ids:
            raise ConfigError("body must have at least one member entity")
        if len(set(self.member_ids)) != len(self.member_ids):
            raise ConfigError("body member ids must be distinct")
        if any(i < 0 for i in self.member_ids):
            raise ConfigError("body member ids must be nonnegative")
        if self.resolution < 1:
            raise ConfigError("sensor resolution must be >= 1")
        if self.window_halfwidth <= 0:
            raise ConfigError("sensor window_halfwidth must be > 0")
        if self.f_max <= 0:
            raise ConfigError("f_max must be > 0")


@dataclass
class SenseGrid:
    """One sensor reading: tick, body centroid, and the two-channel grid."""

    tick: int
    centroid: np.ndarray
    grid: np.ndarray  # (R, R, 2): channel 0 positive, channel 1 negative

    def to_payload(self) -> dict:
        """The agent's observation: the tick and a read-only view of the grid."""
        grid = self.grid.view()
        grid.flags.writeable = False
        return {"tick": self.tick, "grid": grid}

    def hash(self) -> str:
        """Hex sha256 of the reading's fixed little-endian layout: `tick`
        as int64, the centroid as float64, then the counts as uint32 in
        `(R, R, 2)` C order.  Counts are exact integers, so the uint32
        conversion loses nothing."""
        digest = hashlib.sha256(struct.pack("<q", self.tick))
        digest.update(np.asarray(self.centroid, dtype="<f8").tobytes())
        digest.update(self.grid.astype("<u4").tobytes())
        return digest.hexdigest()


def body_centroid(world: World, body: BodySpec) -> np.ndarray:
    """Inertia-weighted body center, minimal-image relative to the first member.

    Anchoring keeps the centroid stable when the body straddles the wrap
    seam; the plain coordinate mean would jump to the far side.
    """
    rows = body.rows
    anchor = world.positions[rows[0]]
    offsets = minimal_image(world.positions[rows] - anchor, world.spec.arena_extent)
    weights = world.inertia[rows]
    mean_offset = (offsets * weights[:, None]).sum(axis=0) / weights.sum()
    return wrap_positions(anchor + mean_offset, world.spec.arena_extent)


def cell_index(offset, halfwidth: float, resolution: int):
    """Map window coordinates in [-halfwidth, halfwidth) to cells, elementwise.

    A point exactly on an interior cell edge belongs to the lower cell.
    """
    width = 2.0 * halfwidth / resolution
    raw = np.ceil((np.asarray(offset) + halfwidth) / width).astype(np.intp) - 1
    return np.minimum(np.maximum(raw, 0), resolution - 1)


def sense(world: World, body: BodySpec) -> SenseGrid:
    """Read the egocentric density grid at the current tick.

    Counts every basic entity (members included) whose minimal-image
    offset from the centroid lies inside the square window.
    """
    res = body.resolution
    half = body.window_halfwidth
    center = body_centroid(world, body)
    offsets = minimal_image(world.positions - center, world.spec.arena_extent)
    inside = np.all((offsets >= -half) & (offsets < half), axis=1)
    cells = cell_index(offsets[inside], half, res)
    channel = np.where(world.polarity[inside] > 0, 0, 1)
    # counts are exact integers, so the order they are added in is moot
    counts = np.bincount((cells[:, 0] * res + cells[:, 1]) * 2 + channel,
                         minlength=res * res * 2)
    grid = counts.reshape(res, res, 2).astype(np.float64)
    return SenseGrid(tick=world.tick, centroid=center, grid=grid)


def grid_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Root-mean-square cell difference between two sensor grids."""
    if a.shape != b.shape:
        raise ContractViolation("grid shapes differ")
    diff = a - b
    return float(np.sqrt((diff * diff).mean()))


def _checked_forces(forces, body: BodySpec) -> np.ndarray:
    """An action as a float64 array, if its shape is `(members, 2)` and
    every force is finite; else ContractViolation."""
    arr = np.asarray(forces, dtype=np.float64)
    if arr.shape != (len(body.member_ids), 2):
        raise ContractViolation(
            f"action must be shape ({len(body.member_ids)}, 2), got {arr.shape}"
        )
    if not np.isfinite(arr).all():
        raise ContractViolation("action forces must be finite")
    return arr


def validate_forces(forces, body: BodySpec) -> np.ndarray:
    """Check an action's shape and finiteness, then clamp it to f_max."""
    return clamp_rows(_checked_forces(forces, body), body.f_max)


def recorded_forces(forces, body: BodySpec) -> np.ndarray:
    """An action read back from a trace, checked as `validate_forces`
    checks a live one and then refused, never clamped, if a row is longer
    than f_max by more than the few ulps a clamped row can carry."""
    arr = _checked_forces(forces, body)
    norm = float(np.sqrt((arr * arr).sum(axis=1)).max())
    if norm > body.f_max * (1 + 1e-12):
        raise ContractViolation(
            f"action force of norm {norm!r} exceeds f_max {body.f_max!r}")
    return arr


def forces_to_accel(world: World, body: BodySpec, forces: np.ndarray) -> np.ndarray:
    """Expand validated member forces into a world-sized acceleration array."""
    accel = np.zeros_like(world.positions)
    accel[body.rows] = forces / world.inertia[body.rows][:, None]
    return accel
