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
import itertools
import math
import struct
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError, ContractViolation
from .worldgen import (World, as_batch, clamp_rows, minimal_image, stacked,
                       wrap_positions)


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
    return _centroids(world.positions, world.inertia, body, world.spec.arena_extent)


def _centroids(positions: np.ndarray, inertia: np.ndarray, body: BodySpec,
               extent: float) -> np.ndarray:
    """`body_centroid` of one world's `(n, 2)` positions and `(n,)`
    inertia, or of each of `B` worlds' `(B, n, 2)` and `(B, n)`: members
    are summed in row order, world by world."""
    rows = body.rows
    anchor = positions[..., rows[0], :]
    offsets = minimal_image(positions[..., rows, :] - anchor[..., None, :], extent)
    weights = inertia[..., rows]
    mean_offset = (np.add.reduce(offsets * weights[..., None], axis=-2)
                   / np.add.reduce(weights, axis=-1)[..., None])
    return wrap_positions(anchor + mean_offset, extent)


def cell_index(offset, halfwidth: float, resolution: int):
    """Map window coordinates in [-halfwidth, halfwidth) to cells, elementwise.

    A point exactly on an interior cell edge belongs to the lower cell.
    """
    width = 2.0 * halfwidth / resolution
    raw = np.ceil((np.asarray(offset) + halfwidth) / width).astype(np.intp) - 1
    return np.minimum(np.maximum(raw, 0), resolution - 1)


def sense(worlds: World | list[World], body: BodySpec) -> SenseGrid | list[SenseGrid]:
    """Read the egocentric density grid at the current tick.

    Counts every basic entity (members included) whose minimal-image
    offset from the centroid lies inside the square window.  A list of
    worlds with one entity count and arena is read in one pass, into a
    list of readings, each the bytes of that world read alone.
    """
    batch, one = as_batch(worlds)
    extent = batch[0].spec.arena_extent
    if len(batch) == 1:  # no stack to build
        world = batch[0]
        positions, inertia, polarity = world.positions, world.inertia, world.polarity
    else:
        if any(world.spec.arena_extent != extent for world in batch):
            raise ContractViolation("one sense pass reads worlds of one arena size")
        positions = stacked([world.positions for world in batch])
        inertia = stacked([world.inertia for world in batch])
        polarity = stacked([world.polarity for world in batch])
    res = body.resolution
    half = body.window_halfwidth
    centers = _centroids(positions, inertia, body, extent)
    offsets = minimal_image(positions - centers[..., None, :], extent)
    inside = np.logical_and.reduce((offsets >= -half) & (offsets < half), axis=-1)
    cells = cell_index(offsets[inside], half, res)
    bins = (cells[:, 0] * res + cells[:, 1]) * 2 + np.where(polarity[inside] > 0, 0, 1)
    if len(batch) > 1:  # each world counts into a block of its own
        bins += np.nonzero(inside)[0] * (res * res * 2)
    # counts are exact integers, so the order they are added in is moot
    counts = np.bincount(bins, minlength=len(batch) * res * res * 2)
    grids = counts.reshape(len(batch), res, res, 2).astype(np.float64)
    readings = [SenseGrid(tick=world.tick, centroid=center, grid=grid)
                for world, center, grid in zip(batch, centers.reshape(-1, 2), grids)]
    return readings[0] if one else readings


def sense_each(worlds: list[World], bodies: list[BodySpec]) -> list[SenseGrid]:
    """A reading of each world by its body: one `sense` pass per body
    over the worlds of one size and arena it reads."""
    if len(worlds) == 1:
        return [sense(worlds[0], bodies[0])]
    groups: dict[tuple, list[int]] = {}
    for k, (world, body) in enumerate(zip(worlds, bodies)):
        groups.setdefault((body, world.n_entities, world.spec.arena_extent), []).append(k)
    readings: list = [None] * len(worlds)
    for (body, _, _), ks in groups.items():
        for k, reading in zip(ks, sense([worlds[k] for k in ks], body)):
            readings[k] = reading
    return readings


def grid_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Root-mean-square cell difference between two sensor grids.

    Grids hold counts, so the sum of squared differences is an exact
    integer in any order, and a dot product gives the bits of the plain
    mean of squares, faster.
    """
    if a.shape != b.shape:
        raise ContractViolation("grid shapes differ")
    diff = (a - b).ravel()
    return math.sqrt(float(np.dot(diff, diff)) / diff.size)


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


def validate_forces(forces, body: BodySpec | list[BodySpec]):
    """Check an action's shape and finiteness, then clamp it to f_max.

    With a list of bodies, `forces` holds one action per body, and the
    result is a list: all their rows are checked and clamped in one
    pass, each action to the bits it gets alone.  When one fails, the
    actions are checked one by one, so the first failure is the one
    reported.
    """
    if isinstance(body, BodySpec):
        return clamp_rows(_checked_forces(forces, body), body.f_max)
    if len(body) < 2:
        return [validate_forces(action, b) for action, b in zip(forces, body)]
    arrays = [np.asarray(action, dtype=np.float64) for action in forces]
    rows = None
    if all(arr.shape == (len(b.member_ids), 2) for arr, b in zip(arrays, body)):
        rows = np.concatenate(arrays)
    if rows is None or not np.isfinite(rows).all():
        for action, b in zip(forces, body):
            _checked_forces(action, b)
    caps = {b.f_max for b in body}
    cap = caps.pop() if len(caps) == 1 else np.repeat([b.f_max for b in body],
                                                      [len(arr) for arr in arrays])
    rows = clamp_rows(rows, cap)
    ends = list(itertools.accumulate(len(arr) for arr in arrays))
    return [rows[end - len(arr):end] for arr, end in zip(arrays, ends)]


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
