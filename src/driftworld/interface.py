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
from .worldgen import World, clamp_rows, minimal_image, stacked, wrap_positions


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


def _centroids(positions: np.ndarray, inertia: np.ndarray, body: BodySpec,
               extent: float) -> np.ndarray:
    """The inertia-weighted body center, minimal-image relative to the
    first member, of one world's `(n, 2)` positions and `(n,)` inertia,
    or of each of `B` worlds' `(B, n, 2)` and `(B, n)`: members are
    summed in row order, world by world.

    Anchoring keeps the centroid stable when the body straddles the wrap
    seam; the plain coordinate mean would jump to the far side.
    """
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


def sense(worlds: list[World], bodies: list[BodySpec]) -> list[SenseGrid]:
    """Each body's egocentric density grid at its world's current tick:
    `bodies[k]` reads `worlds[k]`, and a world is listed once per body
    that reads it.

    Counts every basic entity (members included) whose minimal-image
    offset from the body's centroid lies inside the square window.  The
    worlds one body reads that share an entity count and arena extent
    are read in one pass; every reading holds the bytes of its world
    read alone.  A lone reading skips the grouping and the stacking,
    which made a default world's reading take 47 us instead of 36
    (`timeit`, minima of six runs on a shared 2-vCPU VM).
    """
    if len(worlds) == 1:  # nothing to group
        return _read(worlds, bodies[0])
    groups: dict[tuple, list[int]] = {}
    for k, (world, body) in enumerate(zip(worlds, bodies)):
        groups.setdefault((body, world.n_entities, world.spec.arena_extent), []).append(k)
    readings: list = [None] * len(worlds)
    for (body, _, _), ks in groups.items():
        for k, reading in zip(ks, _read([worlds[k] for k in ks], body)):
            readings[k] = reading
    return readings


def _read(batch: list[World], body: BodySpec) -> list[SenseGrid]:
    """One `body` reading of each world of `batch`, worlds of one entity
    count and arena extent, in one pass."""
    extent = batch[0].spec.arena_extent
    if len(batch) == 1:  # no stack to build
        world = batch[0]
        positions, inertia, polarity = world.positions, world.inertia, world.polarity
    else:
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
    return [SenseGrid(tick=world.tick, centroid=center, grid=grid)
            for world, center, grid in zip(batch, centers.reshape(-1, 2), grids)]


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


def validate_forces(actions: list, bodies: list[BodySpec]) -> list[np.ndarray]:
    """Check each action's shape and finiteness, then clamp it to its
    body's f_max: `actions[k]` is body k's.

    All the actions' rows are checked and clamped in one pass, each
    action to the bits it gets alone; a lone action skips the
    concatenation.  When one fails, the actions are checked one by one,
    so the first failure is the one reported.
    """
    if len(bodies) < 2:
        return [clamp_rows(_checked_forces(action, body), body.f_max)
                for action, body in zip(actions, bodies)]
    arrays = [np.asarray(action, dtype=np.float64) for action in actions]
    rows = None
    if all(arr.shape == (len(b.member_ids), 2) for arr, b in zip(arrays, bodies)):
        rows = np.concatenate(arrays)
    if rows is None or not np.isfinite(rows).all():
        for action, body in zip(actions, bodies):
            _checked_forces(action, body)
    caps = {b.f_max for b in bodies}
    cap = caps.pop() if len(caps) == 1 else np.repeat([b.f_max for b in bodies],
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


def forces_to_accel(worlds: list[World], bodies: list[BodySpec],
                    forces: list[np.ndarray]) -> list[np.ndarray]:
    """Each world's acceleration from its bodies' validated member forces:
    `bodies[k]` pushes `worlds[k]` with `forces[k]`, and a world is listed
    once per body on it.  One world-sized array per distinct world, in
    the order they are first listed; rows no body holds are zero.

    Bodies on one world are disjoint, so each row is written once, with
    `f / inertia`.  A lone body skips the row bookkeeping, which made its
    conversion take 19 us instead of 7 (`timeit`, a default world).
    """
    if len(worlds) == 1:  # no rows to offset
        world, rows = worlds[0], bodies[0].rows
        accel = np.zeros_like(world.positions)
        accel[rows] = forces[0] / world.inertia[rows, None]
        return [accel]
    distinct = list(dict.fromkeys(worlds))
    starts = list(itertools.accumulate((w.n_entities for w in distinct), initial=0))
    offset = dict(zip(distinct, starts))
    rows = np.concatenate([offset[w] + body.rows for w, body in zip(worlds, bodies)])
    accel = np.zeros((starts[-1], 2))
    accel[rows] = np.concatenate(forces) / np.concatenate(
        [w.inertia for w in distinct])[rows, None]
    return [accel[lo:hi] for lo, hi in zip(starts, starts[1:])]
