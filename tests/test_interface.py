import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftworld.dynamics import StepParams, step
from driftworld.errors import ConfigError, ContractViolation
from driftworld.interface import (
    BodySpec,
    SenseGrid,
    body_centroid,
    cell_index,
    forces_to_accel,
    grid_distance,
    sense,
    validate_forces,
)
from driftworld.worldgen import (GenSpec, clamp_rows, generate_world, minimal_image,
                                 wrap_positions)

from conftest import flat_quiet_spec
from oracles import reading_hash


def test_body_spec_validation():
    with pytest.raises(ConfigError):
        BodySpec(member_ids=())
    with pytest.raises(ConfigError):
        BodySpec(member_ids=(0, 0))
    with pytest.raises(ConfigError):
        BodySpec(member_ids=(0,), resolution=0)
    with pytest.raises(ConfigError):
        BodySpec(member_ids=(0,), f_max=0.0)
    BodySpec(member_ids=(0, 1))


def test_body_rows_are_member_ids_read_only_and_built_once():
    body = BodySpec(member_ids=(5, 2, 9))
    assert body.rows.dtype == np.intp
    assert body.rows.tolist() == [5, 2, 9]
    assert body.rows is body.rows
    with pytest.raises(ValueError):
        body.rows[0] = 0
    # frozen, so the rows cannot go stale behind the ids
    with pytest.raises(dataclasses.FrozenInstanceError):
        body.member_ids = (0,)


def test_centroid_simple_mean():
    world = generate_world(flat_quiet_spec(1, n_entities=4))
    world.positions[:] = [[1.0, 1.0], [3.0, 1.0], [1.0, 3.0], [3.0, 3.0]]
    body = BodySpec(member_ids=(0, 1, 2, 3))
    assert np.allclose(body_centroid(world, body), [2.0, 2.0])


def test_centroid_wraps_across_boundary():
    # Members straddling the seam must average on the torus, not in R^2.
    world = generate_world(flat_quiet_spec(1, n_entities=4))
    world.positions[:2] = [[7.5, 0.0], [-7.5, 0.0]]
    body = BodySpec(member_ids=(0, 1))
    c = body_centroid(world, body)
    # the two points are 1 apart across the seam; centroid sits on it
    d0 = np.linalg.norm(minimal_image(c - world.positions[0], 8.0))
    d1 = np.linalg.norm(minimal_image(c - world.positions[1], 8.0))
    assert d0 == pytest.approx(0.5, abs=1e-9)
    assert d1 == pytest.approx(0.5, abs=1e-9)


def test_cell_index_boundaries():
    # window [-8, 8), 16 cells of width 1: boundary offsets land low.
    res, half = 16, 8.0
    assert cell_index(-8.0, half, res) == 0
    assert cell_index(-7.999, half, res) == 0
    assert cell_index(-7.0, half, res) == 0
    assert cell_index(-6.999, half, res) == 1
    assert cell_index(0.0, half, res) == 7
    assert cell_index(0.001, half, res) == 8
    assert cell_index(7.999, half, res) == 15
    assert cell_index(8.0, half, res) == 15  # clipped edge


def _sense_reference(world, body):
    """Per-row reading: each entity inside the window adds 1 to its cell."""
    res, half = body.resolution, body.window_halfwidth
    width = 2.0 * half / res
    center = body_centroid(world, body)
    grid = np.zeros((res, res, 2))
    for row, pol in zip(world.positions, world.polarity):
        off = minimal_image(row - center, world.spec.arena_extent)
        if not all(-half <= float(v) < half for v in off):
            continue
        ix, iy = (min(res - 1, max(0, int(np.ceil((float(v) + half) / width)) - 1))
                  for v in off)
        grid[ix, iy, 0 if pol > 0 else 1] += 1.0
    return grid


@pytest.mark.parametrize("res, half", [(8, 4.0), (16, 8.0), (5, 3.0), (1, 2.5)])
def test_sense_matches_per_row_reference(res, half):
    width = 2.0 * half / res
    edges = [-half + k * width for k in range(res + 1)]  # -half in, +half out
    coords = edges + [-half - 0.25, half - 1e-9, 0.0, width / 3]
    grid_points = [(x, y) for x in coords for y in coords]
    rng = np.random.default_rng(res)
    scattered = rng.uniform(-8.0, 8.0, size=(40, 2)).tolist()
    points = [(0.0, 0.0)] + grid_points + scattered
    spec = GenSpec(seed=5, n_entities=len(points), n_levels=1)
    world = generate_world(spec)
    world.positions[:] = wrap_positions(np.array(points), spec.arena_extent)
    world.polarity[:] = np.where(np.arange(len(points)) % 3 == 0, -1, 1)
    body = BodySpec(member_ids=(0,), resolution=res, window_halfwidth=half)
    reading = sense(world, body)
    assert np.array_equal(reading.centroid, [0.0, 0.0])
    expected = _sense_reference(world, body)
    assert reading.grid.dtype == expected.dtype
    assert np.array_equal(reading.grid, expected)
    assert reading.grid.sum() > len(scattered) // 4
    # cell_index on an array equals cell_index on each element
    column = np.array(coords)
    assert cell_index(column, half, res).tolist() == \
        [int(cell_index(float(v), half, res)) for v in column]


def test_sense_matches_reference_on_stepped_worlds():
    for seed in range(3):
        world = generate_world(GenSpec(seed=seed, n_entities=64, n_levels=3))
        for _ in range(5):
            step(world, StepParams())
        body = BodySpec(member_ids=(4, 5, 6, 7), resolution=8, window_halfwidth=4.0)
        assert np.array_equal(sense(world, body).grid, _sense_reference(world, body))


def test_sense_counts_match_polarity_oracle():
    # Window covers the whole torus: channel sums equal polarity counts.
    spec = GenSpec(seed=33, n_entities=20, n_levels=1)
    world = generate_world(spec)
    body = BodySpec(member_ids=(0, 1), resolution=8, window_halfwidth=8.0)
    reading = sense(world, body)
    assert reading.grid.shape == (8, 8, 2)
    n_pos = int((world.polarity == 1).sum())
    n_neg = int((world.polarity == -1).sum())
    assert reading.grid[:, :, 0].sum() == n_pos
    assert reading.grid[:, :, 1].sum() == n_neg


def test_sense_cell_placement_oracle():
    world = generate_world(flat_quiet_spec(2, n_entities=3))
    world.positions[:] = [[0.0, 0.0], [1.6, 0.0], [0.0, -2.4]]
    world.polarity[:] = [1, 1, -1]
    body = BodySpec(member_ids=(0,), resolution=16, window_halfwidth=8.0)
    reading = sense(world, body)
    half, res = 8.0, 16
    for row, pol in zip(world.positions, world.polarity):
        off = minimal_image(row - world.positions[0], 8.0)
        i = cell_index(float(off[0]), half, res)
        j = cell_index(float(off[1]), half, res)
        chan = 0 if pol > 0 else 1
        assert reading.grid[i, j, chan] >= 1


def test_sense_windowed_excludes_far_entities():
    world = generate_world(flat_quiet_spec(2, n_entities=3))
    world.positions[:] = [[0.0, 0.0], [0.5, 0.5], [6.0, 6.0]]
    body = BodySpec(member_ids=(0,), resolution=4, window_halfwidth=2.0)
    reading = sense(world, body)
    assert reading.grid.sum() == 2  # self and the close neighbor


def test_sense_payload_and_hash():
    world = generate_world(flat_quiet_spec(4))
    body = BodySpec(member_ids=(0, 1))
    a = sense(world, body)
    b = sense(world, body)
    assert a.hash() == b.hash()
    payload = a.to_payload()
    assert payload["tick"] == world.tick
    grid = payload["grid"]
    # a read-only view of the reading's own array, never a copy or a list
    assert grid.dtype == np.float64 and grid.shape == a.grid.shape
    assert not grid.flags.writeable and np.shares_memory(grid, a.grid)
    with pytest.raises(ValueError):
        grid[0, 0, 0] = 1.0


def test_reading_hash_equals_struct_layout_oracle():
    bodies = [BodySpec(member_ids=(0, 1)),
              BodySpec(member_ids=(4, 5, 6, 7), resolution=16, window_halfwidth=16.0)]
    for seed in range(3):
        world = generate_world(GenSpec(seed=seed, n_entities=64, n_levels=3))
        for _ in range(4):
            for body in bodies:
                r = sense(world, body)
                assert r.grid.sum() > 0
                assert r.hash() == reading_hash(r.tick, r.centroid.tolist(), r.grid.tolist())
            step(world, StepParams())


def test_reading_hash_keeps_counts_past_uint16():
    grid = np.zeros((3, 3, 2))
    grid[1, 2, 1] = 70_000.0
    grid[0, 0, 0] = 2.0**32 - 1
    reading = SenseGrid(tick=7, centroid=np.array([1.5, -0.25]), grid=grid)
    assert reading.hash() == reading_hash(7, [1.5, -0.25], grid.tolist())
    wrapped = grid.copy()
    wrapped[1, 2, 1] = 70_000 % 65_536
    variants = [SenseGrid(7, reading.centroid, wrapped),
                SenseGrid(8, reading.centroid, grid),
                SenseGrid(7, np.array([1.5, 0.25]), grid)]
    assert reading.hash() not in {v.hash() for v in variants}


def test_grid_distance_rms_oracle():
    a = np.zeros((4, 4, 2))
    b = np.zeros((4, 4, 2))
    b[0, 0, 0] = 2.0
    # one cell off by 2 over 32 cells: sqrt(4 / 32)
    assert grid_distance(a, b) == pytest.approx(np.sqrt(4 / 32))
    assert grid_distance(a, a) == 0.0


def test_grid_distance_shape_mismatch():
    with pytest.raises(ContractViolation):
        grid_distance(np.zeros((2, 2, 2)), np.zeros((3, 3, 2)))


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=0.1, max_value=50.0))
def test_clamp_rows_cap(limit):
    forces = np.array([[30.0, 40.0], [0.1, 0.0], [0.0, 0.0]])
    out = clamp_rows(forces, limit)
    norms = np.linalg.norm(out, axis=1)
    assert np.all(norms <= limit + 1e-9)
    # under-limit rows pass through untouched
    if limit >= 0.1:
        assert np.allclose(out[1], forces[1])
    assert np.array_equal(out[2], forces[2])


def test_validate_forces_shape_and_finiteness(body):
    good = np.zeros((4, 2))
    out = validate_forces(good, body)
    assert out.shape == (4, 2)
    with pytest.raises(ContractViolation):
        validate_forces(np.zeros((3, 2)), body)
    with pytest.raises(ContractViolation):
        validate_forces(np.full((4, 2), np.nan), body)


def test_validate_forces_clamps(body):
    big = np.full((4, 2), 100.0)
    out = validate_forces(big, body)
    assert np.all(np.linalg.norm(out, axis=1) <= body.f_max + 1e-9)


def test_forces_to_accel_divides_by_inertia():
    world = generate_world(flat_quiet_spec(1, n_entities=4))
    world.inertia[:] = [1.0, 2.0, 1.0, 1.0]
    body = BodySpec(member_ids=(0, 1))
    forces = np.array([[1.0, 0.0], [1.0, 0.0]])
    acc = forces_to_accel(world, body, forces)
    assert acc.shape == world.positions.shape
    assert np.allclose(acc[0], [1.0, 0.0])
    assert np.allclose(acc[1], [0.5, 0.0])
    assert not acc[2:].any()
