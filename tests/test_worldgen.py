import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftworld import rng as rngmod
from driftworld.canon import canonical_dumps, to_doc
from driftworld.dynamics import StepParams, step
from driftworld.errors import ConfigError
from driftworld.worldgen import (
    BASIS_TERMS,
    DAMPING_TERM,
    CausationGrammar,
    DriftSchedule,
    GenSpec,
    generate_world,
    minimal_image,
    sample_law,
)

from conftest import flat_quiet_spec
from oracles import from_canonical


def canonical(world):
    return canonical_dumps(world.to_canonical())


def test_generation_is_deterministic():
    spec = GenSpec(seed=42)
    assert canonical(generate_world(spec)) == canonical(generate_world(spec))


def test_different_seeds_differ():
    assert canonical(generate_world(GenSpec(seed=1))) != canonical(
        generate_world(GenSpec(seed=2))
    )


def test_positions_inside_arena():
    world = generate_world(GenSpec(seed=5, n_entities=64, arena_extent=3.0))
    assert np.all(world.positions >= -3.0)
    assert np.all(world.positions < 3.0)


def test_initial_velocities_zero_inertia_one():
    world = generate_world(GenSpec(seed=5))
    assert not world.velocities.any()
    assert np.all(world.inertia == 1.0)


def test_polarity_split():
    # The independent count: first floor(ratio * n) ids carry +1.
    for ratio, n in ((0.5, 16), (0.25, 10), (0.66, 7)):
        world = generate_world(GenSpec(seed=3, n_entities=n, polarity_ratio=ratio))
        n_pos = int(np.floor(ratio * n))
        assert np.all(world.polarity[:n_pos] == 1)
        assert np.all(world.polarity[n_pos:] == -1)


def test_one_law_per_level():
    world = generate_world(GenSpec(seed=9, n_levels=3))
    assert len(world.laws) == 3
    assert [law.level for law in world.laws] == [0, 1, 2]


def test_law_terms_within_grammar():
    grammar = CausationGrammar(max_terms=2, coeff_range=(-0.4, 0.4))
    lo, hi = grammar.coeff_range
    for seed in range(10):
        world = generate_world(GenSpec(seed=seed, grammar=grammar))
        for law in world.laws:
            assert 1 <= len(law.terms) <= 2 + 1  # the guaranteed term may append
            for (name, coeff), coupled in zip(law.terms, law.polarity_coupled):
                assert name in BASIS_TERMS
                if name == DAMPING_TERM:
                    assert not coupled
                    assert coeff >= 0
                else:
                    assert lo <= coeff <= hi


def test_level0_damping_floor():
    spec = GenSpec(seed=6, n_entities=20)
    world = generate_world(spec)
    floor = spec.grammar.base_damping / spec.n_entities
    damp = dict(world.laws[0].terms).get(DAMPING_TERM)
    assert damp is not None
    assert damp >= floor


def test_damping_floor_absent_when_disabled():
    grammar = CausationGrammar(base_damping=0.0)
    found = False
    for seed in range(5):
        world = generate_world(GenSpec(seed=seed, grammar=grammar))
        terms = dict(world.laws[0].terms)
        if DAMPING_TERM not in terms:
            found = True
    assert found  # with no floor at least one seed draws a damp-free law


def test_sample_law_consumes_fixed_draws():
    # The floor must not consume randomness: the next draw after sampling
    # matches a by-hand replay of the documented draw sequence.
    grammar = CausationGrammar()
    a = rngmod.make_stream(12, "generation")
    b = rngmod.make_stream(12, "generation")
    sample_law(grammar, 0, a, n_entities=16)

    n_choices = min(grammar.max_terms, len(grammar.basis))
    k = int(b.integers(1, n_choices + 1))
    b.choice(len(grammar.basis), size=k, replace=False)
    b.uniform(*grammar.coeff_range, size=k)
    assert a.uniform() == b.uniform()


def test_hierarchy_matches_bucket_oracle():
    spec = GenSpec(seed=21, n_entities=24, n_levels=2)
    world = generate_world(spec)
    width = spec.arena_extent / 2 ** (spec.n_levels - 1)
    n_buckets = int(np.ceil(2 * spec.arena_extent / width))
    idx = np.floor((world.positions + spec.arena_extent) / width).astype(int)
    idx = np.clip(idx, 0, n_buckets - 1)
    buckets = {}
    for row, key in enumerate(map(tuple, idx)):
        buckets.setdefault(key, []).append(row)
    expected = [tuple(sorted(v)) for _, v in sorted(buckets.items())]

    level = world.levels[0]
    from_parent = [
        tuple(np.flatnonzero(level.parent == row).tolist())
        for row in range(len(level.ids))
    ]
    assert from_parent == expected
    assert [tuple(c) for c in level.children] == expected
    assert list(level.ids) == list(
        range(spec.n_entities, spec.n_entities + len(expected))
    )


def test_composite_aggregates():
    # Per-composite oracle over every level of a stepped 3-level world:
    # each composite averages the rows its children occupy one level down,
    # positions as minimal-image offsets from its first child's row.
    world = generate_world(GenSpec(seed=4, n_entities=40, n_levels=3))
    extent = world.spec.arena_extent
    for _ in range(3):
        step([world], StepParams())
    aggregates = world.recompute_aggregates()
    assert len(aggregates) == len(world.levels) == 2
    below = (world.positions, world.velocities, world.inertia, world.polarity)
    below_ids = list(range(world.n_entities))
    below_basic = {i: {i} for i in below_ids}
    straddling = 0
    for level, (pos, vel, inertia, pol) in zip(world.levels, aggregates):
        basic = {}
        for row, (cid, kids) in enumerate(zip(level.ids, level.children)):
            rows = [below_ids.index(k) for k in kids]
            assert np.flatnonzero(level.parent == row).tolist() == rows
            w = below[2][rows]
            assert np.isclose(inertia[row], w.sum())
            anchor = below[0][rows[0]]
            offsets = minimal_image(below[0][rows] - anchor, extent)
            center = anchor + np.average(offsets, axis=0, weights=w)
            assert np.all((-extent <= pos[row]) & (pos[row] < extent))
            assert np.allclose(minimal_image(pos[row] - center, extent), 0.0)
            plain = np.average(below[0][rows], axis=0, weights=w)
            straddling += not np.allclose(minimal_image(plain - center, extent), 0.0)
            assert np.allclose(vel[row], np.average(below[1][rows], axis=0, weights=w))
            assert pol[row] == (1 if below[3][rows].sum() >= 0 else -1)
            basic[cid] = set().union(*(below_basic[k] for k in kids))
            assert set(np.flatnonzero(level.owner == row).tolist()) == basic[cid]
        below, below_ids, below_basic = (pos, vel, inertia, pol), list(level.ids), basic
    assert np.any(world.velocities)
    assert straddling  # some composite crosses the seam, so the anchor matters


def test_aggregates_are_never_stale():
    # Entity state edited in place between steps must reach the composite
    # forces of the next step, exactly as if the world had been rebuilt.
    world = generate_world(GenSpec(seed=8, n_entities=24, n_levels=3))
    params = StepParams()
    step([world], params)
    world.positions[3] = [1.0, -2.0]
    world.positions[7] = [-7.5, 7.5]
    world.velocities[5] = [0.3, -0.2]
    rebuilt = from_canonical(world.to_canonical())
    for _ in range(3):
        step([world], params)
        step([rebuilt], params)
    assert canonical(world) == canonical(rebuilt)


@pytest.mark.parametrize("n_levels", [2, 3])
def test_canonical_roundtrip_continues_identically(n_levels):
    spec = GenSpec(seed=31, n_levels=n_levels, drift=DriftSchedule(regime_times=(3,)))
    a = generate_world(spec)
    params = StepParams()
    for _ in range(2):
        step([a], params)
    b = from_canonical(a.to_canonical())
    for _ in range(5):
        step([a], params)
        step([b], params)
    assert canonical_dumps(a.to_canonical()) == canonical_dumps(b.to_canonical())


@pytest.mark.parametrize("n_levels", [2, 3])
def test_clone_is_isolated(n_levels):
    world = generate_world(GenSpec(seed=2, n_levels=n_levels))
    clone = world.clone()
    before = canonical(clone)
    step([world], StepParams())
    assert canonical(clone) == before
    # Clones share membership, so it must be read-only.
    assert len(clone.levels) == n_levels - 1
    for lv in clone.levels:
        for index_map in (lv.parent, lv.anchor, lv.owner):
            with pytest.raises(ValueError):
                index_map[0] = 0


def test_anchor_is_each_composites_first_row():
    world = generate_world(GenSpec(seed=4, n_entities=40, n_levels=3))
    assert len(world.levels) == 2
    for lv in world.levels:
        assert np.array_equal(lv.anchor, np.unique(lv.parent, return_index=True)[1])
        assert np.array_equal(lv.parent[lv.anchor], np.arange(len(lv.ids)))


@pytest.mark.parametrize("n_entities", [16, 192])
@pytest.mark.parametrize("n_levels", [1, 2, 3, 4])
def test_built_index_maps_equal_the_restored_ones(n_levels, n_entities):
    # build_hierarchy derives the maps from its own arrays; the restore
    # path looks every id up in the canonical form.  Both must agree.
    world = generate_world(GenSpec(seed=13, n_entities=n_entities, n_levels=n_levels))
    restored = from_canonical(world.to_canonical())
    assert len(world.levels) == len(restored.levels) == n_levels - 1
    for built, lv in zip(world.levels, restored.levels):
        assert (built.level, built.ids, built.children) == (lv.level, lv.ids, lv.children)
        for name in ("parent", "anchor", "owner", "bins"):
            index_map = getattr(built, name)
            assert index_map.dtype == getattr(lv, name).dtype, name
            assert np.array_equal(index_map, getattr(lv, name)), name
            assert not index_map.flags.writeable, name


def test_drift_resamples_at_regime_times():
    spec = GenSpec(seed=13, n_levels=2, drift=DriftSchedule(regime_times=(2, 5)))
    world = generate_world(spec)
    params = StepParams()
    level0_before = canonical_dumps(to_doc(world.laws[0]))
    marks = []
    for _ in range(8):
        step([world], params)
        for ev in world.last_drift_events:
            marks.append(ev["tick"])
    assert sorted(set(marks)) == [2, 5]
    assert canonical_dumps(to_doc(world.laws[0])) == level0_before


def test_drift_level_zero_rejected():
    with pytest.raises(ConfigError, match="level 0"):
        GenSpec(seed=1, n_levels=2,
                drift=DriftSchedule(regime_times=(4,), drift_levels=(0,)))


def test_active_drift_needs_a_level():
    with pytest.raises(ConfigError, match="no level"):
        GenSpec(seed=1, n_levels=1, drift=DriftSchedule(regime_times=(4,)))


def test_spec_validation_errors():
    bad = [
        lambda: GenSpec(seed=-1),
        lambda: GenSpec(seed=1 << 64),
        lambda: GenSpec(seed=0, n_entities=1),
        lambda: GenSpec(seed=0, polarity_ratio=0.0),
        lambda: GenSpec(seed=0, polarity_ratio=1.0),
        lambda: GenSpec(seed=0, arena_extent=0.0),
        lambda: GenSpec(seed=0, grammar=CausationGrammar(basis=("warp",))),
        lambda: GenSpec(seed=0, grammar=CausationGrammar(base_damping=2.0)),
        lambda: GenSpec(seed=0, n_levels=2, drift=DriftSchedule(drift_levels=(2,))),
    ]
    for build in bad:
        with pytest.raises(ConfigError):
            build()


@pytest.mark.parametrize("dim", [0, 1, 3])
def test_spec_refuses_dims_other_than_two(dim):
    with pytest.raises(ConfigError, match="density sensor reads 2-D worlds only"):
        GenSpec(seed=0, dim=dim)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**64 - 1),
    n=st.integers(min_value=2, max_value=40),
    ratio=st.floats(min_value=0.05, max_value=0.95),
)
def test_generation_invariants(seed, n, ratio):
    spec = GenSpec(seed=seed, n_entities=n, polarity_ratio=ratio, n_levels=1)
    world = generate_world(spec)
    assert world.positions.shape == (n, 2)
    assert np.all(np.abs(world.positions) <= spec.arena_extent)
    assert int((world.polarity == 1).sum()) == int(np.floor(ratio * n))


def test_quiet_fixture_has_single_level(quiet_world):
    assert len(quiet_world.levels) == 0 or quiet_world.spec.n_levels == 1
    assert len(quiet_world.laws) == 1


def test_flat_quiet_spec_is_valid():
    assert isinstance(flat_quiet_spec(0), GenSpec)
