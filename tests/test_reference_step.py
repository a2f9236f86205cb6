"""The package's step against the plain-Python reference step, every tick.

Every golden case's worlds, over the case's whole horizon, and a few
ticks of a 192-entity three-level world (the size of the benchmark's
shared world) are stepped twice from one state: by `dynamics.step` and
by `oracles.reference_step`, with the same external accelerations.  At
every tick each level's aggregates and pair accelerations, and the
entities' new positions and velocities, must be the same bytes.  So a
rewrite of the aggregate pass, the pair kernel or the integrator fails
at the first tick it changes, and the failure names the tick, the level
and the array.
"""

from dataclasses import replace

import numpy as np
import pytest

from driftworld.config import load_config
from driftworld.dynamics import step
from driftworld.interface import forces_to_accel
from driftworld.rng import derive_world_seed
from driftworld.worldgen import generate_world

from oracles import reference_step
from test_dynamics import _level_accel
from test_golden import CASES

AGGREGATE_NAMES = ("positions", "velocities", "inertia", "polarity")

#: A world as large as the benchmark's shared one, with a law resample
#: inside its few ticks.
DENSE_192 = ["gen.seed=20", "gen.n_entities=192", "gen.n_levels=3",
             "drift.regime_times=1", "episode.horizon=3"]


def _worlds():
    """(id, config, world) for every golden world and the 192-entity one."""
    for name, case in sorted(CASES.items()):
        cfg = load_config(None, case["overrides"])
        if case["stage"] == 1:
            for i in range(cfg.n_worlds):
                seed = derive_world_seed(cfg.master_seed, i)
                yield f"{name}/w{i}", cfg, replace(cfg.gen, seed=seed)
        else:
            yield name, cfg, cfg.gen
    cfg = load_config(None, DENSE_192)
    yield "dense-192", cfg, cfg.gen


WORLDS = {case_id: (cfg, spec) for case_id, cfg, spec in _worlds()}


def _package_step(world, params, external) -> dict:
    """`dynamics.step`, with the arrays `oracles.reference_step` returns."""
    parts = {}
    levels = [(world.positions.copy(), world.velocities.copy())]
    for lv, agg in zip(world.levels, world.recompute_aggregates()):
        levels.append(agg[:2])
        for name, value in zip(AGGREGATE_NAMES, agg):
            parts[lv.level, name] = value
    step([world], params, external_accel=[external])
    extent = world.spec.arena_extent
    consts = world.level_constants()
    for level, (pos, vel) in enumerate(levels):
        # the laws after the step are the ones it used: drift comes first
        parts[level, "accelerations"] = _level_accel(
            pos, vel, consts[level], world.laws[level], extent, params)
    parts[0, "velocities"] = world.velocities
    parts[0, "positions"] = world.positions
    return parts


@pytest.mark.parametrize("case_id", sorted(WORLDS))
def test_step_equals_reference_step_every_tick(case_id):
    cfg, spec = WORLDS[case_id]
    params = cfg.step
    world = generate_world(spec)
    reference = world.clone()
    # one body pushed hard enough that the speed clamp acts
    body = cfg.body(0)
    pushes = np.random.default_rng(spec.seed)
    fastest = 0.0
    for t in range(cfg.episode.horizon):
        forces = pushes.uniform(-body.f_max, body.f_max, size=(len(body.member_ids), 2))
        external = forces_to_accel([world], [body], [forces])[0]
        got = _package_step(world, params, external)
        want = reference_step(reference, params, external)
        assert sorted(got) == sorted(want), f"tick {t}: different arrays"
        for (level, name), value in want.items():  # in the order computed
            expected = np.array(value)
            assert np.asarray(got[level, name]).tobytes() == expected.tobytes(), \
                f"{case_id}: tick {t}, level {level}, {name} differ"
        fastest = max(fastest, float(np.linalg.norm(world.velocities, axis=1).max()))
    assert fastest == pytest.approx(params.v_max), "the speed clamp never acted"
