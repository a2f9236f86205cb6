import numpy as np
import pytest

from driftworld.config import RunConfig
from driftworld.dynamics import StepParams
from driftworld.interface import BodySpec
from driftworld.protocol import close_idle_agents
from driftworld.worldgen import (
    CausationGrammar,
    DriftSchedule,
    GenSpec,
    generate_world,
)


@pytest.fixture(autouse=True)
def _end_parked_agents():
    """End every wire agent process a test left parked, so none reaches the next."""
    yield
    close_idle_agents()


@pytest.fixture
def small_spec():
    return GenSpec(seed=7, n_entities=8, dim=2, n_levels=1, arena_extent=8.0)


@pytest.fixture
def small_world(small_spec):
    return generate_world(small_spec)


@pytest.fixture
def default_config():
    return RunConfig()


@pytest.fixture
def body():
    return BodySpec(member_ids=(0, 1, 2, 3), resolution=16,
                    window_halfwidth=8.0, f_max=4.0)


def flat_quiet_spec(seed, n_entities=6):
    """A world with one explicit mild law: no hierarchy, no drift.

    Used wherever a test needs dynamics it can reason about by hand.
    """
    grammar = CausationGrammar(
        basis=("inv", "damp"),
        max_terms=2,
        coeff_range=(-0.01, 0.01),
        damping_scale=0.5,
        base_damping=0.4,
    )
    return GenSpec(seed=seed, n_entities=n_entities, dim=2, n_levels=1,
                   grammar=grammar, drift=DriftSchedule(), arena_extent=8.0)


@pytest.fixture
def quiet_world():
    return generate_world(flat_quiet_spec(3))


@pytest.fixture
def step_params():
    return StepParams()
