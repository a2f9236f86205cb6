"""Goal generation and scoring.

A problem is a target sensor grid produced by cloning the live world and
letting a hidden scriptor drive the agent's own body for a few ticks with
admissible forces.  The target is therefore reachable from the issue
state by construction.  The agent solves the problem by making its real
sensor reading match the target within a distance threshold before the
timeout.

Scoring discounts a solve by the observation and displacement budgets it
consumed, relative to the scriptor's own cost, and zeroes out any problem
the world would have solved on its own with no actions at all.  That null
baseline only matters for a solved problem, so it is rolled when a
problem closes solved: one zero-action rollout from the world as it was
when the problem was issued.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import rng as rngmod
from .dynamics import StepParams, step
from .errors import ConfigError, ContractViolation
from .interface import BodySpec, SenseGrid, forces_to_accel, grid_distance, sense
from .worldgen import World


@dataclass(frozen=True)
class ProblemParams:
    """Knobs for problem generation and closure."""

    scriptor_len: int = 4
    epsilon: float = 0.16
    timeout: int = 24
    impulse_floor: float = 0.5  # fraction of f_max the net script impulse must reach

    def __post_init__(self):
        if self.scriptor_len < 1:
            raise ConfigError("scriptor_len must be >= 1")
        if self.epsilon <= 0:
            raise ConfigError("epsilon must be > 0")
        if self.timeout < 1:
            raise ConfigError("timeout must be >= 1")
        if self.impulse_floor < 0:
            raise ConfigError("impulse_floor must be >= 0")


@dataclass(frozen=True)
class ScoreParams:
    """Score ceiling and resource-discount strengths."""

    s_max: float = 1.0
    lam_model: float = 0.0
    lam_compute: float = 0.0

    def __post_init__(self):
        if self.s_max <= 0:
            raise ConfigError("s_max must be > 0")
        if self.lam_model < 0 or self.lam_compute < 0:
            raise ConfigError("score discount strengths must be >= 0")


@dataclass
class Problem:
    """An issued goal.  `hidden_actions` never leaves the disclosure trace."""

    id: int
    issued_tick: int
    target_grid: np.ndarray
    scriptor_len: int
    epsilon: float
    timeout: int
    o_ref: float
    d_ref: float
    hidden_actions: np.ndarray = field(repr=False)  # (len, n_members, 2)
    p_null: float | None = None  # rolled only when the problem closes solved

    def deadline(self) -> int:
        return self.issued_tick + self.timeout


def generate_problem(worlds: list[World], bodies: list[BodySpec],
                     params: ProblemParams, step_params: StepParams,
                     problem_ids: list[int], stream_names: list[str]) -> list[Problem]:
    """Issue problems at their worlds' current ticks, one per entry of the
    lists: problem `problem_ids[k]` for `bodies[k]` on `worlds[k]`, drawn
    from the world's stream `stream_names[k]`.

    Draws each hidden action script from the live problem stream (so issue
    order is part of the world's deterministic history), plays it on a
    clone, and keeps the clone's final sensor reading as the target.  The
    live worlds themselves are never advanced here.

    Each scripted tick is one in-ball force applied to every member, so
    the target differs from the issue state chiefly by a body
    displacement; that keeps targets reachable by translation-style
    control rather than demanding per-member choreography.

    The scripts are drawn in list order, and their rollouts are stepped
    as one batch.  A rollout reads no problem stream, so each problem is
    the one it would be alone.
    """
    scripts = [_draw_script(w.stream(name), body, params)
               for w, body, name in zip(worlds, bodies, stream_names)]
    ghosts = [w.clone() for w in worlds]
    for t in range(params.scriptor_len):
        step(ghosts, step_params,
             forces_to_accel(ghosts, bodies, [script[t] for script in scripts]))
    reference = float(max(1, params.scriptor_len))
    return [Problem(
        id=pid,
        issued_tick=w.tick,
        target_grid=target.grid,
        scriptor_len=params.scriptor_len,
        epsilon=params.epsilon,
        timeout=params.timeout,
        o_ref=reference,
        d_ref=reference,
        hidden_actions=script,
    ) for w, pid, script, target in zip(worlds, problem_ids, scripts, sense(ghosts, bodies))]


def _draw_script(stream: np.random.Generator, body: BodySpec,
                 params: ProblemParams) -> np.ndarray:
    """A problem's hidden actions, `(scriptor_len, members, 2)`, from its
    problem stream: one in-ball force per tick for every member, redrawn
    while the net impulse is under the floor."""
    n_members = len(body.member_ids)

    actions = np.empty((params.scriptor_len, n_members, 2))
    floor = params.impulse_floor * body.f_max
    for attempt in range(16):
        for t in range(params.scriptor_len):
            common = rngmod.ball_uniform(stream, body.f_max)
            actions[t, :] = common
        net = actions[:, 0, :].sum(axis=0)
        if float(np.sqrt((net * net).sum())) >= floor or floor == 0.0:
            break
        # a near-zero net impulse makes a target the idle world reaches
        # on its own; redraw rather than issue a worthless problem
    return actions


def check_solved(reading: SenseGrid, problem: Problem) -> tuple[bool, float]:
    """Distance from the target, and whether it is within the threshold."""
    distance = grid_distance(reading.grid, problem.target_grid)
    return distance <= problem.epsilon, distance


def null_baseline(world: World, body: BodySpec, problem: Problem,
                  step_params: StepParams) -> float:
    """1.0 if the world, left with no actions at all, brings the body to
    the problem's target within its timeout, else 0.0.

    `world` is the state the problem was issued from and is not advanced:
    a clone is stepped with no actions and the body sensed after every
    step, up to the first solve or the timeout.
    """
    ghost = world.clone()
    for _ in range(problem.timeout):
        step([ghost], step_params)
        if check_solved(sense([ghost], [body])[0], problem)[0]:
            return 1.0
    return 0.0


def hit_score(solved: bool, o_count: float, d_count: float, o_ref: float,
              d_ref: float, p_null: float | None, s_max: float = 1.0) -> float:
    """Score one closed problem.

    Zero unless solved, whatever `p_null` is (an unsolved problem has
    none); otherwise the max score discounted exponentially by
    observation and displacement cost against the scriptor reference,
    and scaled by how far the problem was from solving itself.
    """
    if o_ref <= 0 or d_ref <= 0:
        raise ContractViolation("score references must be positive")
    if not solved:
        return 0.0
    if p_null is None or not 0.0 <= p_null <= 1.0:
        raise ContractViolation("p_null must lie in [0, 1]")
    effort = 0.5 * (o_count / o_ref + d_count / d_ref)
    return s_max * (1.0 - p_null) * math.exp(-effort)


def normalized_score(raw: float, model_size: float, update_count: float,
                     lam_model: float = 0.0, lam_compute: float = 0.0) -> float:
    """Discount a raw score by declared model size and update counts."""
    if model_size < 0 or update_count < 0:
        raise ContractViolation("resource declarations must be nonnegative")
    denom = 1.0 + lam_model * math.log1p(model_size) + lam_compute * math.log1p(update_count)
    return raw / denom
