"""Goal generation and scoring.

A problem is a target sensor grid produced by cloning the live world and
letting a hidden scriptor drive the agent's own body for a few ticks with
admissible forces.  The target is therefore reachable from the issue
state by construction.  The agent solves the problem by making its real
sensor reading match the target within a distance threshold before the
timeout.

Scoring discounts a solve by the observation and displacement budgets it
consumed, relative to the scriptor's own cost, and zeroes out any problem
the world would have solved on its own with no actions at all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import rng as rngmod
from .dynamics import StepParams, step
from .errors import ConfigError, ContractViolation
from .interface import BodySpec, SenseGrid, forces_to_accel, grid_distance, sense
from .trace import live_view
from .worldgen import World


@dataclass
class ProblemParams:
    """Knobs for problem generation and closure."""

    scriptor_len: int = 4
    epsilon: float = 0.16
    timeout: int = 24
    null_rollouts: int = 1
    impulse_floor: float = 0.5  # fraction of f_max the net script impulse must reach

    def validate(self) -> None:
        if self.scriptor_len < 1:
            raise ConfigError("scriptor_len must be >= 1")
        if self.epsilon <= 0:
            raise ConfigError("epsilon must be > 0")
        if self.timeout < 1:
            raise ConfigError("timeout must be >= 1")
        if self.null_rollouts < 1:
            raise ConfigError("null_rollouts must be >= 1")
        if self.impulse_floor < 0:
            raise ConfigError("impulse_floor must be >= 0")

    def to_dict(self) -> dict:
        return {
            "scriptor_len": self.scriptor_len,
            "epsilon": self.epsilon,
            "timeout": self.timeout,
            "null_rollouts": self.null_rollouts,
            "impulse_floor": self.impulse_floor,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ProblemParams":
        return cls(
            scriptor_len=d["scriptor_len"],
            epsilon=d["epsilon"],
            timeout=d["timeout"],
            null_rollouts=d["null_rollouts"],
            impulse_floor=d["impulse_floor"],
        )


@dataclass
class ScoreParams:
    """Score ceiling and resource-discount strengths."""

    s_max: float = 1.0
    lam_model: float = 0.0
    lam_compute: float = 0.0

    def validate(self) -> None:
        if self.s_max <= 0:
            raise ConfigError("s_max must be > 0")
        if self.lam_model < 0 or self.lam_compute < 0:
            raise ConfigError("score discount strengths must be >= 0")

    def to_dict(self) -> dict:
        return {"s_max": self.s_max, "lam_model": self.lam_model,
                "lam_compute": self.lam_compute}

    @classmethod
    def from_dict(cls, d: dict) -> "ScoreParams":
        return cls(s_max=d["s_max"], lam_model=d["lam_model"],
                   lam_compute=d["lam_compute"])


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
    hidden_actions: np.ndarray = field(repr=False)  # (len, n_members, dim)
    p_null: float | None = None

    def deadline(self) -> int:
        return self.issued_tick + self.timeout

    def disclosure_payload(self) -> dict:
        """The whole problem, as the disclosure trace records it."""
        return {
            "id": self.id,
            "issued_tick": self.issued_tick,
            "target_grid": self.target_grid.tolist(),
            "epsilon": self.epsilon,
            "timeout": self.timeout,
            "scriptor_len": self.scriptor_len,
            "o_ref": self.o_ref,
            "d_ref": self.d_ref,
            "hidden_actions": self.hidden_actions.tolist(),
            "p_null": self.p_null,
        }

    def public_payload(self) -> dict:
        """What the agent (and the live trace) may see: the live tier's view."""
        issued = {"kind": "problem_issued", "problem": self.disclosure_payload()}
        return live_view(issued)["problem"]


def generate_problem(world: World, body: BodySpec, params: ProblemParams,
                     step_params: StepParams, problem_id: int,
                     stream_name: str = "problems") -> Problem:
    """Issue a problem at the world's current tick.

    Draws the hidden action script from the live problem stream (so issue
    order is part of the world's deterministic history), plays it on a
    clone, and keeps the clone's final sensor reading as the target.  The
    live world itself is never advanced here.

    Each scripted tick is one in-ball force applied to every member, so
    the target differs from the issue state chiefly by a body
    displacement; that keeps targets reachable by translation-style
    control rather than demanding per-member choreography.
    """
    params.validate()
    body.validate(world.n_entities)
    stream = world.stream(stream_name)
    n_members = len(body.member_ids)
    dim = world.spec.dim

    actions = np.empty((params.scriptor_len, n_members, dim))
    floor = params.impulse_floor * body.f_max
    for attempt in range(16):
        for t in range(params.scriptor_len):
            common = rngmod.ball_uniform(stream, dim, body.f_max)
            actions[t, :] = common
        net = actions[:, 0, :].sum(axis=0)
        if float(np.sqrt((net * net).sum())) >= floor or floor == 0.0:
            break
        # a near-zero net impulse makes a target the idle world reaches
        # on its own; redraw rather than issue a worthless problem

    ghost = world.clone()
    for t in range(params.scriptor_len):
        accel = forces_to_accel(ghost, body, actions[t])
        step(ghost, step_params, external_accel=accel)
    target = sense(ghost, body)

    reference = float(max(1, params.scriptor_len))
    return Problem(
        id=problem_id,
        issued_tick=world.tick,
        target_grid=target.grid,
        scriptor_len=params.scriptor_len,
        epsilon=params.epsilon,
        timeout=params.timeout,
        o_ref=reference,
        d_ref=reference,
        hidden_actions=actions,
    )


def check_solved(reading: SenseGrid, problem: Problem) -> tuple[bool, float]:
    """Distance from the target, and whether it is within the threshold."""
    distance = grid_distance(reading.grid, problem.target_grid)
    return distance <= problem.epsilon, distance


def null_baseline(world: World, body: BodySpec, problem: Problem,
                  step_params: StepParams, rollouts: int = 1) -> float:
    """Fraction of zero-action rollouts that reach the target anyway.

    The dynamics are deterministic, so the rollouts agree and the result
    is 0.0 or 1.0; the rollout count is kept for the contract's sake.
    """
    if rollouts < 1:
        raise ContractViolation("rollouts must be >= 1")
    solved_count = 0
    for _ in range(rollouts):
        ghost = world.clone()
        hit = False
        for _ in range(problem.timeout):
            step(ghost, step_params)
            solved, _ = check_solved(sense(ghost, body), problem)
            if solved:
                hit = True
                break
        if hit:
            solved_count += 1
    return solved_count / rollouts


def hit_score(solved: bool, o_count: float, d_count: float, o_ref: float,
              d_ref: float, p_null: float, s_max: float = 1.0) -> float:
    """Score one closed problem.

    Zero unless solved; otherwise the max score discounted exponentially
    by observation and displacement cost against the scriptor reference,
    and scaled by how far the problem was from solving itself.
    """
    if o_ref <= 0 or d_ref <= 0:
        raise ContractViolation("score references must be positive")
    if not 0.0 <= p_null <= 1.0:
        raise ContractViolation("p_null must lie in [0, 1]")
    if not solved:
        return 0.0
    effort = 0.5 * (o_count / o_ref + d_count / d_ref)
    return s_max * (1.0 - p_null) * math.exp(-effort)


def normalized_score(raw: float, model_size: float, update_count: float,
                     lam_model: float = 0.0, lam_compute: float = 0.0) -> float:
    """Discount a raw score by declared model size and update counts."""
    if model_size < 0 or update_count < 0:
        raise ContractViolation("resource declarations must be nonnegative")
    denom = 1.0 + lam_model * math.log1p(model_size) + lam_compute * math.log1p(update_count)
    return raw / denom
