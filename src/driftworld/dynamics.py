"""Deterministic time stepping under per-level pairwise interaction laws.

Each tick: drift the laws if scheduled, compute the composite aggregates
once from the current state, evaluate pairwise accelerations at every
hierarchy level, push composite accelerations down to their member
entities, then integrate with a fixed-step semi-implicit Euler update on
the torus.  The radial part of a law acts along the minimal-image
separation vector and is divided by the receiver's inertia, so action
equals reaction exactly; the damping part opposes relative velocity.

Pair evaluation is arranged so that the acceleration a exerts on b is the
exact floating-point negation of what b exerts on a (equal inertia, no
clamp triggered), which is what lets the momentum audit demand 1e-9 over
thousands of ticks instead of a sloppy tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .canon import canonical_dumps, canonical_hash
from .errors import ConfigError
from .worldgen import (
    DAMPING_TERM,
    RADIAL_EXPONENT,
    CausationLaw,
    World,
    apply_drift,
    minimal_image,
    wrap_positions,
)


@dataclass
class StepParams:
    """Integrator constants, fixed for the life of an episode.

    The speed cap defaults to half the default sensor cell width per
    tick so the scene stays trackable at grid resolution.
    """

    dt: float = 1.0
    v_max: float = 1.0
    a_max: float = 8.0
    eps_r: float = 0.5

    def validate(self) -> None:
        if self.dt <= 0:
            raise ConfigError("dt must be > 0")
        if self.v_max <= 0 or self.a_max <= 0:
            raise ConfigError("v_max and a_max must be > 0")
        if self.eps_r <= 0:
            raise ConfigError("eps_r must be > 0")


def eval_law(law: CausationLaw, delta: np.ndarray, v_a: np.ndarray,
             v_b: np.ndarray, p_a: int, p_b: int, inertia_a: float,
             params: StepParams) -> np.ndarray:
    """Acceleration the law exerts on a due to b, for one pair.

    `delta` is the minimal-image vector from b to a, so a positive radial
    coefficient pushes a away from b.  Scalar reference implementation;
    the stepper uses the vectorized equivalent below.
    """
    r = float(np.sqrt((delta * delta).sum()))
    r_eff = max(r, params.eps_r)
    unit = delta / r if r > 0 else np.zeros_like(delta)
    radial = 0.0
    damping = 0.0
    for (name, coeff), coupled in zip(law.terms, law.polarity_coupled):
        if name == DAMPING_TERM:
            damping = coeff
            continue
        magnitude = coeff * r_eff ** RADIAL_EXPONENT[name]
        if coupled:
            magnitude *= p_a * p_b
        radial += magnitude
    accel = (radial / inertia_a) * unit - damping * (v_a - v_b)
    norm = float(np.sqrt((accel * accel).sum()))
    if norm > params.a_max:
        accel = accel * (params.a_max / norm)
    return accel


def _axis_sum_of_squares(planes: np.ndarray) -> np.ndarray:
    """Sum of squares over the leading (axis) dimension, added axis by axis."""
    total = planes[0] * planes[0]
    for plane in planes[1:]:
        total += plane * plane
    return total


def _level_accel(positions: np.ndarray, velocities: np.ndarray,
                 polarity: np.ndarray, inertia: np.ndarray,
                 law: CausationLaw, extent: float,
                 params: StepParams) -> np.ndarray:
    """Summed pairwise acceleration for every member of one level.

    Pair tensors are laid out `(dim, j, i)`: receiver i innermost, partner
    j next, one plane per axis.  Squared norms are explicit per-axis adds,
    and the partner sum runs over the middle axis, which numpy reduces
    sequentially in partner order.  A reduction along the innermost axis
    would use pairwise summation and change the bytes.
    """
    m = positions.shape[0]
    dim = positions.shape[1]
    if m < 2:
        return np.zeros((m, dim))

    pos = positions.T
    delta = minimal_image(pos[:, None, :] - pos[:, :, None], extent)
    r = np.sqrt(_axis_sum_of_squares(delta))
    r_eff = np.maximum(r, params.eps_r)

    radial = np.zeros((m, m))
    damping = 0.0
    pol_prod = polarity[None, :] * polarity[:, None]
    for (name, coeff), coupled in zip(law.terms, law.polarity_coupled):
        if name == DAMPING_TERM:
            damping = coeff
            continue
        magnitude = coeff * r_eff ** RADIAL_EXPONENT[name]
        if coupled:
            magnitude = magnitude * pol_prod
        radial += magnitude

    # unit separation vectors (zero for coincident pairs), scaled in place
    pair = np.divide(delta, r, out=np.zeros_like(delta), where=r > 0)
    pair *= radial / inertia
    if damping != 0.0:
        vel = velocities.T
        relative = vel[:, None, :] - vel[:, :, None]
        relative *= damping
        pair -= relative
    diagonal = np.arange(m)
    pair[:, diagonal, diagonal] = 0.0

    norm = np.sqrt(_axis_sum_of_squares(pair))
    over = norm > params.a_max
    if over.any():
        pair *= np.where(over, params.a_max / np.where(norm > 0, norm, 1.0), 1.0)

    return np.ascontiguousarray(pair.sum(axis=1).T)


def compute_accelerations(world: World, params: StepParams,
                          aggregates: list[tuple[np.ndarray, ...]]) -> np.ndarray:
    """Net per-entity acceleration from every hierarchy level's law.

    `aggregates` is `world.recompute_aggregates()` for the current state.
    A composite's acceleration reaches its members as equal acceleration,
    i.e. force in proportion to each member's share of the aggregate
    inertia.
    """
    accel = _level_accel(
        world.positions, world.velocities, world.polarity, world.inertia,
        world.laws[0], world.spec.arena_extent, params,
    )
    for lv, (pos, vel, inertia, pol) in zip(world.levels, aggregates):
        comp = _level_accel(
            pos, vel, pol, inertia, world.laws[lv.level],
            world.spec.arena_extent, params,
        )
        accel += comp[lv.owner]
    return accel


def step(world: World, params: StepParams,
         external_accel: np.ndarray | None = None) -> World:
    """Advance the world by one tick in place.

    Order: scheduled law drift, one aggregate pass, force evaluation at
    all levels, external (agent) accelerations, then the semi-implicit
    Euler update with the speed clamp and toroidal wrap.  Drift events for this tick end up in
    `world.last_drift_events`.
    """
    params.validate()
    world.last_drift_events = apply_drift(world)
    accel = compute_accelerations(world, params, world.recompute_aggregates())
    if external_accel is not None:
        accel = accel + external_accel

    vel = world.velocities + accel * params.dt
    speed = np.sqrt((vel * vel).sum(axis=1))
    over = speed > params.v_max
    if over.any():
        scale = np.where(over, params.v_max / np.where(speed > 0, speed, 1.0), 1.0)
        vel = vel * scale[:, None]
    world.velocities = vel
    world.positions = wrap_positions(
        world.positions + vel * params.dt, world.spec.arena_extent
    )
    world.tick += 1
    return world


def momentum(world: World) -> np.ndarray:
    """Total inertia-weighted velocity, the conserved quantity audits track."""
    return (world.velocities * world.inertia[:, None]).sum(axis=0)


def snapshot(world: World) -> bytes:
    """Canonical byte encoding of the full world state."""
    return canonical_dumps(world.to_canonical()).encode("utf-8")


def snapshot_hash(world: World) -> str:
    return canonical_hash(world.to_canonical())
