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

The pair kernel writes every elementwise op into one workspace per level
size `m`, allocated on first use and kept for the life of the process:
two `(2, m, m)` and four `(m, m)` float64 buffers and one `(m, m)` mask,
about `65 * m**2` bytes (2.4 MB at m = 192).  Elementwise results do not
depend on where they are written, so the bytes are those of the plain
expressions.  What a level's pairs need that never changes (its inertia,
polarity and `(m, m)` polarity products) lives in the world, in
`World.level_constants`, computed once and shared with clones.

At a tick that issues problems, `prepare` applies the tick's drift and
computes its internal accelerations before any clone is taken, so the
live step and the first step of every rollout from that state share one
force pass; `step` stays the only integrator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .canon import canonical_hash
from .errors import ConfigError, ContractViolation
from .worldgen import (
    DAMPING_TERM,
    RADIAL_EXPONENT,
    CausationLaw,
    LevelConstants,
    World,
    apply_drift,
    clamp_rows,
    wrap_positions,
)


@dataclass(frozen=True)
class StepParams:
    """Integrator constants, fixed for the life of an episode.

    The speed cap defaults to half the default sensor cell width per
    tick so the scene stays trackable at grid resolution.
    """

    dt: float = 1.0
    v_max: float = 1.0
    a_max: float = 8.0
    eps_r: float = 0.5

    def __post_init__(self):
        if self.dt <= 0:
            raise ConfigError("dt must be > 0")
        if self.v_max <= 0 or self.a_max <= 0:
            raise ConfigError("v_max and a_max must be > 0")
        if self.eps_r <= 0:
            raise ConfigError("eps_r must be > 0")


class _Workspace:
    """Pair-sized buffers for one level size `m`, overwritten by every call.

    Buffers are reused across roles once their first value is dead:
    `pair` holds the rounding quotient of the minimal image before it
    holds the pair accelerations, `delta` holds the relative velocities,
    `r` the clamp norms and `r_eff` the clamp scales.
    """

    __slots__ = ("delta", "pair", "r", "r_eff", "radial", "term", "mask",
                 "partner_sum")

    def __init__(self, m: int):
        self.delta = np.empty((2, m, m))
        self.pair = np.empty((2, m, m))
        self.r = np.empty((m, m))
        self.r_eff = np.empty((m, m))
        self.radial = np.empty((m, m))
        self.term = np.empty((m, m))
        self.mask = np.empty((m, m), dtype=bool)
        self.partner_sum = np.empty((2, m))


#: One workspace per level size `m` the kernel has seen in this process.
_WORKSPACES: dict[int, _Workspace] = {}

#: Relative margin on the clamp bound, far above the few ulps by which
#: the rounded pair accelerations can exceed their exact values.
_BOUND_MARGIN = 1.0 + 1e-9


def _axis_sum_of_squares(planes: np.ndarray, out: np.ndarray,
                         scratch: np.ndarray) -> np.ndarray:
    """`x**2 + y**2` of the `(2, j, i)` planes, into `out`."""
    np.square(planes[0], out=out)
    np.square(planes[1], out=scratch)
    out += scratch
    return out


def _pair_differences(values: np.ndarray, out: np.ndarray) -> np.ndarray:
    """`out[k, j, i] = values[k, i] - values[k, j]`: a broadcast copy, then
    an in-place subtract, which is the same subtraction and faster, more
    so from contiguous rows."""
    values = np.ascontiguousarray(values)
    np.copyto(out, values[:, None, :])
    out -= values[:, :, None]
    return out


def _radial_term(r_eff: np.ndarray, exponent: int, coeff: float,
                 out: np.ndarray):
    """`coeff * r_eff ** exponent` into `out`, for every exponent in
    `RADIAL_EXPONENT`; the `const` term is the scalar `coeff` itself,
    since `1.0 * coeff` is `coeff`.

    Only products and one division, which IEEE 754 rounds exactly, so
    the bits do not depend on the CPU's SIMD dispatch; `np.power` does.
    """
    if exponent == 0:
        return coeff
    if exponent == 1:
        return np.multiply(r_eff, coeff, out=out)
    if exponent == 2:
        np.square(r_eff, out=out)
    elif exponent == -1:
        np.reciprocal(r_eff, out=out)
    elif exponent == -2:
        np.square(r_eff, out=out)
        np.divide(1.0, out, out=out)
    else:
        raise ValueError(f"no exact form for radial exponent {exponent}")
    out *= coeff
    return out


def _level_accel(positions: np.ndarray, velocities: np.ndarray,
                 consts: LevelConstants, law: CausationLaw, extent: float,
                 params: StepParams) -> np.ndarray:
    """Summed pairwise acceleration for every member of one level.

    Pair tensors are laid out `(2, j, i)`: receiver i innermost, partner
    j next, one plane per axis.  Squared norms are explicit `x**2 + y**2`,
    and the partner sum runs over the middle axis, which numpy reduces
    sequentially in partner order.  A reduction along the innermost axis
    would use pairwise summation and change the bytes.

    Every elementwise op writes into the size-`m` workspace, so a warm
    call allocates nothing pair-sized; the result is a fresh array.  The
    level's polarity products and inertia come from `consts`.

    The radial sum starts with its first term, not with 0.0, so a zero in
    it may be -0.0.  That sign only reaches pair accelerations that are
    zeros themselves, and every partner sum also adds its diagonal +0.0,
    so it never reaches the result.  Dividing by an inertia of all 1.0 is
    skipped, and so is the clamp's per-pair norm when a bound shows no
    pair can exceed `a_max`.
    """
    m = positions.shape[0]
    if m < 2:
        return np.zeros((m, 2))
    ws = _WORKSPACES.get(m)
    if ws is None:
        ws = _WORKSPACES[m] = _Workspace(m)
    delta, pair, r, r_eff = ws.delta, ws.pair, ws.r, ws.r_eff
    radial, term, mask = ws.radial, ws.term, ws.mask

    # minimal image: delta - span * round(delta / span)
    span = 2.0 * extent
    _pair_differences(positions.T, delta)
    np.divide(delta, span, out=pair)
    np.round(pair, out=pair)
    pair *= span
    delta -= pair
    np.sqrt(_axis_sum_of_squares(delta, r, term), out=r)
    np.maximum(r, params.eps_r, out=r_eff)

    started = False  # whether `radial` holds a term yet
    damping = 0.0
    for (name, coeff), coupled in zip(law.terms, law.polarity_coupled):
        if name == DAMPING_TERM:
            damping = coeff
            continue
        out = term if started else radial
        magnitude = _radial_term(r_eff, RADIAL_EXPONENT[name], coeff, out)
        if coupled:
            magnitude = np.multiply(magnitude, consts.polarity_product, out=out)
        if started:
            radial += magnitude
        elif magnitude is not radial:  # the scalar of an uncoupled `const`
            radial.fill(magnitude)
        started = True
    if not started:
        radial.fill(0.0)

    # unit separation vectors, +0.0 where r is not positive: a plain
    # divide, then the rare coincident pair (or NaN) is fixed up; the
    # diagonal's 0 / 0 is overwritten below
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(delta, r, out=pair)
    np.greater(r, 0.0, out=mask)
    if np.count_nonzero(mask) < m * (m - 1):
        np.logical_not(mask, out=mask)
        np.copyto(pair, 0.0, where=mask)
    if not consts.unit_inertia:
        np.divide(radial, consts.inertia, out=radial)
    pair *= radial
    spread = 0.0
    if damping != 0.0:
        vel = velocities.T
        relative = _pair_differences(vel, delta)
        relative *= damping
        pair -= relative
        spread = float(vel.max() - vel.min())
    pair.reshape(2, m * m)[:, ::m + 1] = 0.0  # the diagonal, as a view

    # |pair| <= |radial| + |damping| * |relative velocity|, and each
    # relative velocity component is at most the spread of all of them
    bound = (max(radial.max(), -radial.min())
             + abs(damping) * math.sqrt(2.0) * spread)
    if not bound * _BOUND_MARGIN <= params.a_max:
        norm = np.sqrt(_axis_sum_of_squares(pair, r, term), out=r)
        over = np.greater(norm, params.a_max, out=mask)
        if over.any():
            scale = r_eff
            scale.fill(1.0)
            np.divide(params.a_max, norm, out=scale, where=over)
            pair *= scale

    np.sum(pair, axis=1, out=ws.partner_sum)
    return ws.partner_sum.T.copy()


def compute_accelerations(world: World, params: StepParams,
                          aggregates: list[tuple[np.ndarray, ...]]) -> np.ndarray:
    """Net per-entity acceleration from every hierarchy level's law.

    `aggregates` is `world.recompute_aggregates()` for the current state.
    A composite's acceleration reaches its members as equal acceleration,
    i.e. force in proportion to each member's share of the aggregate
    inertia.
    """
    consts = world.level_constants()
    extent = world.spec.arena_extent
    accel = _level_accel(world.positions, world.velocities, consts[0],
                         world.laws[0], extent, params)
    for lv, (pos, vel, _, _) in zip(world.levels, aggregates):
        comp = _level_accel(pos, vel, consts[lv.level], world.laws[lv.level],
                            extent, params)
        accel += comp[lv.owner]
    return accel


@dataclass(frozen=True, eq=False)
class PendingForces:
    """One tick's drift events and internal accelerations, computed before
    its step.  `accel` is read-only, because clones share it."""

    tick: int
    params: StepParams
    drift_events: list[dict]
    accel: np.ndarray


def prepare(world: World, params: StepParams) -> PendingForces:
    """Apply this tick's scheduled drift and compute its internal
    accelerations now, unless that is already done; `step` uses them.

    They depend on the state alone, so a clone taken before the step
    inherits them: at a tick that issues problems, the live step and the
    first step of every script rollout and null baseline from that state
    share one force pass.  A world holds at most one pending set, for its
    current tick, and it must be stepped before it is serialized.
    """
    pending = world.pending
    if pending is None:
        events = apply_drift(world)
        accel = compute_accelerations(world, params, world.recompute_aggregates())
        accel.flags.writeable = False
        pending = world.pending = PendingForces(world.tick, params, events, accel)
    elif pending.tick != world.tick or pending.params != params:
        raise ContractViolation(
            "pending forces were prepared for another tick or other step params")
    return pending


def step(world: World, params: StepParams,
         external_accel: np.ndarray | None = None) -> World:
    """Advance the world by one tick in place.

    Order: scheduled law drift, one aggregate pass, force evaluation at
    all levels (the three done by `prepare`, or taken from it), external
    (agent) accelerations, then the semi-implicit Euler update with the
    speed clamp and toroidal wrap.  Drift events for this tick end up in
    `world.last_drift_events`.
    """
    pending = prepare(world, params)
    world.pending = None
    world.last_drift_events = pending.drift_events
    accel = pending.accel
    if external_accel is not None:
        accel = accel + external_accel

    world.velocities = clamp_rows(world.velocities + accel * params.dt, params.v_max)
    world.positions = wrap_positions(
        world.positions + world.velocities * params.dt, world.spec.arena_extent
    )
    world.tick += 1
    return world


def snapshot_hash(world: World) -> str:
    return canonical_hash(world.to_canonical())
