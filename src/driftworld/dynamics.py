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

`step`, `prepare` and `compute_accelerations` take a batch, a list of
worlds, and one world is a list of one; a batch writes the bytes its
worlds write stepped one by one.  One pair-kernel call serves every
level of the same size and arena in the batch, at most `PAIR_BUDGET`
pairs at a time, and the integration runs on all the batch's entity rows
at once.  At 16 entities a level's cost is numpy dispatch, not
arithmetic, so one call over nine levels costs far less than nine calls;
a level of 91 or more entities fills the budget alone.

Two fast paths for a lone world stay, chosen by the batch size: a batch
of one skips the grouping by level size, and a kernel call over one
level works on `(2, j, i)` arrays rather than `(2, 1, j, i)`.  Measured
with `timeit` (minima of six runs on a shared 2-vCPU VM, a default
16-entity world), the grouping made a lone world's force pass take 74
us instead of 67 and its step 123 us instead of 111; the `(2, 1, j, i)`
layout made its force pass 14-17 % slower at 16, 64 and 192 entities.

The pair kernel writes every elementwise op into a workspace per level
shape, `(m,)` for one level or `(B, m)` for a batch of `B`: two
`(2, B, m, m)` and five `(B, m, m)` float64 buffers and one `(B, m, m)`
mask, about `73 * B * m**2` bytes (2.7 MB at one level of 192).  The
workspaces of one level size are cut from one arena, allocated on first
use, grown to the largest batch of that size and kept for the life of
the process, so a batch of any size costs no more than the largest.
Elementwise results do not depend on where they are written, so the
bytes are those of the plain expressions.  What a level's pairs need
that never changes (its inertia, polarity and `(m, m)` polarity products)
lives in the world, in `World.level_constants`, computed once and shared
with clones.

At a tick that issues problems, `prepare` applies the tick's drift and
computes its internal accelerations before any clone is taken, so the
live step and the first step of every rollout from that state share one
force pass; `step` stays the only integrator, and a prepared world in a
batch keeps the forces it was prepared with.
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
    divide_by_span,
    stacked,
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
    """Pair-sized buffers for one level of size `m` (`lead` is `()`) or a
    batch of `B` of them (`lead` is `(B,)`), overwritten by every call.

    Buffers are reused across roles once their first value is dead:
    `pair` holds the rounding quotient of the minimal image before it
    holds the pair accelerations, `delta` holds the relative velocities,
    `r` the clamp norms and `r_eff` the clamp scales.  `coupling` holds
    a batch's polarity products.  Every buffer is a view of the arena of
    its level size, `_ARENAS[m]`.
    """

    __slots__ = ("delta", "pair", "r", "r_eff", "radial", "term", "coupling",
                 "mask", "partner_sum")

    def __init__(self, lead: tuple[int, ...], m: int):
        planes, pairs = (2, *lead, m, m), (*lead, m, m)
        floats, flags = _arena(math.prod(pairs), m)
        start = 0
        for name, shape in (("delta", planes), ("pair", planes), ("r", pairs),
                            ("r_eff", pairs), ("radial", pairs), ("term", pairs),
                            ("coupling", pairs), ("partner_sum", (2, *lead, m))):
            size = math.prod(shape)
            setattr(self, name, floats[start:start + size].reshape(shape))
            start += size
        self.mask = flags[:math.prod(pairs)].reshape(pairs)


#: Per level size `m`, one float64 and one bool buffer that every
#: workspace of that size is cut from, grown to the largest batch seen;
#: about `73 * B * m**2` bytes for a batch of `B`, 2.7 MB at one level of
#: 192 and at most about `73 * PAIR_BUDGET` bytes for a batch of levels.
_ARENAS: dict[int, tuple[np.ndarray, np.ndarray]] = {}

#: One workspace per level shape, `(m,)` or `(B, m)`, cut from the
#: current arena of its size.
_WORKSPACES: dict[tuple[int, ...], _Workspace] = {}


def _arena(pairs: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """The arena of level size `m`, large enough for `pairs` pairs.  When
    it has to grow, the workspaces cut from the old one are dropped."""
    floats, flags = _ARENAS.get(m, (None, None))
    if flags is None or flags.size < pairs:
        floats, flags = _ARENAS[m] = np.empty(9 * pairs + 2 * pairs // m), np.empty(pairs, bool)
        for shape in [shape for shape in _WORKSPACES if shape[-1] == m]:
            del _WORKSPACES[shape]
    return floats, flags


#: The most pairs one kernel call takes, measured (`timeit`, 2-vCPU VM,
#: numpy 2.4.6, levels in runs of three that share a law, as in a
#: stage-one battery).  A 16-entity level costs 93 us alone, 22 us in a
#: call of 9 and 10.0 us in a call of 63 (16,128 pairs), within 2 % of
#: its cost in a call of 126.  At 64 entities a call of 4 is within 2 %
#: of a call of 6; at 96 a second level saves nothing, and at 128 it
#: costs 4 %.  So a level of 91 or more entities goes alone.
PAIR_BUDGET = 16_384

#: Relative margin on the clamp bound, far above the few ulps by which
#: the rounded pair accelerations can exceed their exact values.
_BOUND_MARGIN = 1.0 + 1e-9


def _axis_sum_of_squares(planes: np.ndarray, out: np.ndarray,
                         scratch: np.ndarray) -> np.ndarray:
    """`x**2 + y**2` of the `(2, ...)` planes, into `out`."""
    np.square(planes[0], out=out)
    np.square(planes[1], out=scratch)
    out += scratch
    return out


def _planes(rows: np.ndarray) -> np.ndarray:
    """`(..., m, 2)` rows as `(2, ..., m)` planes, one per axis."""
    return rows.T if rows.ndim == 2 else rows.transpose(2, 0, 1)


def _pair_differences(values: np.ndarray, out: np.ndarray) -> np.ndarray:
    """`out[k, ..., j, i] = values[k, ..., i] - values[k, ..., j]`: a
    broadcast copy, then an in-place subtract, which is the same
    subtraction and faster, more so from contiguous rows."""
    values = np.ascontiguousarray(values)
    np.copyto(out, values[..., None, :])
    out -= values[..., :, None]
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


def _law_runs(laws: list[CausationLaw]) -> list[slice]:
    """Each maximal run of equal laws in `laws`, as a slice of the batch.
    Equal laws give equal bits: a zero coefficient's sign reaches only
    zero pair terms, and every partner sum adds its diagonal +0.0."""
    runs, lo = [], 0
    for hi in range(1, len(laws) + 1):
        if hi == len(laws) or (laws[hi].terms, laws[hi].polarity_coupled) \
                != (laws[lo].terms, laws[lo].polarity_coupled):
            runs.append(slice(lo, hi))
            lo = hi
    return runs


def _pair_accel(positions: np.ndarray, velocities: np.ndarray,
                consts: list[LevelConstants], laws: list[CausationLaw],
                extent: float, params: StepParams) -> np.ndarray:
    """Summed pairwise acceleration for every member of one level of size
    `m`, or of a batch of `B` levels of that size, shaped as `positions`
    and `velocities` are: `(m, 2)`, or `(B, m, 2)`.  `consts` and `laws`
    hold each level's own.

    Pair tensors are laid out `(2, j, i)`, or `(2, B, j, i)`: receiver i
    innermost, partner j next, one plane per axis.  Squared norms are
    explicit `x**2 + y**2`, and the partner sum runs over the j axis,
    which numpy reduces sequentially in partner order.  A reduction along
    the innermost axis would use pairwise summation and change the bytes.
    So every level of a batch gets the bits it gets alone.

    In a batch, the minimal image, norms, unit vectors, relative
    velocities, the clamp and the partner sum run once for all levels.
    Radial terms, polarity coupling and damping run once per run of
    equal laws, in each law's term order.  Dividing by an inertia of 1.0
    changes nothing, so the inertia division, when a level needs it,
    runs over the batch.

    Every elementwise op writes into the workspace of the level shape,
    so a warm call allocates nothing pair-sized; the result is a fresh
    array.

    The radial sum starts with its first term, not with 0.0, so a zero in
    it may be -0.0.  That sign only reaches pair accelerations that are
    zeros themselves, and every partner sum also adds its diagonal +0.0,
    so it never reaches the result.  The clamp's per-pair norm is
    skipped when a bound shows no pair of any level can exceed `a_max`.
    """
    shape = positions.shape[:-1]  # (m,) or (B, m)
    m, batched = shape[-1], len(shape) == 2
    if m < 2:
        return np.zeros(positions.shape)
    ws = _WORKSPACES.get(shape)
    if ws is None:
        ws = _WORKSPACES[shape] = _Workspace(shape[:-1], m)
    delta, pair, r, r_eff = ws.delta, ws.pair, ws.r, ws.r_eff
    radial, term, mask = ws.radial, ws.term, ws.mask

    # minimal image: delta - span * round(delta / span), the quotient by
    # a multiply when span is a power of two (the same bits)
    span = 2.0 * extent
    _pair_differences(_planes(positions), delta)
    divide_by_span(delta, span, out=pair)
    np.rint(pair, out=pair)
    pair *= span
    delta -= pair
    np.sqrt(_axis_sum_of_squares(delta, r, term), out=r)
    np.maximum(r, params.eps_r, out=r_eff)

    coupling = None  # the polarity products, once a term needs them
    damped = []  # (run, coefficient) of each run of laws with damping
    runs = _law_runs(laws) if batched else [slice(0, 1)]
    whole = len(runs) == 1  # one law for all levels: no views needed
    for run in runs:
        law = laws[run.start]
        rad, tmp, reff = (radial, term, r_eff) if whole else (radial[run], term[run], r_eff[run])
        started = False  # whether `rad` holds a term yet
        damping = 0.0
        for (name, coeff), coupled in zip(law.terms, law.polarity_coupled):
            if name == DAMPING_TERM:
                damping = coeff
                continue
            out = tmp if started else rad
            magnitude = _radial_term(reff, RADIAL_EXPONENT[name], coeff, out)
            if coupled:
                if coupling is None:
                    coupling = (stacked([c.polarity_product for c in consts], out=ws.coupling)
                                if batched else consts[0].polarity_product)
                magnitude = np.multiply(magnitude, coupling if whole else coupling[run], out=out)
            if started:
                rad += magnitude
            elif magnitude is not rad:  # the scalar of an uncoupled `const`
                rad.fill(magnitude)
            started = True
        if not started:
            rad.fill(0.0)
        if damping != 0.0:
            damped.append((run, damping))

    # unit separation vectors, +0.0 where r is not positive: a plain
    # divide, then the rare coincident pair (or NaN) is fixed up; the
    # diagonal's 0 / 0 is overwritten below
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(delta, r, out=pair)
    np.greater(r, 0.0, out=mask)
    if np.count_nonzero(mask) < r.size // m * (m - 1):
        np.logical_not(mask, out=mask)
        np.copyto(pair, 0.0, where=mask)
    if not all(c.unit_inertia for c in consts):
        inertia = stacked([c.inertia for c in consts]) if batched else consts[0].inertia
        np.divide(radial, inertia[..., None, :], out=radial)
    pair *= radial
    # |pair| <= |radial| + |damping| * |relative velocity|, and each
    # relative velocity component is at most the spread of all of them;
    # one bound serves all levels, as the clamp below does
    bound = max(radial.max(), -radial.min())
    if damped:
        relative = _pair_differences(_planes(velocities), delta)
        spread = 0.0
        for run, d in damped:
            part, target, vel = ((relative, pair, velocities) if whole else
                                 (relative[:, run], pair[:, run], velocities[run]))
            part *= d
            target -= part
            spread = max(spread, abs(d) * math.sqrt(2.0) * float(vel.max() - vel.min()))
        bound += spread
    pair.reshape(2, -1, m * m)[..., ::m + 1] = 0.0  # the diagonals, as a view

    if not bound * _BOUND_MARGIN <= params.a_max:
        norm = np.sqrt(_axis_sum_of_squares(pair, r, term), out=r)
        over = np.greater(norm, params.a_max, out=mask)
        if over.any():
            scale = r_eff
            scale.fill(1.0)
            np.divide(params.a_max, norm, out=scale, where=over)
            pair *= scale

    total = np.add.reduce(pair, axis=-2, out=ws.partner_sum)
    return (total.transpose(1, 2, 0) if batched else total.T).copy()


def compute_accelerations(worlds: list[World], params: StepParams,
                          aggregates: list[list]) -> list[np.ndarray]:
    """Each world's net per-entity acceleration from every hierarchy
    level's law.

    `aggregates` holds each world's `recompute_aggregates()` for its
    current state.  A composite's acceleration reaches its members as
    equal acceleration,
    i.e. force in proportion to each member's share of the aggregate
    inertia.  Levels of one size and arena, from any world, share pair
    kernel calls of at most `PAIR_BUDGET` pairs.
    """
    if len(worlds) == 1:  # nothing to share a kernel call with
        world, extent = worlds[0], worlds[0].spec.arena_extent
        consts, laws = world.level_constants(), world.laws
        accel = _pair_accel(world.positions, world.velocities, consts[:1], laws[:1],
                            extent, params)
        for lv, (pos, vel, _, _) in zip(world.levels, aggregates[0]):
            accel += _pair_accel(pos, vel, consts[lv.level:lv.level + 1],
                                 laws[lv.level:lv.level + 1], extent, params)[lv.owner]
        return [accel]
    # every level of every world, grouped by size and arena, in world order
    groups: dict[tuple[int, float], list] = {}
    for world, aggs in zip(worlds, aggregates):
        consts, laws, extent = world.level_constants(), world.laws, world.spec.arena_extent
        levels = [(world.positions, world.velocities)] + [agg[:2] for agg in aggs]
        for level, (pos, vel) in enumerate(levels):
            groups.setdefault((len(pos), extent), []).append(
                (pos, vel, consts[level], laws[level]))
    results = {}
    for (m, extent), items in groups.items():
        size = max(1, PAIR_BUDGET // (m * m))
        accels = []
        for lo in range(0, len(items), size):
            pos, vel, consts, laws = zip(*items[lo:lo + size])
            if len(pos) == 1:
                accels.append(_pair_accel(pos[0], vel[0], consts, laws, extent, params))
            else:
                accels.extend(_pair_accel(stacked(pos), stacked(vel), consts, laws,
                                          extent, params))
        results[m, extent] = iter(accels)
    accels = []
    for world in worlds:  # each group's results come back in world order
        extent = world.spec.arena_extent
        accel = next(results[world.n_entities, extent])
        for lv in world.levels:
            accel += next(results[len(lv.ids), extent])[lv.owner]
        accels.append(accel)
    return accels


@dataclass(frozen=True, eq=False)
class PendingForces:
    """One tick's drift events and internal accelerations, computed before
    its step.  `accel` is read-only, because clones share it."""

    tick: int
    params: StepParams
    drift_events: list[dict]
    accel: np.ndarray


def prepare(worlds: list[World], params: StepParams) -> list[PendingForces]:
    """Apply each world's scheduled drift for this tick and compute its
    internal accelerations now, unless that is already done, and return
    each world's pending forces; `step` uses them.  The worlds that have
    none yet share one force pass.

    They depend on the state alone, so a clone taken before the step
    inherits them: at a tick that issues problems, the live step and the
    first step of every script rollout and null baseline from that state
    share one force pass.  A world holds at most one pending set, for its
    current tick, and it must be stepped before it is serialized.
    """
    fresh = []
    for world in worlds:
        pending = world.pending
        if pending is None:
            fresh.append(world)
        elif pending.tick != world.tick or pending.params != params:
            raise ContractViolation(
                "pending forces were prepared for another tick or other step params")
    events = [apply_drift(world) for world in fresh]
    aggregates = [world.recompute_aggregates() for world in fresh]
    if fresh:
        accels = compute_accelerations(fresh, params, aggregates)
        for world, drift_events, accel in zip(fresh, events, accels):
            accel.flags.writeable = False
            world.pending = PendingForces(world.tick, params, drift_events, accel)
    return [world.pending for world in worlds]


def step(worlds: list[World], params: StepParams,
         external_accel: list | None = None) -> None:
    """Advance a batch of worlds by one tick in place.

    Order: scheduled law drift, one aggregate pass, force evaluation at
    all levels (the three done by `prepare`, or taken from it; one force
    pass for the batch's unprepared worlds), external (agent)
    accelerations, then the semi-implicit Euler update with the speed
    clamp and toroidal wrap, on the batch's stacked entity rows.
    `external_accel` has one entry per world, each None or an array.
    Drift events for this tick end up in each world's
    `last_drift_events`.
    """
    externals = external_accel or [None] * len(worlds)
    accels = []
    for world, pending, external in zip(worlds, prepare(worlds, params), externals):
        world.pending = None
        world.last_drift_events = pending.drift_events
        accels.append(pending.accel if external is None else pending.accel + external)
    extent = worlds[0].spec.arena_extent
    if any(world.spec.arena_extent != extent for world in worlds):
        extent = np.repeat([world.spec.arena_extent for world in worlds],
                           [world.n_entities for world in worlds])[:, None]

    velocities = clamp_rows(_rows([w.velocities for w in worlds])
                            + _rows(accels) * params.dt, params.v_max)
    positions = wrap_positions(_rows([w.positions for w in worlds])
                               + velocities * params.dt, extent)
    start = 0
    for world in worlds:
        end = start + world.n_entities
        world.velocities, world.positions = velocities[start:end], positions[start:end]
        world.tick += 1
        start = end


def _rows(arrays: list[np.ndarray]) -> np.ndarray:
    """The arrays' rows, one after another."""
    return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)


def snapshot_hash(world: World) -> str:
    return canonical_hash(world.to_canonical())
