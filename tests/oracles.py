"""Independent checks the tests hold the program to.

Scalar and whole-world physics references, a plain-Python pair kernel,
aggregate pass and step, the restore path from a world's canonical form
(the round-trip tests show through it that the form, and so the snapshot
hash, covers all the state that affects the future), the sensor-reading
hash packed with `struct`, the live-trace redaction audit and byte tools
for tamper tests.  None of this is called by the package: a check
written apart from the code it checks cannot share its mistakes.
`FORBIDDEN_LIVE_KEYS` is a denylist kept separately from the allowlist
`trace.LIVE_FIELDS` that decides what the live tier carries.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct

import numpy as np

from driftworld.canon import canonical_dumps, from_doc
from driftworld.dynamics import StepParams
from driftworld.errors import ContractViolation
from driftworld.worldgen import (
    DAMPING_TERM,
    RADIAL_EXPONENT,
    CausationLaw,
    GenSpec,
    World,
    _Level,
    apply_drift,
)

# -------------------------------------------------------------- physics


def eval_law(law: CausationLaw, delta: np.ndarray, v_a: np.ndarray,
             v_b: np.ndarray, p_a: int, p_b: int, inertia_a: float,
             params: StepParams) -> np.ndarray:
    """Acceleration the law exerts on a due to b, for one pair.

    `delta` is the minimal-image vector from b to a, so a positive radial
    coefficient pushes a away from b.  Scalar reference implementation;
    the stepper uses the vectorized `dynamics._level_accel`.
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
        magnitude = coeff * radial_power(r_eff, RADIAL_EXPONENT[name])
        if coupled:
            magnitude *= p_a * p_b
        radial += magnitude
    accel = (radial / inertia_a) * unit - damping * (v_a - v_b)
    norm = float(np.sqrt((accel * accel).sum()))
    if norm > params.a_max:
        accel = accel * (params.a_max / norm)
    return accel


def radial_power(r_eff, exponent: int):
    """`r_eff ** exponent` by repeated products and, for a negative
    exponent, one division: ops IEEE 754 rounds exactly.  Floats and
    arrays alike."""
    value = 1.0
    for _ in range(abs(exponent)):
        value = value * r_eff
    return 1.0 / value if exponent < 0 else value


def minimal_image(d: float, span: float) -> float:
    """`worldgen.minimal_image` of one coordinate difference."""
    q = d / span
    # numpy's round: half to even, and the sign of a zero kept
    q = math.copysign(float(round(q)), q)
    return d - q * span


def wrap(x: float, extent: float) -> float:
    """`worldgen.wrap_positions` of one coordinate.  Python's float `%` is
    numpy's floor-mod to the bit: both take the exact `fmod`, add the
    divisor when the signs differ and give a zero the divisor's sign, so
    no numpy call is needed here."""
    return (x + extent) % (2.0 * extent) - extent


def level_accel(positions: np.ndarray, velocities: np.ndarray,
                polarity: np.ndarray, inertia: np.ndarray, law: CausationLaw,
                extent: float, params: StepParams) -> list[list[float]]:
    """`dynamics._level_accel` in plain Python floats, one pair at a time.

    Follows the kernel's op order and sums each receiver's partners in
    partner order, with no numpy arithmetic and no libm call but `sqrt`,
    so on any IEEE 754 machine it must equal the kernel bit for bit.
    """
    pos, vel = positions.tolist(), velocities.tolist()
    pol, mass = polarity.tolist(), inertia.tolist()
    m, dim = positions.shape
    span = 2.0 * extent
    damping = 0.0
    radial_terms = []
    for (name, coeff), coupled in zip(law.terms, law.polarity_coupled):
        if name == DAMPING_TERM:
            damping = coeff
        else:
            radial_terms.append((RADIAL_EXPONENT[name], coeff, coupled))

    def pair(i: int, j: int) -> list[float]:
        """What partner j exerts on receiver i."""
        if i == j:
            return [0.0] * dim
        delta = [minimal_image(pos[i][k] - pos[j][k], span) for k in range(dim)]
        r2 = delta[0] * delta[0]
        for d in delta[1:]:
            r2 = r2 + d * d
        r = math.sqrt(r2)
        r_eff = max(r, params.eps_r)
        radial = 0.0
        for exponent, coeff, coupled in radial_terms:
            magnitude = radial_power(r_eff, exponent) * coeff
            if coupled:
                magnitude = magnitude * (pol[i] * pol[j])
            radial = radial + magnitude
        radial = radial / mass[i]
        accel = [(d / r if r > 0.0 else 0.0) * radial for d in delta]
        if damping != 0.0:
            accel = [a - (vel[i][k] - vel[j][k]) * damping
                     for k, a in enumerate(accel)]
        n2 = accel[0] * accel[0]
        for a in accel[1:]:
            n2 = n2 + a * a
        norm = math.sqrt(n2)
        if norm > params.a_max:
            accel = [a * (params.a_max / norm) for a in accel]
        return accel

    out = []
    for i in range(m):
        total = pair(i, 0)
        for j in range(1, m):
            total = [t + a for t, a in zip(total, pair(i, j))]
        out.append(total)
    return out


def aggregates(world: World) -> list[tuple[list, list, list, list]]:
    """`World.recompute_aggregates` in plain Python floats.

    One (positions, velocities, inertia, polarity) tuple of lists per
    level >= 1, derived from the `parent` maps alone.  Every sum starts at
    0.0 and adds the members in ascending row order, as `np.bincount`
    does; a position is the anchor (the composite's first member row)
    plus the weighted mean of the members' minimal-image offsets from it,
    wrapped.
    """
    extent = world.spec.arena_extent
    span = 2.0 * extent
    pos, vel = world.positions.tolist(), world.velocities.tolist()
    mass, pol = world.inertia.tolist(), world.polarity.tolist()
    dim = len(pos[0])
    out = []
    for lv in world.levels:
        m = len(lv.ids)
        parent = lv.parent.tolist()
        anchor: dict[int, int] = {}
        for row, p in enumerate(parent):
            anchor.setdefault(p, row)
        total = [0.0] * m
        charge = [0] * m
        moment = [[0.0] * dim for _ in range(m)]
        impulse = [[0.0] * dim for _ in range(m)]
        for row, p in enumerate(parent):
            origin = pos[anchor[p]]
            total[p] = total[p] + mass[row]
            charge[p] += pol[row]
            for k in range(dim):
                offset = minimal_image(pos[row][k] - origin[k], span)
                moment[p][k] = moment[p][k] + offset * mass[row]
                impulse[p][k] = impulse[p][k] + vel[row][k] * mass[row]
        pos = [[wrap(pos[anchor[p]][k] + moment[p][k] / total[p], extent)
                for k in range(dim)] for p in range(m)]
        vel = [[impulse[p][k] / total[p] for k in range(dim)] for p in range(m)]
        mass = total
        pol = [1 if c >= 0 else -1 for c in charge]
        out.append((pos, vel, mass, pol))
    return out


def reference_step(world: World, params: StepParams,
                   external_accel: np.ndarray | None = None) -> dict:
    """`dynamics.step` in plain Python floats; advances `world` in place.

    Drift is `worldgen.apply_drift` itself: its draws have no plain-Python
    form yet.  Everything after it is computed here: the aggregates, every
    level's pair kernel, the push-down of composite accelerations to the
    member entities, the semi-implicit Euler update, the speed clamp and
    the toroidal wrap.  Returns the step's arrays as lists, keyed by
    (level, name): each level's "accelerations", each composite level's
    aggregate "positions", "velocities", "inertia" and "polarity", and
    the entities' new "positions" and "velocities" at level 0.
    """
    apply_drift(world)
    extent = world.spec.arena_extent
    parts: dict = {}
    levels = [(world.positions.tolist(), world.velocities.tolist(),
               world.inertia.tolist(), world.polarity.tolist())]
    for lv, agg in zip(world.levels, aggregates(world)):
        levels.append(agg)
        for name, value in zip(("positions", "velocities", "inertia", "polarity"), agg):
            parts[lv.level, name] = value
    n = world.n_entities
    owner = list(range(n))
    accel = None
    for level, (pos, vel, mass, pol) in enumerate(levels):
        if level:  # each entity's composite one level up
            parent = world.levels[level - 1].parent.tolist()
            owner = [parent[o] for o in owner]
        comp = level_accel(np.array(pos), np.array(vel), np.array(pol),
                           np.array(mass), world.laws[level], extent, params)
        parts[level, "accelerations"] = comp
        if accel is None:
            accel = comp
        else:
            accel = [[a + c for a, c in zip(accel[e], comp[owner[e]])]
                     for e in range(n)]
    if external_accel is not None:
        accel = [[a + x for a, x in zip(row, ext)]
                 for row, ext in zip(accel, external_accel.tolist())]
    dt, v_max = params.dt, params.v_max
    velocities, positions = [], []
    for p, v, a in zip(world.positions.tolist(), world.velocities.tolist(), accel):
        v = [vk + ak * dt for vk, ak in zip(v, a)]
        s2 = v[0] * v[0]
        for vk in v[1:]:
            s2 = s2 + vk * vk
        speed = math.sqrt(s2)
        if speed > v_max:
            v = [vk * (v_max / speed) for vk in v]
        velocities.append(v)
        positions.append([wrap(pk + vk * dt, extent) for pk, vk in zip(p, v)])
    world.velocities = np.array(velocities)
    world.positions = np.array(positions)
    world.tick += 1
    parts[0, "velocities"] = velocities
    parts[0, "positions"] = positions
    return parts


def momentum(world: World) -> np.ndarray:
    """Total inertia-weighted velocity, the conserved quantity audits track."""
    return (world.velocities * world.inertia[:, None]).sum(axis=0)


# --------------------------------------------------------------- restore


def restore_stream(state: dict) -> np.random.Generator:
    """Rebuild a stream from `rng.stream_state` output, bit-exactly."""
    bg = np.random.Philox()
    bg.state = {
        "bit_generator": "Philox",
        "state": {
            "counter": np.array(state["counter"], dtype=np.uint64),
            "key": np.array(state["key"], dtype=np.uint64),
        },
        "buffer": np.array(state["buffer"], dtype=np.uint64),
        "buffer_pos": state["buffer_pos"],
        "has_uint32": state["has_uint32"],
        "uinteger": state["uinteger"],
    }
    return np.random.Generator(bg)


def from_canonical(doc: dict) -> World:
    """Rebuild a world from `World.to_canonical` output."""
    ent = doc["entities"]
    world = World(
        spec=from_doc(GenSpec, doc["spec"]),
        positions=np.array(ent["position"], dtype=np.float64),
        velocities=np.array(ent["velocity"], dtype=np.float64),
        inertia=np.array(ent["inertia"], dtype=np.float64),
        polarity=np.array(ent["polarity"], dtype=np.int64),
        laws=[from_doc(CausationLaw, d) for d in doc["laws"]],
        streams={name: restore_stream(state)
                 for name, state in doc["rng"]["streams"].items()},
        tick=doc["tick"],
    )
    _attach_levels(world, doc["hierarchy"])
    return world


def _attach_levels(world: World, hierarchy: list[list[dict]]) -> None:
    """Install frozen membership, given in canonical form, with its index
    maps: the ids are looked up, not assumed consecutive."""
    world.levels = []
    row_of = {i: i for i in range(world.n_entities)}
    owner = np.arange(world.n_entities, dtype=np.intp)
    dim = world.positions.shape[1]
    for depth, level_doc in enumerate(hierarchy, start=1):
        parent = np.empty(len(row_of), dtype=np.intp)
        for row, comp in enumerate(level_doc):
            parent[[row_of[k] for k in comp["children"]]] = row
        anchor = np.unique(parent, return_index=True)[1]
        owner = parent[owner]
        ids = tuple(comp["id"] for comp in level_doc)
        children = tuple(tuple(comp["children"]) for comp in level_doc)
        bins = (parent[:, None] * dim + np.arange(dim)).ravel()
        world.levels.append(_Level(depth, ids, children, parent, anchor, owner, bins))
        row_of = {cid: row for row, cid in enumerate(ids)}


def snapshot(world: World) -> bytes:
    """Canonical byte encoding of the full world state."""
    return canonical_dumps(world.to_canonical()).encode("utf-8")


# --------------------------------------------------------------- sensing


def reading_hash(tick: int, centroid: list[float], grid: list) -> str:
    """The `grid_hash` of a reading, packed with `struct` alone: `tick` as
    int64, the centroid as float64, then every count of the nested
    `(R, R, 2)` grid as uint32, all little-endian, in C order."""
    counts = [c for row in grid for cell in row for c in cell]
    assert all(float(c).is_integer() for c in counts), "counts are integers"
    data = (struct.pack("<q", tick)
            + struct.pack(f"<{len(centroid)}d", *centroid)
            + struct.pack(f"<{len(counts)}I", *(int(c) for c in counts)))
    return hashlib.sha256(data).hexdigest()


# ---------------------------------------------------------------- traces

#: Keys that must never appear anywhere in a live trace document.
FORBIDDEN_LIVE_KEYS = frozenset(
    {
        "seed", "grammar", "laws", "law", "terms", "coeff", "coefficients",
        "polarity_coupled", "drift_handle", "regime_times", "smooth_rate",
        "drift_levels", "hidden_actions", "scriptor_len", "p_null",
        "gen_spec", "rng", "streams",
    }
)


def _walk_keys(doc, found: list, trail: str) -> None:
    if isinstance(doc, dict):
        for key, value in doc.items():
            here = f"{trail}/{key}"
            if key in FORBIDDEN_LIVE_KEYS:
                found.append(here)
            _walk_keys(value, found, here)
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            _walk_keys(value, found, f"{trail}/{i}")


def secret_strings(world: World) -> list[str]:
    """Exact substrings whose appearance in a live trace is a leak.

    The seed and every law coefficient, as Python reprs; float reprs are
    long enough that an accidental collision is not a realistic worry.
    """
    secrets = [repr(world.spec.seed)]
    for law in world.laws:
        for _, coeff in law.terms:
            secrets.append(repr(coeff))
    return secrets


def audit_live_trace(path: str, secrets: list[str] | None = None) -> list[str]:
    """Scan a live trace for redaction failures.  Empty list means clean."""
    violations: list[str] = []
    with open(path, "r", encoding="utf-8") as fh:
        raw = fh.read()
    if secrets:
        for secret in secrets:
            if len(secret) >= 8 and secret in raw:
                violations.append(f"secret value {secret!r} appears verbatim")
    for n, line in enumerate(raw.splitlines(), start=1):
        if not line.strip():
            continue
        doc = json.loads(line)
        found: list[str] = []
        _walk_keys(doc, found, "")
        violations.extend(f"line {n}: forbidden key at {trail}" for trail in found)
    return violations


def flip_one_bit(path: str, out_path: str, byte_offset: int, bit: int = 0) -> None:
    """Copy a trace with a single bit flipped, for tamper-detection tests."""
    with open(path, "rb") as fh:
        data = bytearray(fh.read())
    if not 0 <= byte_offset < len(data):
        raise ContractViolation("byte_offset outside the file")
    data[byte_offset] ^= 1 << bit
    with open(out_path, "wb") as fh:
        fh.write(bytes(data))


def trace_bytes(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def same_bytes(path_a: str, path_b: str) -> bool:
    if os.path.getsize(path_a) != os.path.getsize(path_b):
        return False
    return trace_bytes(path_a) == trace_bytes(path_b)
