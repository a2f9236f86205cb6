"""World generation: entity differentiation, interaction-law sampling, hierarchy.

A world is generated in three steps from a single seed: place positive and
negative basic entities, sample one pairwise interaction law per hierarchy
level, then partition entities into composites level by level.  Everything
is drawn from the world's "generation" stream, so one spec always produces
one world.  Laws at level 0 stay fixed for the life of the world; laws at
the configured drift levels are resampled at scheduled regime times.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import rng as rngmod
from .errors import ConfigError

#: Radial basis terms and their exponent of the pair separation, plus a
#: relative-velocity damping term ("damp", never polarity coupled).
BASIS_TERMS = ("inv_sq", "inv", "const", "lin", "quad", "damp")
RADIAL_EXPONENT = {"inv_sq": -2, "inv": -1, "const": 0, "lin": 1, "quad": 2}
DAMPING_TERM = "damp"


@dataclass
class CausationGrammar:
    """Admissible term set and coefficient range for sampled laws.

    The default coefficient range keeps ambient accelerations on the
    same scale as agent force authority; widen it for harsher worlds.
    Damping coefficients are always used at their absolute value and
    shrunk by damping_scale: a negative one would pump energy into
    relative motion, and the pair sum multiplies the effective rate by
    the entity count, so raw draws destabilize the integrator.

    base_damping is the total per-tick relaxation rate of each basic
    entity's velocity toward the swarm mean (split across pairs when
    the law is written down).  It guarantees ground-level laws dissipate
    relative motion, so the world settles between perturbations instead
    of scrambling itself every tick; without that, goal states decay too
    fast for any agent that has to find them by acting.  Must stay below
    2 or the relaxation itself oscillates.
    """

    basis: tuple[str, ...] = BASIS_TERMS
    max_terms: int = 3
    coeff_range: tuple[float, float] = (-0.001, 0.001)
    polarity_coupling: bool = True
    damping_scale: float = 0.5
    base_damping: float = 0.8

    def validate(self) -> None:
        if not self.basis:
            raise ConfigError("grammar basis must be nonempty")
        for term in self.basis:
            if term not in BASIS_TERMS:
                raise ConfigError(f"unknown basis term: {term!r}")
        if self.max_terms < 1:
            raise ConfigError("grammar max_terms must be >= 1")
        lo, hi = self.coeff_range
        if not (np.isfinite(lo) and np.isfinite(hi)) or lo > hi:
            raise ConfigError("grammar coeff_range must be a finite nonempty interval")
        if not 0.0 <= self.damping_scale <= 1.0:
            raise ConfigError("grammar damping_scale must lie in [0, 1]")
        if not 0.0 <= self.base_damping < 2.0:
            raise ConfigError("grammar base_damping must lie in [0, 2)")


@dataclass
class DriftSchedule:
    """When and where interaction laws change.

    Regime times trigger full resampling of the laws at the drift levels;
    a positive smooth_rate additionally random-walks their coefficients
    each tick.  Level 0 never drifts.
    """

    regime_times: tuple[int, ...] = ()
    smooth_rate: float = 0.0
    drift_levels: tuple[int, ...] | None = None  # None: all levels >= 1

    def validate(self, n_levels: int) -> None:
        times = self.regime_times
        if any(t2 <= t1 for t1, t2 in zip(times, times[1:])):
            raise ConfigError("drift regime_times must be strictly increasing")
        if any(t < 0 for t in times):
            raise ConfigError("drift regime_times must be nonnegative")
        if self.smooth_rate < 0:
            raise ConfigError("drift smooth_rate must be >= 0")
        if self.drift_levels is not None:
            if 0 in self.drift_levels:
                raise ConfigError("level 0 laws are fixed and cannot drift")
            if any(not 1 <= lv < n_levels for lv in self.drift_levels):
                raise ConfigError("drift_levels must lie in [1, n_levels)")
        if (times or self.smooth_rate > 0) and not self.resolve_levels(n_levels):
            raise ConfigError("drift schedule is active but no level is able to drift")

    def resolve_levels(self, n_levels: int) -> tuple[int, ...]:
        if self.drift_levels is None:
            return tuple(range(1, n_levels))
        return tuple(sorted(self.drift_levels))


@dataclass
class GenSpec:
    """Complete recipe for one world instance."""

    seed: int
    n_entities: int = 16
    dim: int = 2
    polarity_ratio: float = 0.5
    n_levels: int = 2
    grammar: CausationGrammar = field(default_factory=CausationGrammar)
    drift: DriftSchedule = field(default_factory=DriftSchedule)
    arena_extent: float = 8.0

    def validate(self) -> None:
        if not 0 <= self.seed < 1 << 64:
            raise ConfigError("seed must be a 64-bit unsigned integer")
        if self.n_entities < 2:
            raise ConfigError("n_entities must be >= 2")
        if self.dim < 1:
            raise ConfigError("dim must be >= 1")
        if not 0.0 < self.polarity_ratio < 1.0:
            raise ConfigError("polarity_ratio must lie strictly between 0 and 1")
        if self.n_levels < 1:
            raise ConfigError("n_levels must be >= 1")
        if self.arena_extent <= 0:
            raise ConfigError("arena_extent must be > 0")
        self.grammar.validate()
        self.drift.validate(self.n_levels)

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "n_entities": self.n_entities,
            "dim": self.dim,
            "polarity_ratio": self.polarity_ratio,
            "n_levels": self.n_levels,
            "arena_extent": self.arena_extent,
            "grammar": {
                "basis": list(self.grammar.basis),
                "max_terms": self.grammar.max_terms,
                "coeff_range": list(self.grammar.coeff_range),
                "polarity_coupling": self.grammar.polarity_coupling,
                "damping_scale": self.grammar.damping_scale,
                "base_damping": self.grammar.base_damping,
            },
            "drift": {
                "regime_times": list(self.drift.regime_times),
                "smooth_rate": self.drift.smooth_rate,
                "drift_levels": None
                if self.drift.drift_levels is None
                else list(self.drift.drift_levels),
            },
        }

    @classmethod
    def from_dict(cls, d: dict) -> "GenSpec":
        g = d["grammar"]
        dr = d["drift"]
        return cls(
            seed=d["seed"],
            n_entities=d["n_entities"],
            dim=d["dim"],
            polarity_ratio=d["polarity_ratio"],
            n_levels=d["n_levels"],
            arena_extent=d["arena_extent"],
            grammar=CausationGrammar(
                basis=tuple(g["basis"]),
                max_terms=g["max_terms"],
                coeff_range=(g["coeff_range"][0], g["coeff_range"][1]),
                polarity_coupling=g["polarity_coupling"],
                damping_scale=g["damping_scale"],
                base_damping=g["base_damping"],
            ),
            drift=DriftSchedule(
                regime_times=tuple(dr["regime_times"]),
                smooth_rate=dr["smooth_rate"],
                drift_levels=None
                if dr["drift_levels"] is None
                else tuple(dr["drift_levels"]),
            ),
        )


@dataclass
class CausationLaw:
    """A sampled pairwise interaction law at one hierarchy level."""

    level: int
    terms: tuple[tuple[str, float], ...]
    polarity_coupled: tuple[bool, ...]
    drift_handle: str | None = None

    def to_dict(self) -> dict:
        return {
            "level": self.level,
            "terms": [[name, coeff] for name, coeff in self.terms],
            "polarity_coupled": list(self.polarity_coupled),
            "drift_handle": self.drift_handle,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "CausationLaw":
        return cls(
            level=d["level"],
            terms=tuple((name, coeff) for name, coeff in d["terms"]),
            polarity_coupled=tuple(d["polarity_coupled"]),
            drift_handle=d["drift_handle"],
        )


class _Level:
    """Membership and cached aggregates for one hierarchy level >= 1.

    Membership is frozen at build time; the agg arrays are recomputed from
    the current entity state whenever `World.recompute_aggregates` runs.
    """

    __slots__ = (
        "level", "ids", "children", "child_rows", "descendants",
        "positions", "velocities", "inertia", "polarity",
    )

    def __init__(self, level, ids, children, child_rows, descendants):
        self.level = level
        self.ids = ids                  # composite ids, creation order
        self.children = children        # per composite: ids at level-1
        self.child_rows = child_rows    # per composite: rows into level-1 arrays
        self.descendants = descendants  # per composite: basic entity rows
        self.positions = None
        self.velocities = None
        self.inertia = None
        self.polarity = None


def wrap_positions(pos: np.ndarray, extent: float) -> np.ndarray:
    """Map coordinates into the toroidal arena [-extent, extent)."""
    span = 2.0 * extent
    return (pos + extent) % span - extent


class World:
    """The complete simulable state: entities, hierarchy, laws, clock, streams."""

    def __init__(self, spec: GenSpec, positions, velocities, inertia, polarity,
                 laws, streams, tick=0):
        self.spec = spec
        self.positions = positions    # (n, dim) float64, toroidal coords
        self.velocities = velocities  # (n, dim) float64
        self.inertia = inertia        # (n,) float64, > 0
        self.polarity = polarity      # (n,) int64, +1 or -1
        self.laws: list[CausationLaw] = laws
        self.streams: dict[str, np.random.Generator] = streams
        self.tick = tick
        self.levels: list[_Level] = []
        # Drift events of the last step; transient, not serialized.
        self.last_drift_events: list[dict] = []

    @property
    def n_entities(self) -> int:
        return self.positions.shape[0]

    def stream(self, name: str) -> np.random.Generator:
        if name not in self.streams:
            self.streams[name] = rngmod.make_stream(self.spec.seed, name)
        return self.streams[name]

    def recompute_aggregates(self) -> None:
        """Refresh every composite's inertia-weighted aggregates."""
        prev_pos, prev_vel = self.positions, self.velocities
        prev_inertia, prev_pol = self.inertia, self.polarity
        for lv in self.levels:
            m = len(lv.ids)
            lv.positions = np.empty((m, self.spec.dim))
            lv.velocities = np.empty((m, self.spec.dim))
            lv.inertia = np.empty(m)
            lv.polarity = np.empty(m, dtype=np.int64)
            for i, rows in enumerate(lv.child_rows):
                w = prev_inertia[rows]
                total = w.sum()
                lv.positions[i] = (prev_pos[rows] * w[:, None]).sum(axis=0) / total
                lv.velocities[i] = (prev_vel[rows] * w[:, None]).sum(axis=0) / total
                lv.inertia[i] = total
                pol_sum = int(prev_pol[rows].sum())
                lv.polarity[i] = 1 if pol_sum >= 0 else -1
            prev_pos, prev_vel = lv.positions, lv.velocities
            prev_inertia, prev_pol = lv.inertia, lv.polarity

    # -- canonical serialization ------------------------------------------

    def to_canonical(self) -> dict:
        return {
            "format": 1,
            "spec": self.spec.to_dict(),
            "tick": self.tick,
            "entities": {
                "position": self.positions.tolist(),
                "velocity": self.velocities.tolist(),
                "inertia": self.inertia.tolist(),
                "polarity": self.polarity.tolist(),
            },
            "hierarchy": [
                [
                    {"id": lv.ids[i], "children": list(lv.children[i])}
                    for i in range(len(lv.ids))
                ]
                for lv in self.levels
            ],
            "laws": [law.to_dict() for law in self.laws],
            "rng": {
                "algorithm": rngmod.STREAM_ALGORITHM,
                "streams": {
                    name: rngmod.stream_state(gen)
                    for name, gen in sorted(self.streams.items())
                },
            },
        }

    @classmethod
    def from_canonical(cls, doc: dict) -> "World":
        spec = GenSpec.from_dict(doc["spec"])
        ent = doc["entities"]
        world = cls(
            spec=spec,
            positions=np.array(ent["position"], dtype=np.float64),
            velocities=np.array(ent["velocity"], dtype=np.float64),
            inertia=np.array(ent["inertia"], dtype=np.float64),
            polarity=np.array(ent["polarity"], dtype=np.int64),
            laws=[CausationLaw.from_dict(d) for d in doc["laws"]],
            streams={
                name: rngmod.restore_stream(state)
                for name, state in doc["rng"]["streams"].items()
            },
            tick=doc["tick"],
        )
        membership = [
            [(c["id"], tuple(c["children"])) for c in level_doc]
            for level_doc in doc["hierarchy"]
        ]
        _attach_levels(world, membership)
        world.recompute_aggregates()
        return world

    def clone(self) -> "World":
        """Deep, independent copy (streams included)."""
        world = World(
            spec=self.spec,
            positions=self.positions.copy(),
            velocities=self.velocities.copy(),
            inertia=self.inertia.copy(),
            polarity=self.polarity.copy(),
            laws=[replace(law) for law in self.laws],
            streams={k: rngmod.clone_stream(g) for k, g in self.streams.items()},
            tick=self.tick,
        )
        membership = [
            [(lv.ids[i], tuple(lv.children[i])) for i in range(len(lv.ids))]
            for lv in self.levels
        ]
        _attach_levels(world, membership)
        world.recompute_aggregates()
        return world


# -- operations ------------------------------------------------------------


def sample_law(grammar: CausationGrammar, level: int,
               rng: np.random.Generator,
               drift_levels: tuple[int, ...] = (),
               n_entities: int | None = None) -> CausationLaw:
    """Sample a law: 1..max_terms distinct basis terms with uniform coefficients.

    At level 0, when n_entities is given, the damping coefficient is floored
    at base_damping / n_entities (the term is added if it was not drawn), so
    the guaranteed relaxation survives whatever the draw produced.  The floor
    consumes no extra randomness.
    """
    grammar.validate()
    n_choices = min(grammar.max_terms, len(grammar.basis))
    k = int(rng.integers(1, n_choices + 1))
    picked = sorted(int(i) for i in rng.choice(len(grammar.basis), size=k, replace=False))
    lo, hi = grammar.coeff_range
    coeffs = rng.uniform(lo, hi, size=k)
    names = [grammar.basis[i] for i in picked]
    coupled = [
        grammar.polarity_coupling and name != DAMPING_TERM for name in names
    ]
    handle = f"L{level}" if level in drift_levels else None
    terms = []
    for name, coeff in zip(names, coeffs):
        coeff = float(coeff)
        if name == DAMPING_TERM:
            coeff = abs(coeff) * grammar.damping_scale
        terms.append((name, coeff))
    floor_damp = (
        level == 0
        and n_entities is not None
        and grammar.base_damping > 0
        and DAMPING_TERM in grammar.basis
    )
    if floor_damp:
        floor = grammar.base_damping / n_entities
        for i, (name, coeff) in enumerate(terms):
            if name == DAMPING_TERM:
                terms[i] = (name, max(coeff, floor))
                break
        else:
            terms.append((DAMPING_TERM, floor))
            coupled.append(False)
    return CausationLaw(
        level=level,
        terms=tuple(terms),
        polarity_coupled=tuple(coupled),
        drift_handle=handle,
    )


def _attach_levels(world: World, membership: list[list[tuple[int, tuple[int, ...]]]]) -> None:
    """Install frozen membership lists and derive row maps / descendants."""
    world.levels = []
    prev_row_of = {i: i for i in range(world.n_entities)}
    prev_descendants = {i: np.array([i]) for i in range(world.n_entities)}
    for depth, level_doc in enumerate(membership, start=1):
        ids, children, child_rows, descendants = [], [], [], []
        row_of, desc_of = {}, {}
        for row, (cid, kids) in enumerate(level_doc):
            ids.append(cid)
            children.append(tuple(kids))
            child_rows.append(np.array([prev_row_of[k] for k in kids], dtype=np.intp))
            desc = np.concatenate([prev_descendants[k] for k in kids])
            descendants.append(np.sort(desc))
            row_of[cid] = row
            desc_of[cid] = descendants[-1]
        world.levels.append(_Level(depth, ids, children, child_rows, descendants))
        prev_row_of, prev_descendants = row_of, desc_of


def build_hierarchy(world: World) -> World:
    """Partition each level into composites by deterministic grid buckets.

    Bucket width at level L is arena_extent / 2**(n_levels - L), so low
    levels form many small composites and the top level a few large ones.
    The partition depends only on positions at build time and the spec.
    """
    spec = world.spec
    extent = spec.arena_extent
    membership: list[list[tuple[int, tuple[int, ...]]]] = []
    next_id = world.n_entities
    prev_ids = list(range(world.n_entities))
    prev_pos = world.positions

    for level in range(1, spec.n_levels):
        width = extent / 2 ** (spec.n_levels - level)
        n_buckets = int(np.ceil(2 * extent / width))
        idx = np.floor((prev_pos + extent) / width).astype(np.int64)
        idx = np.clip(idx, 0, n_buckets - 1)
        buckets: dict[tuple[int, ...], list[int]] = {}
        for row, key in enumerate(map(tuple, idx)):
            buckets.setdefault(key, []).append(prev_ids[row])
        level_doc = []
        agg_pos = []
        for key in sorted(buckets):
            kids = tuple(sorted(buckets[key]))
            level_doc.append((next_id, kids))
            next_id += 1
        membership.append(level_doc)
        # Positions for the next level up: plain mean is enough for
        # bucketing because aggregates are recomputed right afterwards.
        id_to_row = {eid: r for r, eid in enumerate(prev_ids)}
        for cid, kids in level_doc:
            rows = [id_to_row[k] for k in kids]
            agg_pos.append(prev_pos[rows].mean(axis=0))
        prev_ids = [cid for cid, _ in level_doc]
        prev_pos = np.array(agg_pos) if agg_pos else np.empty((0, spec.dim))

    _attach_levels(world, membership)
    world.recompute_aggregates()
    return world


def generate_world(spec: GenSpec) -> World:
    """Generate a world from its spec, drawing only from the generation stream."""
    spec.validate()
    gen = rngmod.make_stream(spec.seed, "generation")
    n, dim = spec.n_entities, spec.dim
    positions = gen.uniform(-spec.arena_extent, spec.arena_extent, size=(n, dim))
    velocities = np.zeros((n, dim))
    inertia = np.ones(n)
    n_positive = int(np.floor(spec.polarity_ratio * n))
    polarity = np.where(np.arange(n) < n_positive, 1, -1).astype(np.int64)
    drift_levels = spec.drift.resolve_levels(spec.n_levels)
    laws = [
        sample_law(spec.grammar, level, gen, drift_levels, n_entities=n)
        for level in range(spec.n_levels)
    ]
    streams = {
        "generation": gen,
        "drift": rngmod.make_stream(spec.seed, "drift"),
        "problems": rngmod.make_stream(spec.seed, "problems"),
    }
    world = World(spec, positions, velocities, inertia, polarity, laws, streams)
    return build_hierarchy(world)


def apply_drift(world: World, rng: np.random.Generator | None = None) -> list[dict]:
    """Resample drifting laws at regime times; random-walk coefficients if enabled.

    Returns the drift events recorded this tick (regime resamples only).
    Level-0 laws are never touched.
    """
    spec = world.spec
    stream = rng if rng is not None else world.stream("drift")
    drift_levels = spec.drift.resolve_levels(spec.n_levels)
    events: list[dict] = []

    if world.tick in spec.drift.regime_times:
        for level in drift_levels:
            world.laws[level] = sample_law(spec.grammar, level, stream, drift_levels)
            events.append({"tick": world.tick, "level": level, "kind": "regime"})

    if spec.drift.smooth_rate > 0:
        lo, hi = spec.grammar.coeff_range
        rate = spec.drift.smooth_rate
        for level in drift_levels:
            law = world.laws[level]
            new_terms = []
            for name, coeff in law.terms:
                stepped = float(np.clip(coeff + stream.uniform(-rate, rate), lo, hi))
                if name == DAMPING_TERM:
                    cap = abs(hi) * spec.grammar.damping_scale
                    stepped = min(abs(stepped), cap)
                new_terms.append((name, stepped))
            world.laws[level] = replace(law, terms=tuple(new_terms))

    return events
