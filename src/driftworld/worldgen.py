"""World generation: entity differentiation, interaction-law sampling, hierarchy.

A world is generated in three steps from a single seed: place positive and
negative basic entities, sample one pairwise interaction law per hierarchy
level, then partition entities into composites level by level.  Everything
is drawn from the world's "generation" stream, so one spec always produces
one world.  Laws at level 0 stay fixed for the life of the world; laws at
the configured drift levels are resampled at scheduled regime times.

Membership is frozen at build time as read-only index maps that clones
share.  Inertia and polarity never change either, so each level's
inertia, polarity and polarity products are computed once per world and
shared the same way (`World.level_constants`).  Composite positions and
velocities are never stored: `World.recompute_aggregates` derives them
from the current entity state, so they cannot go stale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import rng as rngmod
from .canon import to_doc
from .errors import ConfigError, ContractViolation

#: Radial basis terms and their exponent of the pair separation, plus a
#: relative-velocity damping term ("damp", never polarity coupled).
BASIS_TERMS = ("inv_sq", "inv", "const", "lin", "quad", "damp")
RADIAL_EXPONENT = {"inv_sq": -2, "inv": -1, "const": 0, "lin": 1, "quad": 2}
DAMPING_TERM = "damp"


@dataclass(frozen=True)
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

    def __post_init__(self):
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


@dataclass(frozen=True)
class DriftSchedule:
    """When and where interaction laws change.

    Regime times trigger full resampling of the laws at the drift levels;
    a positive smooth_rate additionally random-walks their coefficients
    each tick.  Level 0 never drifts.  The checks that need the level
    count run in `GenSpec`.
    """

    regime_times: tuple[int, ...] = ()
    smooth_rate: float = 0.0
    drift_levels: tuple[int, ...] | None = None  # None: all levels >= 1

    def __post_init__(self):
        times = self.regime_times
        if any(t2 <= t1 for t1, t2 in zip(times, times[1:])):
            raise ConfigError("drift regime_times must be strictly increasing")
        if any(t < 0 for t in times):
            raise ConfigError("drift regime_times must be nonnegative")
        if self.smooth_rate < 0:
            raise ConfigError("drift smooth_rate must be >= 0")
        if self.drift_levels is not None and 0 in self.drift_levels:
            raise ConfigError("level 0 laws are fixed and cannot drift")

    def resolve_levels(self, n_levels: int) -> tuple[int, ...]:
        if self.drift_levels is None:
            return tuple(range(1, n_levels))
        return tuple(sorted(self.drift_levels))


@dataclass(frozen=True)
class GenSpec:
    """Complete recipe for one world instance."""

    seed: int
    n_entities: int = 16
    dim: int = 2  # only 2 can run; a field so trace headers keep their bytes
    polarity_ratio: float = 0.5
    n_levels: int = 2
    grammar: CausationGrammar = field(default_factory=CausationGrammar)
    drift: DriftSchedule = field(default_factory=DriftSchedule)
    arena_extent: float = 8.0

    def __post_init__(self):
        if not 0 <= self.seed < 1 << 64:
            raise ConfigError("seed must be a 64-bit unsigned integer")
        if self.n_entities < 2:
            raise ConfigError("n_entities must be >= 2")
        if self.dim != 2:
            raise ConfigError("dim must be 2: the density sensor reads 2-D worlds only")
        if not 0.0 < self.polarity_ratio < 1.0:
            raise ConfigError("polarity_ratio must lie strictly between 0 and 1")
        if self.n_levels < 1:
            raise ConfigError("n_levels must be >= 1")
        if self.arena_extent <= 0:
            raise ConfigError("arena_extent must be > 0")
        drift = self.drift
        if drift.drift_levels is not None \
                and any(not 1 <= lv < self.n_levels for lv in drift.drift_levels):
            raise ConfigError("drift_levels must lie in [1, n_levels)")
        if (drift.regime_times or drift.smooth_rate > 0) \
                and not drift.resolve_levels(self.n_levels):
            raise ConfigError("drift schedule is active but no level is able to drift")


@dataclass
class CausationLaw:
    """A sampled pairwise interaction law at one hierarchy level."""

    level: int
    terms: tuple[tuple[str, float], ...]
    polarity_coupled: tuple[bool, ...]
    drift_handle: str | None = None


@dataclass(frozen=True, eq=False)
class _Level:
    """Frozen membership of one hierarchy level >= 1.

    `ids` and `children` are the canonical form.  `parent` maps each row
    of the level below to its composite's row here, `anchor` holds each
    composite's first such row, and `owner` maps each basic entity to it
    (the composition of the `parent` maps so far).  `bins` maps each
    `(row, column)` of a flattened `(rows, 2)` array of the level below
    to `parent[row] * 2 + column`, its bin of this level's `(m, 2)`
    sums.  The arrays are read-only because clones share them.
    """

    level: int
    ids: tuple[int, ...]
    children: tuple[tuple[int, ...], ...]
    parent: np.ndarray
    anchor: np.ndarray
    owner: np.ndarray
    bins: np.ndarray

    def __post_init__(self):
        for index_map in (self.parent, self.anchor, self.owner, self.bins):
            index_map.flags.writeable = False


@dataclass(frozen=True, eq=False)
class LevelConstants:
    """What the step needs of one hierarchy level that never changes.

    `inertia` and `polarity` per row: at level 0 the entities' own, at a
    composite level each composite's members' inertia total and the sign
    of their polarity sum, ties going to +1.  `polarity_product[j, i]` is
    `polarity[j] * polarity[i]` as float64, the pair kernel's polarity
    coupling.  `unit_inertia` says every inertia is 1.0, so that dividing
    or weighting by it changes nothing.  The arrays are read-only because
    clones share them.
    """

    inertia: np.ndarray
    polarity: np.ndarray
    polarity_product: np.ndarray
    unit_inertia: bool

    def __post_init__(self):
        for array in (self.inertia, self.polarity, self.polarity_product):
            array.flags.writeable = False

    @classmethod
    def of(cls, inertia: np.ndarray, polarity: np.ndarray) -> "LevelConstants":
        """The constants of a level with these rows, copied."""
        inertia, polarity = np.array(inertia), np.array(polarity)
        sign = polarity.astype(np.float64)
        product = np.multiply.outer(sign, sign)
        return cls(inertia, polarity, product, bool(np.all(inertia == 1.0)))


def _sum_rows(bins: np.ndarray, m: int, values: np.ndarray) -> np.ndarray:
    """Sum the rows of `(rows, 2)` `values` into `m` rows by `bins`
    (a `_Level`'s), each in ascending row order: one `bincount` visits a
    bin's entries in input order, which is row order."""
    return np.bincount(bins, weights=values.ravel(), minlength=m * 2).reshape(m, 2)


def wrap_positions(pos: np.ndarray, extent: float) -> np.ndarray:
    """Map coordinates into the toroidal arena [-extent, extent)."""
    span = 2.0 * extent
    return (pos + extent) % span - extent


def divide_by_span(delta: np.ndarray, span: float, out=None) -> np.ndarray:
    """`delta / span`, elementwise.  When `span` is a power of two its
    reciprocal is exact, so a multiply by it rounds the same real number
    and gives the same bits, faster."""
    if math.frexp(span)[0] == 0.5:
        return np.multiply(delta, 1.0 / span, out=out)
    return np.divide(delta, span, out=out)


def minimal_image(delta: np.ndarray, extent: float) -> np.ndarray:
    """Shortest toroidal displacement equivalent to `delta`.

    Uses round-half-even, which is symmetric under negation, so
    minimal_image(-d) == -minimal_image(d) bit for bit.
    """
    span = 2.0 * extent
    return delta - span * np.round(divide_by_span(delta, span))


def clamp_rows(rows: np.ndarray, cap: float) -> np.ndarray:
    """Scale any row whose Euclidean norm exceeds `cap` back onto it."""
    norms = np.sqrt((rows * rows).sum(axis=1))
    over = norms > cap
    if over.any():
        scale = np.where(over, cap / np.where(norms > 0, norms, 1.0), 1.0)
        rows = rows * scale[:, None]
    return rows


class World:
    """The complete simulable state: entities, hierarchy, laws, clock, streams.

    `inertia` and `polarity` are never reassigned after build, nor
    written once the world has been stepped: `level_constants` derives
    each level's constants from them once, and clones share the result.  `pending`
    holds the forces `dynamics.prepare` computed ahead of this tick's
    step; clones inherit it.  Neither is serialized.
    """

    def __init__(self, spec: GenSpec, positions, velocities, inertia, polarity,
                 laws, streams, tick=0):
        self.spec = spec
        self.positions = positions    # (n, 2) float64, toroidal coords
        self.velocities = velocities  # (n, 2) float64
        self.inertia = inertia        # (n,) float64, > 0
        self.polarity = polarity      # (n,) int64, +1 or -1
        self.laws: list[CausationLaw] = laws
        self.streams: dict[str, np.random.Generator] = streams
        self.tick = tick
        self.levels: list[_Level] = []
        # Drift events of the last step; transient, not serialized.
        self.last_drift_events: list[dict] = []
        self.pending = None  # a dynamics.PendingForces, until the step
        self._constants: list[LevelConstants] | None = None

    @property
    def n_entities(self) -> int:
        return self.positions.shape[0]

    def stream(self, name: str) -> np.random.Generator:
        if name not in self.streams:
            self.streams[name] = rngmod.make_stream(self.spec.seed, name)
        return self.streams[name]

    def level_constants(self) -> list[LevelConstants]:
        """Every level's constants, level 0 first, computed on first use."""
        if self._constants is None:
            consts = [LevelConstants.of(self.inertia, self.polarity)]
            for lv in self.levels:
                m = len(lv.ids)
                below = consts[-1]
                inertia = np.bincount(lv.parent, weights=below.inertia, minlength=m)
                charge = np.bincount(lv.parent, weights=below.polarity, minlength=m)
                consts.append(LevelConstants.of(inertia, np.where(charge >= 0, 1, -1)))
            self._constants = consts
        return self._constants

    def recompute_aggregates(self) -> list[tuple[np.ndarray, ...]]:
        """Every composite's inertia-weighted aggregates, from the current state.

        Returns one (positions, velocities, inertia, polarity) tuple per
        level >= 1.  Each level aggregates the rows of the level below it,
        summing members in ascending row order; inertia and polarity are
        the level's constants.  Nothing is stored.

        A position is the weighted mean of the members' minimal-image
        offsets from the composite's first member, wrapped, so a
        composite that straddles the wrap seam stays where its members
        are instead of jumping to the middle of the arena.
        """
        out = []
        extent = self.spec.arena_extent
        consts = self.level_constants()
        pos, vel = self.positions, self.velocities
        for lv, below, here in zip(self.levels, consts, consts[1:]):
            m = len(lv.ids)
            anchor = pos[lv.anchor]
            offsets = minimal_image(pos - anchor[lv.parent], extent)
            if not below.unit_inertia:
                offsets *= below.inertia[:, None]
                vel = vel * below.inertia[:, None]
            total = here.inertia[:, None]
            pos = wrap_positions(anchor + _sum_rows(lv.bins, m, offsets) / total, extent)
            vel = _sum_rows(lv.bins, m, vel) / total
            out.append((pos, vel, here.inertia, here.polarity))
        return out

    # -- canonical serialization ------------------------------------------

    def to_canonical(self) -> dict:
        if self.pending is not None:
            raise ContractViolation("a world with pending forces must be stepped "
                                    "before it is serialized")
        return {
            "format": 1,
            "spec": to_doc(self.spec),
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
            "laws": [to_doc(law) for law in self.laws],
            "rng": {
                "algorithm": rngmod.STREAM_ALGORITHM,
                "streams": {
                    name: rngmod.stream_state(gen)
                    for name, gen in sorted(self.streams.items())
                },
            },
        }

    def clone(self) -> "World":
        """Independent copy of the state (streams included); membership,
        level constants and pending forces are shared."""
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
        world.levels = self.levels
        world.pending = self.pending
        world._constants = self._constants
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


def build_hierarchy(world: World) -> World:
    """Partition each level into composites by deterministic grid buckets.

    Bucket width at level L is arena_extent / 2**(n_levels - L), so low
    levels form many small composites and the top level a few large ones.
    Composites are numbered in sorted bucket-key order, with consecutive
    ids per level.  The partition depends only on positions at build
    time and the spec.
    """
    spec = world.spec
    extent = spec.arena_extent
    world.levels = []
    first_id = 0  # row r of the level below has id first_id + r
    owner = np.arange(world.n_entities, dtype=np.intp)
    prev_pos = world.positions

    for level in range(1, spec.n_levels):
        width = extent / 2 ** (spec.n_levels - level)
        n_buckets = int(np.ceil(2 * extent / width))
        idx = np.floor((prev_pos + extent) / width).astype(np.int64)
        idx = np.clip(idx, 0, n_buckets - 1)
        # np.unique orders bucket keys lexicographically, as sorted() does,
        # and returns each key's first row
        _, anchor, parent = np.unique(idx, axis=0, return_index=True,
                                      return_inverse=True)
        parent = parent.reshape(-1)
        counts = np.bincount(parent)
        m = len(counts)
        members = np.split(np.argsort(parent, kind="stable"), np.cumsum(counts)[:-1])
        next_id = first_id + len(parent)
        owner = parent[owner]
        bins = (parent[:, None] * 2 + np.arange(2)).ravel()
        world.levels.append(_Level(
            level, tuple(range(next_id, next_id + m)),
            tuple(tuple((first_id + rows).tolist()) for rows in members),
            parent, anchor, owner, bins))
        first_id = next_id
        # Positions for the next level up: the plain mean is enough for
        # bucketing; dynamics uses inertia-weighted aggregates.
        prev_pos = _sum_rows(bins, m, prev_pos) / counts[:, None]

    return world


def generate_world(spec: GenSpec) -> World:
    """Generate a world from its spec, drawing only from the generation stream."""
    gen = rngmod.make_stream(spec.seed, "generation")
    n = spec.n_entities
    positions = gen.uniform(-spec.arena_extent, spec.arena_extent, size=(n, 2))
    velocities = np.zeros((n, 2))
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


def apply_drift(world: World) -> list[dict]:
    """Resample drifting laws at regime times; random-walk coefficients if enabled.

    Returns the drift events recorded this tick (regime resamples only).
    Level-0 laws are never touched.
    """
    spec = world.spec
    stream = world.stream("drift")
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
