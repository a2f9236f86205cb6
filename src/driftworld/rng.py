"""Named deterministic random streams.

Every stream is a counter-based Philox generator seeded from
(world seed, stream name), so generation, drift, problem sampling and
agent randomness never perturb each other.  Stream states serialize to
plain JSON, so a world's canonical form, and its snapshot hash, covers
them; replay regenerates the streams from their seeds.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError

#: Algorithm name written into trace headers.
STREAM_ALGORITHM = "philox4x64"

#: Odd stride keeps per-world seed derivation injective modulo 2**64.
_SEED_STRIDE = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1

#: Fixed base indices; appending new names must never renumber old ones.
_STREAM_BASE = {"generation": 0, "drift": 1, "problems": 2, "agent": 3}


def derive_world_seed(master_seed: int, index: int) -> int:
    """Derive the seed for world `index` of a multi-world run.

    Injective in `index` for any count below 2**64.
    """
    return (master_seed + (index + 1) * _SEED_STRIDE) & _MASK64


def _spawn_key(name: str) -> tuple[int, int]:
    base, _, sub = name.partition(".")
    if base not in _STREAM_BASE:
        raise ConfigError(f"unknown stream name: {name!r}")
    return (_STREAM_BASE[base], int(sub) + 1 if sub else 0)


def make_stream(world_seed: int, name: str) -> np.random.Generator:
    """Create the named stream for a world seed, at its initial state."""
    if not 0 <= world_seed < 1 << 64:
        raise ConfigError(f"seed must be a 64-bit unsigned integer, got {world_seed}")
    seq = np.random.SeedSequence(entropy=world_seed, spawn_key=_spawn_key(name))
    return np.random.Generator(np.random.Philox(seq))


def agent_seed(world_seed: int, name: str = "agent") -> int:
    """A 63-bit seed for one agent's own randomness, drawn from the
    world's named agent stream.  This, never the world seed, is what an
    agent is given: the world seed cannot be recovered from it."""
    return int(make_stream(world_seed, name).integers(1 << 63))


def agent_stream(agent_seed: int) -> np.random.Generator:
    """The random agent's stream for an agent seed, on both sides of the wire."""
    return make_stream(agent_seed, "agent")


def stream_state(gen: np.random.Generator) -> dict:
    """Extract a JSON-serializable state dict from a stream."""
    st = gen.bit_generator.state
    return {
        "counter": [int(x) for x in st["state"]["counter"]],
        "key": [int(x) for x in st["state"]["key"]],
        "buffer": [int(x) for x in st["buffer"]],
        "buffer_pos": int(st["buffer_pos"]),
        "has_uint32": int(st["has_uint32"]),
        "uinteger": int(st["uinteger"]),
    }


def clone_stream(gen: np.random.Generator) -> np.random.Generator:
    """Independent copy continuing from the same state, buffer included.
    The key given to the fresh generator is overwritten by that state."""
    bg = np.random.Philox(key=0)
    bg.state = gen.bit_generator.state
    return np.random.Generator(bg)


def ball_uniform(gen: np.random.Generator, radius: float) -> np.ndarray:
    """Uniform draw from the disc of the given radius.

    Direction from a normalized Gaussian, length from the inverse-CDF
    radius transform; draw order is part of the determinism contract.
    """
    direction = gen.standard_normal(2)
    norm = np.sqrt((direction * direction).sum())
    if norm == 0.0:
        direction = np.array([1.0, 0.0])
        norm = 1.0
    length = radius * gen.uniform() ** 0.5
    return direction / norm * length
