"""Independent checks the tests hold the program to.

Scalar and whole-world physics references, a plain-Python pair kernel,
the sensor-reading hash packed with `struct`, the live-trace redaction
audit and byte tools for tamper tests.  None of this is called by the
package: a check written apart from the code it checks cannot share its
mistakes.  `FORBIDDEN_LIVE_KEYS` is a denylist kept separately from the
allowlist `trace.LIVE_FIELDS` that decides what the live tier carries.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct

import numpy as np

from driftworld.dynamics import StepParams
from driftworld.errors import ContractViolation
from driftworld.worldgen import DAMPING_TERM, RADIAL_EXPONENT, CausationLaw, World

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
        delta = []
        for k in range(dim):
            d = pos[i][k] - pos[j][k]
            q = d / span
            # numpy's round: half to even, and the sign of a zero kept
            q = math.copysign(float(round(q)), q)
            delta.append(d - q * span)
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


def momentum(world: World) -> np.ndarray:
    """Total inertia-weighted velocity, the conserved quantity audits track."""
    return (world.velocities * world.inertia[:, None]).sum(axis=0)


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
