"""Independent checks the tests hold the program to.

Scalar and whole-world physics references, the live-trace redaction
audit and byte tools for tamper tests.  None of this is called by the
package: a check written apart from the code it checks cannot share its
mistakes.  `FORBIDDEN_LIVE_KEYS` is a denylist kept separately from the
allowlist `trace.LIVE_FIELDS` that decides what the live tier carries.
"""

from __future__ import annotations

import json
import os

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
        magnitude = coeff * r_eff ** RADIAL_EXPONENT[name]
        if coupled:
            magnitude *= p_a * p_b
        radial += magnitude
    accel = (radial / inertia_a) * unit - damping * (v_a - v_b)
    norm = float(np.sqrt((accel * accel).sum()))
    if norm > params.a_max:
        accel = accel * (params.a_max / norm)
    return accel


def momentum(world: World) -> np.ndarray:
    """Total inertia-weighted velocity, the conserved quantity audits track."""
    return (world.velocities * world.inertia[:, None]).sum(axis=0)


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
