"""Canonical JSON encoding and hashing, and the dataclass codec.

Two equal documents must always produce identical bytes: keys are sorted,
separators are fixed, floats use Python's shortest-roundtrip repr, and
non-finite numbers are rejected outright.  Every snapshot hash, trace
line and wire message in the package goes through here, written and
read back.

`to_doc` and `from_doc` turn the parameter and spec dataclasses into
plain documents and back, field by field, so a class's field
declarations are its only schema.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import types
import typing

import numpy as np

from .errors import ContractViolation


#: `json.dumps` with these options builds a new encoder on every call;
#: an encoder keeps no state between calls, so one serves them all.
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"), allow_nan=False)


def canonical_dumps(doc) -> str:
    return _ENCODER.encode(doc)


def _refuse_constant(name: str):
    raise ValueError(f"{name} is not a JSON number")


#: Decode one JSON document; ValueError if it is not JSON, or holds `NaN`,
#: `Infinity` or `-Infinity`, which no canonical encoding does.
canonical_loads = json.JSONDecoder(parse_constant=_refuse_constant).decode


def canonical_hash(doc) -> str:
    """Hex sha256 of the canonical encoding."""
    return hashlib.sha256(canonical_dumps(doc).encode("utf-8")).hexdigest()


def to_doc(obj):
    """A plain JSON document: dataclass fields by name, nested dataclasses
    recursed, tuples and numpy arrays as lists."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: to_doc(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (list, tuple)):
        return [to_doc(v) for v in obj]
    if isinstance(obj, dict):
        return {k: to_doc(v) for k, v in obj.items()}
    return obj


@functools.cache
def _field_types(cls) -> dict:
    return typing.get_type_hints(cls)


def from_doc(cls, doc):
    """The inverse of `to_doc`, driven by the field annotations.

    Every field must be present (KeyError names the first missing one);
    extra keys are ignored.  A document of the wrong shape, or a scalar of
    the wrong type for its field, raises ContractViolation naming the
    field.
    """
    if not isinstance(doc, dict):
        raise ContractViolation(
            f"{cls.__name__} must be an object, not {type(doc).__name__}"
        )
    hints = _field_types(cls)
    values = {}
    for f in dataclasses.fields(cls):
        try:
            values[f.name] = _decode(hints[f.name], doc[f.name])
        except ContractViolation as exc:
            raise ContractViolation(f"{cls.__name__}.{f.name}: {exc}") from None
    return cls(**values)


def _scalar_ok(tp, value) -> bool:
    """Whether a JSON scalar may fill a field annotated `tp`: an int field
    takes an int, a float field an int or a float, never a bool."""
    if tp is int:
        return isinstance(value, int) and not isinstance(value, bool)
    if tp is float:
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    return isinstance(value, tp)


def _decode(tp, value):
    if dataclasses.is_dataclass(tp):
        return from_doc(tp, value)
    origin = typing.get_origin(tp)
    args = typing.get_args(tp)
    if origin in (typing.Union, types.UnionType):
        if value is None and type(None) in args:
            return None
        (inner,) = [a for a in args if a is not type(None)]
        return _decode(inner, value)
    if origin is tuple:
        if not isinstance(value, (list, tuple)):
            raise ContractViolation(f"expected an array, not {type(value).__name__}")
        if args[-1] is Ellipsis:
            return tuple(_decode(args[0], v) for v in value)
        if len(value) != len(args):
            raise ContractViolation(f"expected {len(args)} items, not {len(value)}")
        return tuple(_decode(a, v) for a, v in zip(args, value))
    if tp in (int, float, str, bool) and not _scalar_ok(tp, value):
        raise ContractViolation(f"expected {tp.__name__}, not {type(value).__name__}")
    return value
