"""Reference oracle for canonical job keys.

The program writes a job's canonical JSON text directly and writes each
frozen value that many jobs share once per process
(:func:`repro.engine.jobs.job_key`).  This module is the simple path
those keys are tested against, the key path of 1.14.0:

* :func:`stable_token` folds a value into a JSON-serializable token tree;
* :func:`oracle_text` serializes the tree with
  ``json.dumps(sort_keys=True, separators=(",", ":"))``;
* :func:`oracle_key` is the sha256 of that text.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from enum import Enum


def stable_token(value):
    """Fold ``value`` into a JSON-serializable token with stable identity.

    Dataclasses are expanded field-by-field (tagged with their qualified
    name so two different types never collide), enums by value, floats by
    exact ``repr``, bytes by sha256 digest (so a riscv-backed trace spec
    is keyed by its program contents without inflating the token tree).
    Unsupported types raise ``TypeError`` — jobs must be plain data.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        token = {"__type__": f"{type(value).__module__}."
                             f"{type(value).__qualname__}"}
        for field in dataclasses.fields(value):
            token[field.name] = stable_token(getattr(value, field.name))
        return token
    if isinstance(value, Enum):
        return {"__enum__": f"{type(value).__qualname__}.{value.name}",
                "value": stable_token(value.value)}
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return value
    if isinstance(value, int):
        return value
    if isinstance(value, float):
        return {"__float__": repr(value)}
    if isinstance(value, (bytes, bytearray)):
        return {"__bytes_sha256__": hashlib.sha256(bytes(value)).hexdigest()}
    if isinstance(value, (list, tuple)):
        return [stable_token(item) for item in value]
    if isinstance(value, dict):
        return {"__dict__": sorted(
            (str(k), stable_token(v)) for k, v in value.items())}
    if isinstance(value, (set, frozenset)):
        return {"__set__": sorted(json.dumps(stable_token(v), sort_keys=True)
                                  for v in value)}
    raise TypeError(
        f"cannot build a stable job key from {type(value).__name__!r}; "
        f"jobs must be plain data (dataclasses, enums, scalars, tuples)")


def oracle_text(job) -> str:
    """The canonical JSON text of ``job``, through the token tree."""
    return json.dumps(stable_token(job), sort_keys=True,
                      separators=(",", ":"))


def oracle_key(job) -> str:
    """Canonical content hash of ``job`` (hex), the reference way."""
    return hashlib.sha256(oracle_text(job).encode("utf-8")).hexdigest()
