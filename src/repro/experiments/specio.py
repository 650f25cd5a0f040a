"""TOML reading/writing for experiment spec files.

Spec files are plain data — tables, arrays of tables, scalars and scalar
arrays.  :func:`loads_toml` reads them with the stdlib :mod:`tomllib`
and reports malformed text as a :class:`~repro.errors.ConfigError`.

:func:`dumps_toml` is the matching emitter:
``loads_toml(dumps_toml(d)) == d`` for every dict an
:class:`~repro.experiments.spec.ExperimentSpec` produces, which is what
makes ``spec -> TOML -> spec`` round-trips preserve job keys exactly
(floats are emitted via ``repr`` and re-parsed to the same bits).
"""

from __future__ import annotations

import json
import tomllib

from repro.errors import ConfigError


def loads_toml(text: str) -> dict:
    """Parse TOML text into a dict."""
    try:
        return tomllib.loads(text)
    except tomllib.TOMLDecodeError as exc:
        raise ConfigError(f"invalid TOML spec: {exc}") from None


# ----------------------------------------------------------------------
# Emitter
# ----------------------------------------------------------------------

def dumps_toml(data: dict) -> str:
    """Serialize a plain-data dict as TOML (round-trips with the reader)."""
    lines: list[str] = []
    _emit_table(data, path=(), lines=lines)
    return "\n".join(lines) + "\n"


def _emit_table(table: dict, path: tuple, lines: list[str],
                element: bool = False) -> None:
    """Emit one table: its header, its scalars, then its subtables and
    arrays of tables.

    An ``element`` of an array of tables always gets its ``[[...]]``
    header; any other table gets its ``[...]`` header when it holds a
    scalar or is empty (TOML defines the rest by their subtables).
    """
    scalars = {k: v for k, v in table.items()
               if not isinstance(v, dict) and not _is_table_array(v)}
    subtables = {k: v for k, v in table.items() if isinstance(v, dict)}
    arrays = {k: v for k, v in table.items() if _is_table_array(v)}
    if element or (path and (scalars or not (subtables or arrays))):
        if lines:
            lines.append("")
        header = _emit_path(path)
        lines.append(f"[[{header}]]" if element else f"[{header}]")
    for key, value in scalars.items():
        lines.append(f"{_emit_key(key)} = {_emit_value(value)}")
    for key, value in subtables.items():
        _emit_table(value, path + (key,), lines)
    for key, elements in arrays.items():
        for item in elements:
            _emit_table(item, path + (key,), lines, element=True)


def _is_table_array(value) -> bool:
    return isinstance(value, list) and bool(value) \
        and all(isinstance(item, dict) for item in value)


def _emit_key(key: str) -> str:
    if not key or any(c in key for c in " .[]\"'=#"):
        raise ConfigError(f"cannot emit TOML key {key!r}")
    return key


def _emit_path(path: tuple) -> str:
    """A validated dotted table-header path.

    Header components come from user-controlled names (e.g. inline
    custom profiles keyed by name), so each one gets the same bare-key
    validation as scalar keys — a space or dot must fail the save with
    a clear error, never silently emit a header the reader rejects or
    mis-nests.
    """
    return ".".join(_emit_key(component) for component in path)


def _emit_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_emit_value(item) for item in value) + "]"
    raise ConfigError(f"cannot emit TOML value of type "
                      f"{type(value).__name__}")
