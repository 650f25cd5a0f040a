"""One codec for every spec-file table.

Each table of a spec file is the file form of one dataclass.
:func:`read_fields` reads a table into that class's keyword arguments
and :func:`write_fields` writes an instance back, both from the class
alone: its field names, its defaults and its resolved type hints.  So a
field's name, type and default are stated once, on its class.

The reader takes, by the field's type:

* ``int``: a whole number (``3.0`` reads as ``3``); ``float``: any
  number, converted; ``bool``: a boolean; ``str``: a string.  A boolean
  is never a number.
* ``tuple[T, ...]``: a list of ``T``; ``T | None`` also takes a JSON
  ``null``; an enum: one of its values.
* a dataclass: a table, read by the class's own ``from_dict`` if it has
  one and field by field otherwise.
* ``Annotated[T, form]``: the field's own file form, one of
  :class:`Overrides`, :class:`Keyed`, :class:`ByName` and
  :class:`FreeForm`.

Any other type cannot be set from a spec file.  Unknown keys, missing
required fields and values of the wrong type each raise one
:class:`~repro.errors.ConfigError` naming ``table.key``.  The writer
names only the fields that differ from their defaults: enums as their
values, tuples as lists and nested dataclasses through their own
``to_dict``.

This module imports only the stdlib and :mod:`repro.errors`, so both
:mod:`repro.experiments` and :mod:`repro.montecarlo` build on it.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import sys
import types
import typing

from repro.errors import ConfigError

#: What a scalar field takes, as error messages name it.
_KINDS = {bool: "a boolean", int: "an integer", float: "a number",
          str: "a string"}

_FLOAT_MAX = sys.float_info.max


def read_fields(cls, data, table: str, layout=None, **given) -> dict:
    """Keyword arguments for ``cls`` from the spec-file table ``data``.

    ``table`` names the table in error messages (``""`` for the file's
    top level).  ``layout`` maps a field to the ``(subtable, key)`` that
    holds it; every other field is the key of its own name.  ``given``
    holds fields the file states elsewhere, such as a keyed entry's name.
    """
    layout = layout or {}
    tables = {"": _table(data, table)}
    allowed: dict[str, set] = {"": set()}
    places = {}
    for field in dataclasses.fields(cls):
        if not field.init or field.name in given:
            continue
        sub, key = layout.get(field.name, ("", field.name))
        if sub not in tables:
            tables[sub] = _table(tables[""].get(sub, {}), _join(table, sub))
            allowed[""].add(sub)
            allowed[sub] = set()
        allowed[sub].add(key)
        places[field] = (sub, key)
    for sub, keys in allowed.items():
        unknown = [key for key in tables[sub] if key not in keys]
        if unknown:
            raise ConfigError(
                f"unknown {_join(table, sub) or 'top-level'} spec keys: "
                f"{unknown} (allowed: {sorted(keys)})")
    hints = _hints(cls)
    kwargs = dict(given)
    for field, (sub, key) in places.items():
        where = _join(_join(table, sub), key)
        if key in tables[sub]:
            kwargs[field.name] = _read(hints[field.name], tables[sub][key],
                                       where)
        elif field.default is dataclasses.MISSING \
                and field.default_factory is dataclasses.MISSING:
            raise ConfigError(f"missing spec key {where}")
    return kwargs


def write_fields(obj, layout=None) -> dict:
    """The spec-file table of ``obj``: its fields that differ from their
    defaults, placed by ``layout`` as in :func:`read_fields`."""
    layout = layout or {}
    hints = _hints(type(obj))
    data: dict = {}
    for field in dataclasses.fields(obj):
        value = getattr(obj, field.name)
        if field.default is not dataclasses.MISSING \
                and value == field.default:
            continue
        sub, key = layout.get(field.name, ("", field.name))
        form = _form(hints[field.name])
        (data.setdefault(sub, {}) if sub else data)[key] = \
            form.write(value) if form else _write(value)
    return data


# ----------------------------------------------------------------------
# File forms of single fields
# ----------------------------------------------------------------------

class Overrides:
    """A sparse table of ``cls`` fields, held as ``(name, value)`` pairs
    (``[params]`` sets :class:`PipelineParams` fields)."""

    def __init__(self, cls):
        self.cls = cls

    def read(self, hint, value, where: str) -> tuple:
        return tuple(read_fields(self.cls, value, where).items())

    def write(self, value) -> dict:
        return {name: _write(item) for name, item in value}


class Keyed:
    """A table of dataclass entries keyed by their ``name`` field, held
    as a tuple in file order (``[population.custom.<name>]``)."""

    def read(self, hint, value, where: str) -> tuple:
        cls = typing.get_args(hint)[0]
        return tuple(cls(**read_fields(cls, entry, _join(where, name),
                                       name=name))
                     for name, entry in _table(value, where).items())

    def write(self, value) -> dict:
        return {item.name: {key: entry for key, entry
                            in write_fields(item).items() if key != "name"}
                for item in value}


class ByName:
    """A value given by its name, one of the keys of ``known``."""

    def __init__(self, known: dict):
        self.known = known

    def read(self, hint, value, where: str):
        name = _read(str, value, where)
        if name not in self.known:
            _bad(name, where, "one of " + ", ".join(sorted(self.known)))
        return self.known[name]

    def write(self, value) -> str:
        return value.name


class FreeForm:
    """Any table, held as its ``(key, value)`` pairs (``[metadata]``)."""

    def read(self, hint, value, where: str) -> tuple:
        return tuple(_table(value, where).items())

    def write(self, value) -> dict:
        return dict(value)


# ----------------------------------------------------------------------
# Values
# ----------------------------------------------------------------------

def _read(hint, value, where: str):
    form = _form(hint)
    if form is not None:
        return form.read(typing.get_args(hint)[0], value, where)
    origin = typing.get_origin(hint)
    if origin in (typing.Union, types.UnionType):
        members = [m for m in typing.get_args(hint) if m is not type(None)]
        if value is None and len(members) < len(typing.get_args(hint)):
            return None
        if len(members) == 1:
            return _read(members[0], value, where)
        for member in members:
            try:
                return _read(member, value, where)
            except ConfigError:
                pass
        _bad(value, where, " or ".join(_KINDS[m] for m in members))
    if origin is tuple:
        if not isinstance(value, (list, tuple)):
            _bad(value, where, "a list")
        item = typing.get_args(hint)[0]
        return tuple(_read(item, element, f"{where}[{index}]")
                     for index, element in enumerate(value))
    if hint in _KINDS:
        if hint in (bool, str) and isinstance(value, hint):
            return value
        if hint in (int, float) and isinstance(value, (int, float)) \
                and not isinstance(value, bool):
            if hint is int and (isinstance(value, int)
                                or value.is_integer()):
                return int(value)
            if hint is float and (isinstance(value, float)
                                  or abs(value) <= _FLOAT_MAX):
                return float(value)
        _bad(value, where, _KINDS[hint])
    if isinstance(hint, enum.EnumMeta):
        try:
            return hint(value)
        except (TypeError, ValueError):
            _bad(value, where, "one of " + ", ".join(
                repr(member.value) for member in hint))
    if dataclasses.is_dataclass(hint):
        if hasattr(hint, "from_dict"):
            return hint.from_dict(_table(value, where))
        return hint(**read_fields(hint, value, where))
    raise ConfigError(f"{where} cannot be set from a spec file")


def _write(value):
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, tuple):
        return [_write(item) for item in value]
    if dataclasses.is_dataclass(value):
        if hasattr(value, "to_dict"):
            return value.to_dict()
        return write_fields(value)
    return value


def _table(value, where: str) -> dict:
    if not isinstance(value, dict):
        _bad(value, where or "the spec", "a table")
    return value


def _bad(value, where: str, kind: str) -> typing.NoReturn:
    raise ConfigError(f"bad value {value!r} for {where}: must be {kind}")


def _join(table: str, key: str) -> str:
    return f"{table}.{key}" if table and key else table or key


def _form(hint):
    if typing.get_origin(hint) is typing.Annotated:
        return hint.__metadata__[0]
    return None


@functools.cache
def _hints(cls) -> dict:
    # Resolving evaluates every annotation of the class, and one spec
    # reads the same few classes many times (a TraceProfile per custom
    # profile), so spec loading would otherwise be dominated by it.
    return typing.get_type_hints(cls, include_extras=True)
