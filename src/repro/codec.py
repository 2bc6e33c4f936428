"""The one codec between typed dataclasses and their JSON form.

Every record the study logs — unit results, the checkpoint plan, served
reports, durable job records, protocol payloads, bus events — is a
dataclass, and :func:`to_jsonable` / :func:`from_jsonable` are the only
code that turns one into JSON-safe data and back:

- each dataclass gets a field plan, resolved once per class (annotations
  via :func:`typing.get_type_hints`, wire keys, defaults);
- supported annotations: ``bool``/``int``/``float``/``str``, ``Any`` and
  ``object`` (passed through), ``Optional``/``Union``,
  ``list``/``tuple``/``set``/``frozenset``/``dict`` (and ``dict``
  subclasses such as ``Counter``), ``Enum`` (by value), ``Path`` (as a
  string) and nested dataclasses;
- decoding checks every value against its annotation and never converts
  one: an ``int`` field rejects a bool or a float, a ``float`` field
  accepts an int and keeps it an int (so re-serialised bytes are
  identical).  A mismatch raises :class:`CodecError` naming the dotted
  field path;
- unknown keys are ignored (forward compatibility) and missing keys take
  the field default.

Two field hooks, both in ``dataclasses.field(metadata=...)``:

- ``{"archive": False}`` — never encoded (nor decoded), e.g. attached
  evidence that must not move the archive bytes;
- ``{"key": "wire_name"}`` — the field travels under another key.

A class whose wire form differs from the plain field mapping in some
other way defines ``to_dict`` (and, where decoding differs too,
``from_dict``) and applies only that difference around this codec.
Wherever such a class is *nested*, the codec calls those methods, so its
containers need none of their own.

This module imports nothing from ``repro``.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import pathlib
import re
import types
import typing
from typing import Any, Callable

__all__ = ["CodecError", "to_jsonable", "from_jsonable"]


class CodecError(ValueError):
    """A value that does not match its annotation (or cannot build one).

    ``path`` holds the segments from the decoded root to the bad value —
    field keys, ``[index]`` and ``['dict key']`` — and ``str()`` renders
    them dotted in front of the message, e.g.
    ``config.providers: expected a list, got str``.
    """

    def __init__(self, message: str) -> None:
        super().__init__(message)
        self.message = message
        self.path: list[str] = []

    def at(self, segment: str) -> "CodecError":
        self.path.insert(0, segment)
        return self

    def __str__(self) -> str:
        where = ""
        for segment in self.path:
            if where and not segment.startswith("["):
                where += "."
            where += segment
        return f"{where}: {self.message}" if where else self.message


def _kind(value: Any) -> str:
    return "None" if value is None else type(value).__name__


def _words(name: str) -> str:
    """``JobKind`` -> ``job kind`` (for error messages)."""
    return re.sub(r"(?<!^)(?=[A-Z])", " ", name).lower()


# ----------------------------------------------------------------------
# Encoding: walk the runtime values
# ----------------------------------------------------------------------
def to_jsonable(obj: Any) -> Any:
    """*obj* as JSON-safe data: dataclasses become dicts of their fields.

    At the top level a dataclass is always encoded field by field (that
    is what its own ``to_dict`` builds on); nested values of a class with
    a ``to_dict`` go through it.
    """
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return _fields_encoder(type(obj))(obj)
    return _encode(obj)


def _encode(value: Any) -> Any:
    return _encoder(type(value))(value)


def _identity(value: Any) -> Any:
    return value


def _encode_list(value: Any) -> list:
    return [_encode(item) for item in value]


def _encode_set(value: Any) -> list:
    return sorted(_encode(item) for item in value)


def _encode_dict(value: dict) -> dict:
    return {str(key): _encode(item) for key, item in value.items()}


@functools.cache
def _encoder(cls: type) -> Callable[[Any], Any]:
    if cls in (str, int, float, bool, type(None)):
        return _identity
    if issubclass(cls, enum.Enum):
        return lambda member: member.value
    if hasattr(cls, "to_dict"):
        return cls.to_dict
    if dataclasses.is_dataclass(cls):
        return _fields_encoder(cls)
    if issubclass(cls, dict):
        return _encode_dict
    if issubclass(cls, (list, tuple)):
        return _encode_list
    if issubclass(cls, (set, frozenset)):
        return _encode_set
    if issubclass(cls, pathlib.PurePath):
        return str
    return _identity


@functools.cache
def _fields_encoder(cls: type) -> Callable[[Any], dict]:
    plan = [
        (spec.name, spec.metadata.get("key", spec.name))
        for spec in dataclasses.fields(cls)
        if spec.metadata.get("archive", True)
    ]

    def encode(obj: Any) -> dict:
        return {key: _encode(getattr(obj, name)) for name, key in plan}

    return encode


# ----------------------------------------------------------------------
# Decoding: walk the annotations, check every value
# ----------------------------------------------------------------------
def from_jsonable(cls: Any, data: Any) -> Any:
    """Rebuild a value of type *cls* (any supported annotation) from *data*.

    At the top level a dataclass is always decoded field by field (that
    is what its own ``from_dict`` builds on); nested values of a class
    with a ``from_dict`` go through it.
    """
    if dataclasses.is_dataclass(cls):
        return _fields_decoder(cls)(data)
    return _decoder(cls)(data)


def _scalar(name: str, *accepted: type) -> Callable[[Any], Any]:
    def decode(value: Any) -> Any:
        if type(value) in accepted:
            return value
        raise CodecError(f"expected {name}, got {_kind(value)}")

    return decode


_SCALARS = {
    bool: _scalar("bool", bool),
    int: _scalar("int", int),
    float: _scalar("float", float, int),
    str: _scalar("str", str),
}


def _sequence(item: Callable[[Any], Any], build: type) -> Callable:
    def decode(value: Any) -> Any:
        if type(value) is not list and type(value) is not tuple:
            raise CodecError(f"expected a list, got {_kind(value)}")
        out = []
        try:
            for element in value:
                out.append(item(element))
        except CodecError as exc:
            raise exc.at(f"[{len(out)}]")  # the element that failed
        return build(out)

    return decode


def _fixed_tuple(items: list[Callable[[Any], Any]]) -> Callable:
    def decode(value: Any) -> tuple:
        if type(value) is not list and type(value) is not tuple:
            raise CodecError(f"expected a list, got {_kind(value)}")
        if len(value) != len(items):
            raise CodecError(f"expected {len(items)} items, got {len(value)}")
        out = []
        try:
            for item, element in zip(items, value):
                out.append(item(element))
        except CodecError as exc:
            raise exc.at(f"[{len(out)}]")
        return tuple(out)

    return decode


def _mapping(
    key: Callable[[Any], Any], item: Callable[[Any], Any], build: type
) -> Callable:
    def decode(value: Any) -> Any:
        if type(value) is not dict:
            raise CodecError(f"expected an object, got {_kind(value)}")
        out = {}
        try:
            for raw_key, element in value.items():
                out[key(raw_key)] = item(element)
        except CodecError as exc:
            raise exc.at(f"[{raw_key!r}]")
        return out if build is dict else build(out)

    return decode


def _optional(arm: Callable[[Any], Any]) -> Callable:
    def decode(value: Any) -> Any:
        return None if value is None else arm(value)

    return decode


def _union(args: tuple) -> Callable:
    arms = [_decoder(arg) for arg in args if arg is not type(None)]
    if len(arms) == 1:  # Optional[T]
        return _optional(arms[0])
    optional = type(None) in args
    names = " or ".join(getattr(arg, "__name__", str(arg)) for arg in args)

    def decode(value: Any) -> Any:
        if value is None and optional:
            return None
        for arm in arms:
            try:
                return arm(value)
            except CodecError:
                continue
        raise CodecError(f"expected {names}, got {_kind(value)}")

    return decode


def _enum(cls: type) -> Callable:
    def decode(value: Any) -> Any:
        try:
            return cls(value)
        except ValueError:
            raise CodecError(
                f"unknown {_words(cls.__name__)} {value!r}; expected one of "
                f"{[member.value for member in cls]}"
            ) from None

    return decode


def _path(cls: type) -> Callable:
    def decode(value: Any) -> Any:
        if type(value) is not str:
            raise CodecError(f"expected a path string, got {_kind(value)}")
        return cls(value)

    return decode


@functools.cache
def _decoder(tp: Any) -> Callable[[Any], Any]:
    """The checking decoder for one annotation, built once."""
    if tp is Any or tp is object:
        return _identity
    if tp in _SCALARS:
        return _SCALARS[tp]
    origin = typing.get_origin(tp)
    args = typing.get_args(tp)
    if origin is typing.Union or origin is types.UnionType:
        return _union(args)
    if origin is None:
        origin, args = tp, ()
    if not isinstance(origin, type):
        raise TypeError(f"the codec cannot decode annotation {tp!r}")
    if issubclass(origin, enum.Enum):
        return _enum(origin)
    if issubclass(origin, pathlib.PurePath):
        return _path(origin)
    if hasattr(origin, "from_dict"):
        return origin.from_dict
    if dataclasses.is_dataclass(origin):
        return _fields_decoder(origin)
    if issubclass(origin, dict):
        key, item = args if args else (Any, Any)
        return _mapping(_decoder(key), _decoder(item), origin)
    if issubclass(origin, tuple) and args and args[-1] is not Ellipsis:
        return _fixed_tuple([_decoder(arg) for arg in args])
    if issubclass(origin, (list, tuple, set, frozenset)):
        return _sequence(_decoder(args[0]) if args else _identity, origin)
    raise TypeError(f"the codec cannot decode annotation {tp!r}")


@functools.cache
def _fields_decoder(cls: type) -> Callable[[Any], Any]:
    """The field plan of one dataclass, resolved once per class."""
    hints = typing.get_type_hints(cls)
    plan = [
        (
            spec.name,
            spec.metadata.get("key", spec.name),
            _decoder(hints[spec.name]),
            spec.default is dataclasses.MISSING
            and spec.default_factory is dataclasses.MISSING,
        )
        for spec in dataclasses.fields(cls)
        if spec.init and spec.metadata.get("archive", True)
    ]

    def decode(value: Any) -> Any:
        if type(value) is not dict:
            raise CodecError(f"expected an object, got {_kind(value)}")
        kwargs = {}
        try:
            for name, key, decode_field, required in plan:
                if key in value:
                    kwargs[name] = decode_field(value[key])
                elif required:
                    raise CodecError("required field is missing")
        except CodecError as exc:
            raise exc.at(key)
        try:
            return cls(**kwargs)
        except (TypeError, ValueError) as exc:
            raise CodecError(str(exc)) from exc

    return decode
