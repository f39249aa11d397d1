"""One strict codec for every configuration that crosses a boundary.

Configurations travel as JSON: the WELCOME frame, ``--params-json``, run
manifests and worker handshakes, chaos journals and ``repro.json`` files,
checkpoint headers.  Whatever arrives that way is outside input, so it is
turned back into its frozen dataclass by one function driven by the
class's own annotations, never by hand-written per-class code.

:func:`encode` turns a dataclass into JSON-ready data (tuples become lists,
mapping keys strings).  :func:`decode` is its strict inverse: it accepts
exactly the annotations ``int``, ``float``, ``str``, ``bool``,
``Optional[X]``, ``Tuple[X, ...]`` and fixed tuples, ``List[X]``,
``Dict[K, V]`` (``int`` keys come back from JSON strings), nested
dataclasses and ``Any``.  A missing required key, an unknown key or a
value of the wrong type (a ``bool`` where an ``int`` belongs included)
raises :class:`ValueError` naming the dotted path of the field; an
``int`` is accepted where a ``float`` belongs.  Value checks stay where
they were, in each class's ``__post_init__``.
"""

from __future__ import annotations

import dataclasses
import typing
from typing import Any, Dict, List, Type, TypeVar

T = TypeVar("T")


def encode(value: Any) -> Any:
    """*value* as JSON-ready data: dataclasses become dicts, tuples lists."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            field.name: encode(getattr(value, field.name))
            for field in dataclasses.fields(value)
        }
    if isinstance(value, (list, tuple)):
        return [encode(item) for item in value]
    if isinstance(value, dict):
        return {str(key): encode(item) for key, item in value.items()}
    return value


def decode(cls: Type[T], data: Any) -> T:
    """Build the dataclass *cls* from JSON *data*, refusing malformed input."""
    result: T = _decode(cls, data, cls.__name__)
    return result


def _decode(hint: Any, data: Any, path: str) -> Any:
    if hint is Any:
        return data
    if dataclasses.is_dataclass(hint):
        return _decode_fields(hint, data, path)
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is typing.Union:
        if data is None and type(None) in args:
            return None
        (inner,) = [arg for arg in args if arg is not type(None)]
        return _decode(inner, data, path)
    if origin in (tuple, list):
        items = _items(data, path)
        if origin is list or args[-1] is Ellipsis:
            args = (args[0],) * len(items)
        elif len(items) != len(args):
            raise ValueError(
                f"{path}: expected {len(args)} items, got {len(items)}"
            )
        decoded = [
            _decode(arg, item, f"{path}[{index}]")
            for index, (arg, item) in enumerate(zip(args, items))
        ]
        return decoded if origin is list else tuple(decoded)
    if origin is dict:
        key_hint, value_hint = args
        return {
            _key(key_hint, key, path): _decode(
                value_hint, item, f"{path}[{key!r}]"
            )
            for key, item in _mapping(data, path).items()
        }
    if hint not in (int, float, str, bool):
        raise TypeError(f"{path}: the codec does not support {hint!r}")
    if type(data) is hint:
        return data
    if hint is float and type(data) is int:
        return float(data)
    raise ValueError(
        f"{path}: expected {hint.__name__}, got {type(data).__name__}"
    )


def _decode_fields(cls: Any, data: Any, path: str) -> Any:
    data = _mapping(data, path)
    hints = typing.get_type_hints(cls)
    fields = [field for field in dataclasses.fields(cls) if field.init]
    names = {field.name for field in fields}
    for key in data:
        if key not in names:
            raise ValueError(f"{path}: unknown field {key!r}")
    kwargs: Dict[str, Any] = {}
    for field in fields:
        if field.name in data:
            kwargs[field.name] = _decode(
                hints[field.name], data[field.name], f"{path}.{field.name}"
            )
        elif (
            field.default is dataclasses.MISSING
            and field.default_factory is dataclasses.MISSING
        ):
            raise ValueError(f"{path}.{field.name}: missing required field")
    return cls(**kwargs)


def _mapping(data: Any, path: str) -> Dict[Any, Any]:
    if not isinstance(data, dict):
        raise ValueError(
            f"{path}: expected an object, got {type(data).__name__}"
        )
    return data


def _items(data: Any, path: str) -> List[Any]:
    if not isinstance(data, (list, tuple)):
        raise ValueError(f"{path}: expected a list, got {type(data).__name__}")
    return list(data)


def _key(hint: Any, key: Any, path: str) -> Any:
    if hint is int and isinstance(key, str):
        try:
            return int(key)
        except ValueError:
            raise ValueError(f"{path}: key {key!r} is not an integer") from None
    return _decode(hint, key, f"{path}[{key!r}]")


__all__ = ["decode", "encode"]
