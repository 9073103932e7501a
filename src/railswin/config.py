"""Config dataclasses to and from JSON documents, driven by their fields.

One rule covers every config: a key may be left out only when its field
has a default, an unknown key is rejected, and a value of the wrong JSON
type or a non-finite number is an error that names its JSON path
(``config.synthetic.num_images: expected int, got "x"``).  Range checks
stay with each dataclass's own ``validate``.
"""

from __future__ import annotations

import dataclasses
import enum
import json
import math
import types
import typing

from .errors import ParseError


def to_dict(cfg):
    """JSON-ready form of a config dataclass, keys in field order."""
    if dataclasses.is_dataclass(cfg):
        return {f.name: to_dict(getattr(cfg, f.name)) for f in dataclasses.fields(cfg)}
    if isinstance(cfg, enum.Enum):
        return cfg.value
    if isinstance(cfg, tuple):
        return [to_dict(v) for v in cfg]
    return cfg


def from_dict(cls, doc, path="config"):
    """Build ``cls``, a config dataclass or a field type, from parsed JSON."""
    if isinstance(cls, types.UnionType):  # ``X | None``
        if doc is None:
            return None
        (cls,) = [a for a in typing.get_args(cls) if a is not type(None)]
    if dataclasses.is_dataclass(cls):
        if not isinstance(doc, dict):
            _wrong(path, "object", doc)
        fields = {f.name: f for f in dataclasses.fields(cls)}
        unknown = sorted(set(doc) - set(fields))
        if unknown:
            raise ParseError(f"{path}: unknown key {unknown[0]!r}")
        hints = typing.get_type_hints(cls)
        kwargs = {}
        for name, f in fields.items():
            if name in doc:
                kwargs[name] = from_dict(hints[name], doc[name], f"{path}.{name}")
            elif f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING:
                raise ParseError(f"{path}: missing key {name!r}")
        return cls(**kwargs)
    if typing.get_origin(cls) is dict:  # ``dict[str, V]``: JSON object keys are strings
        item = typing.get_args(cls)[1]
        if not isinstance(doc, dict):
            _wrong(path, "object", doc)
        return {k: from_dict(item, v, f"{path}.{k}") for k, v in doc.items()}
    if typing.get_origin(cls) is tuple:
        items = typing.get_args(cls)
        if not isinstance(doc, list):
            _wrong(path, "list", doc)
        if items[-1] is Ellipsis:
            items = items[:1] * len(doc)
        elif len(doc) != len(items):
            _wrong(path, f"list of {len(items)}", doc)
        return tuple(from_dict(t, v, f"{path}[{i}]") for i, (t, v) in enumerate(zip(items, doc)))
    if issubclass(cls, enum.Enum):
        if doc not in [m.value for m in cls]:
            _wrong(path, " or ".join(json.dumps(m.value) for m in cls), doc)
        return cls(doc)
    if cls is float and type(doc) is int:
        return float(doc)
    if type(doc) is not cls:
        _wrong(path, cls.__name__, doc)
    if cls is float and not math.isfinite(doc):  # Python's json reads NaN and Infinity
        _wrong(path, "a finite number", doc)
    return doc


def _wrong(path, expected, doc):
    raise ParseError(f"{path}: expected {expected}, got {json.dumps(doc)}")
