"""The one JSON serialiser of the reports.

`to_json` turns a report dataclass into a dict of its fields, keyed by field
name with a trailing underscore dropped (`pass_` is written "pass"), and adds
the class's `kind` tag and its `passed` property where it has them.  Inside,
`Alpha` and `Fraction` become "p/q" (or "inf") strings, a `ComplexApprox`
becomes [re, im], a `Functional` its label -> value dict, and tuples become
lists; any other type raises TypeError.  The CLI prints the result with
sorted keys.
"""

from __future__ import annotations

import dataclasses
import functools
from fractions import Fraction

from .functional import Alpha, Functional
from .scalars import ComplexApprox


@functools.cache
def _layout(cls: type) -> tuple[tuple[tuple[str, str], ...], str | None, bool]:
    """(field, key) pairs, the kind tag, and whether `passed` is a property."""
    keys = tuple((f.name, f.name.removesuffix("_")) for f in dataclasses.fields(cls))
    return keys, getattr(cls, "kind", None), isinstance(getattr(cls, "passed", None), property)


def to_json(obj):
    """`obj` as a value of plain JSON types (see the module docstring)."""
    if obj is None or isinstance(obj, (str, int, float)):
        return obj
    if isinstance(obj, (Alpha, Fraction)):
        return str(obj)
    if isinstance(obj, ComplexApprox):
        return [obj.re, obj.im]
    if isinstance(obj, Functional):
        return obj.to_dict()
    if isinstance(obj, (tuple, list)):
        return [to_json(x) for x in obj]
    if isinstance(obj, dict):
        return {k: to_json(v) for k, v in obj.items()}
    if dataclasses.is_dataclass(obj):
        keys, kind, passed = _layout(type(obj))
        doc = {key: to_json(getattr(obj, name)) for name, key in keys}
        if kind is not None:
            doc["kind"] = kind
        if passed:
            doc["passed"] = obj.passed
        return doc
    raise TypeError(f"no JSON form for {type(obj).__name__}")
