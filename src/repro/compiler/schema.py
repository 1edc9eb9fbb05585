"""Dtype mapping between plan expressions, numpy, and feature schemas.

The feature store validates at publish time that every view's declared
feature dtypes agree with what the compiler will actually produce — the
``feature_schema_mapper`` idea from production feature stores: source
(warehouse/numpy) types are mapped onto the feature store's small type
system once, centrally, instead of every pipeline hand-rolling casts.

The mapping is deliberately strict: the only permitted widening is
``int -> float`` (the offline :class:`~repro.storage.offline.TableSchema`
already accepts ints in float columns), everything else is a
:class:`~repro.errors.ValidationError` at registration time — not a NaN
or a wrong dtype surfacing mid-training.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ValidationError

#: the feature store's type system (matches TableSchema / Feature dtypes)
FEATURE_DTYPES = ("float", "int", "string")

#: numpy dtype *kind* character -> feature dtype
_NUMPY_KIND_TO_FEATURE = {
    "f": "float",
    "i": "int",
    "u": "int",
    "b": "int",
    "O": "string",
    "U": "string",
    "S": "string",
}

#: widenings the validator accepts: (inferred, declared)
_ALLOWED_WIDENINGS = {("int", "float")}


def map_dtype(kind: str) -> str:
    """Normalize a dtype name onto the feature type system.

    Accepts the feature dtypes themselves (``"float"``/``"int"``/
    ``"string"``) and any numpy dtype name (``"float64"``, ``"int32"``,
    ``"object"``, ...). Unknown names raise :class:`ValidationError`.
    """
    if kind in FEATURE_DTYPES:
        return kind
    try:
        resolved = np.dtype(kind)
    except TypeError:
        raise ValidationError(
            f"unknown dtype {kind!r}; use one of {FEATURE_DTYPES} "
            "or a numpy dtype name"
        ) from None
    feature = _NUMPY_KIND_TO_FEATURE.get(resolved.kind)
    if feature is None:
        raise ValidationError(
            f"numpy dtype {kind!r} (kind {resolved.kind!r}) has no feature "
            f"dtype mapping; allowed kinds: {sorted(_NUMPY_KIND_TO_FEATURE)}"
        )
    return feature


def check_declared_dtype(declared: str, inferred: str, context: str) -> None:
    """Raise unless ``declared`` can hold the compiler's ``inferred`` output."""
    declared = map_dtype(declared)
    if declared == inferred:
        return
    if (inferred, declared) in _ALLOWED_WIDENINGS:
        return
    raise ValidationError(
        f"{context}: declared dtype {declared!r} does not match the "
        f"compiled plan's output dtype {inferred!r} "
        f"(only int -> float widening is allowed)"
    )
