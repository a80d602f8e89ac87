"""Strict JSON text, the one encoder behind every snmlkit JSON writer.

JSON has no token for a non-finite number, so a float that is infinite or
NaN is written as the string ``"inf"``, ``"-inf"`` or ``"nan"`` (the
encoding family payloads already use for unbounded mean domains), and
``allow_nan=False`` makes any other path to a bare ``Infinity`` or ``NaN``
an error.
"""

from __future__ import annotations

import json
import math


def _finite(obj):
    if isinstance(obj, float) and not math.isfinite(obj):
        return "nan" if math.isnan(obj) else ("inf" if obj > 0 else "-inf")
    if isinstance(obj, dict):
        return {k: _finite(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite(v) for v in obj]
    return obj


def dumps(obj, indent: int | None = None, sort_keys: bool = False) -> str:
    """json.dumps with non-finite floats written as strings."""
    return json.dumps(_finite(obj), indent=indent, sort_keys=sort_keys, allow_nan=False)
