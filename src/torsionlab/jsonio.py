"""JSON encoding conventions shared by the CLI and the report types.

Integers that fit a double exactly stay JSON numbers; anything bigger is
emitted as a decimal string so downstream consumers never truncate.
"""

from __future__ import annotations

import json
from fractions import Fraction

SAFE_INT = 2 ** 53


def encode_int(v: int):
    return v if -SAFE_INT < v < SAFE_INT else str(v)


def encode_fraction(q: Fraction) -> list:
    return [encode_int(q.numerator), encode_int(q.denominator)]


def dumps(obj) -> str:
    """Canonical serialization: sorted keys, no whitespace variance."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))
