"""Exception hierarchy, and the field validator of every config dataclass.

The `except` ladder of `cli.main` maps ConfigError to `EXIT_CONFIG` (3),
FormatError and OSError to `EXIT_IO` (4), and NumericError to
`EXIT_NUMERIC` (5). It does not catch the `SeqclError` base. Usage errors
exit with `EXIT_USAGE` (2) from argparse."""

import math
import operator
import typing
from dataclasses import MISSING, field, fields

_RULES = {  # rule name: (test of value and bound, how a message says it)
    "ge": (operator.ge, ">="), "gt": (operator.gt, ">"), "le": (operator.le, "<="),
    "lt": (operator.lt, "<"), "choices": (lambda value, choices: value in choices, "one of"),
}


class SeqclError(Exception):
    """Base class for all package errors."""


class ConfigError(SeqclError):
    """Invalid configuration value or combination."""


class FormatError(SeqclError):
    """Malformed file on disk (bad magic, truncated payload, shape mismatch)."""


class NumericError(SeqclError):
    """Numerical failure: zero norms, non-finite gradients, degenerate input."""


def rule(default=MISSING, **checks):
    """A config field with `_RULES` checks, such as `ge=0`, for `check_fields`."""
    return field(default=default, metadata=checks)


def check_fields(obj) -> None:
    """Raise ConfigError unless each field of the dataclass `obj` has the JSON
    type of its annotation and passes its `rule` checks. An int field rejects
    `true` and 2.0; a float field takes an int as given, and rejects `true`."""
    kinds = typing.get_type_hints(type(obj))
    for f in fields(obj):
        value, kind = getattr(obj, f.name), kinds[f.name]
        name = f"{type(obj).__name__}.{f.name}"
        json_type = (int, float) if kind is float else kind
        typed = isinstance(value, json_type) and not isinstance(value, bool)
        if not typed or (kind is float and not math.isfinite(value)):
            what = "a finite float" if kind is float else kind.__name__
            raise ConfigError(f"{name}: expected {what}, got {value!r}")
        for check, bound in f.metadata.items():
            holds, symbol = _RULES[check]
            if not holds(value, bound):
                raise ConfigError(f"{name} must be {symbol} {bound!r}, got {value!r}")
