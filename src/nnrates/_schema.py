"""The config walker: each config object is read against the table of its keys.

A table maps each key to ``(check, default)``.  A check takes the value, the
object's place in the config (``experiments[0]``) and the key, and returns
the value to use or raises a ``ValueError`` that names both.  An absent key
takes its default, and a ``REQUIRED`` default refuses it.
"""

import sys

from .errors import UnsupportedMethodError

REQUIRED = object()


def is_int(value) -> bool:
    """True for JSON integers; JSON booleans load as bool, a subclass of int."""
    return isinstance(value, int) and not isinstance(value, bool)


def check(test, what: str, convert=None):
    """The check that passes a value when ``test(value)`` holds, and else says it must be ``what``."""

    def run(value, where: str, key: str):
        if not test(value):
            raise ValueError(f"{where}: key {key!r} must be {what}")
        return value if convert is None else convert(value)

    return run


def real(what: str, low: float = -sys.float_info.max, high: float = sys.float_info.max):
    """The check for a number in (low, high), as a float; NaN, a bool and an int past the floats fail it."""
    numeric = (int, float)
    return check(lambda v: isinstance(v, numeric) and not isinstance(v, bool) and low < v < high, what, float)


def fields(mapping, table: dict, where: str, tag: str | None = None) -> dict:
    """Each key of ``table`` read from the config object ``mapping``: its checked value or default.

    With a ``tag``, ``table`` holds one table for each value of
    ``mapping[tag]``, and the result holds the tag's value too.  A key
    outside the table is refused with a message that names it and ``where``.
    """
    if not isinstance(mapping, dict):
        raise ValueError(f"{where}: must be an object")
    values = {}
    if tag is not None:
        name = values[tag] = mapping.get(tag)
        if not isinstance(name, str) or name not in table:  # a list or an object is no tag either
            raise UnsupportedMethodError(f"{where}: {tag} must be one of {', '.join(table)}, not {name!r}")
        table = table[name]
    for key in mapping:
        if key not in table and key != tag:
            raise ValueError(f"{where}: unknown key {key!r}")
    for key, (run, default) in table.items():
        if key in mapping:
            values[key] = run(mapping[key], where, key)
        elif default is REQUIRED:
            raise ValueError(f"{where}: missing required key {key!r}")
        else:
            values[key] = default
    return values
