"""Exception hierarchy shared by all dhac modules, the typing rule for JSON fields and settings, and the rule against repeats."""

from __future__ import annotations

import numbers
import sys


class DhacError(Exception):
    """Base class for all toolkit errors."""


class ParseError(DhacError):
    """Malformed program/config/trace document (bad JSON, missing fields)."""


class ValidationError(DhacError):
    """Structurally invalid graph: forward reference, dangling id, arity or type violation."""


class InputError(DhacError):
    """Input vector does not match the graph's input arity/types/ranges."""


class EvalError(DhacError):
    """Runtime evaluation failure (div-by-zero, non-finite, inexact int div)."""

    def __init__(self, reason: str, node_id: str | None = None):
        self.reason = reason
        self.node_id = node_id
        where = f" at node '{node_id}'" if node_id else ""
        super().__init__(f"{reason}{where}")


class BuiltinError(DhacError):
    """Unknown builtin name or invalid builtin parameters."""


class ConfigError(DhacError):
    """Invalid backend/scenario configuration."""


class StatsError(DhacError):
    """error_stats called on empty or mismatched sequences."""


class ModulusError(DhacError):
    """Invalid modulus (not an int >= 2, duplicate or mismatched), or a residue outside its ring."""


class NoInverseError(DhacError):
    """Residue has no multiplicative inverse modulo m."""


class SiteError(DhacError):
    """Invalid sentinel site (missing id, non-float node, duplicate site)."""


class TraceError(DhacError):
    """Trace document does not match the instrumented program."""


# ---------------------------------------------------------------------------
# the one typing rule for the fields of every JSON document dhac reads, and for every setting

_KINDS = {int: "an integer", float: "a number", str: "a string", list: "a list", dict: "an object"}


# Each test asks the exact type first, as a document's values are plain ints
# and floats: an isinstance test against a numbers ABC costs several times more.
def integer(value) -> bool:
    """The one integer test: an int or numpy integer (a numbers.Integral), never a bool or np.True_."""
    return type(value) is int or isinstance(value, numbers.Integral) and not isinstance(value, bool)


def number(value) -> bool:
    """The one number test: an integer by `integer`'s test, or a float or numpy float (a numbers.Real); never a bool."""
    return type(value) is float or isinstance(value, numbers.Real) and not isinstance(value, bool)


def typed(value, kind: type, name: str, error: type[DhacError], of: type | None = None):
    """value if it is a JSON value of `kind`, else `error` naming the field and the value.

    `kind` is int (an integer by `integer`'s test), float (a number by
    `number`'s), str, list or dict (an object). A bool is never a number,
    an integer field rejects a float, a number field takes an integer as
    its float, and a string is never coerced. With `of`, the value is a
    list whose items are typed as `of`, each named as the list is.
    """
    if integer(value) if kind is int else number(value) if kind is float else isinstance(value, kind):
        if of is not None:
            return [typed(x, of, name, error) for x in value]
        if kind is not float or isinstance(value, float):
            return value
        if abs(value) <= sys.float_info.max:  # a number a float can hold
            return float(value)
    want = _KINDS[kind] if of is None else f"a list of {_KINDS[of].split()[1]}s"
    raise error(f"{name} must be {want}, got {value!r}")


def known_keys(doc: dict, known, name: str, error: type[DhacError]) -> dict:
    """doc, or `error` listing its keys outside `known`."""
    unknown = doc.keys() - known
    if unknown:
        raise error(f"unknown {name} keys: {sorted(unknown)}")
    return doc


def unique(items: list, name: str, error: type[DhacError]) -> list:
    """items, or `error` naming the first item equal to an earlier one: the one rule against repeats."""
    for i, x in enumerate(items):
        if x in items[:i]:
            raise error(f"duplicate {name} {x!r}")
    return items
