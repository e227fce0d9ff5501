"""Declarative schema and the one number rule.

Learner specs (``learners``), data sources (``data``), sweep specs and
results (``curves``) are frozen dataclasses whose field annotations are
their type checks (``_Checked``); a field whose metadata names ``of``
holds entries of another schema, each checked to be exactly of it, and
``io_cli`` reads and writes all of them from their fields.  :func:`_check`
is also the rule for every numeric argument of an exported function, from
``linalg``'s ``rel_tol`` up to the CLI's ``--workers``, so this module
sits below ``linalg`` and imports neither numpy nor the rest of the package.
"""

import math
import numbers
from dataclasses import MISSING, field, fields
from typing import ClassVar


def _param(op: str, low, default=MISSING, error=None):
    """A numeric spec field that must be ``op`` (``>`` or ``>=``) ``low``."""
    return field(default=default, metadata={"op": op, "low": low, "error": error})


def _shown(value) -> str:
    """``value`` as an error message prints it: an integer of 2**63 or more by its
    decimal digits, counted without ``str``, which refuses more than 4300."""
    if not isinstance(value, int) or abs(value) < 2**63:
        return str(value)
    digits = int((value.bit_length() - 1) * math.log10(2)) + 1  # those of 2**(bit_length - 1), sign aside
    return f"an integer with {digits + (abs(value) >= 10**digits)} digits"


def _float(value, what: str, error: type = ValueError) -> float:
    """``float(value)``; an integer too large for a float raises ``error`` naming ``what``."""
    try:
        return float(value)
    except OverflowError:
        raise error(f"{what} must be a finite float, got {_shown(value)}") from None


def _check(value, annotation, what: str, error: type = ValueError, op=None, low=None):
    """``value`` checked against the type ``annotation``, the one number rule.

    ``int`` and ``float``, and ``int | None`` when set, reject booleans and
    return an ``int`` or ``float``, and ``float`` rejects NaN and
    infinities; any other annotation (``str``, ``bool``, ``str | None``, a
    class) is an ``isinstance`` check.  ``op`` (``>`` or ``>=``) ``low`` is
    a lower bound, and an integer with one (a count) must also be below
    2**63, numpy's largest index.  A failed check raises ``error`` naming
    ``what``.
    """
    if value is None and isinstance(None, annotation):  # an optional value left unset
        return value
    typ = int if annotation == int | None else annotation
    number = {int: numbers.Integral, float: numbers.Real}.get(typ)
    if (number and isinstance(value, bool)) or not isinstance(value, number or typ):
        raise error(f"{what} must be {getattr(annotation, '__name__', annotation)}, got {value!r}")
    if number:
        value = _float(value, what, error) if typ is float else typ(value)
    if typ is float and not math.isfinite(value):
        raise error(f"{what} must be finite, got {value!r}")
    if op and not (value > low if op == ">" else value >= low):
        raise error(f"{what} must be {op} {low}, got {_shown(value)}")
    if op and typ is int and value >= 2**63:
        raise error(f"{what} must be < 2**63, got {_shown(value)}")
    return value


class _Checked:
    """Base of the schema dataclasses: a field's annotation is its type
    check (:func:`_check`), :func:`_param` adds a lower bound, and each entry
    of an ``of`` field is exactly ``of`` or a class of its table.  A failed
    check raises the class's ``_error`` unless the field's :func:`_param` names another.
    """

    config_keys: ClassVar[dict] = {}
    _error: ClassVar[type] = ValueError

    def __post_init__(self):
        for name, value in self._check_fields({f.name: getattr(self, f.name) for f in fields(self)}).items():
            object.__setattr__(self, name, value)

    @classmethod
    def _check_fields(cls, values: dict) -> dict:
        """The fields named in ``values``, checked and converted by their
        annotations and bounds: all of them when an instance is built, and
        the plain ones alone when a reader checks them before nested entries."""
        checked = {}
        for f in fields(cls):
            if f.name in values:
                error, op, low = f.metadata.get("error") or cls._error, f.metadata.get("op"), f.metadata.get("low")
                value = checked[f.name] = _check(values[f.name], f.type, f.name, error, op, low)
                if of := f.metadata.get("of"):
                    types = tuple(of.values()) if isinstance(of, dict) else (of,)
                    for entry in value.values() if f.type is dict else value if f.type is tuple else (value,):
                        if type(entry) not in types:
                            raise error(f"{f.name}: {entry!r} is not a {' | '.join(t.__name__ for t in types)}")
        return checked
