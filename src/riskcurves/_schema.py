"""Declarative schema and the one number rule.

Learner specs (``learners``), data sources (``data``), sweep specs and
results (``curves``) are frozen dataclasses whose field annotations are
their type checks (``_Checked``); a field whose metadata names ``of``
holds entries of another schema, and ``io_cli`` reads and writes all of
them from their fields.  :func:`_check` is also the rule for every numeric
argument of an exported function, from ``linalg``'s ``rel_tol`` up to the
CLI's ``--workers``, so this module sits below ``linalg`` and imports
neither numpy nor the rest of the package.
"""

import math
import numbers
from dataclasses import MISSING, field, fields
from typing import ClassVar


def _param(op: str, low, default=MISSING, error=None):
    """A numeric spec field that must be ``op`` (``>`` or ``>=``) ``low``."""
    return field(default=default, metadata={"op": op, "low": low, "error": error})


def _digits(value: int) -> int:
    """Decimal digits of ``abs(value)``, counted without ``str``, which refuses
    integers of more than 4300 digits."""
    value = abs(value)
    digits = int((value.bit_length() - 1) * math.log10(2)) + 1  # those of 2**(bit_length - 1)
    return digits + (value >= 10**digits)


def _float(value, what: str, error: type = ValueError) -> float:
    """``float(value)``; an integer too large for a float raises ``error`` naming ``what``."""
    try:
        return float(value)
    except OverflowError:
        raise error(f"{what} must be a finite float, got an integer with {_digits(value)} digits") from None


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
        raise error(f"{what} must be {op} {low}, got {value}")
    if op and typ is int and value >= 2**63:
        raise error(f"{what} must be < 2**63, got an integer with {_digits(value)} digits")
    return value


class _Checked:
    """Base of the schema dataclasses: a field's annotation is its type
    check (:func:`_check`), and :func:`_param` adds a lower bound.  A failed
    check raises the class's ``_error`` unless the field's :func:`_param`
    names another.
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
                checked[f.name] = _check(values[f.name], f.type, f.name, error, op, low)
        return checked
