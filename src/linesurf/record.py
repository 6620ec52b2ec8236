"""The immutable-record base of ``Line``, ``Arrangement``, ``Profile``,
``ResolutionGraph``, ``GlobalInvariants`` and ``Verdict``.

A subclass names its fields in ``_fields`` and sets each once, in that order,
in its own ``__init__`` through ``object.__setattr__``, then checks itself.
Equality (same class only), hash and repr follow the field order, and so does
``vars()``; attributes derived from the fields, such as a ``ResolutionGraph``'s
weights and edges, are set after them and follow them in ``vars()``.
Assigning or deleting an attribute raises ``AttributeError``.
Plain classes cost little at import, unlike ``dataclasses``, which loads
``inspect`` and generates each record's methods when the record is defined.
"""

from __future__ import annotations

from operator import attrgetter

set_field = object.__setattr__


def _repr(value) -> str:
    """``repr(value)``, but a value whose repr holds an int past the digit
    limit of int-to-str conversion, which repr refuses, shows its type: a bare
    int its sign and bit length.  Every message that names a caller's value
    renders it through this."""
    try:
        return repr(value)
    except ValueError:
        if type(value) is int:
            return f"<{'-' * (value < 0)}int of {value.bit_length()} bits>"
        return f"<{type(value).__name__} holding an int past the digit limit>"


def _str(value) -> str:
    """``str(value)`` of an int or a ``Fraction`` with every digit, also past
    the digit limit of int-to-str conversion, which str refuses; output, not
    messages, prints numbers through this.  The limit itself is left as it is."""
    try:
        return str(value)
    except ValueError:
        if type(value) is int:
            from decimal import Decimal  # converts an int without that limit

            return str(Decimal(value))
        if value.denominator == 1:
            return _str(value.numerator)
        return f"{_str(value.numerator)}/{_str(value.denominator)}"


class Record:
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        # the field values, read in C: a Line is hashed for each line of an
        # arrangement.  An attrgetter is no descriptor, so it stays unbound
        cls._values = attrgetter(*cls._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == self._values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={_repr(getattr(self, name))}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
