"""The one reader of JSON documents: a document is checked against a shape
and converted in the same walk, and any mismatch raises
``ValidationError``.

A shape is one of:

- a leaf parser, a function of one value such as :func:`as_int`,
  :func:`as_fraction`, :func:`as_text` or :func:`as_object`; a leaf's
  ``TypeError``, ``ValueError`` or ``OverflowError`` is refused as well;
- ``[item]``, an array of any length whose entries have the shape item;
- ``(a, b, ...)``, an array of exactly that many entries, of shapes a, b, ...;
- ``{"key": shape, "key?": shape}``, an object whose keys have those
  shapes; a key marked ``?`` may be absent.  Other keys are ignored, and
  the result holds the keys read, without their marks;
- ``{str: shape}``, an object whose every value has that shape.

Arrays and rows are read as tuples.  An array is a JSON array (a list or
a tuple), never a string; an object is a dict; null is a value only where
a leaf takes it (:func:`as_text_or_null`).  A refusal names the key and
index path of the refused value, as in ``events[1][1]: expected an
integer, got True``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from .errors import ValidationError

# Rational input is refused when the digits of its mantissa plus the
# magnitude of its decimal exponent exceed this bound, the interpreter's
# default limit on one int-from-string conversion.
MAX_DIGITS = 4300


def read(value, shape):
    """``value`` checked against ``shape`` and converted (see the module)."""
    if isinstance(shape, dict):
        value = as_object(value)
        if str in shape:
            return {key: _entry(key, item, shape[str]) for key, item in value.items()}
        out = {}
        for key, item in shape.items():
            name = key.rstrip("?")
            if name in value:
                out[name] = _entry(name, value[name], item)
            elif name == key:
                raise ValidationError(f"missing field {name!r}")
        return out
    if isinstance(shape, (list, tuple)):
        if not isinstance(value, (list, tuple)):
            raise ValidationError(f"expected an array, got {type(value).__name__}")
        if isinstance(shape, list):
            return tuple([_entry(i, item, shape[0]) for i, item in enumerate(value)])
        if len(value) != len(shape):
            raise ValidationError(f"expected an array of {len(shape)}, got {len(value)} entries")
        return tuple(map(_entry, range(len(shape)), value, shape))
    try:
        return shape(value)
    except ValidationError:
        raise
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"malformed value: {exc}") from exc


def _entry(key, value, shape):
    """``read(value, shape)`` for the entry at ``key``, named by its refusals."""
    try:
        return read(value, shape)
    except ValidationError as exc:
        exc.path = (key, *getattr(exc, "path", ()))
        exc.reason = getattr(exc, "reason", str(exc))
        where = "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in exc.path)
        exc.args = (f"{where.removeprefix('.')}: {exc.reason}",)
        raise


def as_object(x) -> dict:
    """An object, read as it is."""
    if not isinstance(x, dict):
        raise ValidationError(f"expected an object, got {type(x).__name__}")
    return x


def as_int(x) -> int:
    """The one parser of integer JSON fields: an int, an integer string or
    an integral number.  A number with a fractional part is refused, not
    truncated, and so is a boolean."""
    if isinstance(x, bool) or (isinstance(x, float) and not x.is_integer()):
        raise ValidationError(f"expected an integer, got {x!r}")
    return int(x)


def as_text(x) -> str:
    """A label, or a Euclidean coefficient: a string, or a number read as
    its text.  A boolean is refused, and so are null, arrays and objects."""
    if isinstance(x, bool) or not isinstance(x, (str, int, float)):
        raise ValidationError(f"expected a label, got {type(x).__name__}")
    return str(x)


def as_text_or_null(x) -> Optional[str]:
    """Text as :func:`as_text` reads it, or null for none."""
    return None if x is None else as_text(x)


def as_fraction(x) -> Fraction:
    """The one parser of rational input: a Fraction, an int (not a
    boolean), or a string such as "-3", "2/7", "1.25" or "3e-2".  A
    string's digits and decimal exponent are counted before the value is
    built; their sum, an upper bound on the digits of the number written
    out in full, may not exceed ``MAX_DIGITS``."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    if not isinstance(x, str):
        raise ValidationError(f"expected a rational value, got {x!r}")
    mantissa, _, exponent = x.lower().partition("e")
    try:
        digits = sum(map(str.isdecimal, mantissa)) + (abs(int(exponent)) if exponent else 0)
        if digits <= MAX_DIGITS:
            return Fraction(x)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValidationError(f"{x!r} is not a rational value") from exc
    raise ValidationError(f"a rational value counts more than {MAX_DIGITS} digits")
