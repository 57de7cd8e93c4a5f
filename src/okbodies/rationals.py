"""Exact rational parsing and formatting.

All numbers in job and result files are integers or strings "p/q".  No
floating point is ever read or written; the only decimal conversion is
the documented 20-significant-digit rule used for SVG coordinates.
"""

from __future__ import annotations

from decimal import Context, Decimal
from fractions import Fraction

from .errors import BadRational


def parse_rational(value) -> Fraction:
    """Parse an exact rational from an int, or a string "p/q" or "p"."""
    if isinstance(value, bool):
        raise BadRational(f"not a rational: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, Fraction):
        return value
    if isinstance(value, str):
        text = value.strip()
        try:
            if "/" in text:
                num, den = text.split("/")
                d = int(den)
                if d == 0:
                    raise BadRational(f"zero denominator in {value!r}")
                return Fraction(int(num), d)
            return Fraction(int(text))
        except ValueError as exc:
            raise BadRational(f"cannot parse rational {value!r}") from exc
    raise BadRational(f"not a rational: {value!r}")


def format_rational(q: Fraction):
    """Render a Fraction as an int when integral, else "p/q"."""
    q = Fraction(q)
    if q.denominator == 1:
        return int(q)
    return f"{q.numerator}/{q.denominator}"


def to_decimal20(q: Fraction) -> str:
    """Decimal form with 20 significant digits, for SVG coordinates only."""
    d = Context(prec=20).divide(Decimal(q.numerator), Decimal(q.denominator))
    s = format(d, "f")
    if "." in s:
        s = s.rstrip("0").rstrip(".")
    return s if s else "0"
