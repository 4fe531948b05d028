"""Exact-rational plumbing: canonical fractions and the "num/den" wire format.

Everything numeric in this package is a ``fractions.Fraction``. Floats are
rejected at every boundary because they would silently smuggle rounding error
into a pipeline whose whole point is exactness.
"""

from __future__ import annotations

from fractions import Fraction

__all__ = ["coerce_rational", "format_rational", "parse_rational"]


def coerce_rational(value) -> Fraction:
    """Coerce an int, Fraction, or rational string to an exact Fraction.

    A Fraction comes back as the same object. Floats are rejected rather than
    converted: a float already carries the rounding it picked up upstream.
    """
    if type(value) is Fraction:
        return value
    if isinstance(value, float):
        raise ValueError(f"float value {value!r} rejected: exact rationals only")
    try:
        return Fraction(value)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational: {value!r}") from exc


def format_rational(value) -> str:
    """Canonical "num/den" string with an explicit denominator ("0/1", "1/2")."""
    q = coerce_rational(value)
    return f"{q.numerator}/{q.denominator}"


def parse_rational(text: str) -> Fraction:
    """Parse a "num/den" (or plain integer) string into an exact Fraction."""
    if not isinstance(text, str):
        raise ValueError(f"expected a rational string, got {text!r}")
    return coerce_rational(text.strip())
