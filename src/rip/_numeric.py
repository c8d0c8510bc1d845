"""Numeric contexts: exact rationals or floats, selected once per model.

Every quantity in a model lives in one of two modes.  In rational mode all
arithmetic is arbitrary-precision rational on :class:`fractions.Fraction`,
comparisons are exact, and equalities established by the solver are
mathematical facts.  In float mode the same code paths run on IEEE doubles
and comparisons take explicit tolerances.

The :class:`ModeOps` object bundles the conversion and the comparisons so
that downstream code never branches on the mode by hand.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from operator import truediv
from typing import Any, Iterable

from .errors import PreconditionError

RATIONAL = "rational"
FLOAT = "float"
MODES = (RATIONAL, FLOAT)

NEG_INF = float("-inf")
POS_INF = float("inf")


def rat(numerator: Any, denominator: Any = 1):
    """Build an exact rational.

    Accepts ints, existing rationals, and strings in the forms ``"3"``,
    ``"-2/7"`` or ``"0.25"``, in ASCII only and without underscores:
    ``Fraction`` would read any Unicode decimal digit, ``"٣"`` as 3, and
    from Python 3.11 on reads ``"1_0"`` as 10.  Floats are converted
    exactly (binary value).
    """
    if isinstance(numerator, str):
        if denominator != 1:
            raise ValueError("string input takes no separate denominator")
        try:
            if not numerator.isascii() or "_" in numerator:
                raise ValueError("number text must be ASCII, without underscores")
            numerator = Fraction(numerator.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"not a rational number: {numerator!r}") from exc
    if denominator == 1:
        return Fraction(numerator)
    return Fraction(numerator) / Fraction(denominator)


def left_sum(values: Iterable[Any], start: Any = 0) -> Any:
    """``start`` plus each of ``values`` in turn, added from the left.

    The built-in ``sum`` adds floats with compensation from Python 3.12 on,
    so a float total would depend on the Python version; this one does not.
    """
    total = start
    for v in values:
        total = total + v
    return total


def is_neg_inf(x: Any) -> bool:
    return isinstance(x, float) and x == NEG_INF


def format_number(x: Any) -> str:
    """Render a number canonically: rationals as ``p/q`` or ``p``, floats via repr."""
    if isinstance(x, float):
        if x == NEG_INF:
            return "-inf"
        if x == POS_INF:
            return "inf"
        return repr(x)
    return str(x)


@dataclass(frozen=True)
class ModeOps:
    """Arithmetic context for one numeric mode.

    ``feas_tol`` guards solver feasibility comparisons, ``label_tol``
    quantises information-variable labels, and ``dual_tol`` is the slack
    allowed when checking duality gaps.  All three are zero in rational
    mode.
    """

    mode: str
    feas_tol: Any
    label_tol: Any
    dual_tol: Any
    zero: Any = field(init=False, repr=False, compare=False)
    one: Any = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # built once: the per-path loops of the builders ask for them often
        exact = self.mode != FLOAT
        object.__setattr__(self, "zero", rat(0) if exact else 0.0)
        object.__setattr__(self, "one", rat(1) if exact else 1.0)

    def convert(self, x: Any):
        """Coerce a number into this mode, parsing ``"p/q"``, integer or decimal
        text exactly first.

        A Fraction is returned as it is: Fractions are immutable and always
        kept in lowest terms.
        """
        if isinstance(x, str):
            value = rat(x)
            return float(value) if self.mode == FLOAT else value
        if self.mode == FLOAT:
            return float(x)
        if type(x) is Fraction:
            return x
        if isinstance(x, float):
            if x != x or x in (NEG_INF, POS_INF):
                raise PreconditionError("cannot convert a non-finite float to a rational")
            return rat(x)
        return rat(x)

    def over_common(self, values) -> tuple:
        """``values`` as ``(numerators, denominator)``, each one ``numerator / denominator``.

        In rational mode the numerators are ints over the lcm of the values'
        denominators: each value, converted if it is neither an int nor a
        ``Fraction``, is read once as ``as_integer_ratio()``, and when the lcm
        is 1 the numerators are returned as they are.  No values give
        ``([], 1)``.  In float mode they are the floats themselves over 1, so
        that scaling by the denominator leaves float arithmetic as it is.
        """
        if self.mode == FLOAT:
            return [v if type(v) is float else self.convert(v) for v in values], 1
        convert = self.convert
        nums = []
        dens = []
        for v in values:
            if type(v) is not Fraction and not isinstance(v, int):
                v = convert(v)
            n, d = v.as_integer_ratio()
            nums.append(n)
            dens.append(d)
        den = lcm(*dens)
        if den == 1:
            return nums, 1
        return [n * (den // d) for n, d in zip(nums, dens)], den

    def ratio(self, numerator, denominator):
        """``numerator / denominator`` as this mode's number: an exact rational
        of two ints, or a float division."""
        if self.mode == FLOAT:
            return truediv(numerator, denominator)
        return Fraction(numerator, denominator)

    def eq(self, a, b, tol=None) -> bool:
        t = self.feas_tol if tol is None else tol
        if t == 0:
            return a == b
        return abs(a - b) <= t

    def lt(self, a, b, tol=None) -> bool:
        """Strictly less, consistent with :meth:`eq` at the tolerance."""
        return a < b and not self.eq(a, b, tol)

    def pos(self, a, tol=None) -> bool:
        return self.lt(self.zero, a, tol)

    def same(self, a, b) -> bool:
        """Two answers agree: ``-inf`` only with ``-inf``, others within ``dual_tol``."""
        if is_neg_inf(a) or is_neg_inf(b):
            return is_neg_inf(a) and is_neg_inf(b)
        return self.eq(a, b, self.dual_tol)


RATIONAL_OPS = ModeOps(RATIONAL, feas_tol=0, label_tol=0, dual_tol=0)
FLOAT_OPS = ModeOps(FLOAT, feas_tol=1e-9, label_tol=1e-12, dual_tol=1e-7)


def get_ops(mode: str) -> ModeOps:
    if mode == RATIONAL:
        return RATIONAL_OPS
    if mode == FLOAT:
        return FLOAT_OPS
    raise PreconditionError(f"unknown numeric mode {mode!r}; expected one of {MODES}")


__all__ = [
    "RATIONAL",
    "FLOAT",
    "MODES",
    "NEG_INF",
    "rat",
    "is_neg_inf",
    "format_number",
    "ModeOps",
    "RATIONAL_OPS",
    "FLOAT_OPS",
    "get_ops",
]
