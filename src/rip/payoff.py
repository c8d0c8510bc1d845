"""Payoff expressions: syntax tree, parser, and evaluation.

A payoff is a scalar function of a price path, written in a small language::

    expr   := term (("+" | "-") term)*
    term   := factor (("*" | "/") factor)*
    factor := NUMBER | ref | call | "(" expr ")" | "-" factor
    ref    := "S" "[" INT "," (INT | "T") "]"
    call   := IDENT "(" args ")"

with ``IDENT`` one of ``max``, ``min``, ``abs``, ``pos``, ``ind``, ``maxt``,
``mint``.  ``S[i,k]`` reads coordinate ``i`` (1-based) at grid index ``k``,
and ``T`` stands for the final index.  ``ind`` takes a comparison
``expr CMP expr`` with ``CMP`` one of ``<  <=  >  >=  ==`` and yields 0 or 1.
``maxt(i)`` and ``mint(i)`` are the running maximum and minimum of
coordinate ``i`` over the whole grid.  ``max``/``min`` take two or more
arguments, ``abs`` and ``pos`` exactly one; ``pos(x)`` is ``max(x, 0)``.

Numbers are nonnegative integer or decimal literals in the ASCII digits
0-9; negative constants and exact ratios are spelled with the operators
(``-3``, ``1/3``).  Any character outside the language, non-ASCII ones
included, is a :class:`PayoffSyntaxError` at its own line and column.
Equality in ``ind`` is exact in rational mode and quantised at 1e-12 in
float mode.

An expression is evaluated by compiling it once (:func:`compile_payoff`)
into a function of one path's rows of a space's integer view,
``PathSpace.nums[p]`` over ``PathSpace.den``; claims, option payoffs and
payoff labels all go through it.  In rational mode it computes on pairs of
ints and divides once per path; in float mode it performs the float
operations of a walk over the values, in the same order.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Any, Callable, Optional, Union

from ._numeric import FLOAT, ModeOps
from .errors import EvaluationError, PayoffSyntaxError, PreconditionError

FINAL_TIME = "T"

_CALL_NAMES = ("max", "min", "abs", "pos", "ind", "maxt", "mint")
_CMP_OPS = ("<", "<=", ">", ">=", "==")


@dataclass(frozen=True)
class Num:
    """A literal constant, stored exactly."""

    value: Fraction

    def __post_init__(self):
        object.__setattr__(self, "value", Fraction(self.value))


@dataclass(frozen=True)
class Ref:
    """Coordinate ``asset`` (1-based) at grid index ``time`` (int or "T")."""

    asset: int
    time: Union[int, str]


@dataclass(frozen=True)
class BinOp:
    op: str
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Neg:
    operand: "Expr"


@dataclass(frozen=True)
class Call:
    """``max``/``min`` (two or more args) or ``abs``/``pos`` (one arg)."""

    name: str
    args: tuple


@dataclass(frozen=True)
class Indicator:
    """``ind(left CMP right)``: 1 when the comparison holds, else 0."""

    op: str
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class RunningExtreme:
    """``maxt(asset)`` or ``mint(asset)`` over the whole grid."""

    kind: str  # "max" or "min"
    asset: int


@dataclass(frozen=True)
class TailClaim:
    """A payoff read off the tail of a path, renormalised at ``arrival``.

    Evaluates ``inner`` on the sub-path from grid index ``arrival`` onward,
    with every coordinate divided by its value at ``arrival`` (0/0 counts
    as 1, so a path that is zero from ``arrival`` on looks constant).
    ``inner``'s time indices then refer to the tail grid, whose final index
    is the tail length.  Built by claim transport; has no concrete syntax.
    """

    inner: "Expr"
    arrival: int


Expr = Union[Num, Ref, BinOp, Neg, Call, Indicator, RunningExtreme, TailClaim]


# ---------------------------------------------------------------------------
# evaluation


def _coord(rows, asset: int, k: int) -> Any:
    if not 0 <= k < len(rows):
        raise EvaluationError(f"grid index {k} outside 0..{len(rows) - 1}")
    row = rows[k]
    if not 1 <= asset <= len(row):
        raise EvaluationError(f"coordinate index {asset} outside 1..{len(row)}")
    return row[asset - 1]


def _compare(op: str, a, b, ops: ModeOps, tol) -> bool:
    if op == "==":
        return ops.eq(a, b, tol)
    if op == "<=":
        return a < b or ops.eq(a, b, tol)
    if op == "<":
        return a < b and not ops.eq(a, b, tol)
    if op == ">=":
        return b < a or ops.eq(a, b, tol)
    if op == ">":
        return b < a and not ops.eq(a, b, tol)
    raise EvaluationError(f"unknown comparison {op!r}")


def _over(a: tuple, b: tuple) -> tuple:
    """The numerators of pairs ``a`` and ``b`` over one denominator, and that denominator."""
    (an, ad), (bn, bd) = a, b
    if ad == bd:
        return an, bn, ad
    return an * bd, bn * ad, ad * bd


def _normalised_tail(rows, arrival: int, ops: ModeOps) -> Optional[tuple]:
    """``(tail, den)``: the rows from ``arrival`` on, each coordinate over
    its value there, as an integer view; 0/0 is 1.  None when a coordinate
    at zero there leaves zero.

    Both values are numerators over one denominator, so ``x / b`` is the
    ratio of numerators; the tail puts them over their lcm.  In float mode
    the tail is the quotients themselves over 1.
    """
    base = rows[arrival]
    tail = rows[arrival:]
    if any(b == 0 and x != 0 for row in tail for x, b in zip(row, base)):
        return None
    if ops.mode == FLOAT:
        return [tuple(ops.one if b == 0 else x / b for x, b in zip(row, base)) for row in tail], 1
    den = lcm(*(b for b in base if b))
    scale = [den // b if b else 0 for b in base]
    return [tuple(x * s if s else den for x, s in zip(row, scale)) for row in tail], den


def compile_payoff(expr: Expr, ops: ModeOps) -> Callable:
    """``expr`` compiled once into a function of one path's integer view.

    The function takes ``(rows, den)``, ``rows[k][i - 1] / den`` being
    coordinate ``i`` at grid index ``k`` (a row of ``PathSpace.nums``), and
    returns a number in the mode of ``ops``.  Every node yields a pair
    ``(numerator, denominator)`` with a positive denominator.  In rational
    mode the pairs hold ints and the value is made a ``Fraction`` once, by
    ``ops.ratio``.  In float mode ``den`` is 1, every denominator stays 1
    and each node performs the float operation of a walk over the values,
    in the same order, so the value is the same float.  Division by zero
    and out-of-range indices raise :class:`EvaluationError` when the
    function is called.
    """
    exact = ops.mode != FLOAT
    zero, one = (0, 1) if exact else (ops.zero, ops.one)

    def divide(a, b):
        if b[0] == 0:
            raise EvaluationError("division by zero in payoff")
        if not exact:
            return a[0] / b[0], 1
        n, d = a[0] * b[1], a[1] * b[0]
        return (-n, -d) if d < 0 else (n, d)

    def first(better):
        def pick(args):
            best = args[0]
            for a in args[1:]:
                x, y, _ = _over(a, best)
                if better(x, y):
                    best = a
            return best

        return pick

    def add(a, b):
        x, y, d = _over(a, b)
        return x + y, d

    def subtract(a, b):
        x, y, d = _over(a, b)
        return x - y, d

    combine = {
        "+": add,
        "-": subtract,
        "*": lambda a, b: (a[0] * b[0], a[1] * b[1]),
        "/": divide,
    }
    functions = {
        "max": first(lambda x, y: x > y),
        "min": first(lambda x, y: x < y),
        "abs": lambda args: (abs(args[0][0]), args[0][1]),
        "pos": lambda args: (zero, 1) if args[0][0] < 0 else args[0],
    }

    def unknown(message):
        def fail(*_):
            raise EvaluationError(message)

        return fail

    def build(node) -> Callable:
        if isinstance(node, Num):
            value = ops.convert(node.value)
            pair = (value.numerator, value.denominator) if exact else (value, 1)
            return lambda rows, den: pair
        if isinstance(node, Ref):
            asset, time = node.asset, node.time
            return lambda rows, den: (
                _coord(rows, asset, len(rows) - 1 if time == FINAL_TIME else time), den
            )
        if isinstance(node, Neg):
            f = build(node.operand)

            def negate(rows, den):
                n, d = f(rows, den)
                return -n, d

            return negate
        if isinstance(node, BinOp):
            f, g = build(node.left), build(node.right)
            op = combine.get(node.op) or unknown(f"unknown operator {node.op!r}")
            return lambda rows, den: op(f(rows, den), g(rows, den))
        if isinstance(node, Call):
            fs = [build(a) for a in node.args]
            fn = functions.get(node.name) or unknown(f"unknown function {node.name!r}")
            return lambda rows, den: fn([f(rows, den) for f in fs])
        if isinstance(node, Indicator):
            f, g, op, tol = build(node.left), build(node.right), node.op, ops.label_tol
            yes, no = (one, 1), (zero, 1)

            def indicator(rows, den):
                x, y, d = _over(f(rows, den), g(rows, den))
                return yes if _compare(op, x, y, ops, tol * d) else no

            return indicator
        if isinstance(node, RunningExtreme):
            asset, pick = node.asset, max if node.kind == "max" else min
            return lambda rows, den: (
                pick([_coord(rows, asset, k) for k in range(len(rows))]), den
            )
        if isinstance(node, TailClaim):
            f, arrival = build(node.inner), node.arrival

            def tail(rows, den):
                if not 0 <= arrival < len(rows):
                    raise EvaluationError(f"tail arrival {arrival} outside 0..{len(rows) - 1}")
                view = _normalised_tail(rows, arrival, ops)
                if view is None:
                    raise EvaluationError("cannot normalise a tail that leaves zero")
                return f(*view)

            return tail
        return unknown(f"not a payoff node: {node!r}")

    top, ratio = build(expr), ops.ratio

    def value(rows, den):
        return ratio(*top(rows, den))

    return value


def validate_payoff(expr: Expr, n_assets: int, n_steps: int) -> None:
    """Check all coordinate and grid references fit a given path shape."""

    def walk(node, assets: int, steps: int):
        if isinstance(node, Ref):
            if not 1 <= node.asset <= assets:
                raise PreconditionError(
                    f"payoff references coordinate {node.asset}, model has {assets}"
                )
            if node.time != FINAL_TIME and not 0 <= node.time <= steps:
                raise PreconditionError(
                    f"payoff references grid index {node.time}, model has 0..{steps}"
                )
        elif isinstance(node, RunningExtreme):
            if not 1 <= node.asset <= assets:
                raise PreconditionError(
                    f"payoff references coordinate {node.asset}, model has {assets}"
                )
        elif isinstance(node, BinOp):
            walk(node.left, assets, steps)
            walk(node.right, assets, steps)
        elif isinstance(node, Indicator):
            walk(node.left, assets, steps)
            walk(node.right, assets, steps)
        elif isinstance(node, Neg):
            walk(node.operand, assets, steps)
        elif isinstance(node, Call):
            for a in node.args:
                walk(a, assets, steps)
        elif isinstance(node, TailClaim):
            if not 0 <= node.arrival <= steps:
                raise PreconditionError(
                    f"tail arrival {node.arrival} outside grid 0..{steps}"
                )
            walk(node.inner, assets, steps - node.arrival)
        elif not isinstance(node, Num):
            raise PreconditionError(f"not a payoff node: {node!r}")

    walk(expr, n_assets, n_steps)


# ---------------------------------------------------------------------------
# parsing


@dataclass(frozen=True)
class _Token:
    kind: str  # NUMBER, IDENT, or the punctuation itself
    text: str
    line: int
    column: int


# One alternative per token kind, tried in order at each offset.  Under
# ``re.ASCII`` a digit is 0-9 and a word character is [A-Za-z0-9_], so any
# other character, non-ASCII ones included, falls through to OTHER.
_TOKEN = re.compile(
    r"(?P<BLANK>[ \t\r]+)|(?P<NEWLINE>\n)|(?P<MALFORMED>\d+\.(?!\d))"
    r"|(?P<NUMBER>\d+(?:\.\d+)?)|(?P<IDENT>[A-Za-z_]\w*)"
    r"|(?P<PUNCT><=|>=|==|[-+*/(),\[\]<>])|(?P<OTHER>.)",
    re.ASCII,
)


def _tokenize(text: str) -> list[_Token]:
    tokens, line, line_start = [], 1, 0
    for match in _TOKEN.finditer(text):
        kind, word = match.lastgroup, match.group()
        column = match.start() - line_start + 1
        if kind == "NEWLINE":
            line, line_start = line + 1, match.end()
        elif kind == "MALFORMED":
            raise PayoffSyntaxError("malformed number literal", line, column, word)
        elif kind == "OTHER":
            raise PayoffSyntaxError(f"unexpected character {word!r}", line, column, word)
        elif kind != "BLANK":
            tokens.append(_Token(word if kind == "PUNCT" else kind, word, line, column))
    tokens.append(_Token("EOF", "", line, len(text) - line_start + 1))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def fail(self, message: str) -> PayoffSyntaxError:
        tok = self.peek()
        what = "end of input" if tok.kind == "EOF" else repr(tok.text)
        return PayoffSyntaxError(f"{message}, found {what}", tok.line, tok.column, tok.text)

    def expect(self, kind: str) -> _Token:
        if self.peek().kind != kind:
            raise self.fail(f"expected {kind!r}")
        return self.advance()

    def parse_expr(self) -> Expr:
        node = self.parse_term()
        while self.peek().kind in ("+", "-"):
            op = self.advance().kind
            node = BinOp(op, node, self.parse_term())
        return node

    def parse_term(self) -> Expr:
        node = self.parse_factor()
        while self.peek().kind in ("*", "/"):
            op = self.advance().kind
            node = BinOp(op, node, self.parse_factor())
        return node

    def parse_factor(self) -> Expr:
        tok = self.peek()
        if tok.kind == "NUMBER":
            self.advance()
            return Num(Fraction(tok.text))
        if tok.kind == "-":
            self.advance()
            return Neg(self.parse_factor())
        if tok.kind == "(":
            self.advance()
            node = self.parse_expr()
            self.expect(")")
            return node
        if tok.kind == "IDENT":
            if tok.text == "S":
                return self.parse_ref()
            if tok.text in _CALL_NAMES:
                return self.parse_call()
            raise self.fail("expected a number, 'S[...]', or a known function")
        raise self.fail("expected a number, reference, function, or '('")

    def parse_ref(self) -> Ref:
        self.expect("IDENT")  # the "S"
        self.expect("[")
        asset = self.parse_int("coordinate index")
        self.expect(",")
        tok = self.peek()
        if tok.kind == "IDENT" and tok.text == FINAL_TIME:
            self.advance()
            time: Union[int, str] = FINAL_TIME
        else:
            time = self.parse_int("grid index")
        self.expect("]")
        return Ref(asset, time)

    def parse_int(self, what: str) -> int:
        tok = self.peek()
        if tok.kind != "NUMBER" or "." in tok.text:
            raise self.fail(f"expected an integer {what}")
        self.advance()
        return int(tok.text)

    def parse_call(self) -> Expr:
        name = self.advance().text
        self.expect("(")
        if name in ("maxt", "mint"):
            asset = self.parse_int("coordinate index")
            self.expect(")")
            return RunningExtreme(name[:3], asset)
        if name == "ind":
            left = self.parse_expr()
            tok = self.peek()
            if tok.kind not in _CMP_OPS:
                raise self.fail("expected a comparison (<, <=, >, >=, ==)")
            op = self.advance().kind
            right = self.parse_expr()
            self.expect(")")
            return Indicator(op, left, right)
        args = [self.parse_expr()]
        while self.peek().kind == ",":
            self.advance()
            args.append(self.parse_expr())
        self.expect(")")
        if name in ("abs", "pos"):
            if len(args) != 1:
                raise self.fail(f"{name} takes exactly one argument")
            return Call(name, tuple(args))
        if len(args) < 2:
            raise self.fail(f"{name} takes at least two arguments")
        return Call(name, tuple(args))


def parse_payoff(text: str) -> Expr:
    """Parse concrete payoff syntax into an expression tree.

    Raises :class:`PayoffSyntaxError` with the line and column of the first
    offending token on malformed input.
    """
    parser = _Parser(_tokenize(text))
    node = parser.parse_expr()
    if parser.peek().kind != "EOF":
        raise parser.fail("trailing input after expression")
    return node


__all__ = [
    "Num",
    "Ref",
    "BinOp",
    "Neg",
    "Call",
    "Indicator",
    "RunningExtreme",
    "TailClaim",
    "Expr",
    "compile_payoff",
    "validate_payoff",
    "parse_payoff",
]
