"""Payoff expressions: syntax tree, parser, printer, and evaluation.

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

Numbers are nonnegative integer or decimal literals; negative constants and
exact ratios are spelled with the operators (``-3``, ``1/3``).  Equality in
``ind`` is exact in rational mode and quantised at 1e-12 in float mode.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Sequence, Union

from ._numeric import ModeOps, RATIONAL_OPS, rat
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
    is the tail length.  Built by claim transport; has a display form but
    no concrete syntax.
    """

    inner: "Expr"
    arrival: int


Expr = Union[Num, Ref, BinOp, Neg, Call, Indicator, RunningExtreme, TailClaim]

PathValues = Sequence[Sequence[Any]]  # values[k][i-1]: coordinate i at index k


# ---------------------------------------------------------------------------
# evaluation


def _coord(values: PathValues, asset: int, k: int) -> Any:
    if not 0 <= k < len(values):
        raise EvaluationError(f"grid index {k} outside 0..{len(values) - 1}")
    row = values[k]
    if not 1 <= asset <= len(row):
        raise EvaluationError(f"coordinate index {asset} outside 1..{len(row)}")
    return row[asset - 1]


def _compare(op: str, a, b, ops: ModeOps) -> bool:
    if op == "==":
        return ops.eq(a, b, ops.label_tol)
    if op == "<=":
        return a < b or ops.eq(a, b, ops.label_tol)
    if op == "<":
        return a < b and not ops.eq(a, b, ops.label_tol)
    if op == ">=":
        return b < a or ops.eq(a, b, ops.label_tol)
    if op == ">":
        return b < a and not ops.eq(a, b, ops.label_tol)
    raise EvaluationError(f"unknown comparison {op!r}")


def evaluate_payoff(expr: Expr, values: PathValues, ops: ModeOps = RATIONAL_OPS):
    """Evaluate ``expr`` on a path given as per-index coordinate rows.

    Returns a number in the mode of ``ops``.  Division by zero raises
    :class:`EvaluationError`, as do out-of-range coordinate or grid indices.
    """
    last = len(values) - 1

    def ev(node) -> Any:
        if isinstance(node, Num):
            return ops.convert(node.value)
        if isinstance(node, Ref):
            k = last if node.time == FINAL_TIME else node.time
            return _coord(values, node.asset, k)
        if isinstance(node, Neg):
            return -ev(node.operand)
        if isinstance(node, BinOp):
            a, b = ev(node.left), ev(node.right)
            if node.op == "+":
                return a + b
            if node.op == "-":
                return a - b
            if node.op == "*":
                return a * b
            if node.op == "/":
                if b == 0:
                    raise EvaluationError("division by zero in payoff")
                return a / b
            raise EvaluationError(f"unknown operator {node.op!r}")
        if isinstance(node, Call):
            args = [ev(a) for a in node.args]
            if node.name == "max":
                return max(args)
            if node.name == "min":
                return min(args)
            if node.name == "abs":
                return abs(args[0])
            if node.name == "pos":
                return max(args[0], ops.zero)
            raise EvaluationError(f"unknown function {node.name!r}")
        if isinstance(node, Indicator):
            return ops.one if _compare(node.op, ev(node.left), ev(node.right), ops) else ops.zero
        if isinstance(node, RunningExtreme):
            series = [_coord(values, node.asset, k) for k in range(len(values))]
            return max(series) if node.kind == "max" else min(series)
        if isinstance(node, TailClaim):
            return evaluate_payoff(node.inner, _normalised_tail(values, node.arrival, ops), ops)
        raise EvaluationError(f"not a payoff node: {node!r}")

    return ev(expr)


def _normalised_tail(values: PathValues, arrival: int, ops: ModeOps) -> list:
    """The rows from ``arrival`` on, each coordinate over its value there; 0/0 is ``ops.one``."""
    if not 0 <= arrival < len(values):
        raise EvaluationError(f"tail arrival {arrival} outside 0..{len(values) - 1}")
    base = values[arrival]
    tail = []
    for row in values[arrival:]:
        out = []
        for x, b in zip(row, base):
            if b == 0:
                if x != 0:
                    raise EvaluationError("cannot normalise a tail that leaves zero")
                out.append(ops.one)
            else:
                out.append(x / b)
        tail.append(tuple(out))
    return tail


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
# printing


def _fmt_literal(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    # prefer a decimal literal when it is exact and short, else a quotient
    scaled = value * 10**12
    if scaled.denominator == 1:
        text = f"{value.numerator / value.denominator:.12f}".rstrip("0")
        frac = Fraction(text)
        if frac == value:
            return text
    return f"({value.numerator}/{value.denominator})"


def payoff_to_text(expr: Expr) -> str:
    """Render an expression in concrete syntax.

    Output parses back to an equal tree, except for :class:`TailClaim`
    (display form only) and quotient literals, which reparse as division
    nodes with the same value.
    """

    def render(node, min_prec: int) -> str:
        if isinstance(node, Num):
            return _fmt_literal(node.value)
        if isinstance(node, Ref):
            return f"S[{node.asset},{node.time}]"
        if isinstance(node, RunningExtreme):
            return f"{node.kind}t({node.asset})"
        if isinstance(node, Call):
            return f"{node.name}({', '.join(render(a, 1) for a in node.args)})"
        if isinstance(node, Indicator):
            return f"ind({render(node.left, 1)} {node.op} {render(node.right, 1)})"
        if isinstance(node, TailClaim):
            return f"tail({node.arrival}, {render(node.inner, 1)})"
        if isinstance(node, Neg):
            text = f"-{render(node.operand, 3)}"
            return f"({text})" if min_prec > 2 else text
        if isinstance(node, BinOp):
            prec = 1 if node.op in "+-" else 2
            text = (
                f"{render(node.left, prec)} {node.op} {render(node.right, prec + 1)}"
            )
            return f"({text})" if prec < min_prec else text
        raise PreconditionError(f"not a payoff node: {node!r}")

    return render(expr, 1)


# ---------------------------------------------------------------------------
# parsing


@dataclass(frozen=True)
class _Token:
    kind: str  # NUMBER, IDENT, or the punctuation itself
    text: str
    line: int
    column: int


_PUNCT_2 = ("<=", ">=", "==")
_PUNCT_1 = "+-*/(),[]<>"


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    line, col = 1, 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        start_col = col
        two = text[i : i + 2]
        if two in _PUNCT_2:
            tokens.append(_Token(two, two, line, start_col))
            i += 2
            col += 2
            continue
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            if j < len(text) and text[j] == ".":
                j += 1
                if j >= len(text) or not text[j].isdigit():
                    raise PayoffSyntaxError(
                        "malformed number literal", line, start_col, text[i:j]
                    )
                while j < len(text) and text[j].isdigit():
                    j += 1
            tokens.append(_Token("NUMBER", text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("IDENT", text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if ch in _PUNCT_1:
            tokens.append(_Token(ch, ch, line, start_col))
            i += 1
            col += 1
            continue
        raise PayoffSyntaxError(f"unexpected character {ch!r}", line, start_col, ch)
    tokens.append(_Token("EOF", "", line, col))
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


def constant_payoff(value) -> Num:
    """A payoff that ignores the path."""
    if isinstance(value, str):
        return Num(Fraction(value))
    return Num(Fraction(rat(value)))
