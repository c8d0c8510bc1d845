"""Independent reference results for the fixture models.

Everything here is computed from first principles over
:class:`fractions.Fraction` with exhaustive vertex enumeration: a linear
functional over a polytope ``{w >= 0, Aw = b}`` attains its maximum at a
basic feasible solution, and for the tiny fixture models all of those can
be listed outright.  Nothing from the package is imported, so agreement
between these numbers and the package is a genuine cross-check of two
unrelated code paths.  The exception is the last section: the payoff walk
and the label formulas that ``rip`` used before it compiled claims and
labels onto the integer view.  They dispatch on the package's payoff nodes,
raise its errors and compute in its numeric modes, and serve as the
reference of the differential tests.

Run as a script to print the full table the tests freeze::

    python3 tests/oracle.py
"""

from __future__ import annotations

import math
from fractions import Fraction as F
from itertools import combinations
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

Row = Tuple[Sequence[F], F]


def _rref(matrix: List[List[F]]) -> Tuple[List[List[F]], List[int]]:
    rows = [list(r) for r in matrix]
    pivots: List[int] = []
    r = 0
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = rows[r][c]
        rows[r] = [v / inv for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def solve_exact(matrix: List[List[F]], rhs: List[F]) -> Optional[List[F]]:
    """The unique solution of a square-rank system, or None."""
    n = len(matrix[0]) if matrix else 0
    aug = [list(row) + [b] for row, b in zip(matrix, rhs)]
    reduced, pivots = _rref(aug)
    if len(pivots) < n or n in pivots:
        return None
    for row in reduced[len(pivots):]:
        if row[-1] != 0:
            return None
    x = [F(0)] * n
    for i, c in enumerate(pivots):
        x[c] = reduced[i][-1]
    return x


def vertices(rows: Sequence[Row], n: int) -> List[Tuple[F, ...]]:
    """All vertices of ``{w in R^n : w >= 0, rows hold with equality}``."""
    if not rows:
        raise ValueError("need at least one equality row")
    matrix = [[F(c) for c in coeffs] for coeffs, _ in rows]
    rhs = [F(b) for _, b in rows]
    _, pivots = _rref([list(r) for r in matrix])
    rank = len(pivots)
    found = set()
    for support in combinations(range(n), rank):
        sub = [[row[j] for j in support] for row in matrix]
        x_s = solve_exact(sub, rhs)
        if x_s is None or any(v < 0 for v in x_s):
            continue
        w = [F(0)] * n
        for j, v in zip(support, x_s):
            w[j] = v
        if all(
            sum(c * wi for c, wi in zip(coeffs, w)) == b for (coeffs, b) in rows
        ):
            found.add(tuple(w))
    return sorted(found)


def best_value(
    rows: Sequence[Row], objective: Sequence[F], n: int
) -> Optional[Tuple[F, Tuple[F, ...]]]:
    """Max of the objective over the polytope, or None when it is empty."""
    verts = vertices(rows, n)
    if not verts:
        return None
    best = max(verts, key=lambda w: sum(c * wi for c, wi in zip(objective, w)))
    return sum(c * wi for c, wi in zip(objective, best)), best


# ---------------------------------------------------------------------------
# building equality rows straight from raw path tuples


def prefix_groups(paths: Sequence[tuple], t: int) -> List[Tuple[int, ...]]:
    groups: Dict[tuple, List[int]] = {}
    for p, path in enumerate(paths):
        groups.setdefault(tuple(path[: t + 1]), []).append(p)
    return [tuple(g) for g in groups.values()]


def mass_row(n: int, support: Optional[Iterable[int]] = None) -> Row:
    picked = set(range(n) if support is None else support)
    return ([F(1) if p in picked else F(0) for p in range(n)], F(1))


def martingale_rows(
    paths: Sequence[tuple],
    groups_at: Callable[[int], List[Tuple[int, ...]]],
) -> List[Row]:
    n = len(paths)
    steps = len(paths[0]) - 1
    width = len(paths[0][0])
    rows: List[Row] = []
    for t in range(steps):
        for group in groups_at(t):
            for c in range(width):
                coeffs = [F(0)] * n
                for p in group:
                    coeffs[p] = F(paths[p][t + 1][c]) - F(paths[p][t][c])
                if any(v != 0 for v in coeffs):
                    rows.append((coeffs, F(0)))
    return rows


def calibration_rows(
    statics: Sequence[Tuple[Sequence[F], F]], n: int
) -> List[Row]:
    """One homogeneous row per quoted payoff: its expectation equals the quote."""
    rows: List[Row] = []
    for values, price in statics:
        rows.append(([F(v) - F(price) for v in values], F(0)))
    return rows


def measure_polytope_max(
    paths: Sequence[tuple],
    claim_values: Sequence[F],
    statics: Sequence[Tuple[Sequence[F], F]] = (),
    support: Optional[Iterable[int]] = None,
    groups_at: Optional[Callable[[int], List[Tuple[int, ...]]]] = None,
) -> Optional[Tuple[F, Tuple[F, ...]]]:
    """Best expectation of the claim over calibrated martingale weights.

    ``support`` restricts the weights to an atom (others pinned to zero by
    an equality row each).  ``groups_at`` defaults to grouping by path
    prefix, the no-extra-information case.
    """
    n = len(paths)
    groups = groups_at or (lambda t: prefix_groups(paths, t))
    rows: List[Row] = [mass_row(n)]
    rows += martingale_rows(paths, groups)
    rows += calibration_rows(statics, n)
    if support is not None:
        inside = set(support)
        for p in range(n):
            if p not in inside:
                coeffs = [F(0)] * n
                coeffs[p] = F(1)
                rows.append((coeffs, F(0)))
    return best_value(rows, [F(v) for v in claim_values], n)


def sqrt_exact(value: F) -> Optional[F]:
    num = math.isqrt(value.numerator)
    den = math.isqrt(value.denominator)
    if num * num == value.numerator and den * den == value.denominator:
        return F(num, den)
    return None


# ---------------------------------------------------------------------------
# fixture models, written out as raw tuples

HALF, ONE, TWO = F(1, 2), F(1), F(2)

# one step, ratios {1/2, 1, 2}; path order: down, flat, up
TRI1 = (
    ((ONE,), (HALF,)),
    ((ONE,), (ONE,)),
    ((ONE,), (TWO,)),
)

# two steps of the same ratios, prefix-major order
TRI2 = tuple(
    ((ONE,), (r1,), (r1 * r2,))
    for r1 in (HALF, ONE, TWO)
    for r2 in (HALF, ONE, TWO)
)


def tri1_claims() -> Dict[str, List[F]]:
    term = [path[1][0] for path in TRI1]
    return {
        "call": [max(s - 1, F(0)) for s in term],
        "put": [max(1 - s, F(0)) for s in term],
        "digital_at_2": [F(1) if s == 2 else F(0) for s in term],
    }


def run() -> Dict[str, object]:
    out: Dict[str, object] = {}
    claims = tri1_claims()

    for name, values in claims.items():
        got = measure_polytope_max(TRI1, values)
        assert got is not None
        out[f"tri1_{name}"] = got[0]

    digital_mid = [F(1) if path[1][0] == 1 else F(0) for path in TRI1]
    statics = [(digital_mid, F(1, 5))]
    got = measure_polytope_max(TRI1, claims["call"], statics=statics)
    assert got is not None
    out["tri1_call_with_digital"] = got[0]
    verts = vertices(
        [mass_row(3)]
        + martingale_rows(TRI1, lambda t: prefix_groups(TRI1, t))
        + calibration_rows(statics, 3),
        3,
    )
    assert len(verts) == 1
    out["tri1_calibrated_measure"] = verts[0]

    for z, atom in (("0", (0, 2)), ("1", (1,))):
        got = measure_polytope_max(TRI1, claims["call"], support=atom)
        assert got is not None
        out[f"tri1_plus_call_z{z}"] = got[0]

    # conditional subtree at (1, 2): re-rooted paths, one step left
    sub = tuple(path[1:] for path in TRI2 if path[1][0] == 2)
    claim2 = [max(path[1][0] - 2, F(0)) for path in sub]
    got = measure_polytope_max(sub, claim2)
    assert got is not None
    out["tri2_interval_sub2_call2"] = got[0]

    # uninformed value of the same claim on the full two-step model
    call2 = [max(path[2][0] - 2, F(0)) for path in TRI2]
    got = measure_polytope_max(TRI2, call2)
    assert got is not None
    out["tri2_call2"] = got[0]

    # geometric interior of a digital quoted at 4/9 on TRI2
    digital2 = [F(1) if path[2][0] >= 2 else F(0) for path in TRI2]
    quote = F(4, 9)
    terminals = sorted({v / quote for v in digital2})
    out["tri2_info_terminals"] = tuple(terminals)
    interior = sorted({sqrt_exact(v) for v in terminals})
    assert None not in interior
    out["tri2_info_interiors"] = tuple(interior)

    # approximate class on TRI1 around the flat path, two etas plus the shape
    def approx_value(eta: F) -> F:
        slack = eta - eta / 1000
        fat = [p for p, path in enumerate(TRI1) if abs(path[1][0] - 1) <= eta]
        n = 4  # three weights and one surplus column for the mass bound
        rows: List[Row] = [([F(1), F(1), F(1), F(0)], F(1))]
        rows.append(
            (
                [F(1) if p in fat else F(0) for p in range(3)] + [F(-1)],
                F(1) - slack,
            )
        )
        for coeffs, b in martingale_rows(TRI1, lambda t: prefix_groups(TRI1, t)):
            rows.append((list(coeffs) + [F(0)], b))
        got = best_value(rows, [F(v) for v in claims["call"]] + [F(0)], n)
        assert got is not None
        return got[0]

    for eta in (F(1, 10), F(1, 20)):
        out[f"tri1_approx_{eta.numerator}_{eta.denominator}"] = approx_value(eta)
    got = measure_polytope_max(TRI1, claims["call"], support=(1,))
    assert got is not None
    out["tri1_dirac_flat_call"] = got[0]

    # plain trading gains of holding one unit along the crashing path
    crash = ((ONE,), (HALF,), (F(1, 4),))
    out["tri2_unit_gain_crash"] = (crash[2][0] - crash[1][0]) + (crash[1][0] - crash[0][0])

    # label partition sizes recomputed from raw tuples
    def max_abs_dev(path: tuple) -> F:
        return max(abs(row[0] - 1) for row in path)

    labels = sorted({max_abs_dev(path) for path in TRI2})
    out["tri2_maxdev_labels"] = tuple(labels)

    flat_tail = lambda path: F(1) if path[2][0] == path[1][0] else F(0)
    pairs = {(tuple(path[:2]), flat_tail(path)) for path in TRI2}
    out["tri2_dyn1_atom_count"] = len(pairs)

    return out


# ---------------------------------------------------------------------------
# reference payoff walk and labels, on the coordinates themselves

from rip.errors import EvaluationError, PreconditionError  # noqa: E402
from rip.payoff import (  # noqa: E402
    FINAL_TIME,
    BinOp,
    Call,
    Indicator,
    Neg,
    Num,
    Ref,
    RunningExtreme,
    TailClaim,
)


def _coord(values, asset: int, k: int):
    if not 0 <= k < len(values):
        raise EvaluationError(f"grid index {k} outside 0..{len(values) - 1}")
    row = values[k]
    if not 1 <= asset <= len(row):
        raise EvaluationError(f"coordinate index {asset} outside 1..{len(row)}")
    return row[asset - 1]


def _compare(op: str, a, b, ops) -> bool:
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


def evaluate_payoff(expr, values, ops):
    """Evaluate ``expr`` on a path given as per-index coordinate rows.

    Returns a number in the mode of ``ops``.  Division by zero raises
    :class:`EvaluationError`, as do out-of-range coordinate or grid indices.
    """
    last = len(values) - 1

    def ev(node):
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


def _normalised_tail(values, arrival: int, ops) -> list:
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


# label formulas: each ``label(values, ops)`` reads one path's coordinate rows


def _series(values, asset: int) -> tuple:
    return tuple(row[asset - 1] for row in values)


def label_payoff(expr):
    return lambda values, ops: evaluate_payoff(expr, values, ops)


def label_max_abs_deviation(asset: int = 1):
    return lambda values, ops: max(abs(x - ops.one) for x in _series(values, asset))


def label_range_indicator(lower, upper, asset: int = 1):
    def label(values, ops):
        lo, hi = ops.convert(lower), ops.convert(upper)
        inside = all(lo < x < hi for x in _series(values, asset))
        return ops.one if inside else ops.zero

    return label


def label_tail_max_ratio(arrival: int, asset: int = 1):
    def label(values, ops):
        series = _series(values, asset)[arrival:]
        base = series[0]
        if base == 0 or any(x == 0 for x in series):
            return ops.one
        worst = ops.one
        for x in series:
            r = x / base
            worst = max(worst, r, 1 / r)
        return worst

    return label


def label_tail_range_indicator(lower, upper, arrival: int, asset: int = 1):
    def label(values, ops):
        series = _series(values, asset)[arrival:]
        base = series[0]
        if base == 0:
            return ops.one
        lo, hi = ops.convert(lower), ops.convert(upper)
        inside = all(lo < x / base < hi for x in series)
        return ops.one if inside else ops.zero

    return label


def label_lift_to_tail(base_label, arrival: int):
    def label(values, ops):
        base_row = values[arrival]
        if any(x == 0 for x in base_row):
            if all(x == 0 for row in values[arrival:] for x in row):
                return ops.one
            # a coordinate at zero cannot be renormalised unless it stays there
            if any(
                base == 0 and any(row[i] != 0 for row in values[arrival:])
                for i, base in enumerate(base_row)
            ):
                raise PreconditionError("cannot renormalise a tail that leaves zero")
            return ops.one
        rows = tuple(
            tuple(x / b for x, b in zip(row, base_row)) for row in values[arrival:]
        )
        return base_label(rows, ops)

    return label


def space_labels(space, label) -> tuple:
    """``label`` on every path of ``space``, quantised in float mode by the
    sweep over the sorted distinct labels."""
    raw = [label(path.values, space.ops) for path in space.paths]
    if space.mode != "float":
        return tuple(raw)
    tol = space.ops.label_tol
    rep_of = {}
    rep = None
    for x in sorted(set(raw)):
        if rep is None or x - rep > tol:
            rep = x
        rep_of[x] = rep
    return tuple(rep_of[x] for x in raw)


def scaling_form(space, labels, arrival: int) -> bool:
    """Whether paths with equal renormalised tails carry equal labels and
    every path at zero at ``arrival`` carries label 1."""
    ops = space.ops
    by_tail: dict = {}
    for p, path in enumerate(space.paths):
        series = _series(path.values, 1)[arrival:]
        base = series[0]
        if base == 0:
            if not ops.eq(labels[p], ops.one, ops.label_tol):
                return False
            continue
        tail = tuple(x / base for x in series)
        if tail in by_tail:
            if labels[p] != by_tail[tail]:
                return False
        else:
            by_tail[tail] = labels[p]
    return True


if __name__ == "__main__":
    for key, value in run().items():
        print(f"{key}: {value}")
