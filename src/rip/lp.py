"""A small, deterministic linear-programming kernel with checkable output.

The solver is a two-phase primal simplex on a full tableau using Bland's
rule (lowest eligible index enters; ties in the ratio test go to the lowest
basic index), so it terminates on every input and never makes a
data-dependent random choice: the same program yields the same outcome
object, pivot for pivot.  In rational mode the tableau is fraction-free
(Edmonds 1967; Bareiss 1968) and sparse: each row, the reduced-cost row
included, holds only its nonzero integer numerators, keyed by column, over
one positive integer denominator, and is kept in lowest terms by one gcd
per updated row.  A pivot builds no rational number, and its cost follows
the nonzeros of the rows it touches, not the tableau's width.  Exact
rationals are built only for what the solver reports, and the reported
values, certificates, and infeasibility witnesses are exact.  In float mode
the rows are dense lists of floats.

Each row starts on one basic column.  An inequality row whose slack can be
basic at a nonnegative value (``<=`` with right-hand side ``>= 0``, or
``>=`` with right-hand side ``<= 0``) starts on that slack; every other row
gets an artificial column of its own and starts on it.  Phase 1 therefore
runs only over the rows that have no slack start, and ends without a pivot
when every row has one.  A row's dual is read off the reduced cost of its
start column, in both phases.  A program with no rows is an empty tableau.

Every outcome carries a certificate that :func:`verify_certificate` checks
by direct arithmetic on the program alone, sharing no row or state with the
solver:

* ``Optimal`` holds a primal point and row duals; verification checks
  feasibility, the objective value, complementary slackness, and the sign
  pattern of reduced costs against each variable's bounds.
* ``Infeasible`` holds a separating vector for the standardised system
  (original rows first, then one row per finite upper bound).
* ``Unbounded`` holds a feasible point and an improving ray.

The checks run on integers.  Each row's nonzero coefficients and right-hand
side are put over one positive denominator, once, and so are the point
(with the bounds), the duals, the Farkas vector and the ray; comparisons
cross-multiply these denominators, and tolerances are scaled by them, so
each test is the exact one.  In float mode every denominator is 1 and the
same code does plain float arithmetic.

Bounds may be ``"free"``, ``"nonneg"``, or a ``(low, high)`` pair with
``None`` for a missing side.  Relations are ``"<="``, ``">="``, ``"=="``.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm
from typing import Any, Optional, Union

from ._numeric import FLOAT, ModeOps, RATIONAL_OPS, _ratio
from .errors import CapacityError, InternalCheckError, PreconditionError

RELATIONS = ("<=", ">=", "==")
SENSES = ("min", "max")

_BIT_GUARD = 4_000_000  # max numerator/denominator bits in exact mode
_GUARD_EVERY = 64


@dataclass(frozen=True)
class LinearProgram:
    """``sense`` the objective ``c`` subject to rows ``a . x rel b``."""

    sense: str
    objective: tuple
    rows: tuple  # of (coeffs, relation, rhs)
    bounds: tuple

    def __post_init__(self):
        if self.sense not in SENSES:
            raise PreconditionError(f"sense must be one of {SENSES}")
        n = len(self.objective)
        if len(self.bounds) != n:
            raise PreconditionError("one bound spec per variable")
        for b in self.bounds:
            if b in ("free", "nonneg"):
                continue
            if (
                isinstance(b, tuple)
                and len(b) == 2
                and (b[0] is None or b[1] is None or b[0] <= b[1])
            ):
                continue
            raise PreconditionError(f"bad bound spec {b!r}")
        for coeffs, rel, _ in self.rows:
            if len(coeffs) != n:
                raise PreconditionError("row length does not match the objective")
            if rel not in RELATIONS:
                raise PreconditionError(f"relation must be one of {RELATIONS}")

    @classmethod
    def build(cls, sense: str, objective, rows, bounds) -> "LinearProgram":
        return cls(
            sense,
            tuple(objective),
            tuple((tuple(c), rel, rhs) for c, rel, rhs in rows),
            tuple(tuple(b) if isinstance(b, (list, tuple)) else b for b in bounds),
        )

    @property
    def n_vars(self) -> int:
        return len(self.objective)


@dataclass(frozen=True)
class Optimal:
    x: tuple
    y: tuple  # one dual per original row
    value: Any
    pivots: int = 0


@dataclass(frozen=True)
class Infeasible:
    certificate: tuple  # over standardised rows: originals, then bound rows
    pivots: int = 0


@dataclass(frozen=True)
class Unbounded:
    point: tuple  # a feasible point
    ray: tuple  # an improving feasible direction
    pivots: int = 0


LPOutcome = Union[Optimal, Infeasible, Unbounded]


# ---------------------------------------------------------------------------
# standard form


def _standardise(lp: LinearProgram, ops: ModeOps):
    """Rewrite onto nonnegative variables.

    Returns ``(cols, shifts, rows_z)`` where each column is ``(var, mult)``,
    ``x[var] = shifts[var] + sum(mult * z)`` over the variable's columns,
    and ``rows_z`` lists ``(coeffs, rel, rhs)`` over the z variables: the
    original rows first, then one ``<=`` row per finite upper bound.  A
    row's ``coeffs`` are its nonzero ``(column, coefficient)`` pairs in
    column order.  Each nonzero coefficient is converted once; zero entries
    cost nothing.
    """
    zero = ops.zero
    cols: list = []
    shifts: list = []
    box: list = []
    for j, bnd in enumerate(lp.bounds):
        if bnd == "nonneg":
            shifts.append(zero)
            cols.append((j, 1))
            continue
        if bnd == "free":
            lo = hi = None
        else:
            lo, hi = bnd
        if lo is None and hi is None:
            shifts.append(zero)
            cols.append((j, 1))
            cols.append((j, -1))
        elif lo is not None:
            shifts.append(ops.convert(lo))
            cols.append((j, 1))
            if hi is not None:
                box.append((len(cols) - 1, ops.convert(hi) - ops.convert(lo)))
        else:
            shifts.append(ops.convert(hi))
            cols.append((j, -1))
    var_cols: list = [[] for _ in lp.bounds]
    for cidx, (var, mult) in enumerate(cols):
        var_cols[var].append((cidx, mult))

    rows_z = []
    for coeffs, rel, rhs in lp.rows:
        row = []
        adjust = zero
        for j, c in enumerate(coeffs):
            if not c or not (c := ops.convert(c)):
                continue  # zero, or text such as "0"
            for cidx, mult in var_cols[j]:
                row.append((cidx, c if mult > 0 else -c))
            if shifts[j]:
                adjust = adjust + c * shifts[j]
        rows_z.append((row, rel, ops.convert(rhs) - adjust))
    for cidx, ub in box:
        rows_z.append(([(cidx, ops.one)], "<=", ub))
    return cols, shifts, rows_z


def _recover_x(cols, shifts, z):
    x = list(shifts)
    for cidx, (var, mult) in enumerate(cols):
        x[var] = x[var] + mult * z[cidx]
    return tuple(x)


# ---------------------------------------------------------------------------
# the simplex engine


class _Tableau:
    """The simplex tableau: bookkeeping and Bland's rule for both modes.

    Row ``i`` has columns ``0..width-1`` and its right-hand side as column
    ``width``; its basic column is ``basis[i]`` and it came from standardised
    row ``row_ids[i]``.  Columns are the ``nz`` structural ones, then one
    slack per inequality row, then, from ``art_start`` on, one artificial per
    row without a slack start, in row order.  ``start[r]`` is the column
    standardised row ``r`` starts on.  The mode picks the arithmetic and the
    row storage: constructing a ``_Tableau`` gives an :class:`_IntegerTableau`
    (sparse integer rows) in rational mode and a :class:`_FloatTableau` (dense
    float rows) in float mode.  They store the rows and do the ratio test,
    the elimination and the reduced costs; ``value(row, k)`` reads entry
    ``k`` of a row, and ``first_column(row, limit, negative)`` finds the
    lowest column below ``limit`` whose entry is nonzero, or negative, past
    the mode's feasibility tolerance.  The pivot rule, the pivot count and
    its cap live here and read rows only through those two.
    """

    def __new__(cls, rows_z, nz: int, ops: ModeOps):
        if cls is _Tableau:
            cls = _FloatTableau if ops.mode == FLOAT else _IntegerTableau
        return super().__new__(cls)

    def __init__(self, rows_z, nz: int, ops: ModeOps):
        self.ops = ops
        one = ops.one
        m = len(rows_z)
        n_slack = sum(1 for _, rel, _ in rows_z if rel != "==")
        self.nz = nz
        self.n_slack = n_slack
        self.art_start = nz + n_slack
        self.sigma = []
        self.start = []
        self.row_ids = list(range(m))  # original standardised row per tableau row
        self.pivots = 0
        self.guard_clock = 0

        rows = []
        slack, art = nz, self.art_start
        for coeffs, rel, rhs in rows_z:
            # make the right-hand side nonnegative; an inequality whose
            # right-hand side is zero takes the sign that puts +1 on its slack
            flip = rhs < 0 or (rel == ">=" and not rhs)
            self.sigma.append(-1 if flip else 1)
            if flip:
                entries = [(k, -v) for k, v in coeffs]
                rhs = -rhs
            else:
                entries = list(coeffs)
            start = art
            if rel != "==":
                slack_starts = (rel == "<=") != flip  # feasible at the right-hand side
                entries.append((slack, one if slack_starts else -one))
                if slack_starts:
                    start = slack
                slack += 1
            if start == art:
                entries.append((art, one))
                art += 1
            self.start.append(start)
            rows.append((entries, rhs))
        self.width = art
        self.matrix = [self._row(entries, rhs) for entries, rhs in rows]
        self.basis = list(self.start)

    def pivot(self, i: int, j: int, z_row) -> None:
        self._eliminate(i, j, z_row)
        self.basis[i] = j
        self.pivots += 1
        self.guard_clock += 1
        if self.guard_clock >= _GUARD_EVERY:
            self.guard_clock = 0
            self._capacity_guard()

    def _capacity_guard(self) -> None:
        """Float rows cannot grow; the integer tableau measures its bits."""

    def size(self) -> str:
        return f"{len(self.matrix)} x {self.width}"

    def run(self, z_row, allowed_width: int, max_pivots: int) -> Optional[int]:
        """Pivot until optimal (returns None) or unbounded (returns the column)."""
        basis = self.basis
        while True:
            # Bland's rule: the lowest column with a negative reduced cost
            # enters, and ties in the ratio test go to the lowest basic index
            enter = self.first_column(z_row, allowed_width, negative=True)
            if enter < 0:
                return None
            leave = -1
            for i in self._least_ratio_rows(enter):
                if leave < 0 or basis[i] < basis[leave]:
                    leave = i
            if leave < 0:
                return enter
            self.pivot(leave, enter, z_row)
            if self.pivots > max_pivots:
                raise CapacityError(
                    f"lp: simplex stopped after {self.pivots} pivots, over its cap "
                    f"of {max_pivots}, on a {self.size()} tableau"
                )

    def z_values(self):
        z = [self.ops.zero] * self.nz
        for i, b in enumerate(self.basis):
            if b < self.nz:
                z[b] = self.value(self.matrix[i], self.width)
        return z

    def duals(self, z_row, cost):
        """Row duals of the standardised system, via start-column reduced costs.

        A slack start's column equals the artificial its row would otherwise
        have, so one rule serves both kinds of start, in both phases.
        """
        y = {}
        for rid in self.row_ids:
            col = self.start[rid]
            y[rid] = self.sigma[rid] * (cost[col] - self.value(z_row, col))
        return y


class _FloatTableau(_Tableau):
    """Rows of floats, right-hand side last; the pivot divides by its entry."""

    def _row(self, entries, rhs) -> list:
        row = [0.0] * (self.width + 1)
        for k, v in entries:
            row[k] = v
        row[-1] = rhs
        return row

    def value(self, row, k):
        return row[k]

    def first_column(self, row, limit: int, negative: bool = False) -> int:
        tol = self.ops.feas_tol
        if negative:
            for j in range(limit):
                if row[j] < -tol:
                    return j
        else:
            for j in range(limit):
                if abs(row[j]) > tol:
                    return j
        return -1

    def objective_row(self, cost):
        """Reduced costs for the given per-column cost vector (basis-aware)."""
        z_row = list(cost) + [0.0]
        for i, row in enumerate(self.matrix):
            cb = cost[self.basis[i]]
            if cb:
                for j, v in enumerate(row):
                    if v:
                        z_row[j] = z_row[j] - cb * v
        return z_row

    def _least_ratio_rows(self, enter: int) -> list:
        tol = self.ops.feas_tol
        ties = []
        best = None
        for i, row in enumerate(self.matrix):
            a = row[enter]
            if a > tol:
                ratio = row[-1] / a
                if best is None or ratio < best:
                    best = ratio
                    ties = [i]
                elif ratio == best:
                    ties.append(i)
        return ties

    def _eliminate(self, i: int, j: int, z_row) -> None:
        matrix = self.matrix
        row = matrix[i]
        inv = 1 / row[j]
        nonzeros = [(k, v * inv) for k, v in enumerate(row) if v]
        for k, v in nonzeros:
            row[k] = v
        for other in matrix:
            if other is row:
                continue
            f = other[j]
            if f:
                for k, v in nonzeros:
                    other[k] = other[k] - f * v
        f = z_row[j]
        if f:
            for k, v in nonzeros:
                z_row[k] = z_row[k] - f * v


class _IntegerRow:
    """One fraction-free row: nonzero integer numerators over one denominator.

    ``nums`` maps a column, or ``width`` for the right-hand side, to its
    numerator and holds no zero; ``den`` is positive.  Entry ``k`` stands
    for ``nums.get(k, 0) / den``.
    """

    __slots__ = ("nums", "den")

    def __init__(self, nums: dict, den: int):
        self.nums = nums
        self.den = den


class _IntegerTableau(_Tableau):
    """Fraction-free sparse rows: every row is an :class:`_IntegerRow`.

    Every row, the reduced-cost row included, is kept in lowest terms: the
    gcd of its numerators and its denominator is 1.  Since denominators are
    positive, the sign of an entry is the sign of its numerator, and a ratio
    ``rhs / a`` within a row needs no denominator at all.  A row update, its
    gcd and the bit guard cost O(nonzeros), and the ratio test reads one
    entry per row.  Rationals are built only for reported values.
    """

    def _row(self, entries, rhs) -> _IntegerRow:
        """The integer row of ``entries`` (nonzero ``(column, rational)``) and ``rhs``."""
        if rhs:
            entries = entries + [(self.width, rhs)]
        dens = [int(v.denominator) for _, v in entries]
        den = lcm(*dens)
        return _IntegerRow(
            {k: int(v.numerator) * (den // d) for (k, v), d in zip(entries, dens)}, den
        )

    def value(self, row, k):
        return _ratio(row.nums.get(k, 0), row.den)

    def first_column(self, row, limit: int, negative: bool = False) -> int:
        first = limit
        for k, v in row.nums.items():
            if k < first and (v < 0 or not negative):
                first = k
        return first if first < limit else -1

    def objective_row(self, cost):
        """Reduced costs for the given per-column cost vector (basis-aware)."""
        z_row = self._row([(j, c) for j, c in enumerate(cost) if c], 0)
        for i, row in enumerate(self.matrix):
            cb = cost[self.basis[i]]
            if cb:
                # z/dz - (p/q)(r/d) = (q d z - p dz r) / (q d dz)
                p, q = int(cb.numerator), int(cb.denominator)
                _combine(z_row, q * row.den, p * z_row.den, list(row.nums.items()))
        return z_row

    def _least_ratio_rows(self, enter: int) -> list:
        w = self.width
        ties = []
        for i, row in enumerate(self.matrix):
            nums = row.nums
            a = nums.get(enter, 0)
            if a > 0:
                rhs = nums.get(w, 0)
                if not ties:
                    ties = [i]
                    best_rhs, best_a = rhs, a
                    continue
                # rhs / a against the best, with both denominators positive
                cross = rhs * best_a - best_rhs * a
                if cross < 0:
                    ties = [i]
                    best_rhs, best_a = rhs, a
                elif cross == 0:
                    ties.append(i)
        return ties

    def _eliminate(self, i: int, j: int, z_row) -> None:
        matrix = self.matrix
        row = matrix[i]
        nums = row.nums
        a = nums[j]
        # divided by its entry a/den, the pivot row is nums / a
        if a < 0:
            nums = {k: -v for k, v in nums.items()}
            a = -a
        g = gcd(a, *nums.values())
        if g != 1:
            nums = {k: v // g for k, v in nums.items()}
            a //= g
        row.nums, row.den = nums, a
        source = list(nums.items())
        for other in matrix:
            if other is not row:
                f = other.nums.get(j)
                if f:
                    _combine(other, a, f, source)
        f = z_row.nums.get(j)
        if f:
            _combine(z_row, a, f, source)

    def _capacity_guard(self) -> None:
        # the bits of a row's numerators and its denominator bound those of
        # every entry in lowest terms
        worst = 0
        for row in self.matrix:
            nums = row.nums.values()
            size = max(row.den, max(nums, default=0), -min(nums, default=0)).bit_length()
            if size > worst:
                worst = size
        if worst > _BIT_GUARD:
            raise CapacityError(
                f"lp: exact tableau coefficients reached {worst} bits after "
                f"{self.pivots} pivots on a {self.size()} tableau; "
                "the instance is too ill-conditioned for rational mode"
            )


def _combine(target: _IntegerRow, scale, f, source) -> None:
    """``target <- scale * target - f * source`` on integer rows, in lowest terms.

    ``source`` holds the ``(column, numerator)`` pairs of another row; its
    denominator takes no part, and the denominator of ``target`` becomes
    ``scale`` times its own.  An entry that cancels to 0 is deleted.
    """
    h = gcd(scale, f)  # a common factor of both leaves the value as it is
    if h != 1:
        scale //= h
        f //= h
    nums = target.nums
    if scale != 1:
        nums = {k: scale * v for k, v in nums.items()}
    for k, v in source:
        if k in nums:
            v = nums[k] - f * v
            if v:
                nums[k] = v
            else:
                del nums[k]
        else:
            nums[k] = -f * v
    den = target.den * scale
    g = gcd(den, *nums.values())
    if g != 1:
        nums = {k: v // g for k, v in nums.items()}
        den //= g
    target.nums, target.den = nums, den


def solve(lp: LinearProgram, ops: ModeOps = RATIONAL_OPS) -> LPOutcome:
    """Solve a linear program, returning an outcome with its certificate."""
    minimise = lp.sense == "min"
    c_work = [ops.convert(v) if minimise else -ops.convert(v) for v in lp.objective]
    cols, shifts, rows_z = _standardise(lp, ops)
    nz = len(cols)
    zero = ops.zero
    tol = ops.feas_tol
    m = len(rows_z)

    c_z = [zero] * nz
    for cidx, (var, mult) in enumerate(cols):
        c_z[cidx] = c_z[cidx] + c_work[var] * mult

    tab = _Tableau(rows_z, nz, ops)
    # the cap counts an artificial for every row, as the standard form has
    max_pivots = 20000 + 200 * (m + tab.art_start + m)

    phase1_cost = [zero] * tab.width
    for k in range(tab.art_start, tab.width):
        phase1_cost[k] = ops.one
    z_row = tab.objective_row(phase1_cost)
    unbounded_col = tab.run(z_row, tab.art_start, max_pivots)
    assert unbounded_col is None  # phase 1 is bounded below by zero
    residue = -tab.value(z_row, tab.width)
    if residue > (tol * m if tol else zero):
        duals = tab.duals(z_row, phase1_cost)
        certificate = tuple(duals[i] for i in range(m))
        return Infeasible(certificate, tab.pivots)

    _drive_out_artificials(tab, z_row)

    phase2_cost = [zero] * tab.width
    for cidx in range(nz):
        phase2_cost[cidx] = c_z[cidx]
    z_row = tab.objective_row(phase2_cost)
    unbounded_col = tab.run(z_row, tab.art_start, max_pivots)

    if unbounded_col is not None:
        z = tab.z_values()
        ray_z = [zero] * nz
        if unbounded_col < nz:
            ray_z[unbounded_col] = ops.one
        for i, b in enumerate(tab.basis):
            if b < nz:
                ray_z[b] = ray_z[b] - tab.value(tab.matrix[i], unbounded_col)
        point = _recover_x(cols, shifts, z)
        ray = _recover_x(cols, [zero] * lp.n_vars, ray_z)
        return Unbounded(point, ray, tab.pivots)

    z = tab.z_values()
    x = _recover_x(cols, shifts, z)
    value = sum((ops.convert(ci) * xi for ci, xi in zip(lp.objective, x)), zero)
    duals = tab.duals(z_row, phase2_cost)
    n_user = len(lp.rows)
    y = [zero] * n_user
    for i in range(m):
        if i < n_user and i in duals:
            y[i] = duals[i] if minimise else -duals[i]
    return Optimal(x, tuple(y), value, tab.pivots)


def _drive_out_artificials(tab: _Tableau, z_row) -> None:
    """Pivot basic artificials onto structural columns; drop redundant rows."""
    drop = []
    for i in range(len(tab.matrix)):
        if tab.basis[i] < tab.art_start:
            continue
        pivot_col = tab.first_column(tab.matrix[i], tab.art_start)
        if pivot_col >= 0:
            tab.pivot(i, pivot_col, z_row)
        else:
            drop.append(i)
    if drop:
        keep = [i for i in range(len(tab.matrix)) if i not in drop]
        tab.matrix = [tab.matrix[i] for i in keep]
        tab.basis = [tab.basis[i] for i in keep]
        tab.row_ids = [tab.row_ids[i] for i in keep]


# ---------------------------------------------------------------------------
# verification


def _bound_sides(bnd):
    if bnd == "free":
        return None, None
    if bnd == "nonneg":
        return 0, None
    return bnd


def verify_certificate(
    lp: LinearProgram, outcome: LPOutcome, ops: ModeOps = RATIONAL_OPS
) -> bool:
    """Check an outcome's certificate against the program data.

    Performs only direct arithmetic on ``lp``; nothing the solver computed
    is taken on trust.  Tolerances follow the numeric mode (exact when
    rational).
    """
    if isinstance(outcome, Optimal):
        return _verify_optimal(lp, outcome, ops)
    if isinstance(outcome, Infeasible):
        return _verify_infeasible(lp, outcome, ops)
    if isinstance(outcome, Unbounded):
        return _verify_unbounded(lp, outcome, ops)
    return False


def _scaled(coeffs, rhs, ops: ModeOps):
    """A dense row as ``(index, nums, den)``: entry ``index[k]`` is ``nums[k] / den``,
    every other entry is 0, and the right-hand side is ``nums[-1] / den``."""
    index = [j for j, c in enumerate(coeffs) if c]
    nums, den = ops.over_common([coeffs[j] for j in index] + [rhs])
    return index, nums, den


def _dot(index, nums, v):
    return sum([a * v[j] for j, a in zip(index, nums)])


def _weighted_sum(rows, weights, width: int):
    """``sum_i weights[i] * row_i`` as ``(columns, rhs, den)``: numerators over
    ``den``, the lcm of the denominators of the rows taking part, times the
    weights' denominator."""
    den = lcm(*(row[2] for w, row in zip(weights, rows) if w))
    columns = [0] * width
    rhs_sum = 0
    for w, (index, nums, d) in zip(weights, rows):
        if w:
            w = w * (den // d)
            for j, a in zip(index, nums):
                columns[j] = columns[j] + w * a
            rhs_sum = rhs_sum + w * nums[-1]
    return columns, rhs_sum, den


def _feasible(lp: LinearProgram, rows, point, ops: ModeOps, tol):
    """``(nums, bounds, den, lhs)`` if ``point`` is feasible, else None.

    ``point[j]`` is ``nums[j] / den``, ``bounds[j]`` holds the ``(low, high)``
    numerators over ``den`` (None for a missing side), and row ``i``, over
    ``d``, has left-hand side ``lhs[i] / (d * den)``.
    """
    sides = [_bound_sides(bnd) for bnd in lp.bounds]
    nums, den = ops.over_common(list(point) + [v for pair in sides for v in pair if v is not None])
    it = iter(nums[len(point) :])
    bounds = [(a if a is None else next(it), b if b is None else next(it)) for a, b in sides]
    nums, x_tol = nums[: len(point)], tol * den
    lhs = [_dot(index, row, nums) for index, row, _ in rows]
    for value, (_, row, d), (_, rel, _) in zip(lhs, rows, lp.rows):
        rhs, slack = row[-1] * den, tol * d * den
        if rel == "==" and not ops.eq(value, rhs, slack):
            return None
        if rel == "<=" and not value <= rhs + slack:
            return None
        if rel == ">=" and not value >= rhs - slack:
            return None
    for xj, (lo, hi) in zip(nums, bounds):
        if (lo is not None and xj < lo - x_tol) or (hi is not None and xj > hi + x_tol):
            return None
    return nums, bounds, den, lhs


def _verify_optimal(lp: LinearProgram, outcome: Optimal, ops: ModeOps) -> bool:
    tol = ops.dual_tol
    if len(outcome.x) != lp.n_vars or len(outcome.y) != len(lp.rows):
        return False
    rows = [_scaled(coeffs, rhs, ops) for coeffs, _, rhs in lp.rows]
    point = _feasible(lp, rows, outcome.x, ops, tol)
    if point is None:
        return False
    x, bounds, dx, lhs = point
    # the objective, checked as the row c . x == value
    index, c, dc = _scaled(lp.objective, outcome.value, ops)
    if not ops.eq(_dot(index, c, x), c[-1] * dx, tol * dc * dx):
        return False

    sign = 1 if lp.sense == "min" else -1
    y, dy = ops.over_common(outcome.y)
    y_tol = tol * dy
    for yi, row_lhs, (_, row, d), (_, rel, _) in zip(y, lhs, rows, lp.rows):
        if (rel == ">=" and sign * yi < -y_tol) or (rel == "<=" and sign * yi > y_tol):
            return False
        if not ops.eq(yi, 0, y_tol) and not ops.eq(row_lhs, row[-1] * dx, tol * d * dx):
            return False

    # reduced costs c - y^T A, as numerators over dc * dy * den
    ya, _, den = _weighted_sum(rows, y, lp.n_vars)
    c = dict(zip(index, c))
    r_tol = tol * dc * dy * den
    for j, (lo, hi) in enumerate(bounds):
        r = sign * (c.get(j, 0) * dy * den - ya[j] * dc)
        at_lo = lo is not None and ops.eq(x[j], lo, tol * dx)
        at_hi = hi is not None and ops.eq(x[j], hi, tol * dx)
        if at_lo and at_hi:
            continue  # pinned variable: any reduced cost is consistent
        if (at_lo and r < -r_tol) or (at_hi and r > r_tol):
            return False
        if not at_lo and not at_hi and not ops.eq(r, 0, r_tol):
            return False
    return True


def _verify_infeasible(lp: LinearProgram, outcome: Infeasible, ops: ModeOps) -> bool:
    tol = ops.dual_tol
    cols, _, rows_z = _standardise(lp, ops)
    if len(outcome.certificate) != len(rows_z):
        return False
    y, dy = ops.over_common(outcome.certificate)
    for yi, (_, rel, _) in zip(y, rows_z):
        if (rel == ">=" and yi < -tol * dy) or (rel == "<=" and yi > tol * dy):
            return False
    rows = [([k for k, _ in r], *ops.over_common([v for _, v in r] + [b])) for r, _, b in rows_z]
    combo, money, den = _weighted_sum(rows, y, len(cols))
    slack = tol * dy * den
    return not any(v > slack for v in combo) and money > slack


def _verify_unbounded(lp: LinearProgram, outcome: Unbounded, ops: ModeOps) -> bool:
    tol = ops.dual_tol
    if len(outcome.point) != lp.n_vars or len(outcome.ray) != lp.n_vars:
        return False
    rows = [_scaled(coeffs, rhs, ops) for coeffs, _, rhs in lp.rows]
    if _feasible(lp, rows, outcome.point, ops, tol) is None:
        return False
    d, dd = ops.over_common(outcome.ray)
    for (index, row, den), (_, rel, _) in zip(rows, lp.rows):
        move, slack = _dot(index, row, d), tol * den * dd
        if rel == "==" and not ops.eq(move, 0, slack):
            return False
        if rel == "<=" and move > slack:
            return False
        if rel == ">=" and move < -slack:
            return False
    for dj, bnd in zip(d, lp.bounds):
        lo, hi = _bound_sides(bnd)
        if (lo is not None and dj < -tol * dd) or (hi is not None and dj > tol * dd):
            return False
    index, c, dc = _scaled(lp.objective, 0, ops)
    gain = _dot(index, c, d)
    return (gain if lp.sense == "min" else -gain) < -tol * dc * dd


def solve_checked(lp: LinearProgram, ops: ModeOps = RATIONAL_OPS) -> LPOutcome:
    """Solve and insist the certificate verifies; used by the model layer."""
    outcome = solve(lp, ops)
    if not verify_certificate(lp, outcome, ops):
        raise InternalCheckError(
            f"lp: the {type(outcome).__name__} certificate failed verification "
            f"on a {len(lp.rows)} x {lp.n_vars} program (rows x variables)"
        )
    return outcome


__all__ = [
    "LinearProgram",
    "Optimal",
    "Infeasible",
    "Unbounded",
    "LPOutcome",
    "solve",
    "solve_checked",
    "verify_certificate",
]
