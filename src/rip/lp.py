"""A small, deterministic linear-programming kernel with checkable output.

The solver is a two-phase primal simplex on a full tableau using Bland's
rule (lowest eligible index enters; ties in the ratio test go to the lowest
basic index), so it terminates on every input and never makes a
data-dependent random choice: the same program yields the same outcome
object, pivot for pivot.  In rational mode the tableau is fraction-free
(Edmonds 1967; Bareiss 1968) and sparse: each row, the reduced-cost row
included, holds only its nonzero integer numerators, keyed by column, over
one positive integer denominator; an update keeps the row's common factor,
which the bit guard divides out of every row every ``_GUARD_EVERY`` pivots.
A pivot builds no rational number, and its cost follows the nonzeros of the
rows it touches, not the tableau's width: the ratio test collects the rows
that hold the entering column as it scans them, and the elimination updates
only those, so a pivot passes over the rows once.  The set-up and the
read-out are integer too.  Each program is put over integers once per mode
(:func:`_form`, kept on the program): every row over one denominator, and
the objective over another.  The tableau is built from that form in one
pass, each row's numerators copied into a row of its own with the row's
sign applied, and phase 2 takes its cost from it.  Each phase's
reduced-cost row is summed in one pass over the lcm of the basic rows'
denominators and reduced by one gcd, so the set-up is linear in the
nonzeros.  Each reported number, the optimum included, is one quotient of
integers: an exact optimum is minus the right-hand side of the final
reduced-cost row, negated again for ``max``.  So exact rationals are built
only for what the solver reports; the reported values, certificates, and
infeasibility witnesses are exact.  In float mode the rows are stored the
same way, as floats over a denominator of 1, and an update that cancels an
entry down to round-off (at most ``_DROP`` of its old magnitude) deletes
it, so that round-off does not fill the tableau; the reduced-cost row
cancels the basic rows from the costs one at a time, in row order, and the
optimum is the objective's products with the point, added left to right.

A variable is ``"free"`` or ``"nonneg"`` (:data:`BOUNDS`); any other bound
on it is written as a row.  Each variable gets one tableau column, which a
free variable may enter in either direction.  The textbook standard form
splits a free variable into ``x+ - x-`` on two nonnegative columns, and in
every tableau of that form the ``x-`` column is the negation of ``x+``,
since ``B^-1 (-a) = -B^-1 a`` for any basis ``B``.  So the tableau here is
the split one with each ``x-`` column deleted: a free column whose reduced
cost is positive enters with orientation ``s = -1``, as ``x-`` would, and
the ratio test and the elimination read ``s`` times its entries.  ``x+`` and
``x-`` are adjacent in the split order, so Bland's rule and the ratio test's
tie-break choose as on the split tableau, pivot for pivot.  A basic
variable's orientation is the sign of its row's entry in its own column.
Float negation is exact and rounding is symmetric in sign, so the float
tableau mirrors too.

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
  pattern of reduced costs against each variable's sign constraint.
* ``Infeasible`` holds one Farkas multiplier per row; verification forms
  the Farkas conditions from the program's own rows and sign constraints.
* ``Unbounded`` holds a feasible point and an improving ray.

The checks run on integers.  They read the program's own integer form, the
one the tableau was built from: immutable ints, which the tableau copied
into rows of its own, so no tableau row or solver state reaches them.  The
point, the duals, the Farkas vector, the ray and the reported value are each
put over one positive denominator of their own; comparisons cross-multiply
these denominators, and tolerances are scaled by them, so each test is the
exact one.  In float mode every denominator is 1 and the same code does
plain float arithmetic.  A program's rows hold only their nonzeros, so no
zero is scanned or converted.

Relations are ``"<="``, ``">="``, ``"=="``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from operator import truediv
from typing import Any, Optional, Union

from ._numeric import FLOAT, ModeOps, RATIONAL_OPS
from .errors import CapacityError, InternalCheckError, PreconditionError

RELATIONS = ("<=", ">=", "==")
SENSES = ("min", "max")
BOUNDS = ("free", "nonneg")

_BIT_GUARD = 4_000_000  # max numerator/denominator bits of a row in lowest terms
_GUARD_EVERY = 64  # pivots between two guards, each of which reduces every row
# a float tableau entry that an update leaves at no more than this share of
# its old magnitude is round-off from a cancellation, and is deleted
_DROP = 2.0**-40


@dataclass(frozen=True)
class LinearProgram:
    """``sense`` the objective ``c`` subject to rows ``a . x rel b``.

    ``objective`` is dense.  A row is ``(nonzeros, relation, rhs)``, its nonzero
    ``(column, coefficient)`` pairs at strictly increasing columns; see :meth:`build`."""

    sense: str
    objective: tuple
    rows: tuple  # of (((column, coeff), ...), relation, rhs)
    bounds: tuple  # one of BOUNDS per variable
    # the integer form of each numeric mode, built by _form on first use
    _forms: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.sense not in SENSES:
            raise PreconditionError(f"sense must be one of {SENSES}")
        n = len(self.objective)
        if len(self.bounds) != n:
            raise PreconditionError("one bound spec per variable")
        for b in self.bounds:
            if b not in BOUNDS:
                raise PreconditionError(f"bad bound spec {b!r}: each must be one of {BOUNDS}")
        for nonzeros, rel, _ in self.rows:
            last = -1
            for j, _ in nonzeros:
                if not last < j < n:
                    raise PreconditionError(f"row columns must increase within 0..{n - 1}")
                last = j
            if rel not in RELATIONS:
                raise PreconditionError(f"relation must be one of {RELATIONS}")

    @classmethod
    def build(cls, sense: str, objective, rows, bounds) -> "LinearProgram":
        """A program from dense rows ``(coeffs, relation, rhs)``, numeric zeros
        dropped; text such as ``"0"`` is left to the tableau, which drops it."""
        n = len(objective)
        sparse = []
        for coeffs, rel, rhs in rows:
            if len(coeffs) != n:
                raise PreconditionError("row length does not match the objective")
            sparse.append((tuple((j, c) for j, c in enumerate(coeffs) if c), rel, rhs))
        return cls(sense, tuple(objective), tuple(sparse), tuple(bounds))

    @property
    def n_vars(self) -> int:
        return len(self.objective)


def _form(lp: LinearProgram, ops: ModeOps) -> tuple:
    """The program over integers in ``ops``' mode, as ``(rows, objective)``.

    Row ``r`` is ``(index, nums, den)``: entry ``index[k]`` is ``nums[k] / den``,
    every other entry is 0, and the right-hand side is ``nums[-1] / den``, as
    :meth:`ModeOps.over_common` puts the row's nonzeros and right-hand side.
    The objective is ``(nums, den)``, dense.  All are tuples, the numerators
    ints, or floats over 1 in float mode.  Built on first use and kept on the
    program, one per mode; the tableau copies the numerators into rows of
    its own and the checks only read them.
    """
    form = lp._forms.get(ops.mode)
    if form is None:
        rows = []
        for nonzeros, _, rhs in lp.rows:
            values = [c for _, c in nonzeros]
            values.append(rhs)
            nums, den = ops.over_common(values)
            rows.append((tuple([j for j, _ in nonzeros]), tuple(nums), den))
        nums, den = ops.over_common(lp.objective)
        form = lp._forms[ops.mode] = (tuple(rows), (tuple(nums), den))
    return form


@dataclass(frozen=True)
class Optimal:
    x: tuple
    y: tuple  # one dual per original row
    value: Any
    pivots: int = 0


@dataclass(frozen=True)
class Infeasible:
    certificate: tuple  # one Farkas multiplier per row
    pivots: int = 0


@dataclass(frozen=True)
class Unbounded:
    point: tuple  # a feasible point
    ray: tuple  # an improving feasible direction
    pivots: int = 0


LPOutcome = Union[Optimal, Infeasible, Unbounded]


# ---------------------------------------------------------------------------
# the simplex engine


def _recover_x(tab: "_Tableau", z: dict) -> tuple:
    """``x[j] = z[j]``, ``z[j]`` given as ``(numerator, denominator)`` and 0
    where ``z`` has no entry: one quotient, of ``0 + numerator`` as
    ``0 + z[j]`` has it, so that float ``-0.0`` becomes ``0.0``."""
    x = [tab.ops.zero] * tab.nz
    for j, (n, d) in z.items():
        x[j] = tab.ratio(tab.ZERO + n, d)
    return tuple(x)


class _Row:
    """One sparse tableau row: nonzero numerators over one denominator.

    ``nums`` maps a column, or ``width`` for the right-hand side, to its
    numerator and holds no zero; ``den`` is positive.  Entry ``k`` stands
    for ``nums.get(k, 0) / den``.  Integer rows hold ints; float rows hold
    floats over a denominator of 1.
    """

    __slots__ = ("nums", "den")

    def __init__(self, nums: dict, den):
        self.nums = nums
        self.den = den


class _Tableau:
    """The simplex tableau: bookkeeping and Bland's rule for both modes.

    The constructor reads the program in one pass.  Variable ``j`` is
    column ``j``; the columns in ``free`` have no sign constraint, and the
    others are ``x[j] >= 0``.  Each program row is copied from the
    program's integer form (:func:`_form`), a nonzero that converts to 0
    (text such as ``"0"``) dropped, and is negated where that makes its
    right-hand side nonnegative (``sigma[r] = -1``).

    Row ``i`` is a :class:`_Row` over columns ``0..width-1`` with its
    right-hand side as column ``width``; its basic column is ``basis[i]``
    and it came from program row ``row_ids[i]``.  Columns are the ``nz``
    structural ones, one per variable, then one slack per inequality row,
    then, from ``art_start`` on, one artificial per row without a slack
    start, in row order.  ``start[r]`` is the column program row ``r``
    starts on.  The structural columns in ``free`` may enter with
    orientation ``s = -1``: a pivot then divides the row by ``s`` times its
    entry and eliminates ``s`` times the other rows' entries, which is the
    pivot on the deleted ``x-`` column of the split form.  ``orientation(i)``
    reads the sign back off row ``i``'s entry in its basic column, which is
    ``s`` there; the reduced costs, the basic values and the unbounded ray
    apply it.
    The mode picks the arithmetic: constructing a ``_Tableau`` gives an
    :class:`_IntegerTableau` in rational mode and a :class:`_FloatTableau`
    in float mode.  Each has its own zero and one numerators (``ZERO``,
    ``ONE``), builds the reported number ``n / d`` (``ratio``), builds the
    reduced-cost row of a cost vector (``objective_row``) and does the ratio
    test and the elimination in its own arithmetic.  The ratio test returns
    the tied rows and, from the same scan, the rows that hold the entering
    column, in row order; the elimination updates only those.  The rows'
    entries and start columns, ``first_column``, the pivot rule, the pivot
    count and its cap, and the read-out of values and duals live here and
    serve both.
    """

    def __new__(cls, lp: LinearProgram, ops: ModeOps):
        if cls is _Tableau:
            cls = _FloatTableau if ops.mode == FLOAT else _IntegerTableau
        return super().__new__(cls)

    def __init__(self, lp: LinearProgram, ops: ModeOps):
        self.ops = ops
        nz = len(lp.bounds)
        self.nz = nz
        self.free = frozenset(j for j, bnd in enumerate(lp.bounds) if bnd == "free")
        self.art_start = nz + sum(rel != "==" for _, rel, _ in lp.rows)
        self.sigma = []
        self.start = []
        self.matrix = []
        self.pivots = 0

        one = self.ONE
        rhs_nums = []
        slack, art = nz, self.art_start
        for (index, nums, den), (_, rel, _) in zip(_form(lp, ops)[0], lp.rows):
            rhs = nums[-1]
            # make the right-hand side nonnegative; an inequality whose
            # right-hand side is zero takes the sign that puts +1 on its slack
            flip = rhs < 0 or (rel == ">=" and not rhs)
            sigma = -1 if flip else 1
            # zip stops at the index, before the right-hand side
            entries = {j: -v if flip else v for j, v in zip(index, nums) if v}
            den = den * one  # a float row's 1 is the float 1.0
            start = art
            if rel != "==":
                slack_starts = (rel == "<=") != flip  # feasible at the right-hand side
                entries[slack] = den if slack_starts else -den
                if slack_starts:
                    start = slack
                slack += 1
            if start == art:
                entries[art] = den
                art += 1
            self.sigma.append(sigma)
            self.start.append(start)
            self.matrix.append(_Row(entries, den))
            rhs_nums.append(-rhs if flip else rhs)
        self.width = art
        for row, rhs in zip(self.matrix, rhs_nums):
            if rhs:
                row.nums[art] = rhs
        self.basis = list(self.start)
        self.row_ids = list(range(len(self.matrix)))  # program row per tableau row

    def first_column(self, row, limit: int, negative: bool = False) -> int:
        """The lowest column below ``limit`` whose entry is nonzero past the
        feasibility tolerance, or with ``negative``, negative past it or, on
        a free column, positive past it; -1 if there is none."""
        high = self.ops.feas_tol
        low = -high
        free = self.free
        first = limit
        for k, v in row.nums.items():
            if k < first and (v < low or (v > high and (not negative or k in free))):
                first = k
        return first if first < limit else -1

    def orientation(self, i: int) -> int:
        """The sign of row ``i``'s entry in its basic column: -1 where a free
        variable entered as the negation of its column."""
        return -1 if self.matrix[i].nums[self.basis[i]] < 0 else 1

    def pivot(self, i: int, j: int, z_row, s: int, rows: list) -> None:
        """Pivot column ``j``, taken with orientation ``s``, into row ``i``;
        ``rows`` are the :class:`_Row` objects that hold column ``j``, row
        ``i`` among them, and the only ones the elimination updates."""
        self._eliminate(i, j, z_row, s, rows)
        self.basis[i] = j
        self.pivots += 1
        if self.pivots % _GUARD_EVERY == 0:
            self._capacity_guard(z_row)

    def _capacity_guard(self, z_row) -> None:
        """Float rows cannot grow; the integer tableau reduces and measures its rows."""

    def size(self) -> str:
        return f"{len(self.matrix)} x {self.width}"

    def run(self, z_row, allowed_width: int, max_pivots: int) -> Optional[tuple]:
        """Pivot until optimal (returns None) or unbounded (returns the
        column and its orientation)."""
        basis = self.basis
        while True:
            # Bland's rule: the lowest column with an improving reduced cost
            # enters, and ties in the ratio test go to the lowest basic index
            enter = self.first_column(z_row, allowed_width, negative=True)
            if enter < 0:
                return None
            s = 1 if z_row.nums[enter] < 0 else -1
            ties, rows = self._least_ratio_rows(enter, s)
            leave = -1
            for i in ties:
                if leave < 0 or basis[i] < basis[leave]:
                    leave = i
            if leave < 0:
                return enter, s
            self.pivot(leave, enter, z_row, s, rows)
            if self.pivots > max_pivots:
                raise CapacityError(
                    f"lp: simplex stopped after {self.pivots} pivots, over its cap "
                    f"of {max_pivots}, on a {self.size()} tableau"
                )

    def column(self, k, s: int = 1) -> dict:
        """``{basic structural column: (numerator, den)}`` of ``s`` times entry
        ``k`` of its row, oriented; ``k = width`` gives the basic values."""
        zero = self.ZERO
        out = {}
        for i, b in enumerate(self.basis):
            if b < self.nz:
                row = self.matrix[i]
                out[b] = (s * self.orientation(i) * row.nums.get(k, zero), row.den)
        return out

    def duals(self, z_row: _Row, cost: dict, den, sign: int = 1) -> dict:
        """``sign`` times the duals of the program's rows, read off
        the start columns' reduced costs ``r / dz`` for the costs of
        :meth:`objective_row`: ``sigma * (cost / den - r / dz)``, one quotient.

        A slack start's column equals the artificial its row would otherwise
        have, so one rule serves both kinds of start, in both phases.
        """
        zero = self.ZERO
        nums, dz = z_row.nums, z_row.den
        y = {}
        for rid in self.row_ids:
            col = self.start[rid]
            n = cost.get(col, zero) * dz - nums.get(col, zero) * den
            y[rid] = self.ratio(sign * self.sigma[rid] * n, den * dz)
        return y


class _FloatTableau(_Tableau):
    """Sparse float rows over a denominator of 1; the pivot divides by its entry.

    An update that cancels an entry to within ``_DROP`` of its old
    magnitude leaves only round-off, and the entry is deleted, exact zeros
    included.  Kept, round-off fills the rows: the last tableau of the
    729-path trinomial hedge is 9.8 % nonzero with it and 0.9 % without,
    and its solve is several times slower.
    """

    ZERO, ONE = 0.0, 1.0
    ratio = staticmethod(truediv)

    def objective_row(self, cost: dict, den) -> _Row:
        """Reduced costs (basis-aware) for the float costs ``cost[k]`` on
        columns ``k`` and 0 elsewhere, ``den`` being 1: each basic row with a
        cost is cancelled from the row in turn, in row order."""
        z_row = _Row(dict(cost), den)
        for i, b in enumerate(self.basis):
            cb = cost.get(b)
            if cb:
                _cancel(z_row.nums, cb * self.orientation(i), self.matrix[i].nums.items())
        return z_row

    def _least_ratio_rows(self, enter: int, s: int) -> tuple:
        tol = self.ops.feas_tol
        w = self.width
        ties = []
        rows = []
        best = None
        for i, row in enumerate(self.matrix):
            nums = row.nums
            if enter not in nums:
                continue
            rows.append(row)
            a = s * nums[enter]
            if a > tol:
                ratio = nums.get(w, 0.0) / a
                if best is None or ratio < best:
                    best = ratio
                    ties = [i]
                elif ratio == best:
                    ties.append(i)
        return ties, rows

    def _eliminate(self, i: int, j: int, z_row, s: int, rows: list) -> None:
        row = self.matrix[i]
        inv = 1 / (s * row.nums[j])
        row.nums = {k: v * inv for k, v in row.nums.items()}
        source = list(row.nums.items())
        for other in rows:
            if other is not row:
                nums = other.nums
                _cancel(nums, s * nums[j], source)
        nums = z_row.nums
        if j in nums:
            _cancel(nums, s * nums[j], source)


def _cancel(nums: dict, f: float, source) -> None:
    """``nums <- nums - f * source`` on float entries, dropping round-off.

    ``source`` holds ``(column, value)`` pairs.  An entry whose new value is
    at most ``_DROP`` times its old one in magnitude is deleted; an entry
    that was absent is stored however small it is, since no cancellation
    made it.
    """
    high = _DROP
    low = -high
    for k, v in source:
        old = nums.get(k)
        if old is None:
            nums[k] = -f * v
        else:
            new = old - f * v
            if low <= new / old <= high:
                del nums[k]
            else:
                nums[k] = new


class _IntegerTableau(_Tableau):
    """Fraction-free sparse rows: integer numerators over one denominator.

    Updates keep a row's common factor; the pivot row is put in lowest terms,
    and every row, the reduced-cost row included, at the bit guard.  No read
    needs lowest terms: denominators are positive, so an entry's sign, all
    that Bland's rule and the phase-1 test read, is its numerator's; a ratio
    ``rhs / a`` within a row needs no denominator; and each reported number
    is one ``Fraction``.  A row update and the bit guard cost O(nonzeros),
    and the ratio test reads one entry per row.  The reduced-cost row of a
    phase is built in one pass over the lcm of the basic rows' denominators.
    """

    ZERO, ONE = 0, 1
    ratio = Fraction

    def objective_row(self, cost: dict, den) -> _Row:
        """Reduced costs (basis-aware) for ``cost[k] / den`` on columns ``k``
        and 0 elsewhere, ``den`` a positive int, in one pass over one lcm.

        With ``c_i`` the oriented cost of the basic row ``r_i / d_i`` and
        ``L`` the lcm of those ``d_i``, the row is ``(L cost - sum_i c_i
        (L / d_i) r_i) / (L den)``: each source entry is read once, an entry
        that cancels is deleted, and one gcd ends it in lowest terms.  Its
        values are those of subtracting the basic rows one at a time, which
        need not be in lowest terms.  With no basic row to subtract, ``cost``
        and ``den`` are taken as they are.
        """
        basic = []
        for i, b in enumerate(self.basis):
            cb = cost.get(b)
            if cb:
                basic.append((cb * self.orientation(i), self.matrix[i]))
        if not basic:
            return _Row(dict(cost), den)
        big = lcm(*(row.den for _, row in basic))
        nums = {k: v * big for k, v in cost.items()} if big != 1 else dict(cost)
        for c, row in basic:
            f = c * (big // row.den)
            for k, v in row.nums.items():
                old = nums.get(k)
                if old is None:
                    nums[k] = -f * v
                else:
                    v = old - f * v
                    if v:
                        nums[k] = v
                    else:
                        del nums[k]
        z_row = _Row(nums, den * big)
        _lowest_terms(z_row)
        return z_row

    def _least_ratio_rows(self, enter: int, s: int) -> tuple:
        w = self.width
        ties = []
        rows = []
        for i, row in enumerate(self.matrix):
            nums = row.nums
            if enter not in nums:
                continue
            rows.append(row)
            a = s * nums[enter]
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
        return ties, rows

    def _eliminate(self, i: int, j: int, z_row, s: int, rows: list) -> None:
        row = self.matrix[i]
        nums = row.nums
        a = nums[j]
        # divided by its oriented entry s*a/den, the pivot row is nums / (s*a)
        if s * a < 0:
            nums = {k: -v for k, v in nums.items()}
        row.nums, row.den = nums, abs(a)
        _lowest_terms(row)
        a = row.den
        source = list(row.nums.items())
        for other in rows:
            if other is not row:
                _combine(other, a, s * other.nums[j], source)
        f = z_row.nums.get(j)
        if f:
            _combine(z_row, a, s * f, source)

    def _capacity_guard(self, z_row) -> None:
        # the updates leave rows unreduced; in lowest terms, the bits of a
        # row's numerators and its denominator bound those of every entry
        _lowest_terms(z_row)
        worst = 0
        for row in self.matrix:
            _lowest_terms(row)
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


def _lowest_terms(row: _Row) -> None:
    """Divide an integer row's numerators and denominator by their gcd."""
    g = gcd(row.den, *row.nums.values())
    if g != 1:
        row.nums = {k: v // g for k, v in row.nums.items()}
        row.den //= g


def _combine(target: _Row, scale, f, source) -> None:
    """``target <- scale * target - f * source`` on integer rows.

    ``source`` holds the ``(column, numerator)`` pairs of another row; its
    denominator takes no part, and the denominator of ``target`` becomes
    ``scale`` times its own.  An entry that cancels to 0 is deleted, and the
    row's common factor is left to the bit guard.
    """
    h = gcd(scale, f)  # a common factor of both leaves the value as it is
    if h != 1:
        scale //= h
        f //= h
    nums = target.nums
    if scale != 1:
        nums = {k: scale * v for k, v in nums.items()}
    for k, v in source:
        old = nums.get(k)
        if old is None:
            nums[k] = -f * v
        else:
            v = old - f * v
            if v:
                nums[k] = v
            else:
                del nums[k]
    target.nums, target.den = nums, target.den * scale


def solve(lp: LinearProgram, ops: ModeOps = RATIONAL_OPS) -> LPOutcome:
    """Solve a linear program, returning an outcome with its certificate."""
    minimise = lp.sense == "min"
    tab = _Tableau(lp, ops)
    nz = tab.nz
    m = len(tab.matrix)
    # the cap counts two columns per free variable and an artificial for
    # every row, as the split standard form has
    max_pivots = 20000 + 200 * (m + tab.art_start + len(tab.free) + m)

    phase1_cost = dict.fromkeys(range(tab.art_start, tab.width), tab.ONE)
    z_row = tab.objective_row(phase1_cost, 1)
    # phase 1 is bounded below by zero: a column it finds unbounded is float round-off
    tab.run(z_row, tab.art_start, max_pivots)
    # the artificials' sum is minus the right-hand side of the reduced costs
    if -z_row.nums.get(tab.width, tab.ZERO) > ops.feas_tol * m * z_row.den:
        duals = tab.duals(z_row, phase1_cost, 1)
        return Infeasible(tuple(duals[i] for i in range(m)), tab.pivots)

    _drive_out_artificials(tab, z_row)

    # the objective over one denominator, negated to minimise a max
    objective, den = _form(lp, ops)[1]
    cost = {j: c if minimise else -c for j, c in enumerate(objective) if c}
    z_row = tab.objective_row(cost, den)
    unbounded = tab.run(z_row, tab.art_start, max_pivots)
    x = _recover_x(tab, tab.column(tab.width))

    if unbounded is not None:
        col, s = unbounded
        ray_z = tab.column(col, -s)
        if col < nz:
            ray_z[col] = (s * tab.ONE, 1)
        return Unbounded(x, _recover_x(tab, ray_z), tab.pivots)

    if ops.mode == FLOAT:
        # the value over the objective's nonzeros, added left to right: the
        # built-in sum compensates float sums from Python 3.12 on
        value = ops.zero
        for j in cost:
            value = value + objective[j] * x[j]
    else:
        # minus the reduced costs' right-hand side is the minimised cost c_B x_B
        rhs = z_row.nums.get(tab.width, 0)
        value = tab.ratio(-rhs if minimise else rhs, z_row.den)
    duals = tab.duals(z_row, cost, den, 1 if minimise else -1)
    y = tuple(duals.get(i, ops.zero) for i in range(len(lp.rows)))
    return Optimal(x, y, value, tab.pivots)


def _drive_out_artificials(tab: _Tableau, z_row) -> None:
    """Pivot basic artificials onto structural columns; drop redundant rows."""
    for i in range(len(tab.matrix)):
        if tab.basis[i] < tab.art_start:
            continue
        pivot_col = tab.first_column(tab.matrix[i], tab.art_start)
        if pivot_col >= 0:
            # no ratio test here: one scan collects the rows to update
            rows = [row for row in tab.matrix if pivot_col in row.nums]
            tab.pivot(i, pivot_col, z_row, 1, rows)
    # a pivot moves only its own row's basis, so the rows still on an
    # artificial are those with no structural entry left: redundant
    keep = [i for i, b in enumerate(tab.basis) if b < tab.art_start]
    if len(keep) < len(tab.matrix):
        tab.matrix = [tab.matrix[i] for i in keep]
        tab.basis = [tab.basis[i] for i in keep]
        tab.row_ids = [tab.row_ids[i] for i in keep]


# ---------------------------------------------------------------------------
# verification


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


def _dot(index, nums, v):
    # added left to right, as the built-in sum does for floats only before 3.12
    total = 0
    for j, a in zip(index, nums):
        total = total + a * v[j]
    return total


def _objective_dot(c, v):
    """``c . v`` over the nonzeros of the dense ``c``, added left to right."""
    total = 0
    for j, a in enumerate(c):
        if a:
            total = total + a * v[j]
    return total


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
    """``(nums, den, lhs)`` if ``point`` is feasible, else None.

    ``point[j]`` is ``nums[j] / den``, and row ``i``, over ``d``, has
    left-hand side ``lhs[i] / (d * den)``.
    """
    nums, den = ops.over_common(point)
    x_tol = tol * den
    lhs = [_dot(index, row, nums) for index, row, _ in rows]
    for value, (_, row, d), (_, rel, _) in zip(lhs, rows, lp.rows):
        rhs, slack = row[-1] * den, tol * d * den
        if rel == "==" and not ops.eq(value, rhs, slack):
            return None
        if rel == "<=" and not value <= rhs + slack:
            return None
        if rel == ">=" and not value >= rhs - slack:
            return None
    for xj, bnd in zip(nums, lp.bounds):
        if bnd == "nonneg" and xj < -x_tol:
            return None
    return nums, den, lhs


def _verify_optimal(lp: LinearProgram, outcome: Optimal, ops: ModeOps) -> bool:
    tol = ops.dual_tol
    if len(outcome.x) != lp.n_vars or len(outcome.y) != len(lp.rows):
        return False
    rows, (c, dc) = _form(lp, ops)
    point = _feasible(lp, rows, outcome.x, ops, tol)
    if point is None:
        return False
    x, dx, lhs = point
    # c . x == value, with the value over a denominator of its own
    (value,), dv = ops.over_common([outcome.value])
    if not ops.eq(_objective_dot(c, x) * dv, value * dc * dx, tol * dc * dx * dv):
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
    r_tol = tol * dc * dy * den
    for j, bnd in enumerate(lp.bounds):
        r = sign * (c[j] * dy * den - ya[j] * dc)
        if bnd == "nonneg" and ops.eq(x[j], 0, tol * dx):
            if r < -r_tol:  # at zero, the reduced cost may not be negative
                return False
        elif not ops.eq(r, 0, r_tol):
            return False
    return True


def _verify_infeasible(lp: LinearProgram, outcome: Infeasible, ops: ModeOps) -> bool:
    """The Farkas check on the program's rows.

    With ``g = y^T A``, ``g_j <= 0`` on a nonnegative column; a free
    column has no sign, so the condition on it is that of the split ``+x``
    and ``-x`` columns together, ``g_j == 0``.  And ``y^T b`` must be
    positive.
    """
    tol = ops.dual_tol
    y, dy = ops.over_common(outcome.certificate)
    if len(y) != len(lp.rows):
        return False
    y_tol = tol * dy
    for yi, (_, rel, _) in zip(y, lp.rows):
        if (rel == ">=" and yi < -y_tol) or (rel == "<=" and yi > y_tol):
            return False
    # g_j is g[j] / (den * dy), and y^T b is money / (den * dy)
    g, money, den = _weighted_sum(_form(lp, ops)[0], y, lp.n_vars)
    slack = tol * den * dy
    for gj, bnd in zip(g, lp.bounds):
        if gj > slack or (bnd == "free" and -gj > slack):
            return False
    return money > slack


def _verify_unbounded(lp: LinearProgram, outcome: Unbounded, ops: ModeOps) -> bool:
    tol = ops.dual_tol
    if len(outcome.point) != lp.n_vars or len(outcome.ray) != lp.n_vars:
        return False
    rows, (c, dc) = _form(lp, ops)
    point = _feasible(lp, rows, outcome.point, ops, tol)
    if point is None:
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
        if bnd == "nonneg" and dj < -tol * dd:
            return False
    gain = _objective_dot(c, d)
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
