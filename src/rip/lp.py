"""A small, deterministic linear-programming kernel with checkable output.

The solver is a dense two-phase primal simplex using Bland's rule (lowest
eligible index enters; ties in the ratio test go to the lowest basic
index), so it terminates on every input and never makes a data-dependent
random choice: the same program yields the same outcome object, pivot for
pivot.  In rational mode every tableau entry is an exact rational and the
reported values, certificates, and infeasibility witnesses are exact.

Each row gets an artificial column, but an inequality row whose slack can
be basic at a nonnegative value (``<=`` with right-hand side ``>= 0``, or
``>=`` with right-hand side ``<= 0``) starts with that slack in the basis.
Phase 1 therefore runs only over the rows that have no slack start, and
ends without a pivot when every row has one.  The artificial columns stay in
the tableau either way, since the row duals are read off their reduced
costs.

Every outcome carries a certificate that :func:`verify_certificate` checks
against the problem data by direct arithmetic, without trusting anything
the solver did internally:

* ``Optimal`` holds a primal point and row duals; verification checks
  feasibility, complementary slackness, and the sign pattern of reduced
  costs against each variable's bounds.
* ``Infeasible`` holds a separating vector for the standardised system
  (original rows first, then one row per finite upper bound).
* ``Unbounded`` holds a feasible point and an improving ray.

Bounds may be ``"free"``, ``"nonneg"``, or a ``(low, high)`` pair with
``None`` for a missing side.  Relations are ``"<="``, ``">="``, ``"=="``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Sequence, Union

from ._numeric import ModeOps, RATIONAL_OPS
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
    original rows first, then one ``<=`` row per finite upper bound.  Each
    nonzero coefficient is converted once; zero entries cost nothing.
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

    nz = len(cols)
    rows_z = []
    for coeffs, rel, rhs in lp.rows:
        row = [zero] * nz
        adjust = zero
        for j, c in enumerate(coeffs):
            if not c:
                continue
            c = ops.convert(c)
            for cidx, mult in var_cols[j]:
                row[cidx] = c if mult > 0 else -c
            if shifts[j]:
                adjust = adjust + c * shifts[j]
        rows_z.append((row, rel, ops.convert(rhs) - adjust))
    for cidx, ub in box:
        row = [zero] * nz
        row[cidx] = ops.one
        rows_z.append((row, "<=", ub))
    return cols, shifts, rows_z


def _recover_x(cols, shifts, z, n_vars):
    x = list(shifts)
    for cidx, (var, mult) in enumerate(cols):
        x[var] = x[var] + mult * z[cidx]
    return tuple(x)


# ---------------------------------------------------------------------------
# the simplex engine


class _Tableau:
    def __init__(self, rows_z, nz: int, ops: ModeOps):
        self.ops = ops
        zero, one = ops.zero, ops.one
        m = len(rows_z)
        n_slack = sum(1 for _, rel, _ in rows_z if rel != "==")
        self.nz = nz
        self.n_slack = n_slack
        self.art_start = nz + n_slack
        self.width = nz + n_slack + m
        self.sigma = []
        self.matrix = []
        self.basis = []
        self.row_ids = list(range(m))  # original standardised row per tableau row
        self.pivots = 0
        self.guard_clock = 0

        slack_at = 0
        for i, (coeffs, rel, rhs) in enumerate(rows_z):
            # make the right-hand side nonnegative; an inequality whose
            # right-hand side is zero takes the sign that puts +1 on its slack
            flip = rhs < zero or (rel == ">=" and rhs == zero)
            self.sigma.append(-1 if flip else 1)
            if flip:
                row = [-v if v else v for v in coeffs]
                rhs = -rhs
            else:
                row = list(coeffs)
            row += [zero] * (n_slack + m + 1)
            slack = -1
            if rel != "==":
                slack = nz + slack_at
                row[slack] = one if (rel == "<=") != flip else -one
                slack_at += 1
            row[-1] = rhs
            row[self.art_start + i] = one
            self.matrix.append(row)
            if slack >= 0 and row[slack] == one:
                self.basis.append(slack)  # feasible at the row's right-hand side
            else:
                self.basis.append(self.art_start + i)

    def objective_row(self, cost):
        """Reduced costs for the given per-column cost vector (basis-aware)."""
        z_row = list(cost) + [self.ops.zero]
        for i, row in enumerate(self.matrix):
            cb = cost[self.basis[i]]
            if cb:
                for j, v in enumerate(row):
                    if v:
                        z_row[j] = z_row[j] - cb * v
        return z_row

    def pivot(self, i: int, j: int, z_row) -> None:
        matrix = self.matrix
        row = matrix[i]
        inv = 1 / row[j]
        # truth tests, not comparisons against a zero: Fraction.__eq__ is slow
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
        self.basis[i] = j
        self.pivots += 1
        self.guard_clock += 1
        if self.guard_clock >= _GUARD_EVERY:
            self.guard_clock = 0
            self._capacity_guard()

    def _capacity_guard(self) -> None:
        if self.ops.feas_tol != 0:
            return
        worst = 0
        for row in self.matrix:
            for v in row:
                if not v:
                    continue
                num = v.numerator
                size = num.bit_length() if num >= 0 else (-num).bit_length()
                size = max(size, v.denominator.bit_length())
                if size > worst:
                    worst = size
        if worst > _BIT_GUARD:
            raise CapacityError(
                f"lp: exact tableau coefficients reached {worst} bits after "
                f"{self.pivots} pivots on a {self.size()} tableau; "
                "the instance is too ill-conditioned for rational mode"
            )

    def size(self) -> str:
        return f"{len(self.matrix)} x {self.width}"

    def run(self, z_row, allowed_width: int, max_pivots: int) -> Optional[int]:
        """Pivot until optimal (returns None) or unbounded (returns the column)."""
        ops = self.ops
        tol = ops.feas_tol
        matrix = self.matrix
        while True:
            enter = -1
            for j in range(allowed_width):
                if z_row[j] < -tol:
                    enter = j
                    break
            if enter < 0:
                return None
            leave = -1
            best = None
            for i, row in enumerate(matrix):
                a = row[enter]
                if a > tol:
                    ratio = row[-1] / a
                    if best is None or ratio < best or (
                        ratio == best and self.basis[i] < self.basis[leave]
                    ):
                        best = ratio
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
        zero = self.ops.zero
        z = [zero] * self.nz
        for i, b in enumerate(self.basis):
            if b < self.nz:
                z[b] = self.matrix[i][-1]
        return z

    def duals_from_artificials(self, z_row, art_cost):
        """Row duals of the standardised system, via artificial reduced costs."""
        y = {}
        for i, rid in enumerate(self.row_ids):
            col = self.art_start + rid
            y[rid] = self.sigma[rid] * (art_cost - z_row[col])
        return y


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

    if m == 0:
        for cidx in range(nz):
            if c_z[cidx] < -tol:
                ray_z = [zero] * nz
                ray_z[cidx] = ops.one
                point = _recover_x(cols, shifts, [zero] * nz, lp.n_vars)
                ray = _recover_x(cols, [zero] * lp.n_vars, ray_z, lp.n_vars)
                return Unbounded(point, ray, 0)
        x = _recover_x(cols, shifts, [zero] * nz, lp.n_vars)
        value = sum((ops.convert(ci) * xi for ci, xi in zip(lp.objective, x)), zero)
        return Optimal(x, (), value, 0)

    tab = _Tableau(rows_z, nz, ops)
    max_pivots = 20000 + 200 * (m + tab.width)

    phase1_cost = [zero] * tab.width
    for k in range(tab.art_start, tab.width):
        phase1_cost[k] = ops.one
    z_row = tab.objective_row(phase1_cost)
    unbounded_col = tab.run(z_row, tab.art_start, max_pivots)
    assert unbounded_col is None  # phase 1 is bounded below by zero
    residue = -z_row[-1]
    if residue > (tol * m if tol else zero):
        duals = tab.duals_from_artificials(z_row, ops.one)
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
                ray_z[b] = ray_z[b] - tab.matrix[i][unbounded_col]
        point = _recover_x(cols, shifts, z, lp.n_vars)
        ray = _recover_x(cols, [zero] * lp.n_vars, ray_z, lp.n_vars)
        return Unbounded(point, ray, tab.pivots)

    z = tab.z_values()
    x = _recover_x(cols, shifts, z, lp.n_vars)
    value = sum((ops.convert(ci) * xi for ci, xi in zip(lp.objective, x)), zero)
    duals = tab.duals_from_artificials(z_row, zero)
    n_user = len(lp.rows)
    y = [zero] * n_user
    for i in range(m):
        if i < n_user and i in duals:
            y[i] = duals[i] if minimise else -duals[i]
    return Optimal(x, tuple(y), value, tab.pivots)


def _drive_out_artificials(tab: _Tableau, z_row) -> None:
    """Pivot basic artificials onto structural columns; drop redundant rows."""
    ops = tab.ops
    tol = ops.feas_tol
    drop = []
    for i in range(len(tab.matrix)):
        if tab.basis[i] < tab.art_start:
            continue
        pivot_col = -1
        for j in range(tab.art_start):
            if abs(tab.matrix[i][j]) > tol:
                pivot_col = j
                break
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


def _nonzeros(coeffs, ops) -> list:
    """A row's nonzero coefficients as ``(index, value)`` pairs, converted once."""
    return [(j, ops.convert(c)) for j, c in enumerate(coeffs) if c]


def _dot(pairs, x, zero):
    return sum((c * x[j] for j, c in pairs), zero)


def _primal_feasible(lp: LinearProgram, x, lhs, ops: ModeOps, tol) -> bool:
    """Whether ``x`` meets every row, whose left-hand sides are ``lhs``, and bound."""
    for value, (_, rel, rhs) in zip(lhs, lp.rows):
        rhs = ops.convert(rhs)
        if rel == "==" and not ops.eq(value, rhs, tol):
            return False
        if rel == "<=" and not value <= rhs + tol:
            return False
        if rel == ">=" and not value >= rhs - tol:
            return False
    for xj, bnd in zip(x, lp.bounds):
        lo, hi = _bound_sides(bnd)
        if lo is not None and xj < ops.convert(lo) - tol:
            return False
        if hi is not None and xj > ops.convert(hi) + tol:
            return False
    return True


def _verify_optimal(lp: LinearProgram, outcome: Optimal, ops: ModeOps) -> bool:
    tol = ops.dual_tol
    zero = ops.zero
    x, y = outcome.x, outcome.y
    if len(x) != lp.n_vars or len(y) != len(lp.rows):
        return False
    rows = [_nonzeros(coeffs, ops) for coeffs, _, _ in lp.rows]
    lhs = [_dot(pairs, x, zero) for pairs in rows]
    if not _primal_feasible(lp, x, lhs, ops, tol):
        return False
    value = _dot(_nonzeros(lp.objective, ops), x, zero)
    if not ops.eq(value, outcome.value, tol):
        return False

    minimise = lp.sense == "min"
    for yi, row_lhs, (_, rel, rhs) in zip(y, lhs, lp.rows):
        want = yi if minimise else -yi
        if rel == ">=" and want < -tol:
            return False
        if rel == "<=" and want > tol:
            return False
        if not ops.eq(yi, zero, tol) and not ops.eq(row_lhs, ops.convert(rhs), tol):
            return False

    # y^T A, accumulated row by row over the nonzeros
    ya = [zero] * lp.n_vars
    for yi, pairs in zip(y, rows):
        if yi:
            for j, a in pairs:
                ya[j] = ya[j] + yi * a
    for j in range(lp.n_vars):
        r = ops.convert(lp.objective[j]) - ya[j]
        if not minimise:
            r = -r
        lo, hi = _bound_sides(lp.bounds[j])
        at_lo = lo is not None and ops.eq(x[j], ops.convert(lo), tol)
        at_hi = hi is not None and ops.eq(x[j], ops.convert(hi), tol)
        if at_lo and at_hi:
            continue  # pinned variable: any reduced cost is consistent
        if at_lo:
            if r < -tol:
                return False
        elif at_hi:
            if r > tol:
                return False
        elif not ops.eq(r, zero, tol):
            return False
    return True


def _verify_infeasible(lp: LinearProgram, outcome: Infeasible, ops: ModeOps) -> bool:
    tol = ops.dual_tol
    zero = ops.zero
    cols, _, rows_z = _standardise(lp, ops)
    y = outcome.certificate
    if len(y) != len(rows_z):
        return False
    for yi, (_, rel, _) in zip(y, rows_z):
        if rel == ">=" and yi < -tol:
            return False
        if rel == "<=" and yi > tol:
            return False
    combo = [zero] * len(cols)
    for yi, (row, _, _) in zip(y, rows_z):
        if yi:
            for cidx, v in enumerate(row):
                if v:
                    combo[cidx] = combo[cidx] + yi * v
    if any(c > tol for c in combo):
        return False
    money = sum((yi * rhs for yi, (_, _, rhs) in zip(y, rows_z) if yi), zero)
    return money > tol


def _verify_unbounded(lp: LinearProgram, outcome: Unbounded, ops: ModeOps) -> bool:
    tol = ops.dual_tol
    zero = ops.zero
    point, d = outcome.point, outcome.ray
    if len(point) != lp.n_vars or len(d) != lp.n_vars:
        return False
    rows = [_nonzeros(coeffs, ops) for coeffs, _, _ in lp.rows]
    if not _primal_feasible(lp, point, [_dot(pairs, point, zero) for pairs in rows], ops, tol):
        return False
    for pairs, (_, rel, _) in zip(rows, lp.rows):
        move = _dot(pairs, d, zero)
        if rel == "==" and not ops.eq(move, zero, tol):
            return False
        if rel == "<=" and move > tol:
            return False
        if rel == ">=" and move < -tol:
            return False
    for dj, bnd in zip(d, lp.bounds):
        lo, hi = _bound_sides(bnd)
        if lo is not None and dj < -tol:
            return False
        if hi is not None and dj > tol:
            return False
    gain = _dot(_nonzeros(lp.objective, ops), d, zero)
    if lp.sense == "min":
        return gain < -tol if tol else gain < zero
    return gain > tol if tol else gain > zero


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
