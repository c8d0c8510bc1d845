"""The exact simplex with one rational per tableau entry, as a test reference.

This is the dense two-phase Bland simplex of ``rip.lp`` written with the
mode's rational type in every entry: each pivot divides the pivot row by its
entry and subtracts multiples of it from the other rows, one rational
operation per nonzero.  It splits every free variable into two nonnegative
columns, ``x+`` and ``x-`` side by side, where ``rip.lp`` keeps one column
and reads ``x-`` off it with a sign; and ``rip.lp`` keeps its rows as
integers over one denominator each.  The differential tests require it to
return outcomes equal to this reference's, pivot count included.  Only
rational mode is covered, and no capacity guard or pivot cap is applied.
"""

from rip import RATIONAL_OPS
from rip.lp import Infeasible, Optimal, Unbounded


def _standardise(lp, ops):
    """Rewrite onto nonnegative columns, a free variable on two.

    Returns ``(cols, rows_z)`` where each column is ``(var, mult)``,
    ``x[var] = sum(mult * z)`` over the variable's columns, and ``rows_z``
    lists the program's rows as ``(coeffs, rel, rhs)`` over the z
    variables.  A row's ``coeffs`` are its nonzero ``(column, coefficient)``
    pairs in column order.
    """
    cols = []
    for j, bnd in enumerate(lp.bounds):
        cols += [(j, 1), (j, -1)] if bnd == "free" else [(j, 1)]
    var_cols = [[] for _ in lp.bounds]
    for cidx, (var, mult) in enumerate(cols):
        var_cols[var].append((cidx, mult))

    rows_z = []
    for nonzeros, rel, rhs in lp.rows:
        row = []
        for j, c in nonzeros:
            c = ops.convert(c)
            if c:
                row += [(cidx, c if mult > 0 else -c) for cidx, mult in var_cols[j]]
        rows_z.append((row, rel, ops.convert(rhs)))
    return cols, rows_z


def _recover_x(cols, n_vars, z):
    x = [RATIONAL_OPS.zero] * n_vars
    for cidx, (var, mult) in enumerate(cols):
        x[var] = x[var] + mult * z[cidx]
    return tuple(x)


class Tableau:
    def __init__(self, rows_z, nz, ops):
        zero, one = ops.zero, ops.one
        m = len(rows_z)
        n_slack = sum(1 for _, rel, _ in rows_z if rel != "==")
        self.nz = nz
        self.art_start = nz + n_slack
        self.width = nz + n_slack + m
        self.sigma, self.matrix, self.basis = [], [], []
        self.row_ids = list(range(m))
        self.pivots = 0
        slack_at = 0
        for i, (coeffs, rel, rhs) in enumerate(rows_z):
            flip = rhs < zero or (rel == ">=" and rhs == zero)
            self.sigma.append(-1 if flip else 1)
            row = [zero] * (self.width + 1)
            for k, v in coeffs:  # the standardised nonzeros
                row[k] = -v if flip else v
            rhs = -rhs if flip else rhs
            slack = -1
            if rel != "==":
                slack = nz + slack_at
                row[slack] = one if (rel == "<=") != flip else -one
                slack_at += 1
            row[-1] = rhs
            row[self.art_start + i] = one
            self.matrix.append(row)
            if slack >= 0 and row[slack] == one:
                self.basis.append(slack)
            else:
                self.basis.append(self.art_start + i)

    def objective_row(self, cost):
        z_row = list(cost) + [RATIONAL_OPS.zero]
        for i, row in enumerate(self.matrix):
            cb = cost[self.basis[i]]
            if cb:
                for j, v in enumerate(row):
                    z_row[j] = z_row[j] - cb * v
        return z_row

    def pivot(self, i, j, z_row):
        row = self.matrix[i]
        inv = 1 / row[j]
        row[:] = [v * inv for v in row]
        for other in self.matrix + [z_row]:
            if other is row:
                continue
            f = other[j]
            if f:
                other[:] = [o - f * v for o, v in zip(other, row)]
        self.basis[i] = j
        self.pivots += 1

    def run(self, z_row, allowed_width):
        while True:
            enter = next((j for j in range(allowed_width) if z_row[j] < 0), -1)
            if enter < 0:
                return None
            leave, best = -1, None
            for i, row in enumerate(self.matrix):
                a = row[enter]
                if a > 0:
                    ratio = row[-1] / a
                    if best is None or ratio < best or (
                        ratio == best and self.basis[i] < self.basis[leave]
                    ):
                        best, leave = ratio, i
            if leave < 0:
                return enter
            self.pivot(leave, enter, z_row)

    def z_values(self):
        z = [RATIONAL_OPS.zero] * self.nz
        for i, b in enumerate(self.basis):
            if b < self.nz:
                z[b] = self.matrix[i][-1]
        return z

    def duals(self, z_row, art_cost):
        return {
            rid: self.sigma[rid] * (art_cost - z_row[self.art_start + rid])
            for rid in self.row_ids
        }


def solve(lp):
    """``rip.lp.solve`` in rational mode, on one rational per tableau entry."""
    ops = RATIONAL_OPS
    zero, one = ops.zero, ops.one
    minimise = lp.sense == "min"
    c_work = [ops.convert(v) if minimise else -ops.convert(v) for v in lp.objective]
    cols, rows_z = _standardise(lp, ops)
    nz, m = len(cols), len(rows_z)
    c_z = [zero] * nz
    for cidx, (var, mult) in enumerate(cols):
        c_z[cidx] = c_z[cidx] + c_work[var] * mult

    if m == 0:
        for cidx in range(nz):
            if c_z[cidx] < 0:
                ray_z = [zero] * nz
                ray_z[cidx] = one
                point = _recover_x(cols, lp.n_vars, [zero] * nz)
                ray = _recover_x(cols, lp.n_vars, ray_z)
                return Unbounded(point, ray, 0)
        x = _recover_x(cols, lp.n_vars, [zero] * nz)
        value = sum((ops.convert(ci) * xi for ci, xi in zip(lp.objective, x)), zero)
        return Optimal(x, (), value, 0)

    tab = Tableau(rows_z, nz, ops)
    cost = [zero] * tab.art_start + [one] * (tab.width - tab.art_start)
    z_row = tab.objective_row(cost)
    tab.run(z_row, tab.art_start)
    if -z_row[-1] > 0:
        duals = tab.duals(z_row, one)
        return Infeasible(tuple(duals[i] for i in range(m)), tab.pivots)

    drop = []
    for i in range(len(tab.matrix)):
        if tab.basis[i] < tab.art_start:
            continue
        col = next((j for j in range(tab.art_start) if tab.matrix[i][j]), -1)
        if col >= 0:
            tab.pivot(i, col, z_row)
        else:
            drop.append(i)
    keep = [i for i in range(len(tab.matrix)) if i not in drop]
    tab.matrix = [tab.matrix[i] for i in keep]
    tab.basis = [tab.basis[i] for i in keep]
    tab.row_ids = [tab.row_ids[i] for i in keep]

    z_row = tab.objective_row(c_z + [zero] * (tab.width - nz))
    unbounded_col = tab.run(z_row, tab.art_start)
    z = tab.z_values()
    if unbounded_col is not None:
        ray_z = [zero] * nz
        if unbounded_col < nz:
            ray_z[unbounded_col] = one
        for i, b in enumerate(tab.basis):
            if b < nz:
                ray_z[b] = ray_z[b] - tab.matrix[i][unbounded_col]
        point = _recover_x(cols, lp.n_vars, z)
        ray = _recover_x(cols, lp.n_vars, ray_z)
        return Unbounded(point, ray, tab.pivots)

    x = _recover_x(cols, lp.n_vars, z)
    value = sum((ops.convert(ci) * xi for ci, xi in zip(lp.objective, x)), zero)
    duals = tab.duals(z_row, zero)
    y = [zero] * len(lp.rows)
    for i in range(len(lp.rows)):
        if i in duals:
            y[i] = duals[i] if minimise else -duals[i]
    return Optimal(x, tuple(y), value, tab.pivots)
