"""Pathwise re-checks of the witnesses ``rip`` returns, in the benchmark's
own arithmetic.

Paths are tuples of coordinate rows, as in ``reference.lattice_paths``.
The agent's partition is worked out here from the paths and the labels;
nothing is taken from ``rip`` except the witness being checked.  Exact
witnesses are checked over :class:`fractions.Fraction` with no tolerance,
float ones with ``tol``.  Every check returns a list of problems, empty
when the witness holds.
"""

from __future__ import annotations

from fractions import Fraction


class Market:
    """The paths, the agent's partition and the static book of one question.

    ``labels`` and ``reveal_at`` describe when the agent learns the label:
    ``reveal_at = 0`` for ``plus`` and ``minus``, the arrival index for
    ``dynamic``, ``None`` for the market filtration alone.  ``statics`` is
    a list of ``(payoff values per path, price)`` for the quoted options;
    cash is always slot 0.
    """

    def __init__(self, paths, labels=None, reveal_at=None, statics=()):
        self.paths = paths
        self.n_steps = len(paths[0]) - 1
        self.width = len(paths[0][0])
        self.statics = [([1] * len(paths), 1)] + list(statics)
        self.cells = []  # per t: the set of cells, each a sorted path tuple
        for t in range(self.n_steps):
            informed = reveal_at is not None and t >= reveal_at
            groups = {}
            for p, path in enumerate(paths):
                key = (path[: t + 1], labels[p] if informed else None)
                groups.setdefault(key, []).append(p)
            self.cells.append({tuple(g) for g in groups.values()})

    def holdings(self, dynamic):
        """Index ``(t, atom paths) -> holding`` by ``(t, path)``.

        Returns the index and the problems found: a key that is not a cell
        of the agent's partition would let the holding peek ahead.
        """
        index = {}
        problems = []
        for (t, cell), holding in dynamic.items():
            if not 0 <= t < self.n_steps or tuple(cell) not in self.cells[t]:
                problems.append(f"holding at t={t} is not on a cell of the partition")
                continue
            for p in cell:
                index[(t, p)] = holding
        return index, problems

    def payout(self, static, index, p):
        """Static payout plus trading gains of a portfolio along path ``p``."""
        total = sum(a * values[p] for a, (values, _) in zip(static, self.statics))
        path = self.paths[p]
        for t in range(self.n_steps):
            holding = index.get((t, p))
            if holding is None:
                return None
            for i in range(self.width):
                total += holding[i] * (path[t + 1][i] - path[t][i])
        return total

    def cost(self, static):
        return sum(a * price for a, (_, price) in zip(static, self.statics))


def _close(a, b, tol) -> bool:
    return a == b if tol == 0 else abs(a - b) <= tol


def check_strategy(market, group, claims, static, dynamic, value, tol=0) -> list:
    """The portfolio costs ``value`` and covers the claim on every path."""
    index, problems = market.holdings(dynamic)
    if not _close(market.cost(static), value, tol):
        problems.append("strategy cost differs from the value")
    for p in group:
        wealth = market.payout(static, index, p)
        if wealth is None:
            problems.append(f"strategy has no holding along path {p}")
        elif wealth < claims[p] - tol:
            problems.append(f"strategy falls short of the claim on path {p}")
    return problems


def check_ray(market, group, static, dynamic, cost, tol=0) -> list:
    """The direction costs -1 and never pays less than 0 on the atom."""
    index, problems = market.holdings(dynamic)
    if not (_close(cost, -1, tol) and _close(market.cost(static), -1, tol)):
        problems.append("arbitrage ray does not cost -1")
    for p in group:
        pay = market.payout(static, index, p)
        if pay is None:
            problems.append(f"ray has no holding along path {p}")
        elif pay < -tol:
            problems.append(f"ray pays below 0 on path {p}")
    return problems


def check_measure(market, group, weights, claims, value, tol=0) -> list:
    """A calibrated martingale measure on ``group`` whose expectation is ``value``.

    ``weights`` maps path index to weight; paths it does not list weigh 0.
    """
    problems = []
    inside = set(group)
    for p, w in weights.items():
        if w < -tol:
            problems.append(f"negative weight on path {p}")
        if p not in inside and not _close(w, 0, tol):
            problems.append(f"weight off the atom on path {p}")
    if not _close(sum(weights.values()), 1, tol):
        problems.append("measure does not have mass 1")
    for t, cells in enumerate(market.cells):
        for cell in cells:
            for i in range(market.width):
                drift = sum(
                    weights.get(p, 0) * (market.paths[p][t + 1][i] - market.paths[p][t][i])
                    for p in cell
                )
                if not _close(drift, 0, tol):
                    problems.append(f"coordinate {i + 1} drifts on a cell at t={t}")
    for slot, (values, price) in enumerate(market.statics[1:], start=1):
        expected = sum(w * values[p] for p, w in weights.items())
        if not _close(expected, price, tol):
            problems.append(f"static option {slot} is not repriced")
    expectation = sum(w * claims[p] for p, w in weights.items())
    if not _close(expectation, value, tol):
        problems.append("expectation differs from the value")
    return problems


def exact(x):
    """An exact value from ``rip`` as a Fraction (floats pass through)."""
    return x if isinstance(x, float) else Fraction(x)
