"""Independent reference values from the dynamic programming principle.

On a single-asset tree the superhedging value of a node is the least
concave majorant of its successors' ``(ratio, value)`` points, taken at
ratio 1: the cheapest cash-plus-stock line lying above every successor.
A successor whose own value is ``-inf`` can be reached with any capital at
all, so it constrains nothing; when the remaining points do not bracket
ratio 1 the node admits an arbitrage and is ``-inf`` itself.

The information variants change only which tree the recursion walks:

* ``none``: the market tree of all paths;
* ``plus``: one tree per label, made of the paths carrying it;
* ``minus``: the best finite ``plus`` value, since capital is fixed before
  the label is seen;
* ``dynamic``: the market tree up to the arrival index, where each node
  takes its best finite label branch.

Everything is computed over :class:`fractions.Fraction` from the plain
specs of ``inputs.py``; nothing is imported from ``rip``.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

NEG_INF = float("-inf")
ONE = Fraction(1)


def lattice_paths(ratios, n_steps: int) -> list:
    """Every single-asset path of the lattice, as tuples of rows.

    Each row is a 1-tuple, as in ``rip``'s ``Path.values``, and the order
    is prefix-major over the ratios as listed, which is the order of
    ``rip.build_lattice``.
    """
    ratios = [Fraction(r) for r in ratios]
    out = []
    for moves in product(ratios, repeat=n_steps):
        s = ONE
        rows = [(s,)]
        for r in moves:
            s = s * r
            rows.append((s,))
        out.append(tuple(rows))
    return out


def claim_value(spec: dict, path: tuple) -> Fraction:
    """The spec's claim on one path, read off its terminal price."""
    s = path[-1][0]
    k = spec["strike"]
    kind = spec["kind"]
    if kind == "call":
        return max(s - k, Fraction(0))
    if kind == "put":
        return max(k - s, Fraction(0))
    if kind == "digital":
        return ONE if s >= k else Fraction(0)
    if kind == "corridor":
        return ONE if k < s < spec["upper"] else Fraction(0)
    raise ValueError(f"unknown claim kind {kind!r}")


RANGE = (Fraction(3, 4), Fraction(3, 2))  # the corpus's range labels


def label(spec: dict, path: tuple):
    """The spec's information variable on one path."""
    series = [row[0] for row in path]
    var = spec["var"]
    if var == "maxdev":
        return max(abs(x - 1) for x in series)
    if var == "range":
        lo, hi = RANGE
        return ONE if all(lo < x < hi for x in series) else Fraction(0)
    if var == "digital-label":
        return ONE if series[1] >= spec["var_strike"] else Fraction(0)
    tail = series[spec["arrival"]:]
    base = tail[0]
    if var == "tail-max":
        if base == 0 or any(x == 0 for x in tail):
            return ONE
        return max([ONE] + [max(x / base, base / x) for x in tail])
    if var == "tail-range":
        if base == 0:
            return ONE
        lo, hi = RANGE
        return ONE if all(lo < x / base < hi for x in tail) else Fraction(0)
    raise ValueError(f"unknown variable {var!r}")


def envelope_at_one(points) -> object:
    """Least concave majorant of ``(ratio, value)`` points at ratio 1.

    ``-inf`` when no point sits at 1 and no pair of points straddles it.
    """
    best = NEG_INF
    below = [(r, v) for r, v in points if r < 1]
    above = [(r, v) for r, v in points if r > 1]
    for r, v in points:
        if r == 1 and v > best:
            best = v
    for a, va in below:
        for b, vb in above:
            v = (va * (b - 1) + vb * (1 - a)) / (b - a)
            if v > best:
                best = v
    return best


def _best_finite(values):
    finite = [v for v in values if v != NEG_INF]
    return max(finite) if finite else NEG_INF


def _node_value(paths, group, t, claims, labels, reveal_at):
    """Superhedging value of the node holding ``group`` at index ``t``.

    ``reveal_at`` is the index at which the label splits the node, or
    ``None`` once it has (or never will).
    """
    if t == reveal_at:
        branches = {}
        for p in group:
            branches.setdefault(labels[p], []).append(p)
        return _best_finite(
            _node_value(paths, branch, t, claims, labels, None)
            for branch in branches.values()
        )
    n_steps = len(paths[group[0]]) - 1
    if t == n_steps:
        return max(claims[p] for p in group)
    children = {}
    for p in group:
        children.setdefault(paths[p][t + 1][0], []).append(p)
    here = paths[group[0]][t][0]
    points = []
    for s_next, child in children.items():
        v = _node_value(paths, child, t + 1, claims, labels, reveal_at)
        if v != NEG_INF:
            points.append((s_next / here, v))
    return envelope_at_one(points)


def tree_value(paths, claims, labels=None, reveal_at=None, group=None):
    """Superhedging value over ``group`` (all paths by default).

    ``labels`` and ``reveal_at`` describe a label that splits every node
    at index ``reveal_at``; leave both ``None`` for the market tree.
    """
    if group is None:
        group = list(range(len(paths)))
    return _node_value(paths, list(group), 0, claims, labels, reveal_at)


def reference_values(spec: dict) -> dict:
    """Reference value per initial-capital atom, keyed by the atom's paths.

    The keys are the sorted tuples of path indices that ``rip`` reports
    for its atoms: every path for ``none``, ``minus`` and ``dynamic``, one
    label class each for ``plus``.
    """
    paths = lattice_paths(spec["ratios"], spec["n_steps"])
    claims = [claim_value(spec, p) for p in paths]
    variant = spec["variant"]
    everything = tuple(range(len(paths)))
    if variant == "none":
        return {everything: tree_value(paths, claims)}
    labels = [label(spec, p) for p in paths]
    if variant == "dynamic":
        return {everything: tree_value(paths, claims, labels, spec["arrival"])}
    classes = {}
    for p, lab in enumerate(labels):
        classes.setdefault(lab, []).append(p)
    per_class = {
        tuple(group): tree_value(paths, claims, group=group)
        for group in classes.values()
    }
    if variant == "plus":
        return per_class
    if variant == "minus":
        return {everything: _best_finite(per_class.values())}
    raise ValueError(f"unknown variant {variant!r}")
