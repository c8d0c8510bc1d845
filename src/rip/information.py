"""Information structures over a path space.

The market filtration is generated by the observed coordinates: two paths
are indistinguishable at grid index ``t`` when they agree up to ``t``.  An
information variable assigns each path a label; an agent who knows the
label refines the market partition by it.  Four arrangements are covered:

* ``none``: the market filtration alone.
* ``plus``: the label is known before trading starts, and initial capital
  may already depend on it.
* ``minus``: the label is available to the trading strategy from time 0,
  but initial capital may not depend on it.
* ``dynamic``: the label becomes available at a fixed interior grid index
  (the arrival); initial capital may not depend on it.

Partitions are represented concretely as tuples of :class:`Atom`, each a
sorted tuple of path indices, so downstream linear programs can key their
variables on atoms deterministically.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable, Optional, Sequence

from ._numeric import FLOAT, ModeOps
from .errors import EvaluationError, PreconditionError
from .payoff import _normalised_tail, compile_payoff, parse_payoff
from .paths import PathSpace, _per_space

VARIANT_NONE = "none"
VARIANT_PLUS = "plus"
VARIANT_MINUS = "minus"
VARIANT_DYNAMIC = "dynamic"
VARIANTS = (VARIANT_NONE, VARIANT_PLUS, VARIANT_MINUS, VARIANT_DYNAMIC)


@dataclass(frozen=True)
class Atom:
    """One cell of a partition: the paths it contains and an optional label.

    ``time`` is the grid index of the partition the atom came from, or
    ``-1`` for a partition tied to no grid index: the single initial-capital
    atom of ``none``, ``minus`` and ``dynamic``, and the level sets of
    :func:`z_partition`.  Under ``plus`` the initial-capital partition is the
    ``t = 0`` one, so its atoms have ``time`` 0.  ``label`` is the
    information-variable value shared by the member paths, when one applies.
    """

    time: int
    paths: tuple
    label: Any = None


@dataclass(frozen=True, eq=False)
class InfoVariable:
    """A path functional whose level sets the informed agent can observe.

    ``labeler(rows, den, ops)`` labels every path of an integer view at
    once: ``rows[p][k][i] / den`` is coordinate ``i + 1`` of path ``p`` at
    grid index ``k``, as in ``PathSpace.nums``, and it returns one label per
    path, a number in the mode of ``ops``.  The space's labels are built
    by one call, cached in the space; rational labellers compute on the
    ints and divide only through ``ops.ratio``.

    Compared by identity: build one instance per model and reuse it, so a
    space's cache can key on it.
    """

    name: str
    labeler: Callable[[Sequence, Any, ModeOps], Sequence]


@dataclass(frozen=True)
class InfoStructure:
    """Which arrangement is in force, and with what variable; equal by value."""

    variant: str
    variable: Optional[InfoVariable] = None
    arrival: Optional[int] = None

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise PreconditionError(f"unknown variant {self.variant!r}; expected {VARIANTS}")
        if self.variant == VARIANT_NONE:
            if self.variable is not None:
                raise PreconditionError("variant 'none' takes no information variable")
        elif self.variable is None:
            raise PreconditionError(f"variant {self.variant!r} needs an information variable")
        if self.variant == VARIANT_DYNAMIC:
            if self.arrival is None or self.arrival < 1:
                raise PreconditionError(
                    "variant 'dynamic' needs an arrival index of at least 1"
                )
        elif self.arrival is not None:
            raise PreconditionError(f"variant {self.variant!r} takes no arrival index")

    @classmethod
    def none(cls) -> "InfoStructure":
        return cls(VARIANT_NONE)

    @classmethod
    def plus(cls, variable: InfoVariable) -> "InfoStructure":
        return cls(VARIANT_PLUS, variable)

    @classmethod
    def minus(cls, variable: InfoVariable) -> "InfoStructure":
        return cls(VARIANT_MINUS, variable)

    @classmethod
    def dynamic(cls, variable: InfoVariable, arrival: int) -> "InfoStructure":
        return cls(VARIANT_DYNAMIC, variable, arrival)

    def describe(self) -> dict:
        out = {"variant": self.variant}
        if self.variable is not None:
            out["variable"] = self.variable.name
        if self.arrival is not None:
            out["arrival"] = self.arrival
        return out


class AtomTable:
    """Values attached to the atoms of one partition.

    Hedging and pricing return one value per initial-capital atom; this
    container keeps the pairing and offers lookups by path.
    """

    def __init__(self, entries: Sequence[tuple]):
        self.entries = tuple(entries)
        self._by_path = {}
        for atom, value in self.entries:
            for p in atom.paths:
                self._by_path[p] = (atom, value)

    def __iter__(self):
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def values(self) -> tuple:
        return tuple(value for _, value in self.entries)

    def for_path(self, path_index: int):
        try:
            return self._by_path[path_index][1]
        except KeyError:
            raise PreconditionError(f"path {path_index} is not covered by this table") from None

    def single(self):
        """The unique value, for tables over the trivial partition."""
        if len(self.entries) != 1:
            raise PreconditionError(f"expected a single atom, table has {len(self.entries)}")
        return self.entries[0][1]


# ---------------------------------------------------------------------------
# partitions


@_per_space
def _labels(space: PathSpace, variable: InfoVariable) -> tuple:
    raw = variable.labeler(space.nums, space.den, space.ops)
    if space.mode != FLOAT:
        return tuple(raw)
    # quantise in one sweep over the sorted distinct labels: each label joins
    # the cluster of the smallest label within the tolerance below it, so the
    # result does not depend on the order of the paths
    tol = space.ops.label_tol
    rep_of = {}
    rep = None
    for x in sorted(set(raw)):
        if rep is None or x - rep > tol:
            rep = x
        rep_of[x] = rep
    return tuple(rep_of[x] for x in raw)


def z_partition(space: PathSpace, variable: InfoVariable) -> tuple:
    """Level sets of an information variable, ordered by label."""
    labels = _labels(space, variable)
    groups: dict = {}
    for p, lab in enumerate(labels):
        groups.setdefault(lab, []).append(p)
    return tuple(
        Atom(-1, tuple(groups[lab]), lab) for lab in sorted(groups.keys())
    )


@dataclass(frozen=True)
class Filtration:
    """The agent's partitions, and per path the atom that holds it.

    ``atoms`` and ``cell`` are indexed by grid index.  ``atoms[t]`` is the
    partition at ``t`` for ``t = -1..n``; the initial-capital partition is
    stored last, so index ``-1`` reaches it (under ``plus`` it is the
    ``t = 0`` partition again).  ``cell[t][p]`` is the
    position in ``atoms[t]`` of the atom holding path ``p``.
    """

    atoms: tuple
    cell: tuple

    def meet(self, t: int, paths: Sequence[int]) -> list:
        """Group ascending ``paths`` by their atom at ``t``.

        Returns ``(atom index, members)`` pairs in partition order, for the
        atoms that hold at least one of the paths.
        """
        cells = self.cell[t]
        groups: dict = {}
        for p in paths:
            groups.setdefault(cells[p], []).append(p)
        return sorted(groups.items())


@_per_space
def filtration(space: PathSpace, info: InfoStructure) -> Filtration:
    """The agent's partitions, built once per pair; a bad arrival is refused
    before anything is stored, so on every call."""
    if info.variant == VARIANT_DYNAMIC and not 1 <= info.arrival <= space.n_steps - 1:
        raise PreconditionError(
            f"arrival index {info.arrival} must lie strictly inside 1..{space.n_steps - 1}"
        )
    # the agent holds the label from grid index `known` on; 'none' has no label;
    # paths are keyed on their rows of `space.nums`, which share one denominator,
    # and on a small int per distinct label, so each label is hashed once
    rows = space.nums
    if info.variant == VARIANT_NONE:
        labels = (None,) * len(rows)
    else:
        labels = _labels(space, info.variable)
    ids: dict = {}
    label_ids = [ids.setdefault(label, len(ids)) for label in labels]
    known = info.arrival if info.variant == VARIANT_DYNAMIC else 0
    atoms = []
    cells = []
    previous = [0] * len(rows)
    for t in range(space.n_steps + 1):
        # a path's atom at t - 1 and its row at t pin its prefix up to t
        labelled = t >= known
        index: dict = {}
        groups = []
        cell = []
        for p, values in enumerate(rows):
            key = (previous[p], values[t], label_ids[p] if labelled else -1)
            k = index.setdefault(key, len(groups))
            if k == len(groups):
                groups.append([])
            groups[k].append(p)
            cell.append(k)
        # groups open in path order, so the atoms come ordered by first member,
        # and each atom carries its first member's label
        atoms.append(tuple(Atom(t, tuple(g), labels[g[0]] if labelled else None) for g in groups))
        cells.append(tuple(cell))
        previous = cell
    if info.variant == VARIANT_PLUS:
        atoms.append(atoms[0])
        cells.append(cells[0])
    else:
        atoms.append((Atom(-1, space.all_paths()),))
        cells.append((0,) * len(rows))
    return Filtration(tuple(atoms), tuple(cells))


def trading_terms(space: PathSpace, info: InfoStructure, paths: Sequence[int], interval: tuple):
    """Yield ``(t, atom_paths, i, moves)`` per term of trading over ``paths``.

    One term per ``t`` in ``interval = (t_from, t_to)``, per atom at ``t``
    meeting the ascending ``paths`` and per coordinate index ``i``, in that
    order; ``moves`` holds ``(k, S[t+1] - S[t])`` of coordinate ``i + 1``
    for the shared paths on which it moves, ``k`` the path's position in
    ``paths``, ascending.  A term is a holding of the hedge program (``k`` a
    row) and, transposed, a martingale row of the measure program (``k`` a
    column).  Increments are read off the space's integer view, each
    distinct one made a number of the mode once.
    """
    fm = filtration(space, info)
    nums, den, ratio = space.nums, space.den, space.ops.ratio
    position = {p: k for k, p in enumerate(paths)}
    exact: dict = {}
    for t in range(*interval):
        for k, members in fm.meet(t, paths):
            atom_paths = fm.atoms[t][k].paths
            for i in range(space.n_coords):
                moves = []
                for p in members:
                    d = nums[p][t + 1][i] - nums[p][t][i]
                    if d:
                        if d not in exact:
                            exact[d] = ratio(d, den)
                        moves.append((position[p], exact[d]))
                yield t, atom_paths, i, moves


def _partition_at(space: PathSpace, info: InfoStructure, t: int, first: int = 0) -> tuple:
    if not first <= t <= space.n_steps:
        raise PreconditionError(f"grid index {t} outside {first}..{space.n_steps}")
    return filtration(space, info).atoms[t]


def atoms_at(space: PathSpace, info: InfoStructure, t: int) -> tuple:
    """The agent's partition at grid index ``t``; ``t = -1`` is the
    initial-capital partition."""
    return _partition_at(space, info, t, -1)


def market_partition(space: PathSpace, t: int) -> tuple:
    """Atoms of the market filtration at grid index ``t``."""
    return _partition_at(space, InfoStructure.none(), t)


# ---------------------------------------------------------------------------
# the variable catalogue


def info_from_payoff(source, name: str = "") -> InfoVariable:
    """An information variable given by a payoff expression, compiled once per labelling."""
    expr = parse_payoff(source) if isinstance(source, str) else source
    label = name or (source if isinstance(source, str) else "payoff")

    def labeler(rows, den, ops: ModeOps):
        value = compile_payoff(expr, ops, len(rows[0][0]), len(rows[0]) - 1)
        return [value(path, den) for path in rows]

    return InfoVariable(label, labeler)


def _series(path, asset: int) -> list:
    return [row[asset - 1] for row in path]


def max_abs_deviation(asset: int = 1) -> InfoVariable:
    """Largest distance of one coordinate from its starting value."""

    def labeler(rows, den, ops: ModeOps):
        return [
            ops.ratio(max(abs(x - den) for x in _series(path, asset)), den) for path in rows
        ]

    return InfoVariable(f"max-abs-deviation({asset})", labeler)


def range_indicator(lower, upper, asset: int = 1) -> InfoVariable:
    """1 when the coordinate stays strictly inside ``(lower, upper)``."""

    def labeler(rows, den, ops: ModeOps):
        # the bounds over one denominator, converted once per call
        (lo, hi), scale = ops.over_common([lower, upper])
        lo, hi = lo * den, hi * den
        inside = [all(lo < x * scale < hi for x in _series(path, asset)) for path in rows]
        return [ops.one if ok else ops.zero for ok in inside]

    return InfoVariable(f"range-indicator({lower},{upper},{asset})", labeler)


def _max_ratio(asset: int) -> InfoVariable:
    """One coordinate's worst swing from its first value,
    ``max_t max(S_t/S_0, S_0/S_t)``, 1 exactly for a constant series; a
    series that reaches zero has none and is an :class:`EvaluationError`."""

    def labeler(rows, den, ops: ModeOps):
        out = []
        for path in rows:
            series = _series(path, asset)
            if 0 in series:
                raise EvaluationError("cannot take the max ratio of a tail that reaches zero")
            first = series[0]
            if ops.mode == FLOAT:
                worst = ops.one
                for x in series:
                    r = x / first
                    worst = max(worst, r, 1 / r)
                out.append(worst)
                continue
            top, bottom = 1, 1  # the worst ratio so far, top / bottom
            for x in series:
                n, d = (x, first) if x > first else (first, x)
                if n * bottom > top * d:
                    top, bottom = n, d
            out.append(ops.ratio(top, bottom))
        return out

    return InfoVariable(f"max-ratio({asset})", labeler)


def lift_to_tail(base_variable: InfoVariable, arrival: int) -> InfoVariable:
    """The lift of a whole-path variable to the tail renormalised at ``arrival``.

    A path is labelled by what ``base_variable`` gives its tail from
    ``arrival`` on, every coordinate over its value there: 0/0 reads 1, a
    coordinate that leaves zero is an :class:`EvaluationError`, and one that
    reaches zero later reads 0.  The tails that share a denominator go to
    the base labeller in one call.
    """

    def labeler(rows, den, ops: ModeOps):
        groups: dict = {}  # the tails by their denominator, and their paths
        for p, path in enumerate(rows):
            tail, tail_den = _normalised_tail(path, arrival, ops)
            members, tails = groups.setdefault(tail_den, ([], []))
            members.append(p)
            tails.append(tail)
        out = [None] * len(rows)
        for tail_den, (members, tails) in groups.items():
            for p, label in zip(members, base_variable.labeler(tails, tail_den, ops)):
                out[p] = label
        return out

    return InfoVariable(f"{base_variable.name}@tail({arrival})", labeler)


def tail_max_ratio(arrival: int, asset: int = 1) -> InfoVariable:
    """Worst multiplicative swing of the tail from its value at ``arrival``.

    The lift (:func:`lift_to_tail`) of ``max_t max(S_t/S_0, S_0/S_t)``, 1
    exactly for a constant tail.  Under the lift's zero convention a path at
    zero from ``arrival`` on has label 1, and a tail that reaches zero later
    has no finite swing and is an :class:`EvaluationError`.
    """
    lifted = lift_to_tail(_max_ratio(asset), arrival)
    return replace(lifted, name=f"tail-max-ratio({arrival},{asset})")


def tail_range_indicator(lower, upper, arrival: int, asset: int = 1) -> InfoVariable:
    """1 when the tail, renormalised at ``arrival``, stays inside ``(lower, upper)``.

    The lift (:func:`lift_to_tail`) of :func:`range_indicator`: under its
    zero convention a coordinate at zero from ``arrival`` on reads 1, and
    one that reaches zero later reads 0.
    """
    lifted = lift_to_tail(range_indicator(lower, upper, asset), arrival)
    return replace(lifted, name=f"tail-range-indicator({lower},{upper},{arrival},{asset})")


# ---------------------------------------------------------------------------
# scaling form


def check_scaling_form(space: PathSpace, variable: InfoVariable, arrival: int) -> bool:
    """Whether the variable only depends on the renormalised tail.

    Requires a single-asset space without traded options.  True when paths
    with equal renormalised tails always carry equal labels and every path
    sitting at zero at ``arrival`` carries label 1.  The arguments are
    checked on every call; the scan over the tails is made once per space,
    variable and arrival, and cached in the space.
    """
    if space.n_assets != 1 or space.n_options != 0:
        raise PreconditionError("scaling form is defined for single-asset spaces only")
    if not 0 <= arrival <= space.n_steps:
        raise PreconditionError(f"arrival {arrival} outside grid 0..{space.n_steps}")
    return _scaling_form(space, variable, arrival)


@_per_space
def _scaling_form(space: PathSpace, variable: InfoVariable, arrival: int) -> bool:
    # the tail scan of check_scaling_form, once per space, variable and arrival
    labels = _labels(space, variable)
    ops = space.ops
    by_tail: dict = {}
    for p, path in enumerate(space.nums):
        series = _series(path, 1)[arrival:]
        base = series[0]
        if base == 0:
            if not ops.eq(labels[p], ops.one, ops.label_tol):
                return False
            continue
        tail = tuple(ops.ratio(x, base) for x in series)
        if tail in by_tail:
            if labels[p] != by_tail[tail]:
                return False
        else:
            by_tail[tail] = labels[p]
    return True


__all__ = [
    "VARIANT_NONE",
    "VARIANT_PLUS",
    "VARIANT_MINUS",
    "VARIANT_DYNAMIC",
    "VARIANTS",
    "Atom",
    "AtomTable",
    "InfoVariable",
    "InfoStructure",
    "market_partition",
    "z_partition",
    "Filtration",
    "filtration",
    "trading_terms",
    "atoms_at",
    "info_from_payoff",
    "max_abs_deviation",
    "range_indicator",
    "tail_max_ratio",
    "tail_range_indicator",
    "lift_to_tail",
    "check_scaling_form",
]
