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

from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Callable, Optional, Sequence

from ._numeric import FLOAT, ModeOps
from .errors import PreconditionError
from .payoff import Expr, evaluate_payoff, parse_payoff
from .paths import Path, PathSpace, _prefix_groups

VARIANT_NONE = "none"
VARIANT_PLUS = "plus"
VARIANT_MINUS = "minus"
VARIANT_DYNAMIC = "dynamic"
VARIANTS = (VARIANT_NONE, VARIANT_PLUS, VARIANT_MINUS, VARIANT_DYNAMIC)


@dataclass(frozen=True)
class Atom:
    """One cell of a partition: the paths it contains and an optional label.

    ``time`` records which partition the atom came from (``-1`` for the
    initial-capital partition).  ``label`` is the information-variable
    value shared by the member paths, when one applies.
    """

    time: int
    paths: tuple
    label: Any = None

    def __contains__(self, path_index: int) -> bool:
        return path_index in self.paths


@dataclass(frozen=True, eq=False)
class InfoVariable:
    """A path functional whose level sets the informed agent can observe.

    Compared by identity: build one instance per model and reuse it, so the
    partition caches can key on it.
    """

    name: str
    labeler: Callable[[Path, ModeOps], Any]

    def label(self, path: Path, ops: ModeOps):
        return self.labeler(path, ops)


@dataclass(frozen=True, eq=False)
class InfoStructure:
    """Which of the four arrangements is in force, and with what variable."""

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

    def atoms(self) -> tuple:
        return tuple(atom for atom, _ in self.entries)

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


@lru_cache(maxsize=512)
def _market_groups(space: PathSpace, t: int) -> tuple:
    return tuple(tuple(g) for g in _prefix_groups(space.paths, t))


@lru_cache(maxsize=512)
def _labels(space: PathSpace, variable: InfoVariable) -> tuple:
    raw = [variable.label(path, space.ops) for path in space.paths]
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


def market_partition(space: PathSpace, t: int) -> tuple:
    """Atoms of the market filtration at grid index ``t``."""
    if not 0 <= t <= space.n_steps:
        raise PreconditionError(f"grid index {t} outside 0..{space.n_steps}")
    return tuple(Atom(t, g) for g in _market_groups(space, t))


def z_partition(space: PathSpace, variable: InfoVariable) -> tuple:
    """Level sets of an information variable, ordered by label."""
    labels = _labels(space, variable)
    groups: dict = {}
    for p, lab in enumerate(labels):
        groups.setdefault(lab, []).append(p)
    return tuple(
        Atom(-1, tuple(groups[lab]), lab) for lab in sorted(groups.keys())
    )


@lru_cache(maxsize=512)
def _joined_groups(space: PathSpace, variable: InfoVariable, t: int) -> tuple:
    labels = _labels(space, variable)
    groups: dict = {}
    for p, path in enumerate(space.paths):
        groups.setdefault((path.values[: t + 1], labels[p]), []).append(p)
    ordered = sorted(groups.items(), key=lambda kv: kv[1][0])
    return tuple((lab, tuple(g)) for (_, lab), g in ordered)


def joined_partition(space: PathSpace, variable: InfoVariable, t: int) -> tuple:
    """Common refinement of the market partition at ``t`` and the level sets."""
    return tuple(Atom(t, g, lab) for lab, g in _joined_groups(space, variable, t))


def _check_arrival(space: PathSpace, info: InfoStructure) -> None:
    if info.variant == VARIANT_DYNAMIC and not 1 <= info.arrival <= space.n_steps - 1:
        raise PreconditionError(
            f"arrival index {info.arrival} must lie strictly inside 1..{space.n_steps - 1}"
        )


def _partition(space: PathSpace, info: InfoStructure, t: int) -> tuple:
    if t == -1:
        if info.variant == VARIANT_PLUS:
            return joined_partition(space, info.variable, 0)
        return (Atom(-1, space.all_paths()),)
    if info.variant == VARIANT_NONE:
        return market_partition(space, t)
    if info.variant == VARIANT_DYNAMIC and t < info.arrival:
        return market_partition(space, t)
    return joined_partition(space, info.variable, t)


@dataclass(frozen=True)
class Filtration:
    """The agent's partitions with, per path, its atom and its price moves.

    ``atoms``, ``cell`` and ``delta`` are indexed by grid index.  ``atoms[t]``
    is the partition at ``t`` for ``t = -1..n``; the initial-capital
    partition is stored last, so index ``-1`` reaches it.  ``cell[t][p]`` is
    the position in ``atoms[t]`` of the atom holding path ``p``, and
    ``delta[t][p]`` holds the increments ``S[t+1] - S[t]`` of path ``p``,
    one per coordinate, for ``t = 0..n-1``.
    """

    atoms: tuple
    cell: tuple
    delta: tuple

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


# the per-path tables are large, and a run works on a few spaces at a time
@lru_cache(maxsize=16)
def _filtration(space: PathSpace, info: InfoStructure) -> Filtration:
    atoms = []
    cells = []
    for t in list(range(space.n_steps + 1)) + [-1]:
        partition = _partition(space, info, t)
        cell = [0] * len(space.paths)
        for k, atom in enumerate(partition):
            for p in atom.paths:
                cell[p] = k
        atoms.append(partition)
        cells.append(tuple(cell))
    rows = [path.values for path in space.paths]
    delta = tuple(
        tuple(tuple(b - a for a, b in zip(v[t], v[t + 1])) for v in rows)
        for t in range(space.n_steps)
    )
    return Filtration(tuple(atoms), tuple(cells), delta)


def filtration(space: PathSpace, info: InfoStructure) -> Filtration:
    """The agent's partitions and price increments, built once per pair."""
    _check_arrival(space, info)
    return _filtration(space, info)


def atoms_at(space: PathSpace, info: InfoStructure, t: int) -> tuple:
    """The agent's partition at grid index ``t``; ``t = -1`` is the
    initial-capital partition."""
    if not -1 <= t <= space.n_steps:
        raise PreconditionError(f"grid index {t} outside -1..{space.n_steps}")
    return filtration(space, info).atoms[t]


# ---------------------------------------------------------------------------
# the variable catalogue


def info_from_payoff(source, name: str = "") -> InfoVariable:
    """An information variable given by a payoff expression."""
    expr = parse_payoff(source) if isinstance(source, str) else source
    label = name or (source if isinstance(source, str) else "payoff")

    def labeler(path: Path, ops: ModeOps):
        return evaluate_payoff(expr, path.values, ops)

    return InfoVariable(label, labeler)


def max_abs_deviation(asset: int = 1) -> InfoVariable:
    """Largest distance of one coordinate from its starting value."""

    def labeler(path: Path, ops: ModeOps):
        return max(abs(x - ops.one) for x in path.series(asset))

    return InfoVariable(f"max-abs-deviation({asset})", labeler)


def range_indicator(lower, upper, asset: int = 1) -> InfoVariable:
    """1 when the coordinate stays strictly inside ``(lower, upper)``."""

    def labeler(path: Path, ops: ModeOps):
        lo, hi = ops.convert(lower), ops.convert(upper)
        inside = all(lo < x < hi for x in path.series(asset))
        return ops.one if inside else ops.zero

    return InfoVariable(f"range-indicator({lower},{upper},{asset})", labeler)


def tail_max_ratio(arrival: int, asset: int = 1) -> InfoVariable:
    """Worst multiplicative swing of the tail from its value at ``arrival``.

    For a path positive from ``arrival`` on, the label is
    ``max_t max(S_t/S_a, S_a/S_t)`` over the tail, which is 1 exactly for a
    constant tail and grows with the swing.  A tail that touches zero gets
    label 1 by convention; on spaces with zero prices this merges the
    degenerate paths into the constant-tail class.
    """

    def labeler(path: Path, ops: ModeOps):
        series = path.series(asset)[arrival:]
        base = series[0]
        if base == 0 or any(x == 0 for x in series):
            return ops.one
        worst = ops.one
        for x in series:
            r = x / base
            worst = max(worst, r, 1 / r)
        return worst

    return InfoVariable(f"tail-max-ratio({arrival},{asset})", labeler)


def tail_range_indicator(lower, upper, arrival: int, asset: int = 1) -> InfoVariable:
    """1 when the tail, renormalised at ``arrival``, stays inside ``(lower, upper)``.

    A path whose coordinate is zero at ``arrival`` gets label 1 by the same
    convention as :func:`tail_max_ratio`.
    """

    def labeler(path: Path, ops: ModeOps):
        series = path.series(asset)[arrival:]
        base = series[0]
        if base == 0:
            return ops.one
        lo, hi = ops.convert(lower), ops.convert(upper)
        inside = all(lo < x / base < hi for x in series)
        return ops.one if inside else ops.zero

    return InfoVariable(f"tail-range-indicator({lower},{upper},{arrival},{asset})", labeler)


def lift_to_tail(base_variable: InfoVariable, arrival: int) -> InfoVariable:
    """Read a variable off the renormalised tail starting at ``arrival``.

    The tail is divided through by its value at ``arrival`` coordinate by
    coordinate, so the lifted variable sees a path that starts at 1 and has
    the remaining steps.  Paths that sit at zero at ``arrival`` get label 1.
    """

    def labeler(path: Path, ops: ModeOps):
        base_row = path.values[arrival]
        if any(x == 0 for x in base_row):
            if all(x == 0 for row in path.values[arrival:] for x in row):
                return ops.one
            # a coordinate at zero cannot be renormalised unless it stays there
            if any(
                base == 0 and any(row[i] != 0 for row in path.values[arrival:])
                for i, base in enumerate(base_row)
            ):
                raise PreconditionError("cannot renormalise a tail that leaves zero")
            return ops.one
        rows = tuple(
            tuple(x / b for x, b in zip(row, base_row)) for row in path.values[arrival:]
        )
        return base_variable.label(Path(rows), ops)

    return InfoVariable(f"{base_variable.name}@tail({arrival})", labeler)


# ---------------------------------------------------------------------------
# scaling form


def check_scaling_form(space: PathSpace, variable: InfoVariable, arrival: int) -> bool:
    """Whether the variable only depends on the renormalised tail.

    Requires a single-asset space without traded options.  True when paths
    with equal renormalised tails always carry equal labels and every path
    sitting at zero at ``arrival`` carries label 1.
    """
    if space.n_assets != 1 or space.n_options != 0:
        raise PreconditionError("scaling form is defined for single-asset spaces only")
    if not 0 <= arrival <= space.n_steps:
        raise PreconditionError(f"arrival {arrival} outside grid 0..{space.n_steps}")
    labels = _labels(space, variable)
    by_tail: dict = {}
    for p, path in enumerate(space.paths):
        series = path.series(1)[arrival:]
        base = series[0]
        if base == 0:
            if not space.ops.eq(labels[p], space.ops.one, space.ops.label_tol):
                return False
            continue
        tail = tuple(x / base for x in series)
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
    "joined_partition",
    "Filtration",
    "filtration",
    "atoms_at",
    "info_from_payoff",
    "max_abs_deviation",
    "range_indicator",
    "tail_max_ratio",
    "tail_range_indicator",
    "lift_to_tail",
    "check_scaling_form",
]
