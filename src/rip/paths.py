"""Finite path spaces: grids, lattices, traded options, and enlargement.

A model lives on a finite set of price paths over a uniform time grid.
Each path records, at every grid index, the prices of ``n_assets`` base
assets and ``n_options`` dynamically traded options; all coordinates are
normalised to start at 1 and stay nonnegative.  A space stores them once,
as integer numerators over one denominator (floats over 1 in float mode).
Lattice constructors enumerate independent multiplicative moves straight
onto those integers, and :func:`build_info_space` adjoins option price
coordinates to a base space so that an option can be traded dynamically
alongside the assets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import wraps
from math import gcd
from typing import Any, Iterable, Optional, Sequence

from ._numeric import (
    FLOAT,
    ModeOps,
    RATIONAL,
    format_number,
    get_ops,
    left_sum,
    rat,
)
from .errors import CapacityError, PreconditionError
from .payoff import Expr, compile_payoff, parse_payoff

PATH_CAP = 10**6


def _nth_root_exact(n: int, k: int) -> Optional[int]:
    """The integer ``r >= 0`` with ``r ** k == n``, or None when ``n`` is no k-th power.

    Integer Newton iteration from above: the start ``2 ** ceil(bits / k)``
    exceeds the root, and each step falls strictly until it reaches
    ``floor(n ** (1/k))``.  No float is involved, so any size is exact.
    """
    if n < 2:
        return n
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x if x**k == n else None
        x = y


@dataclass(frozen=True)
class Option:
    """A payoff quoted at a price.

    Its role comes from where it sits: in a :class:`StaticOptionBook` it is
    bought or sold only at time zero; adjoined by :func:`build_info_space`,
    it pays on the base assets and is traded dynamically.
    """

    payoff: Expr
    price: Any
    name: str = ""


@dataclass(frozen=True)
class StaticOptionBook:
    """The static instruments available at time zero.

    Slot 0 is always cash (payoff 1, price 1); ``options`` holds the rest.
    Positions in every slot may be long or short and any size.
    """

    options: tuple = ()

    @classmethod
    def cash_only(cls) -> "StaticOptionBook":
        return cls(())

    @classmethod
    def of(cls, *options: Option) -> "StaticOptionBook":
        return cls(tuple(options))

    @property
    def size(self) -> int:
        return 1 + len(self.options)

    @property
    def is_cash_only(self) -> bool:
        return not self.options

    def prices(self, ops: ModeOps) -> list:
        return [ops.one] + [ops.convert(o.price) for o in self.options]

    def describe(self) -> list:
        out = []
        for i, o in enumerate(self.options, start=1):
            out.append(
                {
                    "slot": i,
                    "name": o.name or f"static-{i}",
                    "price": format_number(o.price),
                }
            )
        return out


def _per_space(build):
    """Cache ``build(space, *key)`` in ``space._cache``, so it dies with the space.

    A key that cannot be hashed is built afresh on every call, and a build
    that raises stores nothing.
    """

    @wraps(build)
    def cached(space: "PathSpace", *key):
        store = space._cache
        try:
            return store[build, key]
        except KeyError:
            value = store[build, key] = build(space, *key)
            return value
        except TypeError:  # an unhashable key
            return build(space, *key)

    return cached


@dataclass(eq=False)
class PathSpace:
    """A finite family of distinct paths sharing ``n_steps`` steps and one numeric mode.

    Instances are immutable in practice and hashable by identity.  Data
    built from the space (claim values, labels, partitions) is kept in one
    store, ``_cache``, filled through :func:`_per_space`, so it lives
    exactly as long as the space does.
    ``n_assets`` counts base assets and ``n_options`` the adjoined
    dynamically traded options; path rows have ``n_assets + n_options``
    coordinates.

    ``nums[p][k][i] / den`` is coordinate ``i + 1`` of path ``p`` at grid
    index ``k``, and the space's only store of its coordinates: int
    numerators over one positive int denominator in rational mode, the
    lcm of the coordinates' reduced denominators, and floats over the int
    1 in float mode.  A row that paths share (a lattice's prefix) is one
    tuple.  The validation reads these rows (a path starts at 1 when its
    first numerators equal ``den``; duplicates hash int tuples), and so do
    claims, option payoffs, information labels, the strategy re-check and
    the measure audit; :meth:`rows` reads one path back as numbers of the
    mode.  ``den`` stays small on lattices: at most 15 bits on every space
    of the benchmark's three workloads.
    """

    n_steps: int
    n_assets: int
    n_options: int
    nums: tuple
    den: int
    mode: str = RATIONAL
    dynamic_options: tuple = ()
    _cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if self.n_steps < 1:
            raise PreconditionError("a time grid needs at least one step")
        self.ops = get_ops(self.mode)
        if self.n_assets < 1:
            raise PreconditionError("a path space needs at least one asset")
        if len(self.dynamic_options) != self.n_options:
            raise PreconditionError("one dynamic option record per option coordinate")
        if not self.den > 0:
            raise PreconditionError("the coordinates need a positive denominator")
        width = self.n_assets + self.n_options
        seen = set()
        for p, rows in enumerate(self.nums):
            if len(rows) != self.n_steps + 1:
                raise PreconditionError(f"path {p} does not match the grid length")
            for row in rows:
                if len(row) != width:
                    raise PreconditionError(f"path {p} does not have {width} coordinates")
                for x in row:
                    if x < 0:
                        raise PreconditionError(f"path {p} has a negative coordinate")
            if any(x != self.den for x in rows[0]):
                raise PreconditionError(f"path {p} does not start at 1 in every coordinate")
            if rows in seen:
                raise PreconditionError(f"path {p} duplicates an earlier path")
            seen.add(rows)
        if not self.nums:
            raise PreconditionError("a path space needs at least one path")
        self._verify_option_terminals()

    def _verify_option_terminals(self):
        last, width = self.n_steps, self.n_assets
        for j, option in enumerate(self.dynamic_options):
            coord = width + 1 + j
            price = self.ops.convert(option.price)
            if not self.ops.pos(price):
                raise PreconditionError(f"dynamic option {j + 1} must have a positive price")
            payoff_of = compile_payoff(option.payoff, self.ops, width, last)
            for p, rows in enumerate(self.nums):
                want = payoff_of([row[:width] for row in rows], self.den) / price
                if not self.ops.eq(self.ops.ratio(rows[last][coord - 1], self.den), want):
                    raise PreconditionError(
                        f"path {p}: option coordinate {coord} does not end at payoff/price"
                    )

    @property
    def n_paths(self) -> int:
        return len(self.nums)

    def rows(self, p: int) -> tuple:
        """Path ``p``'s coordinates as numbers of the mode: ``rows(p)[k][i - 1]`` is
        coordinate ``i`` at grid index ``k``."""
        ratio, den = self.ops.ratio, self.den
        return tuple(tuple(ratio(x, den) for x in row) for row in self.nums[p])

    @property
    def n_coords(self) -> int:
        return self.n_assets + self.n_options

    def all_paths(self) -> tuple:
        return tuple(range(self.n_paths))

    def path_set(self, paths: Iterable[int]) -> tuple:
        """``paths`` ascending without repeats; each must index a path, and one at least."""
        members = tuple(sorted(set(paths)))
        if not members:
            raise PreconditionError("the path set is empty")
        for p in members:
            if not 0 <= p < self.n_paths:
                raise PreconditionError(f"path index {p} out of range")
        return members

    def interval(self, interval: Optional[tuple]) -> tuple:
        """``(t_from, t_to)`` checked against the grid; ``None`` is ``(0, n)``."""
        t_from, t_to = interval if interval is not None else (0, self.n_steps)
        if not 0 <= t_from <= t_to <= self.n_steps:
            raise PreconditionError(f"bad interval ({t_from}, {t_to})")
        return t_from, t_to

    @_per_space
    def claim_values(self, claim: Expr) -> tuple:
        """Evaluate a payoff on every path's integer view, compiled once and cached per expression.

        The payoff is compiled for the space's shape, so a reference outside
        it is a :class:`PreconditionError` before any path is read.
        """
        value, den = compile_payoff(claim, self.ops, self.n_coords, self.n_steps), self.den
        return tuple(value(rows, den) for rows in self.nums)

    def describe(self) -> dict:
        return {
            "paths": self.n_paths,
            "steps": self.n_steps,
            "assets": self.n_assets,
            "traded_options": self.n_options,
            "mode": self.mode,
        }


def _normalise_ratio_sets(ratios, n_assets: int, n_steps: int, ops: ModeOps) -> list:
    """Expand the accepted shorthand shapes into per-step, per-asset lists."""

    def is_number(x) -> bool:
        return isinstance(x, (int, str, float, Fraction)) or not isinstance(x, (list, tuple))

    if isinstance(ratios, (list, tuple)) and ratios and all(is_number(r) for r in ratios):
        full = [[ratios] * n_assets for _ in range(n_steps)]
    elif (
        isinstance(ratios, (list, tuple))
        and len(ratios) == n_steps
        and all(isinstance(r, (list, tuple)) and r and all(is_number(x) for x in r) for r in ratios)
    ):
        if n_assets != 1:
            raise PreconditionError(
                "per-step ratio lists need an inner per-asset level when n_assets > 1"
            )
        full = [[list(r)] for r in ratios]
    else:
        if not isinstance(ratios, (list, tuple)) or len(ratios) != n_steps:
            raise PreconditionError("expected one ratio set per step")
        full = []
        for t, per_asset in enumerate(ratios):
            if not isinstance(per_asset, (list, tuple)) or len(per_asset) != n_assets:
                raise PreconditionError(f"step {t}: expected one ratio set per asset")
            full.append([list(r) for r in per_asset])

    out = []
    converted: dict = {}  # each set given converted once, so a flat set is shared
    for t, per_asset in enumerate(full):
        row = []
        for i, rset in enumerate(per_asset):
            if id(rset) not in converted:
                vals = converted[id(rset)] = [ops.convert(x) for x in rset]
                if any(v <= 0 for v in vals):
                    raise PreconditionError(f"step {t}, asset {i + 1}: ratios must be positive")
                if len(set(vals)) != len(vals):
                    raise PreconditionError(f"step {t}, asset {i + 1}: duplicate ratio")
            row.append(converted[id(rset)])
        out.append(row)
    return out


def build_lattice(
    n_assets: int,
    n_steps: int,
    ratios,
    mode: str = RATIONAL,
) -> PathSpace:
    """Enumerate every path whose per-step moves multiply by listed ratios.

    ``ratios`` may be a flat list (one set, reused for every step of a
    single asset), a per-step list of sets (single asset), or a per-step
    list of per-asset sets.  Moves combine freely across steps and assets,
    so the space holds the full product; the size is checked against
    ``PATH_CAP`` before anything is enumerated.
    """
    ops = get_ops(mode)
    sets = _normalise_ratio_sets(ratios, n_assets, n_steps, ops)

    total = 1
    for per_asset in sets:
        for rset in per_asset:
            total *= len(rset)
    if total > PATH_CAP:
        raise CapacityError(f"lattice would hold {total} paths (cap {PATH_CAP})")

    # every ratio as a numerator over one d: a row is the row before it times
    # a move's numerators over d, so over d ** n_steps each division by d is
    # exact (in float mode d is 1 and the floats multiply as they are)
    nums, d = ops.over_common([r for per_asset in sets for rset in per_asset for r in rset])
    ints = iter(nums)
    den = d**n_steps
    level = [(ops.one if ops.mode == FLOAT else den,) * n_assets]
    levels = [level]  # the distinct rows at each grid index, in path order
    for per_asset in sets:
        moves = [()]
        for rset in per_asset:
            numerators = [next(ints) for _ in rset]
            moves = [m + (r,) for m in moves for r in numerators]
        if d == 1:
            level = [tuple(x * r for x, r in zip(row, move)) for row in level for move in moves]
        else:
            level = [tuple(x * r // d for x, r in zip(row, move)) for row in level for move in moves]
        levels.append(level)
    if den > 1:
        # over the lcm of the coordinates' reduced denominators, as over_common puts them
        g = gcd(den, *(x for level in levels for row in level for x in row))
        if g > 1:
            den //= g
            levels = [[tuple(x // g for x in row) for row in level] for level in levels]

    paths = [(row,) for row in levels[0]]
    for level in levels[1:]:
        rows, fan = iter(level), len(level) // len(paths)
        paths = [path + (next(rows),) for path in paths for _ in range(fan)]
    return PathSpace(n_steps, n_assets, 0, tuple(paths), den, mode)


def space_from_paths(
    values: Sequence[Sequence[Sequence[Any]]],
    n_assets: int,
    mode: str = RATIONAL,
    dynamic_options: tuple = (),
) -> PathSpace:
    """Build a space from explicit per-path coordinate rows, converted to the mode."""
    if not values:
        raise PreconditionError("a path space needs at least one path")
    if len(values) > PATH_CAP:
        raise CapacityError(f"{len(values)} paths exceeds the cap {PATH_CAP}")
    nums, den = get_ops(mode).over_common([x for path in values for row in path for x in row])
    ints = iter(nums)
    paths = tuple(tuple(tuple(next(ints) for _ in row) for row in path) for path in values)
    n_steps = len(paths[0]) - 1
    if n_steps < 1:
        raise PreconditionError("paths need at least one step")
    n_options = len(dynamic_options)
    return PathSpace(n_steps, n_assets, n_options, paths, den, mode, tuple(dynamic_options))


def _geometric_interior(y, k: int, n: int, ops: ModeOps):
    """The value ``y ** (k/n)``, exact in rational mode or an error.

    ``k = 0`` is 1 even at ``y = 0``: the coordinate starts at the
    normalised quote and only then collapses.
    """
    if k == 0:
        return ops.one
    if ops.mode == FLOAT:
        return float(y) ** (k / n)
    value = Fraction(y)
    if value == 0:
        return ops.zero
    num = _nth_root_exact(value.numerator**k, n)
    den = _nth_root_exact(value.denominator**k, n)
    if num is None or den is None:
        raise PreconditionError(
            f"geometric interior value {format_number(value)}^({k}/{n}) is not rational; "
            "supply a reference measure or use float mode"
        )
    return rat(num, den)


def build_info_space(
    base: PathSpace,
    options: Sequence[Option],
    interior: str = "geometric",
    reference: Optional[Sequence[Any]] = None,
) -> PathSpace:
    """Adjoin traded-option price coordinates to a base asset space.

    Each option contributes one coordinate that starts at 1 and ends at
    ``payoff / price``.  Interior values are free in principle; this
    builder offers two concrete rules.  ``"geometric"`` interpolates each
    path's terminal value along a geometric curve, which keeps rational
    mode exact only when the needed roots exist.  ``"reference"`` takes
    conditional expectations of the terminal value under a caller-supplied
    probability weight vector on the base paths, which must price every
    option at 1 after normalisation and give positive mass to every
    prefix class.
    """
    if base.n_options:
        raise PreconditionError("options can only be adjoined to a pure asset space")
    if not options:
        raise PreconditionError("need at least one option to adjoin")
    from .information import market_partition  # information builds on this module

    ops = base.ops
    n = base.n_steps

    if interior == "reference":
        if reference is None:
            raise PreconditionError("interior='reference' needs a weight vector")
        weights = [ops.convert(w) for w in reference]
        if len(weights) != base.n_paths:
            raise PreconditionError("reference weights must cover every base path")
        if any(w < 0 for w in weights) or not ops.eq(left_sum(weights, ops.zero), ops.one):
            raise PreconditionError("reference weights must be a probability vector")
    elif interior == "geometric":
        weights = None
        if reference is not None:
            raise PreconditionError("reference weights only apply with interior='reference'")
    else:
        raise PreconditionError(f"unknown interior rule {interior!r}")

    columns = []  # per option: per path: per grid index
    for j, option in enumerate(options):
        payoffs = base.claim_values(option.payoff)
        price = ops.convert(option.price)
        if not ops.pos(price):
            raise PreconditionError(f"option {j + 1}: price must be positive")
        terminal = []
        for p, payoff in enumerate(payoffs):
            y = payoff / price
            if y < 0:
                raise PreconditionError(
                    f"option {j + 1}: payoff is negative on path {p}; "
                    "price coordinates cannot go negative"
                )
            terminal.append(y)
        if weights is None:
            col = [
                [_geometric_interior(terminal[p], k, n, ops) for k in range(n + 1)]
                for p in range(base.n_paths)
            ]
        else:
            expected = left_sum((w * y for w, y in zip(weights, terminal)), ops.zero)
            if not ops.eq(expected, ops.one):
                raise PreconditionError(
                    f"option {j + 1}: reference measure prices it at "
                    f"{format_number(expected * price)}, quoted {format_number(price)}"
                )
            col = [[None] * (n + 1) for _ in range(base.n_paths)]
            for k in range(n + 1):
                for atom in market_partition(base, k):
                    mass = left_sum((weights[p] for p in atom.paths), ops.zero)
                    if not ops.pos(mass):
                        raise PreconditionError(
                            "reference measure gives zero mass to a prefix class; "
                            "conditional values are undefined there"
                        )
                    value = left_sum((weights[p] * terminal[p] for p in atom.paths), ops.zero)
                    value = value / mass
                    for p in atom.paths:
                        col[p][k] = value
        columns.append(col)

    new_paths = []
    for p in range(base.n_paths):
        rows = []
        for k, row in enumerate(base.rows(p)):
            rows.append(row + tuple(columns[j][p][k] for j in range(len(options))))
        new_paths.append(tuple(rows))

    return space_from_paths(new_paths, base.n_assets, base.mode, tuple(options))


def sup_dist(space: PathSpace, p: int, q: int):
    """Uniform distance between paths ``p`` and ``q``: the largest coordinate gap
    over all grid indices, taken on the integer rows and divided once."""
    gap = max(
        abs(x - y)
        for row_p, row_q in zip(space.nums[p], space.nums[q])
        for x, y in zip(row_p, row_q)
    )
    return space.ops.ratio(gap, space.den)


def fatten(space: PathSpace, subset: Iterable[int], radius) -> tuple:
    """All path indices within ``radius`` of ``subset`` in uniform distance."""
    eps = space.ops.convert(radius)
    if eps < 0:
        raise PreconditionError("fattening radius must be nonnegative")
    core = space.path_set(subset)
    out = []
    for q in range(space.n_paths):
        dist = min(sup_dist(space, q, p) for p in core)
        if dist <= eps:
            out.append(q)
    return tuple(out)


__all__ = [
    "PATH_CAP",
    "PathSpace",
    "Option",
    "StaticOptionBook",
    "build_lattice",
    "space_from_paths",
    "build_info_space",
    "sup_dist",
    "fatten",
    # re-exported, uncalled here: perfbench's span wrappers look it up in this module
    "parse_payoff",
]
