"""Model files.

A model file is a YAML document describing a market on a finite path space,
plus the question being asked of it: an information structure, a claim or a
family of claims, and optional restrictions.  Validation is collective: the
loader walks the whole document and raises a single
:class:`~rip.errors.InvalidModelError` carrying every problem found, rather
than stopping at the first one.

Texts are read by ``yaml.CSafeLoader`` (libyaml) where PyYAML has it, else by
``yaml.SafeLoader``, which also reads streams and re-reads a text libyaml refuses.

Top-level keys::

    mode             "rational" (default) or "float"
    grid             {steps: int, horizon: number}   (horizon optional)
    lattice          {ratios: [...], assets: int}    (exclusive with paths)
    paths            [[s_0, s_1, ...], ...]          (exclusive with lattice)
    dynamic_options  [{payoff, price, name}] or
                     {interior: geometric|reference, reference: [...],
                      options: [...]}
    static_options   [{payoff, price, name}, ...]
    info             {variant, variable, arrival}
    claim            payoff expression
    claims           [payoff expression, ...]
    target           [path index, ...]
    split            int
    tolerances       {feasibility, label, duality}   (float mode only; feasibility > 0)

``grid.horizon`` is read and checked, and then nothing depends on it: no
value, report or check changes with a model's horizon.

Numbers may be written as YAML integers or floats, or as strings such as
``"2/3"`` which are read exactly in rational mode.  Lattice ratios follow the
shapes accepted by :func:`rip.paths.build_lattice`.  Explicit ``paths`` rows
give one time series per asset; series are nested per time index when there is
more than one asset.  Initial prices need not be 1: each asset's series is
divided by its starting value, which is recorded in ``ModelConfig.scales``.
A starting value of zero is rejected.

The ``info.variable`` entry is either a payoff expression evaluated on the
asset coordinates, or a mapping naming a catalog variable::

    {catalog: max-abs-deviation, asset: 1}
    {catalog: range-indicator, lower: 3/4, upper: 3/2, asset: 1}
    {catalog: tail-max-ratio, arrival: 1, asset: 1}
    {catalog: tail-range-indicator, lower: .., upper: .., arrival: 1, asset: 1}
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, List, Optional, Tuple

from ._numeric import FLOAT, MODES, ModeOps, RATIONAL, get_ops, rat
from .errors import InvalidModelError, PreconditionError, RipError
from .information import (
    InfoStructure,
    InfoVariable,
    VARIANT_DYNAMIC,
    VARIANT_NONE,
    VARIANTS,
    info_from_payoff,
    max_abs_deviation,
    range_indicator,
    tail_max_ratio,
    tail_range_indicator,
)
from .payoff import Expr, parse_payoff, validate_payoff
from .paths import (
    Option,
    PathSpace,
    StaticOptionBook,
    build_info_space,
    build_lattice,
    space_from_paths,
)

_TOP_KEYS = {
    "mode",
    "grid",
    "lattice",
    "paths",
    "dynamic_options",
    "static_options",
    "info",
    "claim",
    "claims",
    "target",
    "split",
    "tolerances",
}

# catalog entry: (constructor, the keys it takes besides asset, in argument order)
_CATALOG = {
    "max-abs-deviation": (max_abs_deviation, ()),
    "range-indicator": (range_indicator, ("lower", "upper")),
    "tail-max-ratio": (tail_max_ratio, ("arrival",)),
    "tail-range-indicator": (tail_range_indicator, ("lower", "upper", "arrival")),
}


@dataclass
class ModelConfig:
    """A fully validated model, ready to hand to the library."""

    space: PathSpace
    book: StaticOptionBook
    info: InfoStructure
    claim: Optional[Expr] = None
    claims: Tuple[Expr, ...] = ()
    target: Optional[Tuple[int, ...]] = None
    split: Optional[int] = None
    scales: Tuple[Any, ...] = ()
    claim_text: str = ""
    claim_texts: Tuple[str, ...] = ()


class _Collector:
    def __init__(self) -> None:
        self.errors: List[str] = []

    def add(self, where: str, message: str) -> None:
        self.errors.append(f"{where}: {message}")

    def mark(self) -> int:
        return len(self.errors)

    def grew(self, mark: int) -> bool:
        return len(self.errors) > mark

    def raise_if_any(self) -> None:
        if self.errors:
            raise InvalidModelError(self.errors)


def _as_int(value: Any, where: str, errs: _Collector) -> Optional[int]:
    if isinstance(value, bool) or not isinstance(value, int):
        errs.add(where, f"expected an integer, got {value!r}")
        return None
    return value


def _as_number(value: Any, mode: str, where: str, errs: _Collector):
    """A finite number of the mode, or ``None`` with the problem reported."""
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        errs.add(where, f"expected a number, got {value!r}")
        return None
    try:
        parsed = rat(value) if isinstance(value, str) else value
    except (ValueError, ZeroDivisionError) as exc:
        errs.add(where, f"could not read {value!r} as a number ({exc})")
        return None
    try:
        number = float(parsed) if mode == FLOAT else get_ops(RATIONAL).convert(parsed)
        finite = mode != FLOAT or math.isfinite(number)
    except (OverflowError, PreconditionError):  # too large for a float; nan or inf read exactly
        finite = False
    if not finite:
        errs.add(where, f"expected a finite number, got {value!r}")
        return None
    return number


def _as_mapping(value: Any, where: str, errs: _Collector) -> Optional[dict]:
    if not isinstance(value, dict):
        errs.add(where, f"expected a mapping, got {type(value).__name__}")
        return None
    return value


def _as_list(value: Any, where: str, errs: _Collector) -> Optional[list]:
    if not isinstance(value, list):
        errs.add(where, f"expected a list, got {type(value).__name__}")
        return None
    return value


def _check_keys(mapping: dict, allowed: set, where: str, errs: _Collector) -> None:
    for key in mapping:
        if key not in allowed:
            errs.add(where, f"unknown key {key!r}")


def _expr(text: Any, n_coords: int, n_steps: int, where: str, errs: _Collector) -> Optional[Expr]:
    """A payoff parsed and checked against the space's shape; ``None`` on a reported problem."""
    if not isinstance(text, str):
        errs.add(where, f"expected a payoff expression string, got {text!r}")
        return None
    try:
        expr = parse_payoff(text)
        validate_payoff(expr, n_coords, n_steps)
    except RipError as exc:
        errs.add(where, str(exc))
        return None
    return expr


def _parse_grid(doc: dict, mode: str, errs: _Collector) -> Optional[int]:
    """``grid.steps``, or None; ``grid.horizon`` is checked and then dropped."""
    grid = doc.get("grid")
    if grid is None:
        return None
    mapping = _as_mapping(grid, "grid", errs)
    if mapping is None:
        return None
    _check_keys(mapping, {"steps", "horizon"}, "grid", errs)
    steps = None
    if "steps" in mapping:
        steps = _as_int(mapping["steps"], "grid.steps", errs)
        if steps is not None and steps < 1:
            errs.add("grid.steps", "must be at least 1")
            steps = None
    if "horizon" in mapping:
        _as_number(mapping["horizon"], mode, "grid.horizon", errs)
    return steps


def _parse_ratio_entry(entry: Any, mode: str, where: str, errs: _Collector):
    if isinstance(entry, list):
        return [_parse_ratio_entry(e, mode, where, errs) for e in entry]
    return _as_number(entry, mode, where, errs)


def _build_base_space(
    doc: dict, mode: str, steps: Optional[int], errs: _Collector
) -> Tuple[Optional[PathSpace], Tuple[Any, ...]]:
    has_lattice = "lattice" in doc
    has_paths = "paths" in doc
    if has_lattice == has_paths:
        errs.add("model", "exactly one of 'lattice' or 'paths' is required")
        return None, ()

    if has_lattice:
        lattice = _as_mapping(doc["lattice"], "lattice", errs)
        if lattice is None:
            return None, ()
        _check_keys(lattice, {"ratios", "assets"}, "lattice", errs)
        assets = 1
        if "assets" in lattice:
            got = _as_int(lattice["assets"], "lattice.assets", errs)
            if got is not None and got < 1:
                errs.add("lattice.assets", "must be a positive integer")
            elif got is not None:
                assets = got
        if steps is None:
            errs.add("grid.steps", "required when building a lattice")
            return None, ()
        raw = lattice.get("ratios")
        ratios_list = _as_list(raw, "lattice.ratios", errs)
        if ratios_list is None:
            return None, ()
        mark = errs.mark()
        ratios = _parse_ratio_entry(ratios_list, mode, "lattice.ratios", errs)
        if errs.grew(mark):
            return None, ()
        try:
            space = build_lattice(assets, steps, ratios, mode=mode)
        except RipError as exc:
            errs.add("lattice", str(exc))
            return None, ()
        return space, tuple(space.ops.one for _ in range(assets))

    rows = _as_list(doc["paths"], "paths", errs)
    if rows is None or not rows:
        errs.add("paths", "at least one path is required")
        return None, ()
    mark = errs.mark()
    parsed_rows = []
    for i, row in enumerate(rows):
        series = _as_list(row, f"paths[{i}]", errs)
        if series is None:
            return None, ()
        if series and not isinstance(series[0], list):
            series = [[v] for v in series]
        parsed = [
            [
                _as_number(v, mode, f"paths[{i}][{k}]", errs)
                for v in (step if isinstance(step, list) else [step])
            ]
            for k, step in enumerate(series)
        ]
        parsed_rows.append(parsed)
    if errs.grew(mark):
        return None, ()

    widths = {len(step) for row in parsed_rows for step in row}
    lengths = {len(row) for row in parsed_rows}
    if len(widths) != 1 or len(lengths) != 1:
        errs.add("paths", "all paths must share one length and one asset count")
        return None, ()
    n_assets = widths.pop()
    n_points = lengths.pop()
    if n_points < 2:
        errs.add("paths", "paths need at least a start and one step")
        return None, ()
    if steps is not None and steps != n_points - 1:
        errs.add("grid.steps", f"grid declares {steps} steps but paths have {n_points - 1}")
        return None, ()

    scales = []
    for a in range(n_assets):
        start = parsed_rows[0][0][a]
        for i, row in enumerate(parsed_rows):
            if row[0][a] != start:
                errs.add(f"paths[{i}]", f"asset {a + 1} does not start at a common value")
        if start == 0:
            errs.add("paths", f"asset {a + 1} starts at zero and cannot be normalised")
            return None, ()
        scales.append(start)
    if errs.grew(mark):
        return None, ()
    normalised = [
        tuple(tuple(step[a] / scales[a] for a in range(n_assets)) for step in row)
        for row in parsed_rows
    ]
    try:
        space = space_from_paths(normalised, n_assets=n_assets, mode=mode)
    except RipError as exc:
        errs.add("paths", str(exc))
        return None, ()
    return space, tuple(scales)


def _option_entries(
    entries: list, key: str, default_name: str,
    n_coords: int, n_steps: int, mode: str, errs: _Collector,
) -> list:
    """The ``{payoff, price, name}`` entries of an option list that read cleanly.

    Dynamic options pay on the base assets, static ones on every coordinate,
    so the caller passes the coordinate count the payoffs may reference.
    """
    options = []
    for i, entry in enumerate(entries):
        where = f"{key}[{i}]"
        mapping = _as_mapping(entry, where, errs)
        if mapping is None:
            continue
        _check_keys(mapping, {"payoff", "price", "name"}, where, errs)
        payoff = _expr(mapping.get("payoff"), n_coords, n_steps, f"{where}.payoff", errs)
        price = _as_number(mapping.get("price"), mode, f"{where}.price", errs)
        name = mapping.get("name", f"{default_name}{i + 1}")
        if payoff is not None and price is not None:
            options.append(Option(payoff=payoff, price=price, name=str(name)))
    return options


def _parse_dynamic_options(
    doc: dict, space: PathSpace, mode: str, errs: _Collector
) -> Optional[PathSpace]:
    block = doc.get("dynamic_options")
    if block is None:
        return space

    interior = "geometric"
    reference = None
    if isinstance(block, dict):
        _check_keys(block, {"interior", "reference", "options"}, "dynamic_options", errs)
        interior = block.get("interior", "geometric")
        reference = block.get("reference")
        entries = _as_list(block.get("options"), "dynamic_options.options", errs)
    else:
        entries = _as_list(block, "dynamic_options", errs)
    if entries is None:
        return space
    if interior not in ("geometric", "reference"):
        errs.add("dynamic_options.interior", f"unknown rule {interior!r}")
        return space

    mark = errs.mark()
    options = _option_entries(
        entries, "dynamic_options", "option",
        space.n_assets, space.n_steps, mode, errs,
    )
    if not options and not errs.grew(mark):
        errs.add("dynamic_options", "no options given")
    if errs.grew(mark):
        return space

    weights = None
    if reference is not None:
        ref_list = _as_list(reference, "dynamic_options.reference", errs)
        if ref_list is None:
            return space
        weights = [
            _as_number(v, mode, f"dynamic_options.reference[{i}]", errs)
            for i, v in enumerate(ref_list)
        ]
        if errs.grew(mark):
            return space
    try:
        return build_info_space(space, options, interior=interior, reference=weights)
    except RipError as exc:
        errs.add("dynamic_options", str(exc))
        return space


def _parse_static_options(
    doc: dict, space: PathSpace, mode: str, errs: _Collector
) -> StaticOptionBook:
    entries = doc.get("static_options")
    if entries is None:
        return StaticOptionBook.cash_only()
    rows = _as_list(entries, "static_options", errs)
    if rows is None:
        return StaticOptionBook.cash_only()
    mark = errs.mark()
    options = _option_entries(
        rows, "static_options", "static",
        space.n_coords, space.n_steps, mode, errs,
    )
    if errs.grew(mark):
        return StaticOptionBook.cash_only()
    return StaticOptionBook.of(*options)


def _parse_variable(spec: Any, space: PathSpace, mode: str, errs: _Collector) -> Optional[InfoVariable]:
    if isinstance(spec, str):
        expr = _expr(spec, space.n_assets, space.n_steps, "info.variable", errs)
        if expr is None:
            return None
        return info_from_payoff(expr, name=spec)
    mapping = _as_mapping(spec, "info.variable", errs)
    if mapping is None:
        return None
    name = mapping.get("catalog")
    if not isinstance(name, str) or name not in _CATALOG:
        errs.add("info.variable", f"unknown catalog entry {name!r}")
        return None
    constructor, keys = _CATALOG[name]
    _check_keys(mapping, {"catalog", "asset", *keys}, "info.variable", errs)
    asset = mapping.get("asset", 1)
    if not isinstance(asset, int) or isinstance(asset, bool) or not 1 <= asset <= space.n_assets:
        errs.add("info.variable", f"asset must be in 1..{space.n_assets}")
        return None

    def argument(key: str):
        if key not in mapping:
            errs.add("info.variable", f"{name} requires {key!r}")
            return None
        if key != "arrival":
            return _as_number(mapping[key], mode, f"info.variable.{key}", errs)
        k = _as_int(mapping[key], "info.variable.arrival", errs)
        if k is not None and not 0 <= k <= space.n_steps:
            errs.add("info.variable.arrival", f"must be in 0..{space.n_steps}")
            return None
        return k

    args = [argument(key) for key in keys]
    if any(a is None for a in args):
        return None
    return constructor(*args, asset=asset)


def _parse_info(doc: dict, space: PathSpace, mode: str, errs: _Collector) -> InfoStructure:
    block = doc.get("info")
    if block is None:
        return InfoStructure.none()
    mapping = _as_mapping(block, "info", errs)
    if mapping is None:
        return InfoStructure.none()
    _check_keys(mapping, {"variant", "variable", "arrival"}, "info", errs)
    variant = mapping.get("variant", VARIANT_NONE)
    if variant not in VARIANTS:
        errs.add("info.variant", f"unknown variant {variant!r}; expected one of {sorted(VARIANTS)}")
        return InfoStructure.none()
    if variant == VARIANT_NONE:
        for key in ("variable", "arrival"):
            if key in mapping:
                errs.add("info", f"variant 'none' does not take {key!r}")
        return InfoStructure.none()
    if "variable" not in mapping:
        errs.add("info", f"variant {variant!r} requires a variable")
        return InfoStructure.none()
    variable = _parse_variable(mapping["variable"], space, mode, errs)
    if variable is None:
        return InfoStructure.none()
    if variant == VARIANT_DYNAMIC:
        if "arrival" not in mapping:
            errs.add("info", "variant 'dynamic' requires an arrival time")
            return InfoStructure.none()
        arrival = _as_int(mapping["arrival"], "info.arrival", errs)
        if arrival is None:
            return InfoStructure.none()
        if not 1 <= arrival <= space.n_steps - 1:
            errs.add(
                "info.arrival",
                f"must be strictly between 0 and {space.n_steps}; "
                "an arrival at time 0 is the static variant",
            )
            return InfoStructure.none()
        return InfoStructure.dynamic(variable, arrival)
    if "arrival" in mapping:
        errs.add("info", f"variant {variant!r} does not take an arrival time")
    return InfoStructure(variant=variant, variable=variable)


def _parse_tolerances(doc: dict, mode: str, errs: _Collector) -> Optional[ModeOps]:
    block = doc.get("tolerances")
    if block is None:
        return None
    mapping = _as_mapping(block, "tolerances", errs)
    if mapping is None:
        return None
    _check_keys(mapping, {"feasibility", "label", "duality"}, "tolerances", errs)
    if mode != FLOAT:
        errs.add("tolerances", "only meaningful in float mode")
        return None
    base = get_ops(FLOAT)
    values = {}
    for key, attr in (("feasibility", "feas_tol"), ("label", "label_tol"), ("duality", "dual_tol")):
        if key in mapping:
            got = _as_number(mapping[key], FLOAT, f"tolerances.{key}", errs)
            if got is None:
                continue
            # at a feasibility tolerance of 0 the float simplex pivots on round-off
            least = "positive" if key == "feasibility" else "nonnegative"
            if got < 0 or (got == 0 and least == "positive"):
                message = f"expected a finite {least} number, got {mapping[key]!r}"
                errs.add(f"tolerances.{key}", message)
                continue
            values[attr] = got
    return ModeOps(
        mode=FLOAT,
        feas_tol=values.get("feas_tol", base.feas_tol),
        label_tol=values.get("label_tol", base.label_tol),
        dual_tol=values.get("dual_tol", base.dual_tol),
    )


def _read_yaml(source: Any) -> Any:
    """The document of a YAML text or stream, read by PyYAML's safe loader."""
    import yaml  # imported here, so that ``import rip`` does not load it

    if isinstance(source, str) and hasattr(yaml, "CSafeLoader"):
        try:
            return yaml.load(source, Loader=yaml.CSafeLoader)
        except yaml.YAMLError:
            pass  # read again below: the pure loader's message quotes the faulty line
    try:
        return yaml.load(source, Loader=yaml.SafeLoader)
    except yaml.YAMLError as exc:
        raise InvalidModelError([f"model: not valid YAML ({exc})"]) from exc


def parse_model(source: Any, mode_override: Optional[str] = None) -> ModelConfig:
    """Read and validate a model.

    ``source`` is a YAML text, an already-parsed mapping, or an open file
    object.  ``mode_override`` replaces the document's arithmetic mode, which
    is how the command line's ``--mode`` flag is applied.
    """
    doc = source if isinstance(source, dict) else _read_yaml(source)
    if not isinstance(doc, dict):
        raise InvalidModelError(["model: the document must be a mapping"])

    errs = _Collector()
    _check_keys(doc, _TOP_KEYS, "model", errs)

    mode = doc.get("mode", RATIONAL)
    if mode not in MODES:
        errs.add("mode", f"expected one of {sorted(MODES)}, got {mode!r}")
        mode = RATIONAL
    if mode_override is not None:
        if mode_override not in MODES:
            errs.add("mode", f"override {mode_override!r} is not a valid mode")
        else:
            mode = mode_override

    steps = _parse_grid(doc, mode, errs)
    space, scales = _build_base_space(doc, mode, steps, errs)
    if space is None:
        errs.raise_if_any()
        raise InvalidModelError(["model: no path space could be built"])

    space = _parse_dynamic_options(doc, space, mode, errs)
    book = _parse_static_options(doc, space, mode, errs)
    info = _parse_info(doc, space, mode, errs)
    custom_ops = _parse_tolerances(doc, mode, errs)
    if custom_ops is not None and not errs.errors:
        space.ops = custom_ops

    claim = None
    claim_text = ""
    if "claim" in doc:
        claim = _expr(doc["claim"], space.n_coords, space.n_steps, "claim", errs)
        claim_text = doc["claim"] if isinstance(doc["claim"], str) else ""

    claims: List[Expr] = []
    claim_texts: List[str] = []
    if "claims" in doc:
        rows = _as_list(doc["claims"], "claims", errs)
        for i, row in enumerate(rows or []):
            got = _expr(row, space.n_coords, space.n_steps, f"claims[{i}]", errs)
            if got is not None:
                claims.append(got)
                claim_texts.append(row)

    target = None
    if "target" in doc:
        rows = _as_list(doc["target"], "target", errs)
        if rows is not None:
            if not rows:
                errs.add("target", "must not be empty")
            picks = []
            for i, row in enumerate(rows):
                idx = _as_int(row, f"target[{i}]", errs)
                if idx is not None and not 0 <= idx < space.n_paths:
                    errs.add(f"target[{i}]", f"path index out of range 0..{space.n_paths - 1}")
                elif idx is not None:
                    picks.append(idx)
            if picks:
                target = tuple(sorted(set(picks)))

    split = None
    if "split" in doc:
        split = _as_int(doc["split"], "split", errs)
        if split is not None and not 0 <= split <= space.n_steps:
            errs.add("split", f"must be in 0..{space.n_steps}")
            split = None

    errs.raise_if_any()
    return ModelConfig(
        space=space,
        book=book,
        info=info,
        claim=claim,
        claims=tuple(claims),
        target=target,
        split=split,
        scales=scales,
        claim_text=claim_text,
        claim_texts=tuple(claim_texts),
    )


def load_model(path: str, mode_override: Optional[str] = None) -> ModelConfig:
    """Read a model from a file on disk."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise InvalidModelError([f"model: cannot read {path!r} ({exc})"]) from exc
    return parse_model(text, mode_override=mode_override)


__all__ = ["ModelConfig", "load_model", "parse_model"]
