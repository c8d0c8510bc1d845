"""Structured report rendering.

Reports are plain dictionaries of strings, numbers-as-strings, lists, and
nested dictionaries, rendered as JSON with a fixed layout.  Numbers are
formatted through :func:`rip._numeric.format_number`, so exact rationals
survive a round trip as ``"p/q"`` strings and the rendered bytes are a
deterministic function of the report content.
"""

from __future__ import annotations

import json
from typing import Any, Optional

from ._numeric import format_number
from .information import Atom


def num(x: Any) -> str:
    return format_number(x)


def atom_entry(atom: Atom) -> dict:
    out: dict = {"paths": list(atom.paths)}
    if atom.label is not None:
        out["label"] = num(atom.label)
    return out


def measure_entry(measure) -> dict:
    weights = [
        [p, num(measure.weights[p])]
        for p in measure.support
        if measure.weights[p] != 0
    ]
    return {"weights": weights}


def strategy_entry(strategy) -> dict:
    dynamic = []
    for (t, paths), holding in sorted(strategy.dynamic.items()):
        dynamic.append({"t": t, "paths": list(paths), "holding": [num(h) for h in holding]})
    return {"static": [num(a) for a in strategy.static], "dynamic": dynamic}


def ray_entry(ray) -> dict:
    return {**strategy_entry(ray), "cost": num(ray.cost)}


def to_text(report: dict) -> str:
    """Render a report; equal reports give byte-identical text."""
    return json.dumps(report, indent=2, allow_nan=False) + "\n"


def from_text(text: str) -> dict:
    return json.loads(text)
