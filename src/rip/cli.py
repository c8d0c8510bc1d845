"""Command line front end.

Every command reads a model file, runs one analysis, and prints a JSON
report.  Reports are deterministic: running the same command on the same
file twice produces byte-identical output.  Exit status 0 means the
analysis ran and found no degeneracies, 2 means it ran but surfaced
infeasibilities or undefined values (listed under ``findings``), and 1
means the run itself failed (bad file, bad flags, violated precondition).

Usage::

    rip price      --model m.yaml [--t1 N] [--atom LABEL] [--mode M] [--out F]
    rip hedge      --model m.yaml [--t1 N] [--atom LABEL] [--mode M] [--out F]
    rip duality    --model m.yaml [--t1 N] [--atom LABEL] [--mode M] [--out F]
    rip dpp        --model m.yaml [--t1 N] [--mode M] [--out F]
    rip info-value --model m.yaml [--t1 N] [--mode M] [--out F]
    rip chain      --model m.yaml [--atom LABEL] [--mode M] [--out F]

``--t1`` moves a dynamic label's arrival (price, hedge, duality), the
split (dpp) or the arrival of the label whose premium is asked
(info-value); ``--atom`` keeps one labelled atom of a per-atom report.
A subcommand refuses a flag it cannot use, as a usage error (exit 1).
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import fields
from typing import List, Optional, Tuple

from ._numeric import MODES, is_neg_inf
from .errors import InvalidModelError, RipError
from .hedging import dpp_superhedge, superhedge
from .information import InfoStructure, VARIANT_DYNAMIC
from .modelfile import ModelConfig, load_model
from .pricing import dpp_price, model_price
from .report import (
    atom_entry,
    measure_entry,
    num,
    ray_entry,
    strategy_entry,
    to_text,
)
from .valuation import chain_quantities, duality_report, info_value_report


def _require_claim(config: ModelConfig):
    if config.claim is None:
        raise RipError("this command needs a 'claim' entry in the model file")
    return config.claim


def _model_block(config: ModelConfig) -> dict:
    block = {
        "space": config.space.describe(),
        "information": config.info.describe(),
    }
    statics = config.book.describe()
    if statics:
        block["static_options"] = statics
    if any(s != config.space.ops.one for s in config.scales):
        block["scales"] = [num(s) for s in config.scales]
    return block


def _apply_t1(config: ModelConfig, t1: Optional[int]) -> None:
    """Move the dynamic label's arrival to ``--t1``, if given."""
    if t1 is None:
        return
    if config.info.variant != VARIANT_DYNAMIC:
        raise RipError("--t1 adjusts a dynamic information variant; this model has none")
    config.info = InfoStructure.dynamic(config.info.variable, t1)


def _filter_atoms(entries: List[dict], label: Optional[str]) -> List[dict]:
    if label is None:
        return entries
    picked = [e for e in entries if e["atom"].get("label") == label]
    if not picked:
        known = sorted({e["atom"].get("label") for e in entries if "label" in e["atom"]})
        raise RipError(
            f"no atom labelled {label!r}; known labels: {', '.join(known) or '(none)'}"
        )
    return picked


def _timings(answers) -> dict:
    """The programs behind ``HedgeValue``s and ``PriceValue``s: how many, and their pivots."""
    answers = tuple(answers)
    return {"lp_solves": len(answers), "simplex_pivots": sum(a.pivots for a in answers)}


def _table_report(config: ModelConfig, args, table, witness, finding: str):
    """Per-atom entries of a price or hedge table, with the witness fields."""
    findings = []
    entries = []
    for atom, v in table:
        entry = {"atom": atom_entry(atom), "value": num(v.value)}
        entry.update(witness(v))
        entries.append(entry)
        if not v.finite:
            findings.append(f"{finding} on the atom containing path {atom.paths[0]}")
    report = {
        "claim": config.claim_text,
        "atoms": _filter_atoms(entries, args.atom),
        "timings": _timings(table.values()),
    }
    return report, findings


def _price_witness(pv) -> dict:
    out = {}
    if pv.measure is not None:
        out["measure"] = measure_entry(pv.measure)
    if pv.certificate is not None:
        out["infeasible"] = True
    return out


def _hedge_witness(hv) -> dict:
    out = {}
    if hv.strategy is not None:
        out["strategy"] = strategy_entry(hv.strategy)
    if hv.ray is not None:
        out["arbitrage"] = ray_entry(hv.ray)
    return out


def _run_price(config: ModelConfig, args) -> Tuple[dict, List[str]]:
    _apply_t1(config, args.t1)
    claim = _require_claim(config)
    table = model_price(config.space, config.target, config.info, claim, config.book)
    return _table_report(config, args, table, _price_witness, "no calibrated measure lives")


def _run_hedge(config: ModelConfig, args) -> Tuple[dict, List[str]]:
    _apply_t1(config, args.t1)
    claim = _require_claim(config)
    table = superhedge(config.space, config.target, config.info, claim, config.book)
    return _table_report(config, args, table, _hedge_witness, "hedging is unbounded below")


def _run_duality(config: ModelConfig, args) -> Tuple[dict, List[str]]:
    _apply_t1(config, args.t1)
    claim = _require_claim(config)
    result = duality_report(config.space, claim, config.info, config.book)
    findings = []
    entries = []
    for entry in result.entries:
        row = {
            "atom": atom_entry(entry.atom),
            "hedge": num(entry.hedge.value),
            "price": num(entry.price.value),
        }
        if entry.feasible:
            row["gap"] = num(entry.gap)
        else:
            row["infeasible"] = True
            findings.append(
                "no calibrated measure lives on the atom containing path "
                f"{entry.atom.paths[0]}"
            )
        entries.append(row)
    report = {
        "claim": config.claim_text,
        "atoms": _filter_atoms(entries, args.atom),
        "tight_everywhere": result.tight_everywhere,
        "aggregate": {
            "hedge": num(result.aggregate_hedge),
            "price": num(result.aggregate_price),
        },
        "timings": _timings(v for e in result.entries for v in (e.hedge, e.price)),
    }
    if result.chain is not None:
        report["chain"] = {
            "values": [num(v) for v in result.chain.values()],
            "all_equal": result.chain.all_equal,
        }
    return report, findings


def _run_dpp(config: ModelConfig, args) -> Tuple[dict, List[str]]:
    claim = _require_claim(config)
    if not config.book.is_cash_only:
        raise RipError("the two-stage decomposition is cash-only; drop static_options")
    split = args.t1
    if split is None:
        split = config.split
    if split is None and config.info.variant == VARIANT_DYNAMIC:
        split = config.info.arrival
    if split is None:
        raise RipError("give a split index via --t1 or a 'split' entry")
    if config.info.variant == VARIANT_DYNAMIC and config.info.arrival != split:
        config.info = InfoStructure.dynamic(config.info.variable, split)

    hedge = dpp_superhedge(config.space, claim, split, config.info)
    price = dpp_price(config.space, claim, split, config.info)
    findings = []
    if is_neg_inf(hedge.direct):
        findings.append("the direct superhedging value is -inf")
    if not hedge.agree:
        findings.append("hedge decomposition mismatch (direct != composed)")
    if not price.agree:
        findings.append("price decomposition mismatch (direct != composed)")

    def side(dec) -> dict:
        return {
            "direct": num(dec.direct),
            "composed": num(dec.composed),
            "agree": dec.agree,
            "interval_values": [
                {"atom": atom_entry(atom), "value": num(v.value)} for atom, v in dec.inner
            ],
            "timings": _timings(dec.inner.values()),
        }

    report = {
        "claim": config.claim_text,
        "split": split,
        "hedge": side(hedge),
        "price": side(price),
    }
    return report, findings


def _run_info_value(config: ModelConfig, args) -> Tuple[dict, List[str]]:
    if config.info.variable is None:
        raise RipError("this command needs an 'info' block with a variable")
    claims = list(config.claims)
    texts = list(config.claim_texts)
    if config.claim is not None:
        claims.append(config.claim)
        texts.append(config.claim_text)
    if not claims:
        raise RipError("give a 'claim' or a 'claims' list")
    arrival = args.t1
    if arrival is None:
        arrival = config.info.arrival if config.info.arrival is not None else 0
    result = info_value_report(config.space, config.info.variable, arrival, claims)
    findings = []
    entries = []
    for text, entry in zip(texts, result.entries):
        row = {
            "claim": text,
            "uninformed": num(entry.base),
            "informed": num(entry.informed),
        }
        if entry.flag:
            row["flag"] = entry.flag
            findings.append(f"{text}: {entry.flag}")
        else:
            row["premium"] = num(entry.value)
        entries.append(row)
    report = {
        "arrival": result.arrival,
        "variable": result.variable_name,
        "claims": entries,
        "value": None if result.value is None else num(result.value),
    }
    return report, findings


def _run_chain(config: ModelConfig, args) -> Tuple[dict, List[str]]:
    claim = _require_claim(config)
    if config.info.variable is None:
        raise RipError("this command needs an 'info' block with a variable")
    if not config.book.is_cash_only:
        raise RipError("the five-way chain is cash-only; drop static_options")
    result = chain_quantities(config.space, config.info.variable, claim)
    per_atom = [
        {
            "atom": {"label": num(label)},
            "hedge": num(hedge),
            "price": num(price),
            "forced_price": num(forced),
        }
        for label, hedge, price, forced in result.per_atom
    ]
    findings = []
    if all(is_neg_inf(v) for v in result.values()):
        findings.append("every quantity in the chain is -inf")
    if not result.all_equal:
        findings.append("chain values disagree")
    report = {
        "claim": config.claim_text,
        # the first fields of ChainQuantities name the routes of values(), in order
        "quantities": {f.name: num(v) for f, v in zip(fields(result), result.values())},
        "all_equal": result.all_equal,
        "per_atom": _filter_atoms(per_atom, args.atom),
    }
    return report, findings


# the optional flags a subcommand may take, besides --model, --mode and --out
_FLAGS = {
    "--t1": dict(type=int, default=None, metavar="N",
                 help="information arrival / split index"),
    "--atom": dict(default=None, metavar="LABEL",
                   help="restrict the report to one labelled atom"),
}

# subcommand: (help text, runner, the flags of _FLAGS it takes)
_COMMANDS = {
    "price": ("highest expectation under the calibrated measures, per atom",
              _run_price, ("--t1", "--atom")),
    "hedge": ("cheapest superhedging portfolio, per atom",
              _run_hedge, ("--t1", "--atom")),
    "duality": ("hedge and price side by side, with the five-way chain",
                _run_duality, ("--t1", "--atom")),
    "dpp": ("direct value against the two-stage composition at a split",
            _run_dpp, ("--t1",)),
    "info-value": ("premium of a label over a family of claims",
                   _run_info_value, ("--t1",)),
    "chain": ("the five equivalent quantities for a label variable",
              _run_chain, ("--atom",)),
}


@functools.cache
def _build_cli() -> Tuple[argparse.ArgumentParser, dict]:
    """The top-level parser, and each subcommand's own parser by name.

    Built once per process; ``main`` reads each runner off ``_COMMANDS`` per call.
    """
    parser = argparse.ArgumentParser(
        prog="rip",
        description="robust pricing and hedging on finite path spaces",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    commands = {}
    for name, (text, _, flags) in _COMMANDS.items():
        cmd = commands[name] = sub.add_parser(name, help=text, description=text)
        cmd.add_argument("--model", required=True, help="model file (YAML)")
        for flag in flags:
            cmd.add_argument(flag, **_FLAGS[flag])
        cmd.add_argument("--mode", choices=MODES, default=None,
                         help="override the model's arithmetic mode")
        cmd.add_argument("--out", default=None, metavar="FILE",
                         help="write the report here instead of stdout")
    return parser, commands


def main(argv: Optional[List[str]] = None) -> int:
    parser, commands = _build_cli()
    try:
        args, extra = parser.parse_known_args(argv)
        if extra:  # reported against the subcommand's usage, which lists its flags
            commands[args.command].error(f"unrecognized arguments: {' '.join(extra)}")
    except SystemExit as exc:  # argparse has printed the help (0) or a usage error
        return 1 if exc.code else 0
    _, runner, _ = _COMMANDS[args.command]
    try:
        config = load_model(args.model, mode_override=args.mode)
        body, findings = runner(config, args)
    except InvalidModelError as exc:
        for line in exc.errors:
            print(f"error: {line}", file=sys.stderr)
        return 1
    except RipError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    # the model block is read after the runner, which may move the label's arrival
    report = {"command": args.command, "model": _model_block(config), **body,
              "findings": findings}
    text = to_text(report)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            print(f"error: cannot write {args.out!r} ({exc})", file=sys.stderr)
            return 1
    else:
        sys.stdout.write(text)
    return 2 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
