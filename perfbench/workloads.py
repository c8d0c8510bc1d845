"""The three workloads: their questions, how each is asked, and its checks.

A question is what a user of ``rip`` asks and waits on: a path space, a
claim, an information structure, an optional static book and a numeric
mode.  ``ask`` runs inside the timed region and builds everything from the
plain inputs, so no question inherits partition or claim caches from an
earlier one.  ``check`` runs outside it and compares the answer with the
independent reference and the pathwise re-checks; it returns a list of
problems, empty when the answer is right.
"""

from __future__ import annotations

import json
import os
import random
from fractions import Fraction

import yaml

import checks
import inputs
import reference
from checks import Market, exact
from reference import NEG_INF

FLOAT_TOL = 1e-7
HERE = os.path.dirname(os.path.abspath(__file__))


class Question:
    """One question of a workload; ``key`` names it across passes."""

    def __init__(self, key, mode, data):
        self.key = key
        self.mode = mode
        self.data = data


def _same(got, want, mode) -> bool:
    """An answer against a reference value; ``-inf`` only matches ``-inf``."""
    if want == NEG_INF or got == NEG_INF:
        return want == got
    if mode == "float":
        return abs(got - float(want)) <= FLOAT_TOL
    return exact(got) == want


# ---------------------------------------------------------------------------
# lattice questions: `corpus` and `lattice`


def _info(rip, spec, mode):
    """The spec's information structure, built the way criterion 1 builds it."""

    def bound(text):
        return rip._numeric.rat(text) if mode == "rational" else float(Fraction(text))

    info_mod = rip.information
    variant = spec["variant"]
    if variant == "none":
        return info_mod.InfoStructure.none()
    var = spec["var"]
    if variant == "dynamic":
        if var == "tail-max":
            variable = info_mod.tail_max_ratio(spec["arrival"])
        else:
            variable = info_mod.tail_range_indicator(bound("3/4"), bound("3/2"), spec["arrival"])
        return info_mod.InfoStructure.dynamic(variable, spec["arrival"])
    if var == "maxdev":
        variable = info_mod.max_abs_deviation()
    elif var == "range":
        variable = info_mod.range_indicator(bound("3/4"), bound("3/2"))
    else:
        source = f"ind(S[1,1] >= {inputs.lit(spec['var_strike'])})"
        variable = info_mod.info_from_payoff(rip.payoff.parse_payoff(source), "digital-label")
    if variant == "plus":
        return info_mod.InfoStructure.plus(variable)
    return info_mod.InfoStructure.minus(variable)


def ask_lattice(rip, question):
    """Hedge and price one lattice question on a freshly built space."""
    spec, mode = question.data, question.mode
    ratios = spec["ratios"]
    if mode == "float":
        ratios = [float(Fraction(r)) for r in ratios]
    space = rip.paths.build_lattice(1, spec["n_steps"], ratios, mode=mode)
    claim = rip.payoff.parse_payoff(spec["claim"])
    info = _info(rip, spec, mode)
    hedges = rip.hedging.superhedge(space, None, info, claim)
    prices = rip.pricing.model_price(space, None, info, claim)
    return hedges, prices


class _LatticeFacts:
    """What the checks need about one lattice spec, worked out once."""

    def __init__(self, spec):
        self.paths = reference.lattice_paths(spec["ratios"], spec["n_steps"])
        self.claims = [reference.claim_value(spec, p) for p in self.paths]
        self.values = reference.reference_values(spec)
        variant = spec["variant"]
        labels, reveal_at = None, None
        if variant != "none":
            labels = [reference.label(spec, p) for p in self.paths]
            reveal_at = spec["arrival"] if variant == "dynamic" else 0
        self.market = Market(self.paths, labels, reveal_at)


def check_lattice(question, answer, facts) -> list:
    hedges, prices = answer
    mode = question.mode
    tol = FLOAT_TOL if mode == "float" else 0
    market, claims = facts.market, facts.claims
    problems = []
    seen = set()
    for atom, hv in hedges:
        key = tuple(atom.paths)
        seen.add(key)
        want = facts.values.get(key)
        if want is None:
            problems.append(f"atom {key[:4]}... is not an atom of the reference")
            continue
        pv = prices.for_path(key[0])
        if not (_same(hv.value, want, mode) and _same(pv.value, want, mode)):
            problems.append(
                f"atom {key[:4]}...: hedge {hv.value}, price {pv.value}, reference {want}"
            )
            continue
        if want == NEG_INF:
            if hv.ray is None or pv.certificate is None:
                problems.append(f"atom {key[:4]}...: -inf without its witnesses")
                continue
            problems += checks.check_ray(
                market, key, [exact(a) for a in hv.ray.static],
                _exact_dynamic(hv.ray.dynamic), exact(hv.ray.cost), tol)
        else:
            strategy, measure = hv.strategy, pv.measure
            problems += checks.check_strategy(
                market, key, claims, [exact(a) for a in strategy.static],
                _exact_dynamic(strategy.dynamic), exact(hv.value), tol)
            weights = {p: exact(w) for p, w in enumerate(measure.weights) if w}
            problems += checks.check_measure(market, key, weights, claims, exact(pv.value), tol)
    if seen != set(facts.values):
        problems.append("the atoms differ from the reference's")
    return problems


def _exact_dynamic(dynamic):
    return {key: tuple(exact(h) for h in holding) for key, holding in dynamic.items()}


class LatticeWorkload:
    """Questions that are lattice specs, asked through the library calls.

    A run makes at least ``min_passes`` passes over them.
    """

    def __init__(self, specs, min_passes):
        self.min_passes = min_passes
        self.questions = []
        for index, spec in enumerate(specs):
            for mode in spec["modes"]:
                self.questions.append(Question((index, mode), mode, spec))
        self._facts = {}

    def ask(self, rip, question):
        return ask_lattice(rip, question)

    def check(self, question, answer) -> list:
        index = question.key[0]
        if index not in self._facts:
            self._facts[index] = _LatticeFacts(question.data)
        return check_lattice(question, answer, self._facts[index])

    def end_pass(self) -> list:
        return []


def corpus(seed):
    return LatticeWorkload(inputs.corpus_specs(seed), min_passes=1)


def lattice(seed):
    # two passes: a pass is four questions of seconds each, and the
    # median of two halves what one slow stretch of the machine adds
    return LatticeWorkload(inputs.lattice_specs(seed), min_passes=2)


# ---------------------------------------------------------------------------
# `models`: model files through the command line entry point


def _num(text, mode):
    if text == "-inf":
        return NEG_INF
    return float(text) if mode == "float" else Fraction(text)


def _report_dynamic(entries, mode):
    return {
        (e["t"], tuple(e["paths"])): tuple(_num(h, mode) for h in e["holding"])
        for e in entries
    }


class _ModelFacts:
    """The reference data for checking one model file's reports."""

    def __init__(self, name, market, claims, values=None, claim_values=None):
        self.name = name
        self.market = market
        self.claims = claims
        self.values = values or {}  # named reference values
        self.claim_values = claim_values or []


def _call(strike):
    return {"kind": "call", "strike": strike, "upper": None}


def _load(name):
    with open(os.path.join(HERE, "models", name + ".yaml"), encoding="utf-8") as handle:
        return yaml.safe_load(handle)


def _lattice_of(doc):
    ratios = [Fraction(str(r)) for r in doc["lattice"]["ratios"]]
    return reference.lattice_paths(ratios, doc["grid"]["steps"])


def _models(seed):
    """The model files, with the claims and the traded call's reference measure drawn from ``seed``.

    Maps each name to its document and to a function that works out its
    reference data; the checks call that function, outside set-up.
    """
    rng = random.Random(seed)
    strikes = [Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2)]
    out = {}

    def book(name):
        """The file's call at 1 against a flat digital at step 1, at the file's quote."""
        doc = _load(name)
        quote = Fraction(doc["static_options"][0]["price"])

        def facts():
            paths = _lattice_of(doc)
            digital = [Fraction(1) if p[1][0] == 1 else Fraction(0) for p in paths]
            return _ModelFacts(
                name, Market(paths, statics=[(digital, quote)]),
                [reference.claim_value(_call(Fraction(1)), p) for p in paths])

        return doc, facts

    # `book` and `wide` keep the inputs of their files, as `label` does:
    # `book`'s duality question is the median exact question of a pass,
    # and `chain` on `label` and the float hedge on `wide` are the heaviest
    # questions, so the seed moves none of the work that sets the
    # per-question percentiles or dominates a pass
    out["book"] = book("book")
    out["wide"] = book("wide")

    # label: minus on max-abs-deviation, for `chain`
    label_doc = _load("label")

    def label_facts():
        paths = _lattice_of(label_doc)
        claims = [reference.claim_value(_call(Fraction(1)), p) for p in paths]
        labels = [reference.label({"var": "maxdev"}, p) for p in paths]
        classes = {}
        for p, lab in enumerate(labels):
            classes.setdefault(lab, []).append(p)
        per_label = {lab: reference.tree_value(paths, claims, group=g)
                     for lab, g in classes.items()}
        finite = [v for v in per_label.values() if v != NEG_INF]
        return _ModelFacts(
            "label", Market(paths, labels, 0), claims,
            {"minus": max(finite) if finite else NEG_INF, "per_label": per_label})

    out["label"] = label_doc, label_facts

    # split: market information only, for `dpp`
    split_doc = _load("split")
    split_claim = _call(rng.choice(strikes))
    split_doc["claim"] = f"pos(S[1,T] - {inputs.lit(split_claim['strike'])})"

    def split_facts():
        paths = _lattice_of(split_doc)
        claims = [reference.claim_value(split_claim, p) for p in paths]
        return _ModelFacts(
            "split", Market(paths), claims, {"none": reference.tree_value(paths, claims)})

    out["split"] = split_doc, split_facts

    # arrival: a family of claims in [0, 1] and a tail-max-ratio label
    arrival_doc = _load("arrival")
    digital_strike = rng.choice([Fraction(2), Fraction(4)])
    arrival_doc["claims"][0] = f"ind(S[1,T] >= {inputs.lit(digital_strike)})"

    def arrival_facts():
        family = [
            {"kind": "digital", "strike": digital_strike, "upper": None},
            {"kind": "digital", "strike": Fraction(1), "upper": None},
            {"kind": "put", "strike": Fraction(1), "upper": None},
        ]
        paths = _lattice_of(arrival_doc)
        arrival = arrival_doc["info"]["arrival"]
        labels = [reference.label({"var": "tail-max", "arrival": arrival}, p) for p in paths]
        rows = []
        for spec in family:
            claims = [reference.claim_value(spec, p) for p in paths]
            rows.append((
                reference.tree_value(paths, claims),
                reference.tree_value(paths, claims, labels, arrival),
            ))
        return _ModelFacts("arrival", Market(paths), [], claim_values=rows)

    out["arrival"] = arrival_doc, arrival_facts

    # traded: a call traded dynamically, interior from a reference martingale measure
    traded_doc = _load("traded")
    q_down = rng.choice([Fraction(1, 4), Fraction(1, 3), Fraction(2, 5), Fraction(1, 2)])
    step = {Fraction(1, 2): q_down, Fraction(1): 1 - 3 * q_down / 2, Fraction(2): q_down / 2}
    base = _lattice_of(traded_doc)
    weights = [step[p[1][0]] * step[p[2][0] / p[1][0]] for p in base]
    payoff = [max(p[-1][0] - 1, Fraction(0)) for p in base]
    price = sum(w * y for w, y in zip(weights, payoff))
    traded_doc["dynamic_options"]["reference"] = [str(w) for w in weights]
    traded_doc["dynamic_options"]["options"][0]["price"] = str(price)
    traded_claim = _call(rng.choice([Fraction(1), Fraction(2)]))
    traded_doc["claim"] = f"pos(S[1,2] - {inputs.lit(traded_claim['strike'])})"

    def traded_facts():
        paths = []
        for path in base:
            rows = []
            for k, row in enumerate(path):
                group = [q for q, other in enumerate(base) if other[: k + 1] == path[: k + 1]]
                mass = sum(weights[q] for q in group)
                value = sum(weights[q] * payoff[q] for q in group) / mass / price
                rows.append((row[0], value))
            paths.append(tuple(rows))
        return _ModelFacts(
            "traded", Market(paths), [reference.claim_value(traded_claim, p) for p in base])

    out["traded"] = traded_doc, traded_facts
    return out


# (model, command line after the model, mode)
MODEL_QUESTIONS = (
    ("book", ["price"], "rational"),
    ("book", ["hedge"], "rational"),
    ("book", ["duality"], "rational"),
    ("label", ["chain"], "rational"),
    ("split", ["dpp", "--t1", "1"], "rational"),
    ("split", ["dpp", "--t1", "2"], "rational"),
    ("arrival", ["info-value"], "rational"),
    ("traded", ["price"], "rational"),
    ("traded", ["hedge"], "rational"),
    ("book", ["price", "--mode", "float"], "float"),
    ("book", ["hedge", "--mode", "float"], "float"),
    ("arrival", ["info-value", "--mode", "float"], "float"),
    ("traded", ["price", "--mode", "float"], "float"),
    ("traded", ["hedge", "--mode", "float"], "float"),
    ("wide", ["price"], "float"),
    ("wide", ["hedge"], "float"),
)


class ModelsWorkload:
    """Model files run through ``rip.cli.main`` in process, with ``--out``.

    Every report of a pass must match the same question's report of the
    first pass byte for byte.  Price and hedge reports of one model and
    mode must agree atom by atom, and float values must sit within
    ``FLOAT_TOL`` of the exact ones.
    """

    min_passes = 2

    def __init__(self, seed, workdir):
        self.workdir = workdir
        self.files = {}
        self._facts_of = {}
        for name, (doc, facts_of) in _models(seed).items():
            path = os.path.join(workdir, name + ".yaml")
            with open(path, "w", encoding="utf-8") as handle:
                yaml.safe_dump(doc, handle, sort_keys=False)
            self.files[name] = path
            self._facts_of[name] = facts_of
        self._facts = {}
        self.questions = [
            Question((model, " ".join(argv)), mode, (model, argv))
            for model, argv, mode in MODEL_QUESTIONS
        ]
        self.first_texts = {}
        self.pass_values = {}

    def ask(self, rip, question):
        model, argv = question.data
        out = os.path.join(self.workdir, "report.json")
        code = rip.cli.main([argv[0], "--model", self.files[model], "--out", out] + argv[1:])
        with open(out, encoding="utf-8") as handle:
            return code, handle.read()

    def check(self, question, answer) -> list:
        code, text = answer
        if code != 0:
            return [f"{question.key}: exit code {code}"]
        first = self.first_texts.setdefault(question.key, text)
        problems = [] if first == text else [f"{question.key}: report differs from the first pass"]
        report = json.loads(text)
        if report["findings"]:
            problems.append(f"{question.key}: findings {report['findings']}")
        model, argv = question.data
        if model not in self._facts:
            self._facts[model] = self._facts_of[model]()
        facts = self._facts[model]
        check = getattr(self, "_check_" + argv[0].replace("-", "_"))
        problems += [f"{question.key}: {p}" for p in check(facts, report, question.mode)]
        return problems

    def end_pass(self) -> list:
        """Price against hedge, and float against exact, across one pass's reports."""
        problems = []
        values, self.pass_values = self.pass_values, {}
        for (model, mode, command), atoms in values.items():
            if command != "price":
                continue
            others = [("hedge", values.get((model, mode, "hedge"), {}))]
            if mode == "float" and (model, "rational", "price") in values:
                others.append(("exact price", values[(model, "rational", "price")]))
            for name, other in others:
                if set(other) != set(atoms) or not all(
                    _same(v, other[key], mode) for key, v in atoms.items()
                ):
                    problems.append(f"{model} {mode}: price differs from the {name}")
        return problems

    def _check_price(self, facts, report, mode):
        tol = FLOAT_TOL if mode == "float" else 0
        problems = []
        values = {}
        for entry in report["atoms"]:
            group = tuple(entry["atom"]["paths"])
            value = _num(entry["value"], mode)
            values[group] = value
            if value == NEG_INF:
                if not entry.get("infeasible"):
                    problems.append("-inf price without its certificate")
                continue
            weights = {p: _num(w, mode) for p, w in entry["measure"]["weights"]}
            problems += checks.check_measure(facts.market, group, weights, facts.claims, value, tol)
        self.pass_values[(facts.name, mode, "price")] = values
        return problems

    def _check_hedge(self, facts, report, mode):
        tol = FLOAT_TOL if mode == "float" else 0
        problems = []
        values = {}
        for entry in report["atoms"]:
            group = tuple(entry["atom"]["paths"])
            value = _num(entry["value"], mode)
            values[group] = value
            if value == NEG_INF:
                ray = entry["arbitrage"]
                problems += checks.check_ray(
                    facts.market, group, [_num(a, mode) for a in ray["static"]],
                    _report_dynamic(ray["dynamic"], mode), _num(ray["cost"], mode), tol)
            else:
                strategy = entry["strategy"]
                problems += checks.check_strategy(
                    facts.market, group, facts.claims,
                    [_num(a, mode) for a in strategy["static"]],
                    _report_dynamic(strategy["dynamic"], mode), value, tol)
        self.pass_values[(facts.name, mode, "hedge")] = values
        return problems

    def _check_duality(self, facts, report, mode):
        problems = []
        if report["tight_everywhere"] is not True:
            problems.append("not tight everywhere")
        for entry in report["atoms"]:
            if entry["hedge"] != entry["price"]:
                problems.append("hedge and price differ on an atom")
        if "chain" in report and report["chain"]["all_equal"] is not True:
            problems.append("chain values differ")
        return problems

    def _check_chain(self, facts, report, mode):
        problems = []
        if report["all_equal"] is not True:
            problems.append("chain values differ")
        for name, text in report["quantities"].items():
            if not _same(_num(text, mode), facts.values["minus"], mode):
                problems.append(f"{name} {text} differs from the reference")
        per_label = facts.values["per_label"]
        for row in report["per_atom"]:
            want = per_label.get(Fraction(row["atom"]["label"]))
            if want is None:
                problems.append(f"label {row['atom']['label']} is not a reference label")
                continue
            for side in ("hedge", "price", "forced_price"):
                if not _same(_num(row[side], mode), want, mode):
                    problems.append(f"label {row['atom']['label']}: {side} {row[side]}")
        return problems

    def _check_dpp(self, facts, report, mode):
        problems = []
        for side in ("hedge", "price"):
            block = report[side]
            if block["agree"] is not True:
                problems.append(f"{side} side does not agree")
            if not _same(_num(block["direct"], mode), facts.values["none"], mode):
                problems.append(f"{side} direct {block['direct']} differs from the reference")
        return problems

    def _check_info_value(self, facts, report, mode):
        problems = []
        premiums = []
        for row, (uninformed, informed) in zip(report["claims"], facts.claim_values):
            got_u, got_i = _num(row["uninformed"], mode), _num(row["informed"], mode)
            if not (_same(got_u, uninformed, mode) and _same(got_i, informed, mode)):
                problems.append(f"{row['claim']}: {row['uninformed']}, {row['informed']}")
            premiums.append(uninformed - informed)
        if len(report["claims"]) != len(facts.claim_values):
            problems.append("wrong number of claims")
        elif not _same(_num(report["value"], mode), max(premiums), mode):
            problems.append(f"premium {report['value']} differs from the reference")
        return problems


def models(seed, workdir):
    return ModelsWorkload(seed, workdir)
