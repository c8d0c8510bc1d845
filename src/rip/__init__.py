"""Robust pricing and hedging on finite path spaces with asymmetric information.

The package answers two questions about a finitely supported market model
and a claim: what is the cheapest portfolio whose payout dominates the
claim on every admitted path (superhedging), and what is the highest
expectation of the claim under measures that make the traded assets
martingales and reprice the quoted options (model price).  Both are linear
programs over the same data and agree exactly; in rational mode that
equality is verified, not approximated.

Information asymmetry enters through a label revealed to the hedger:
before trading starts, from the start, or from an interior arrival time.
Partitions of the path space replace filtrations, so everything stays
finite and checkable.
"""

from ._numeric import (
    FLOAT,
    FLOAT_OPS,
    MODES,
    NEG_INF,
    RATIONAL,
    RATIONAL_OPS,
    ModeOps,
    format_number,
    get_ops,
    is_neg_inf,
    parse_number,
    rat,
)
from .errors import (
    CapacityError,
    EvaluationError,
    InternalCheckError,
    InvalidModelError,
    PayoffSyntaxError,
    PreconditionError,
    RipError,
    UndefinedHoldingError,
)
from .payoff import (
    BinOp,
    Call,
    Expr,
    Indicator,
    Neg,
    Num,
    Ref,
    RunningExtreme,
    TailClaim,
    constant_payoff,
    evaluate_payoff,
    parse_payoff,
    payoff_to_text,
    validate_payoff,
)
from .paths import (
    DynamicOption,
    Path,
    PathSpace,
    StaticOption,
    StaticOptionBook,
    build_info_space,
    build_lattice,
    fatten,
    min_separation,
    space_from_paths,
    sup_dist,
)
from .information import (
    Atom,
    AtomTable,
    InfoStructure,
    InfoVariable,
    VARIANT_DYNAMIC,
    VARIANT_MINUS,
    VARIANT_NONE,
    VARIANT_PLUS,
    atoms_at,
    check_scaling_form,
    info_from_payoff,
    lift_to_tail,
    market_partition,
    max_abs_deviation,
    range_indicator,
    tail_max_ratio,
    tail_range_indicator,
    z_partition,
)
from .lp import (
    Infeasible,
    LinearProgram,
    Optimal,
    Unbounded,
    solve,
    solve_checked,
    verify_certificate,
)
from .hedging import (
    ArbitrageRay,
    DppDecomposition,
    HedgeValue,
    Strategy,
    build_hedge_problem,
    dpp_superhedge,
    extract_strategy,
    verify_strategy,
    gains,
    superhedge,
)
from .pricing import (
    MartingaleMeasure,
    PriceValue,
    approx_price,
    approx_price_limit,
    build_measure_lp,
    concatenate_measure,
    condition_measure,
    dpp_price,
    model_price,
)
from .valuation import (
    AtomDuality,
    ChainQuantities,
    DualityReport,
    InfoValueEntry,
    InfoValueReport,
    chain_quantities,
    duality_report,
    info_value,
    info_value_claim,
    info_value_report,
    transport_claim,
)
from .modelfile import ModelConfig, load_model, parse_model

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # numeric
    "FLOAT",
    "FLOAT_OPS",
    "MODES",
    "NEG_INF",
    "RATIONAL",
    "RATIONAL_OPS",
    "ModeOps",
    "format_number",
    "get_ops",
    "is_neg_inf",
    "parse_number",
    "rat",
    # errors
    "CapacityError",
    "EvaluationError",
    "InternalCheckError",
    "InvalidModelError",
    "PayoffSyntaxError",
    "PreconditionError",
    "RipError",
    "UndefinedHoldingError",
    # payoffs
    "BinOp",
    "Call",
    "Expr",
    "Indicator",
    "Neg",
    "Num",
    "Ref",
    "RunningExtreme",
    "TailClaim",
    "constant_payoff",
    "evaluate_payoff",
    "parse_payoff",
    "payoff_to_text",
    "validate_payoff",
    # path spaces
    "DynamicOption",
    "Path",
    "PathSpace",
    "StaticOption",
    "StaticOptionBook",
    "build_info_space",
    "build_lattice",
    "fatten",
    "min_separation",
    "space_from_paths",
    "sup_dist",
    # information
    "Atom",
    "AtomTable",
    "InfoStructure",
    "InfoVariable",
    "VARIANT_DYNAMIC",
    "VARIANT_MINUS",
    "VARIANT_NONE",
    "VARIANT_PLUS",
    "atoms_at",
    "check_scaling_form",
    "info_from_payoff",
    "lift_to_tail",
    "market_partition",
    "max_abs_deviation",
    "range_indicator",
    "tail_max_ratio",
    "tail_range_indicator",
    "z_partition",
    # linear programs
    "Infeasible",
    "LinearProgram",
    "Optimal",
    "Unbounded",
    "solve",
    "solve_checked",
    "verify_certificate",
    # hedging
    "ArbitrageRay",
    "DppDecomposition",
    "HedgeValue",
    "Strategy",
    "build_hedge_problem",
    "dpp_superhedge",
    "extract_strategy",
    "verify_strategy",
    "gains",
    "superhedge",
    # pricing
    "MartingaleMeasure",
    "PriceValue",
    "approx_price",
    "approx_price_limit",
    "build_measure_lp",
    "concatenate_measure",
    "condition_measure",
    "dpp_price",
    "model_price",
    # valuation
    "AtomDuality",
    "ChainQuantities",
    "DualityReport",
    "InfoValueEntry",
    "InfoValueReport",
    "chain_quantities",
    "duality_report",
    "info_value",
    "info_value_claim",
    "info_value_report",
    "transport_claim",
    # model files
    "ModelConfig",
    "load_model",
    "parse_model",
]
