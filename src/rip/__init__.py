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

from ._numeric import *
from .errors import *
from .payoff import *
from .paths import *
from .information import *
from .lp import *
from .hedging import *
from .pricing import *
from .valuation import *
from .modelfile import *

__version__ = "0.1.0"

# a union of the modules' lists: paths re-lists parse_payoff, which is kept once
__all__ = list(dict.fromkeys([
    "__version__",
    *_numeric.__all__,
    *errors.__all__,
    *payoff.__all__,
    *paths.__all__,
    *information.__all__,
    *lp.__all__,
    *hedging.__all__,
    *pricing.__all__,
    *valuation.__all__,
    *modelfile.__all__,
]))
