"""Priority gas auctions under partial revert penalties.

Closed-form symmetric equilibria of the bidding game, sequencer revenue and
blockspace analytics, cost-scheme extensions, independent Monte Carlo and
finite-difference verification, and a block-level CEX-DEX arbitrage market
simulation.

The public names below load their module on first use (PEP 562), so
``import pga_lab`` and ``import pga_lab.cli`` load no numpy.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "analytics": (
        "RevenueLimits",
        "RevenueReport",
        "SchemeComparison",
        "Winner",
        "compare_schemes",
        "expected_mev_tax",
        "expected_winning_bid",
        "revenue_report",
        "scheme1_optimal_r1",
        "scheme1_optimal_r1_scan",
        "scheme1_profit",
        "scheme2_revenue",
    ),
    "equilibrium": (
        "Equilibrium",
        "pure_equilibrium",
        "solve_equilibrium",
    ),
    "errors": (
        "ArgumentOutOfRange",
        "ConfigInvalid",
        "CostOutOfRange",
        "CostTooLarge",
        "DegenerateNoRevertCost",
        "IndexOutOfRange",
        "NonPositiveFee",
        "NotApplicable",
        "NumericsError",
        "OutOfSupport",
        "PgaLabError",
        "RateOutOfRange",
        "TooFewAgents",
        "TooManyAgents",
        "ValueNotAboveBaseFee",
    ),
    "market": (
        "BlockEvent",
        "MarketSimConfig",
        "MarketSimReport",
        "Opportunity",
        "gbm_path",
        "opportunity_value",
        "simulate",
    ),
    "model": (
        "AuctionParams",
        "MixedStrategy",
        "PureProfile",
        "expected_payoff_vs_symmetric",
        "pure_payoff",
    ),
    "oracle": (
        "EquilibriumCertificate",
        "McEstimate",
        "PureDeviation",
        "ReplayReport",
        "SignCheck",
        "best_response_scan",
        "bisection_quantile",
        "cdf_sensitivity_check",
        "certify_equilibrium",
        "comparative_statics_check",
        "find_pure_deviation",
        "hillman_samet_check",
        "monte_carlo_replay",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{module}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
