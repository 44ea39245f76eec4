"""Priority gas auctions under partial revert penalties.

Closed-form symmetric equilibria of the bidding game, sequencer revenue and
blockspace analytics, cost-scheme extensions, independent Monte Carlo and
finite-difference verification, and a block-level CEX-DEX arbitrage market
simulation.
"""

from .analytics import (
    MevTaxParams,
    RevenueLimits,
    RevenueReport,
    SchemeComparison,
    Winner,
    compare_schemes,
    expected_mev_tax,
    expected_winning_bid,
    mev_tax_asymptote,
    revenue_report,
    scheme1_optimal_r1,
    scheme1_optimal_r1_scan,
    scheme1_profit,
    scheme2_revenue,
    welfare_loss,
)
from .equilibrium import (
    Equilibrium,
    PureEquilibrium,
    pure_equilibrium,
    solve_equilibrium,
)
from .errors import (
    ArgumentOutOfRange,
    ConfigInvalid,
    CostOutOfRange,
    CostTooLarge,
    DegenerateNoRevertCost,
    IndexOutOfRange,
    NonPositiveFee,
    NotApplicable,
    NumericsError,
    OutOfSupport,
    PgaLabError,
    RateOutOfRange,
    TooFewAgents,
    TooManyAgents,
    UnknownPreset,
    ValueNotAboveBaseFee,
)
from .market import (
    BlockEvent,
    MarketSimConfig,
    MarketSimReport,
    Opportunity,
    gbm_path,
    opportunity_value,
    simulate,
)
from .model import (
    ABSTAIN,
    Abstain,
    Action,
    AuctionParams,
    Bid,
    MixedStrategy,
    PureProfile,
    SettingPreset,
    expected_payoff_vs_symmetric,
    preset,
    PRESET_NAMES,
    pure_payoff,
)
from .oracle import (
    EquilibriumCertificate,
    McEstimate,
    PureDeviation,
    ReplayReport,
    SignCheck,
    best_response_scan,
    bisection_quantile,
    cdf_sensitivity_check,
    certify_equilibrium,
    comparative_statics_check,
    find_pure_deviation,
    hillman_samet_check,
    monte_carlo_replay,
)

__version__ = "0.1.0"
