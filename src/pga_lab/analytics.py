"""Equilibrium outcome quantities in closed form.

Everything here follows from the symmetric equilibrium plus rent dissipation:
agents net zero in expectation, so whenever anyone participates the full value
V flows to the sequencer. Revenue therefore equals (1 - p*^N) V, splits into a
base-fee and a priority-fee component, and admits finite N -> infinity limits
whenever r1 > 0.

When r1 g = 0 (r1 = 0, or r1 g rounding to 0) every agent participates
(p* = 0) regardless of r2, so the report uses the full-participation
conventions: revenue exactly V for any N, base component exactly g, and an
unbounded submitted-transaction limit.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from typing import NamedTuple

from .equilibrium import equilibrium_state, solve_equilibrium
from .model import AuctionParams, check_entry_cost, check_tax_rate

_R1_GRID = 10_001  # r1 points of the scheme-1 profit scan, a step of 1e-4
_TIE_BAND = 1e-9  # a scheme gap this small is a tie in compare_schemes


@dataclass(frozen=True)
class RevenueLimits:
    """N -> infinity values of the report quantities (r1 g > 0), or the
    full-participation conventions (r1 g = 0, submitted txs unbounded)."""

    revenue: float
    base_revenue: float
    priority_revenue: float
    submitted_txs: float
    submitted_unbounded: bool


@dataclass(frozen=True)
class RevenueReport:
    abstain_prob: float
    participation_prob: float
    expected_revenue: float
    base_revenue: float
    priority_revenue: float
    expected_submitted_txs: float
    limits: RevenueLimits


def revenue_report(params: AuctionParams) -> RevenueReport:
    """Expected sequencer revenue, its base/priority decomposition, expected
    submitted transactions, and their large-N limits.

    None of the quantities depends on r2: participation is pinned by r1 alone,
    and rent dissipation fixes the totals.
    """
    v, g = params.value, params.base_fee
    r1, n = params.revert_rate_base, params.num_agents
    vg = params.breakeven_bid
    rg = r1 * g
    state = equilibrium_state(rg, vg, n)
    one_minus_p, one_minus_pn = state.one_minus_p, state.one_minus_pn
    revenue = one_minus_pn * v
    excess_losers = one_minus_p * n - one_minus_pn
    base = one_minus_pn * g + excess_losers * rg
    priority = one_minus_pn * vg - excess_losers * rg
    if rg == 0.0:  # as in check_losing_cost: r1 g can round to 0 with r1 > 0
        limits = RevenueLimits(v, g, vg, math.inf, submitted_unbounded=True)
    else:
        p_inf = vg / state.scale
        ratio = vg / rg  # where it overflows, s_inf = log1p(ratio) = -log rho is finite
        s_inf = math.log1p(ratio) if ratio < math.inf else -state.log_rho
        limits = RevenueLimits(
            revenue=v * p_inf,
            base_revenue=g * p_inf * (1.0 - r1) + rg * s_inf,
            priority_revenue=vg - rg * s_inf,
            submitted_txs=s_inf,
            submitted_unbounded=False,
        )
    return RevenueReport(
        abstain_prob=state.p_star,
        participation_prob=one_minus_pn,
        expected_revenue=revenue,
        base_revenue=base,
        priority_revenue=priority,
        expected_submitted_txs=one_minus_p * n,
        limits=limits,
    )


def scheme1_profit(params: AuctionParams, c: float) -> float:
    """Sequencer profit when it absorbs a processing cost c per submitted
    transaction: (1 - p*^N) V - c (1 - p*) N, at the params' own r1."""
    check_entry_cost(params, c)
    rep = revenue_report(params)
    return rep.expected_revenue - c * rep.expected_submitted_txs


def scheme1_optimal_r1(params: AuctionParams, c: float) -> float:
    """Profit-maximizing base-fee revert rate under internalized costs:
    r1* = c(V-g) / ((V-c) g), capped at 1 (the cap binds exactly when c > g)."""
    check_entry_cost(params, c)
    v, g = params.value, params.base_fee
    return min(c * (v - g) / ((v - c) * g), 1.0)


def scheme1_optimal_r1_scan(params: AuctionParams, c: float) -> float:
    """Brute-force argmax of scheme-1 profit over an r1 grid on [0, 1]; the
    independent check on scheme1_optimal_r1."""
    import numpy as np

    check_entry_cost(params, c)
    n = params.num_agents
    r1 = np.linspace(0.0, 1.0, _R1_GRID)
    with np.errstate(divide="ignore"):
        state = equilibrium_state(r1 * params.base_fee, params.breakeven_bid, n, xp=np)
    profit = state.one_minus_pn * params.value - c * state.one_minus_p * n
    return float(r1[int(np.argmax(profit))])


def scheme2_revenue(params: AuctionParams, c: float) -> float:
    """Expected sequencer revenue when every participant pays the flat
    processing charge c itself: (1 - p*^N) V at the entry-cost equilibrium.

    This is the gross inflow (auction payments plus collected charges); the
    charges exactly cover the sequencer's own per-transaction cost, and rent
    dissipation makes the gross inflow equal the extracted value.
    """
    check_entry_cost(params, c)
    state = equilibrium_state(params.revert_rate_base * params.base_fee, params.breakeven_bid,
                              params.num_agents, c)
    return state.one_minus_pn * params.value


class Winner(enum.Enum):
    SCHEME1 = "scheme1"
    SCHEME2 = "scheme2"
    TIE = "tie"


@dataclass(frozen=True)
class SchemeComparison:
    c: float
    optimal_r1: float
    scheme1_profit_at_optimum: float
    scheme2_revenue_at_r1_zero: float
    winner: Winner


def compare_schemes(params: AuctionParams, c: float) -> SchemeComparison:
    """Scheme 1 (sequencer internalizes cost c, at its profit-optimal r1)
    versus scheme 2 (participants pay c, full revert protection r1 = 0)."""
    r1_opt = scheme1_optimal_r1(params, c)
    profit1 = scheme1_profit(replace(params, revert_rate_base=r1_opt), c)
    revenue2 = scheme2_revenue(replace(params, revert_rate_base=0.0), c)
    if abs(revenue2 - profit1) <= _TIE_BAND:
        winner = Winner.TIE
    elif revenue2 > profit1:
        winner = Winner.SCHEME2
    else:
        winner = Winner.SCHEME1
    return SchemeComparison(
        c=c,
        optimal_r1=r1_opt,
        scheme1_profit_at_optimum=profit1,
        scheme2_revenue_at_r1_zero=revenue2,
        winner=winner,
    )


def expected_winning_bid(params: AuctionParams, entry_cost: float = 0.0) -> float:
    """E[winning bid], counting 0 when everyone abstains.

    The winning bid has CDF (p* + (1 - p*) F*(b))^N = z(b)^(N/(N-1)) on the
    support [0, V - g - c], with an atom rho^(N/(N-1)) at 0. In t = log z its
    density on [log rho, 0] is N/(N-1) e^(t N/(N-1)), and its mean is the
    integral of the inverse bid b(e^t) against that density
    (Equilibrium._tail_integral).
    """
    power = params.num_agents / (params.num_agents - 1)
    return solve_equilibrium(params, entry_cost)._tail_integral(
        lambda t: power * math.exp(power * t)
    )


class MevTax(NamedTuple):
    """An application-level tax at rate tau on the portion of the bid kept by
    the application, refunded on revert.

    With a raw revert rate r on all gas and the bid measured as the winner's
    total non-base payment b = (1 + tau) b_tilde, the game is the standard one
    with r1 = r and r2 = r / (1 + tau).
    """

    r2: float  # the priority-fee revert rate of the taxed game
    tax: float  # expected per-auction tax take: tau/(1 + tau) winning_bid_bound
    winning_bid_bound: float  # E[winning bid] of the taxed game; nan at tau = 0


def expected_mev_tax(params: AuctionParams, tax_rate: float) -> MevTax:
    """The MEV tax at rate tau = tax_rate, with the raw rate r taken from
    params.revert_rate_base; the reparameterization overrides the priority-fee
    rate. At tau = 0 the tax is 0 and the winning bid is not computed."""
    check_tax_rate(tax_rate)
    r1 = params.revert_rate_base
    if tax_rate == 0.0:
        return MevTax(r1, 0.0, math.nan)
    r2 = r1 / (1.0 + tax_rate)
    bound = expected_winning_bid(replace(params, revert_rate_priority=r2))
    return MevTax(r2, tax_rate / (1.0 + tax_rate) * bound, bound)
