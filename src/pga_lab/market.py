"""Block-by-block CEX-DEX arbitrage simulation.

A true (CEX) price follows geometric Brownian motion sampled at block times;
the on-chain (DEX) price stays stale until an arbitrage trade realigns it.
Each block with a profitable discrepancy runs one priority gas auction among
N arbitrageurs at the equilibrium of the auction game, so with partial revert
penalties there is a real chance every arbitrageur abstains and the
discrepancy survives the block.

Per-block accounting tracks price-discovery quality (mean/max deviation and
the fraction of blocks outside the fee band), LP economics (fees earned
versus adverse-selection loss), and sequencer revenue.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from operator import attrgetter
from typing import Literal, Optional

import numpy as np

from .equilibrium import solve_equilibrium
from .errors import ConfigInvalid, TooManyAgents
from .model import MAX_AGENTS, AuctionParams

Outcome = Literal["no_opportunity", "all_abstained", "executed"]


@dataclass(frozen=True)
class MarketSimConfig:
    drift: float  # per unit time
    volatility: float  # per sqrt(time)
    horizon: float
    block_time: float
    initial_price: float
    fee_rate: float
    liquidity_depth: float  # traded volume per unit of price movement
    base_fee: float
    revert_rate_base: float
    revert_rate_priority: float
    num_arbitrageurs: int
    seed: int

    def __post_init__(self) -> None:
        if self.num_arbitrageurs > MAX_AGENTS:
            raise TooManyAgents(
                f"num_arbitrageurs must be <= {MAX_AGENTS}, got {self.num_arbitrageurs}"
            )
        checks = [
            (self.block_time > 0.0, "block_time must be positive"),
            (self.horizon >= self.block_time, "horizon must cover at least one block"),
            (self.initial_price > 0.0, "initial_price must be positive"),
            (0.0 <= self.fee_rate < 1.0, "fee_rate must lie in [0, 1)"),
            (self.liquidity_depth > 0.0, "liquidity_depth must be positive"),
            (self.volatility >= 0.0, "volatility must be non-negative"),
            (self.base_fee > 0.0, "base_fee must be positive"),
            (0.0 <= self.revert_rate_base <= 1.0, "revert_rate_base must lie in [0, 1]"),
            (0.0 <= self.revert_rate_priority <= 1.0, "revert_rate_priority must lie in [0, 1]"),
            (self.num_arbitrageurs >= 2, "num_arbitrageurs must be >= 2"),
            (
                isinstance(self.seed, (int, np.integer)) and self.seed >= 0,
                "seed must be a non-negative integer",
            ),
        ]
        for ok, msg in checks:
            if not ok:
                raise ConfigInvalid(msg)
        for name in ("drift", "volatility", "horizon", "block_time", "initial_price"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigInvalid(f"{name} must be finite")

    @property
    def num_blocks(self) -> int:
        return int(math.ceil(self.horizon / self.block_time))


def gbm_path(config: MarketSimConfig, rng: np.random.Generator) -> np.ndarray:
    """Exact log-space GBM stepping at block_time increments; length
    num_blocks + 1 including the initial price."""
    n = config.num_blocks
    dt = config.block_time
    drift = (config.drift - 0.5 * config.volatility**2) * dt
    diffusion = config.volatility * math.sqrt(dt)
    z = rng.standard_normal(n)
    log_growth = np.concatenate(([0.0], np.cumsum(drift + diffusion * z)))
    return config.initial_price * np.exp(log_growth)


@dataclass(frozen=True)
class Opportunity:
    """One block's arbitrage economics against a linear-depth DEX.

    value is the arbitrageur's gross profit v*L: trading from the stale DEX
    price to the fee-adjusted stop price earns half the price gap on the
    traded volume. volume is the DEX volume of that trade.
    """

    value: float
    volume: float
    direction: Optional[Literal["sell_dex", "buy_dex"]]

    def breakeven_bid(self, base_fee: float) -> float:
        return self.value - base_fee


def opportunity_value(
    dex_price: float, cex_price: float, fee_rate: float, depth: float
) -> Opportunity:
    """Profitability of realigning a stale DEX price toward the CEX price.

    Selling on the DEX pays when dex*(1-f) > cex (trade stops at cex/(1-f));
    buying pays when dex*(1+f) < cex (trade stops at cex/(1+f)); inside the
    band there is nothing to extract.
    """
    stop_high = cex_price / (1.0 - fee_rate)
    if dex_price > stop_high:
        gap = dex_price - stop_high
        return Opportunity(value=0.5 * gap * gap * depth, volume=gap * depth, direction="sell_dex")
    stop_low = cex_price / (1.0 + fee_rate)
    if dex_price < stop_low:
        gap = stop_low - dex_price
        return Opportunity(value=0.5 * gap * gap * depth, volume=gap * depth, direction="buy_dex")
    return Opportunity(value=0.0, volume=0.0, direction=None)


@dataclass(frozen=True)
class BlockEvent:
    block_index: int
    true_price: float
    onchain_price_before: float
    onchain_price_after: float
    outcome: Outcome
    opportunity_value: float
    discrepancy: float
    participants: int
    winning_bid: Optional[float]
    sequencer_fees: float
    lp_fees: float
    lp_adverse_loss: float
    lp_adverse_loss_gross: float


@dataclass(frozen=True)
class MarketSimReport:
    config: MarketSimConfig
    events: tuple[BlockEvent, ...]
    opportunities: int
    executed: int
    abstained: int
    mad: float
    dbf: float
    max_deviation: float
    cfe: float
    casl: float
    casl_gross: float
    nlp: float
    csr: float
    era_series: tuple[float, ...]
    revenue_histogram: tuple[tuple[int, ...], tuple[float, ...]]


EVENT_CSV_HEADER = [f.name for f in fields(BlockEvent)]
_event_row = attrgetter(*EVENT_CSV_HEADER)


def event_csv_rows(report: MarketSimReport) -> list[tuple]:
    """One row per event in EVENT_CSV_HEADER order; a missing winning bid is ""."""
    return [tuple("" if v is None else v for v in _event_row(e)) for e in report.events]


def simulate(config: MarketSimConfig) -> MarketSimReport:
    """Run the simulation: one auction per block with a profitable
    opportunity, equilibrium participation draws, fee-band price updates,
    and full metric accounting.

    A discrepancy counts as an opportunity only when the gross arbitrage
    value exceeds the base fee (otherwise even a zero bid loses money and
    the auction is trivially empty). The reported fee-band frequency (dbf)
    still uses the plain band |onchain - true| > f * true.
    """
    path_ss, auction_ss = np.random.SeedSequence(config.seed).spawn(2)
    rng_path = np.random.Generator(np.random.Philox(path_ss))
    rng_auction = np.random.Generator(np.random.Philox(auction_ss))

    path = gbm_path(config, rng_path)
    f = config.fee_rate
    g = config.base_fee
    r1 = config.revert_rate_base
    r2 = config.revert_rate_priority
    n_agents = config.num_arbitrageurs
    full_rp = r1 == 0.0 and r2 == 0.0

    onchain = float(path[0])
    events: list[BlockEvent] = []
    deviations = [0.0]
    beyond_band = 0  # initial point is inside the band by construction
    era: list[float] = []
    fees_per_event: list[float] = []
    opportunities = executed = abstained = 0
    cfe = casl = casl_gross = csr = 0.0

    for t in range(1, config.num_blocks + 1):
        true = float(path[t])
        before = onchain
        opp = opportunity_value(before, true, f, config.liquidity_depth)
        outcome: Outcome = "no_opportunity"
        participants = 0
        winning_bid: Optional[float] = None
        seq_fees = lp_fees = lp_loss = lp_loss_gross = 0.0

        if opp.value > g:
            opportunities += 1
            if full_rp:
                # losing is free: everyone enters and the top bids hit breakeven
                participants = n_agents
                winning_bid = opp.value - g
                seq_fees = opp.value
                outcome = "executed"
            else:
                eq = solve_equilibrium(
                    AuctionParams(opp.value, g, r1, r2, n_agents)
                )
                participants = int(rng_auction.binomial(n_agents, 1.0 - eq.abstain_prob))
                if participants == 0:
                    outcome = "all_abstained"
                else:
                    bids = eq.sample_bids(rng_auction, participants)
                    b_w = float(bids.max())
                    winning_bid = b_w
                    seq_fees = (
                        g + b_w + (participants - 1) * r1 * g + r2 * (float(bids.sum()) - b_w)
                    )
                    outcome = "executed"
            if outcome == "executed":
                executed += 1
                onchain = true * (1.0 + f) if opp.direction == "sell_dex" else true * (1.0 - f)
                lp_fees = f * opp.volume
                lp_loss = 0.5 * abs(true - before) * opp.volume
                lp_loss_gross = opp.value
                cfe += lp_fees
                casl += lp_loss
                casl_gross += lp_loss_gross
                csr += seq_fees
                era.append(g + winning_bid)
                fees_per_event.append(seq_fees)
            else:
                abstained += 1

        dev = abs(onchain - true)
        deviations.append(dev)
        if dev > f * true:
            beyond_band += 1
        events.append(
            BlockEvent(
                block_index=t,
                true_price=true,
                onchain_price_before=before,
                onchain_price_after=onchain,
                outcome=outcome,
                opportunity_value=opp.value if opp.value > g else 0.0,
                discrepancy=abs(true - before),
                participants=participants,
                winning_bid=winning_bid,
                sequencer_fees=seq_fees,
                lp_fees=lp_fees,
                lp_adverse_loss=lp_loss,
                lp_adverse_loss_gross=lp_loss_gross,
            )
        )

    dev_arr = np.array(deviations)
    if fees_per_event:
        counts, edges = np.histogram(np.array(fees_per_event), bins=10)
    else:
        counts, edges = np.array([], dtype=int), np.array([0.0])
    return MarketSimReport(
        config=config,
        events=tuple(events),
        opportunities=opportunities,
        executed=executed,
        abstained=abstained,
        mad=float(dev_arr.mean()),
        dbf=beyond_band / len(deviations),
        max_deviation=float(dev_arr.max()),
        cfe=cfe,
        casl=casl,
        casl_gross=casl_gross,
        nlp=cfe - casl,
        csr=csr,
        era_series=tuple(era),
        revenue_histogram=(tuple(int(x) for x in counts), tuple(float(x) for x in edges)),
    )
