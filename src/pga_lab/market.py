"""Block-by-block CEX-DEX arbitrage simulation.

A true (CEX) price follows geometric Brownian motion sampled at block times;
the on-chain (DEX) price stays stale until an arbitrage trade realigns it.
Each block with a profitable discrepancy runs one priority gas auction among
N arbitrageurs at the equilibrium of the auction game, so with partial revert
penalties there is a real chance every arbitrageur abstains and the
discrepancy survives the block.

Per-block accounting tracks price-discovery quality (mean/max deviation and
the fraction of blocks outside the fee band), LP economics (fees earned
versus adverse-selection loss), and sequencer revenue. MarketSimConfig checks
g, r1, r2, N and the seed by the model's rules; ConfigInvalid is for the rest.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, fields
from functools import cached_property
from itertools import chain
from typing import Literal, NamedTuple, Optional, get_args

import numpy as np

from .equilibrium import EquilibriumState, bid_quantile, equilibrium_state, losing_is_free
from .errors import ArgumentOutOfRange, ConfigInvalid, NumericsError
from .model import MAX_DRAWS, check_auction_box, check_seed

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
        check_auction_box(self.base_fee, self.revert_rate_base, self.revert_rate_priority,
                          self.num_arbitrageurs, "num_arbitrageurs")
        check_seed(self.seed)
        checks = [
            (self.block_time > 0.0, "block_time must be positive"),
            (self.horizon >= self.block_time, "horizon must cover at least one block"),
            (self.initial_price > 0.0, "initial_price must be positive"),
            (0.0 <= self.fee_rate < 1.0, "fee_rate must lie in [0, 1)"),
            (self.liquidity_depth > 0.0, "liquidity_depth must be positive"),
            (self.volatility >= 0.0, "volatility must be non-negative"),
        ]
        for ok, msg in checks:
            if not ok:
                raise ConfigInvalid(msg)
        for name in ("drift", "volatility", "horizon", "block_time", "initial_price",
                     "liquidity_depth"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigInvalid(f"{name} must be finite")
        # gbm_path draws one normal per block in one call
        if not self.horizon / self.block_time <= MAX_DRAWS:
            raise ConfigInvalid(f"horizon / block_time must not exceed {MAX_DRAWS} blocks")
        step = (self.drift - 0.5 * self.volatility * self.volatility) * self.block_time
        if not math.isfinite(step):  # else volatility**2 in gbm_path overflows
            raise ConfigInvalid("the log-price drift per block must be finite")

    @property
    def num_blocks(self) -> int:
        return int(math.ceil(self.horizon / self.block_time))


@np.errstate(over="ignore")  # a path that overflows ends in the NumericsError of its bids
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


class Opportunity(NamedTuple):
    """One block's arbitrage economics against a linear-depth DEX.

    value is the arbitrageur's gross profit v*L: trading from the stale DEX
    price to the fee-adjusted stop price earns half the price gap on the
    traded volume. volume is the DEX volume of that trade.
    """

    value: float
    volume: float
    direction: Optional[Literal["sell_dex", "buy_dex"]]


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
        return Opportunity(0.5 * gap * gap * depth, gap * depth, "sell_dex")
    stop_low = cex_price / (1.0 + fee_rate)
    if dex_price < stop_low:
        gap = stop_low - dex_price
        return Opportunity(0.5 * gap * gap * depth, gap * depth, "buy_dex")
    return Opportunity(0.0, 0.0, None)


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


@dataclass(frozen=True, eq=False)
class MarketSimReport:
    """The simulation's summary metrics and its per-block events.

    event_columns holds one ndarray per EVENT_CSV_HEADER name, one entry per
    block: int64 block_index and participants, object outcome and winning_bid
    (None where no bid won), float64 otherwise. events builds BlockEvent rows
    of Python scalars from them. Reports are equal when their other fields
    are, and their event columns have the same dtypes and values.
    """

    config: MarketSimConfig
    event_columns: tuple[np.ndarray, ...]
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

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MarketSimReport):
            return NotImplemented
        return all(
            a.dtype == b.dtype and np.array_equal(a, b)
            for a, b in zip(self.event_columns, other.event_columns, strict=True)
        ) and all(getattr(self, f.name) == getattr(other, f.name)
                  for f in fields(self) if f.name != "event_columns")

    @cached_property
    def events(self) -> tuple[BlockEvent, ...]:
        return tuple(map(BlockEvent, *(column.tolist() for column in self.event_columns)))


EVENT_CSV_HEADER = [f.name for f in fields(BlockEvent)]


def event_csv_rows(report: MarketSimReport) -> list[tuple]:
    """One row per event in EVENT_CSV_HEADER order; a missing winning bid is None."""
    return list(zip(*(column.tolist() for column in report.event_columns)))


def _running_total(values: np.ndarray) -> float:
    """0.0 + v[0] + v[1] + ... added in order, as a loop adds them (np.sum
    adds pairwise, and the builtin sum compensates from Python 3.12 on)."""
    return float(np.cumsum(np.concatenate(([0.0], values)))[-1])


# uniforms the block loop keeps before it prices them: with r1 = 0 every one of
# the N arbitrageurs bids, so without a bound memory would grow with N x blocks
# (2^16 uniforms are 512 KiB; 10,000 blocks at N = 10 take about 9,000)
_PASS_DRAWS = 1 << 16


@np.errstate(all="ignore")  # where the kernel overflows, simulate reports the bid
def _price_auctions(draws: list, config: MarketSimConfig) -> tuple[np.ndarray, np.ndarray]:
    """Winning bids and sequencer fees of the auctions whose draws the block
    loop stored, one (EquilibriumState, uniforms) per auction, in one array
    pass: auctions with the same participant count k (and the same
    bid_quantile branch) form one (count, k) array of bids.
    """
    g = config.base_fee
    r1 = config.revert_rate_base
    r2 = config.revert_rate_priority
    groups = defaultdict(list)
    for j, (state, u) in enumerate(draws):
        groups[u.size, state.p_star > 0.0].append(j)
    width = len(EquilibriumState._fields)
    states = np.fromiter(chain.from_iterable(state for state, _ in draws), float,
                         len(draws) * width).reshape(-1, width).T
    winning = np.empty(len(draws))
    fees = np.empty(len(draws))
    for (k, _), rows in groups.items():
        at = np.array(rows)[:, None]
        bids = bid_quantile(np.stack([draws[j][1] for j in rows]),
                            EquilibriumState(*(column[at] for column in states)),
                            config.num_arbitrageurs - 1, r2)
        w = bids.max(axis=1)
        fee = g + w
        fee += (k - 1) * r1 * g
        fee += r2 * (bids.sum(axis=1) - w)
        winning[at[:, 0]] = w
        fees[at[:, 0]] = fee
    return winning, fees


def simulate(config: MarketSimConfig) -> MarketSimReport:
    """Run the simulation: one auction per block with a profitable
    opportunity, equilibrium participation draws, fee-band price updates,
    and full metric accounting.

    A discrepancy counts as an opportunity only when the gross arbitrage
    value exceeds the base fee (otherwise even a zero bid loses money and
    the auction is trivially empty). The reported fee-band frequency (dbf)
    still uses the plain band |onchain - true| > f * true.

    The block loop only draws: whether anyone takes part moves the price,
    the bids do not. Per opportunity it makes the participation draw
    binomial(N, 1 - p*) and, if k > 0 take part, k uniforms for their bids,
    from p* = rho^(1/(N-1)); more than MAX_DRAWS = 2^22 participants raise
    ArgumentOutOfRange before their uniforms are drawn. Bids and fees come
    from the stored draws in array passes over at most about _PASS_DRAWS
    uniforms each (one pass at the usual sizes), and totals from the bids
    and fees; a total that is not finite raises NumericsError.
    """
    path_ss, auction_ss = np.random.SeedSequence(config.seed).spawn(2)
    rng_path = np.random.Generator(np.random.Philox(path_ss))
    rng_auction = np.random.Generator(np.random.Philox(auction_ss))

    path = gbm_path(config, rng_path)
    f = config.fee_rate
    g = config.base_fee
    depth = config.liquidity_depth
    n_agents = config.num_arbitrageurs
    rg = config.revert_rate_base * g
    full_rp = losing_is_free(rg, config.revert_rate_priority)

    true = path[1:]
    n = true.size
    before = np.empty(n)
    values = np.zeros(n)  # opportunity value where it exceeds g (> 0), else 0
    executed_at: list[int] = []  # blocks whose auction executed
    takers: list[int] = []  # their participant counts
    volumes: list[float] = []  # their trade volumes
    draws: list[tuple] = []  # their (EquilibriumState, uniforms), unless full_rp
    pending = 0  # uniforms in draws
    priced: list[tuple] = []  # (winning bids, fees) of the auctions priced so far

    onchain = float(path[0])
    for t, price in enumerate(true.tolist()):
        before[t] = onchain
        opp = opportunity_value(onchain, price, f, depth)
        if not opp.value > g:
            continue
        values[t] = opp.value
        if full_rp:
            # losing is free: everyone enters and the top bids hit breakeven
            k = n_agents
        else:
            state = equilibrium_state(rg, opp.value - g, n_agents)
            k = int(rng_auction.binomial(n_agents, 1.0 - state.p_star))
            if k > MAX_DRAWS:
                raise ArgumentOutOfRange(
                    f"block {t + 1}: {k} arbitrageurs take part, more than the {MAX_DRAWS} "
                    "bid draws one auction may hold"
                )
            if k:
                draws.append((state, rng_auction.random(k)))
                pending += k
                if pending >= _PASS_DRAWS:
                    priced.append(_price_auctions(draws, config))
                    draws.clear()
                    pending = 0
        if k:
            executed_at.append(t)
            takers.append(k)
            volumes.append(opp.volume)
            onchain = price * (1.0 + f) if opp.direction == "sell_dex" else price * (1.0 - f)

    # the array pass overflows to inf without a warning, as the Python floats
    # of a per-block loop do; a non-finite bid or fee raises NumericsError
    with np.errstate(all="ignore"):
        at = np.array(executed_at, dtype=np.intp)
        value = values[at]
        if full_rp:
            winning, fees = value - g, value
        else:
            priced.append(_price_auctions(draws, config))
            draws.clear()  # before the columns are built, so their peaks do not add up
            winning, fees = (np.concatenate(c) for c in zip(*priced))
        bad = ~(np.isfinite(winning) & np.isfinite(fees))
        if np.any(bad):
            j = int(np.argmax(bad))
            raise NumericsError(
                f"block {executed_at[j] + 1}: the auction at opportunity value {float(value[j])} "
                f"has a non-finite winning bid ({float(winning[j])}) or sequencer fee "
                f"({float(fees[j])})"
            )

        after = np.append(before[1:], onchain)
        discrepancy = np.abs(true - before)
        dev = np.abs(after - true)
        deviations = np.concatenate(([0.0], dev))  # the initial point sits on the CEX price
        volume = np.array(volumes)
        lp_fees = f * volume
        lp_loss = 0.5 * discrepancy[at] * volume
        if executed_at:
            counts, edges = np.histogram(fees, bins=10)
        else:
            counts, edges = np.array([], dtype=int), np.array([0.0])
        totals = {"cfe": _running_total(lp_fees), "casl": _running_total(lp_loss),
                  "casl_gross": _running_total(value), "csr": _running_total(fees)}
        for name, total in totals.items():
            if not math.isfinite(total):
                raise NumericsError(
                    f"the total {name} over {n} blocks is not finite ({total})")
        cfe, casl = totals["cfe"], totals["casl"]

        def executed_column(column, fill=0.0, dtype=np.float64) -> np.ndarray:
            out = np.full(n, fill, dtype)
            out[at] = column
            return out

        outcome = (values > 0.0) + executed_column(1, 0, np.intp)  # codes into Outcome
        return MarketSimReport(
            config=config,
            event_columns=(
                np.arange(1, n + 1),
                true,
                before,
                after,
                np.array(get_args(Outcome), dtype=object)[outcome],
                values,
                discrepancy,
                executed_column(takers, 0, np.int64),
                executed_column(winning, None, object),
                *map(executed_column, (fees, lp_fees, lp_loss, value)),
            ),
            opportunities=int(np.count_nonzero(values)),
            executed=len(executed_at),
            abstained=int(np.count_nonzero(outcome == 1)),
            mad=float(deviations.mean()),
            dbf=int(np.count_nonzero(dev > f * true)) / deviations.size,
            max_deviation=float(deviations.max()),
            cfe=cfe,
            casl=casl,
            casl_gross=totals["casl_gross"],
            nlp=cfe - casl,
            csr=totals["csr"],
            era_series=tuple((g + winning).tolist()),
            revenue_histogram=(tuple(int(x) for x in counts), tuple(float(x) for x in edges)),
        )
