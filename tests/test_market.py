import math
from dataclasses import replace

import numpy as np
import pytest

from pga_lab import (
    ConfigInvalid,
    MarketSimConfig,
    gbm_path,
    opportunity_value,
    simulate,
    solve_equilibrium,
    AuctionParams,
)
from pga_lab import market
from pga_lab.equilibrium import log_ratio
from pga_lab.errors import ArgumentOutOfRange
from pga_lab.market import EVENT_CSV_HEADER, BlockEvent, event_csv_rows
from pga_lab.numerics import adaptive_simpson
from pga_lab.serialize import csv_text

from _util import in_order, philox

BASE = MarketSimConfig(
    drift=0.0,
    volatility=0.05,
    horizon=50.0,
    block_time=0.01,
    initial_price=100.0,
    fee_rate=0.003,
    liquidity_depth=10.0,
    base_fee=0.1,
    revert_rate_base=1.0,
    revert_rate_priority=1.0,
    num_arbitrageurs=10,
    seed=0,
)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ConfigInvalid):
            replace(BASE, block_time=0.0)
        with pytest.raises(ConfigInvalid):
            replace(BASE, fee_rate=1.0)
        with pytest.raises(ConfigInvalid):
            replace(BASE, liquidity_depth=0.0)
        with pytest.raises(ConfigInvalid):
            replace(BASE, volatility=-0.1)
        with pytest.raises(ConfigInvalid):
            replace(BASE, horizon=0.001)

    @pytest.mark.parametrize("seed", [-1, 1.5, "7"])
    def test_seed_must_be_a_non_negative_integer(self, seed):
        with pytest.raises(ConfigInvalid):
            replace(BASE, seed=seed)

    @pytest.mark.parametrize("n", [2.5, 10.0, "10"])
    def test_agent_count_must_be_an_integer(self, n):
        with pytest.raises(ConfigInvalid, match="num_arbitrageurs must be an integer"):
            replace(BASE, num_arbitrageurs=n)

    def test_numpy_integer_agent_count_is_accepted(self):
        assert replace(BASE, num_arbitrageurs=np.int64(10)).num_arbitrageurs == 10

    def test_block_count_rounds_up(self):
        assert replace(BASE, horizon=0.025).num_blocks == 3


class TestGbmPath:
    def test_flat_without_noise_or_drift(self):
        config = replace(BASE, volatility=0.0, drift=0.0)
        path = gbm_path(config, philox(1))
        assert np.all(path == 100.0)
        assert path.size == config.num_blocks + 1

    def test_pure_drift_is_exponential(self):
        config = replace(BASE, volatility=0.0, drift=0.3, horizon=5.0, block_time=0.5)
        path = gbm_path(config, philox(1))
        t = np.arange(path.size) * 0.5
        assert np.allclose(path, 100.0 * np.exp(0.3 * t), rtol=1e-12)

    def test_log_return_mean_matches_ito_correction(self):
        config = replace(BASE, horizon=1000.0, block_time=0.01, volatility=0.4)
        path = gbm_path(config, philox(2))
        log_returns = np.diff(np.log(path))
        expected = -0.5 * 0.4**2 * 0.01
        se = log_returns.std(ddof=1) / math.sqrt(log_returns.size)
        assert abs(log_returns.mean() - expected) <= 3 * se


class TestOpportunityValue:
    def test_no_discrepancy_no_value(self):
        opp = opportunity_value(100.0, 100.0, 0.003, 10.0)
        assert opp.value == 0.0 and opp.direction is None

    def test_feeless_case_matches_quadrature(self):
        # selling down a linear book from 110 to 100 and covering at 100:
        # profit integrates the fill-price premium over the gap
        opp = opportunity_value(110.0, 100.0, 0.0, 10.0)
        assert opp.direction == "sell_dex"
        assert opp.value == pytest.approx(0.5 * 10**2 * 10.0, rel=1e-12)
        assert opp.volume == pytest.approx(100.0, rel=1e-12)
        oracle = adaptive_simpson(lambda x: (x - 100.0) * 10.0, 100.0, 110.0, tol=1e-10)
        assert opp.value == pytest.approx(oracle, rel=1e-9)

    def test_fee_band_edge_is_worthless(self):
        # dex price exactly at cex/(1+f): the buy-side stop equals the price
        opp = opportunity_value(100.0, 110.0, 0.1, 10.0)
        assert opp.value == 0.0 and opp.direction is None

    def test_buy_side_direction(self):
        opp = opportunity_value(90.0, 110.0, 0.1, 10.0)
        assert opp.direction == "buy_dex"
        assert opp.value == pytest.approx(0.5 * (100.0 - 90.0) ** 2 * 10.0, rel=1e-12)


class TestSimulate:
    def test_constant_prices_mean_no_events(self):
        config = replace(BASE, volatility=0.0, drift=0.0)
        rep = simulate(config)
        assert rep.opportunities == 0
        assert rep.mad == 0.0
        assert rep.csr == 0.0
        assert rep.max_deviation == 0.0
        assert all(e.outcome == "no_opportunity" for e in rep.events)

    def test_full_revert_protection_executes_every_opportunity(self):
        config = replace(BASE, revert_rate_base=0.0, revert_rate_priority=0.0)
        rep = simulate(config)
        assert rep.opportunities > 100
        assert rep.executed == rep.opportunities
        assert rep.abstained == 0

    def test_partial_penalties_produce_abstentions(self):
        rep = simulate(BASE)
        assert rep.abstained > 0
        assert rep.executed + rep.abstained == rep.opportunities

    def test_accounting_identities_exact(self):
        rep = simulate(BASE)
        assert rep.csr == in_order(e.sequencer_fees for e in rep.events)
        assert rep.cfe == in_order(e.lp_fees for e in rep.events)
        assert rep.casl == in_order(e.lp_adverse_loss for e in rep.events)
        assert rep.casl_gross == in_order(e.lp_adverse_loss_gross for e in rep.events)
        assert rep.nlp == rep.cfe - rep.casl
        assert len(rep.era_series) == rep.executed

    def test_post_trade_price_sits_on_fee_band(self):
        rep = simulate(BASE)
        executed = [e for e in rep.events if e.outcome == "executed"]
        assert executed
        for e in executed:
            gap = abs(e.onchain_price_after - e.true_price)
            assert gap == pytest.approx(BASE.fee_rate * e.true_price, abs=1e-12)

    def test_unexecuted_blocks_leave_price_stale(self):
        rep = simulate(BASE)
        for e in rep.events:
            if e.outcome != "executed":
                assert e.onchain_price_after == e.onchain_price_before

    def test_reproducible_bit_for_bit(self):
        assert simulate(BASE) == simulate(BASE)
        assert simulate(BASE) != simulate(replace(BASE, seed=1))

    def test_paired_seed_mad_ordering(self):
        wins = 0
        pairs = 20
        for seed in range(pairs):
            no_rp = simulate(replace(BASE, horizon=20.0, seed=seed))
            full_rp = simulate(
                replace(BASE, horizon=20.0, revert_rate_base=0.0, revert_rate_priority=0.0, seed=seed)
            )
            wins += no_rp.mad >= full_rp.mad
        assert wins >= int(0.9 * pairs)

    def test_era_reports_realized_winner_payment(self):
        rep = simulate(BASE)
        executed = [e for e in rep.events if e.outcome == "executed"]
        for e, era in zip(executed, rep.era_series):
            assert era == pytest.approx(BASE.base_fee + e.winning_bid, abs=1e-15)

    def test_conditional_rent_dissipation(self):
        # fees collected per executed opportunity average out to its value
        rep = simulate(replace(BASE, horizon=200.0, seed=6))
        executed = [e for e in rep.events if e.outcome == "executed"]
        gaps = np.array([e.sequencer_fees - e.opportunity_value for e in executed])
        assert gaps.size > 3000
        se = gaps.std(ddof=1) / math.sqrt(gaps.size)
        assert abs(gaps.mean()) <= 3 * se

    def test_winning_bid_sampling_matches_per_agent_route(self):
        # K ~ binomial then K quantile draws (simulation route) versus
        # N per-agent abstain/bid draws: same conditional winner distribution
        params = AuctionParams(5.0, 0.1, 0.5, 0.5, 8)
        eq = solve_equilibrium(params)
        trials = 120_000
        rng = philox(3)
        k = rng.binomial(8, 1.0 - eq.abstain_prob, size=trials)
        route_a = []
        for kk in k:
            if kk:
                route_a.append(eq.sample_bids(rng, int(kk)).max())
        route_a = np.array(route_a)
        rng = philox(4)
        part = rng.random((trials, 8)) >= eq.abstain_prob
        bids = eq._quantile_arr(rng.random((trials, 8)))
        masked = np.where(part, bids, -1.0)
        route_b = masked.max(axis=1)
        route_b = route_b[route_b >= 0.0]
        se = math.hypot(
            route_a.std(ddof=1) / math.sqrt(route_a.size),
            route_b.std(ddof=1) / math.sqrt(route_b.size),
        )
        assert abs(route_a.mean() - route_b.mean()) <= 3 * se


class TestEventExport:
    def test_csv_shape_and_determinism(self):
        rep = simulate(replace(BASE, horizon=2.0))
        rows = event_csv_rows(rep)
        assert len(rows) == rep.config.num_blocks
        text = csv_text(EVENT_CSV_HEADER, rep.event_columns)
        lines = text.splitlines()
        assert lines[0] == ",".join(EVENT_CSV_HEADER)
        again = simulate(replace(BASE, horizon=2.0))
        assert text == csv_text(EVENT_CSV_HEADER, again.event_columns)
        # abstained/no-opportunity rows have no winning bid, and the CSV leaves it blank
        blank = [i for i, r in enumerate(rows) if r[4] != "executed"]
        assert blank and all(rows[i][8] is None for i in blank)
        assert all(lines[i + 1].split(",")[8] == "" for i in blank)


class TestEventColumns:
    @pytest.mark.parametrize("r1, r2", [(0.0, 0.0), (0.3, 0.7)], ids=["full_rp", "p_star_positive"])
    def test_column_types(self, r1, r2):
        rep = simulate(replace(BASE, horizon=2.0, revert_rate_base=r1, revert_rate_priority=r2))
        assert rep.executed > 0 and (r1 == 0.0 or rep.abstained > 0)
        columns = dict(zip(EVENT_CSV_HEADER, rep.event_columns))
        assert all(isinstance(c, np.ndarray) and c.shape == (rep.config.num_blocks,)
                   for c in columns.values())
        kinds = {name: c.dtype.kind for name, c in columns.items()}
        assert kinds == dict.fromkeys(EVENT_CSV_HEADER, "f") | {
            "block_index": "i", "participants": "i", "outcome": "O", "winning_bid": "O"}
        assert all(c.dtype == np.float64 for c in columns.values() if c.dtype.kind == "f")
        executed = rep.events[int(np.argmax(columns["outcome"] == "executed"))]
        assert [type(getattr(executed, name)) for name in EVENT_CSV_HEADER] == [
            int, float, float, float, str, float, float, int, float, float, float, float, float]

    def test_r1_g_underflow_is_the_free_losing_case(self):
        # r1 passes the validators but r1 g rounds to 0: losing is free, as with r1 = 0
        zero = simulate(replace(BASE, horizon=2.0, revert_rate_base=0.0, revert_rate_priority=0.0))
        tiny = simulate(replace(zero.config, revert_rate_base=5e-324))
        assert zero.config.revert_rate_base * zero.config.base_fee == 0.0 < 5e-324
        assert replace(tiny, config=zero.config) == zero

    def test_reports_are_equal_only_cell_for_cell(self):
        config = replace(BASE, horizon=2.0)
        rep = simulate(config)
        assert rep == simulate(config)

        def changed(name, column):
            return replace(rep, event_columns=tuple(
                column if key == name else c for key, c in zip(EVENT_CSV_HEADER, rep.event_columns)))

        columns = dict(zip(EVENT_CSV_HEADER, rep.event_columns))
        lp_fees = columns["lp_fees"].copy()
        i = int(np.flatnonzero(lp_fees)[-1])
        lp_fees[i] = np.nextafter(lp_fees[i], np.inf)
        assert rep != changed("lp_fees", lp_fees)
        participants = columns["participants"].astype(np.float64)
        assert np.array_equal(participants, columns["participants"])
        assert rep != changed("participants", participants)
        assert rep == changed("participants", columns["participants"].copy())


def _reference_simulate(config: MarketSimConfig) -> tuple[tuple[BlockEvent, ...], dict]:
    """The simulator as a plain per-block loop, kept as the oracle of the
    columnar one: each opportunity solves its equilibrium, draws the
    participant count and samples the bids on the spot."""
    path_ss, auction_ss = np.random.SeedSequence(config.seed).spawn(2)
    path = gbm_path(config, np.random.Generator(np.random.Philox(path_ss)))
    rng_auction = np.random.Generator(np.random.Philox(auction_ss))
    f, g = config.fee_rate, config.base_fee
    r1, r2 = config.revert_rate_base, config.revert_rate_priority
    n_agents = config.num_arbitrageurs
    full_rp = r1 == 0.0 and r2 == 0.0
    onchain = float(path[0])
    events, deviations, era, fees_per_event = [], [0.0], [], []
    beyond_band = opportunities = executed = abstained = 0
    cfe = casl = casl_gross = csr = 0.0
    for t in range(1, config.num_blocks + 1):
        true = float(path[t])
        before = onchain
        opp = opportunity_value(before, true, f, config.liquidity_depth)
        outcome, participants, winning_bid = "no_opportunity", 0, None
        seq_fees = lp_fees = lp_loss = lp_loss_gross = 0.0
        if opp.value > g:
            opportunities += 1
            if full_rp:
                participants, winning_bid, seq_fees = n_agents, opp.value - g, opp.value
                outcome = "executed"
            else:
                eq = solve_equilibrium(AuctionParams(opp.value, g, r1, r2, n_agents))
                participants = int(rng_auction.binomial(n_agents, 1.0 - eq.abstain_prob))
                if participants == 0:
                    outcome = "all_abstained"
                else:
                    bids = eq.sample_bids(rng_auction, participants)
                    winning_bid = float(bids.max())
                    seq_fees = (g + winning_bid + (participants - 1) * r1 * g
                                + r2 * (float(bids.sum()) - winning_bid))
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
        beyond_band += dev > f * true
        events.append(BlockEvent(t, true, before, onchain, outcome,
                                 opp.value if opp.value > g else 0.0, abs(true - before),
                                 participants, winning_bid, seq_fees, lp_fees, lp_loss,
                                 lp_loss_gross))
    if fees_per_event:
        counts, edges = np.histogram(np.array(fees_per_event), bins=10)
    else:
        counts, edges = np.array([], dtype=int), np.array([0.0])
    dev_arr = np.array(deviations)
    summary = dict(
        opportunities=opportunities, executed=executed, abstained=abstained,
        mad=float(dev_arr.mean()), dbf=beyond_band / len(deviations),
        max_deviation=float(dev_arr.max()), cfe=cfe, casl=casl, casl_gross=casl_gross,
        nlp=cfe - casl, csr=csr, era_series=tuple(era),
        revenue_histogram=(tuple(int(x) for x in counts), tuple(float(x) for x in edges)),
    )
    return tuple(events), summary


def astuple_event(event: BlockEvent) -> tuple:
    return tuple(getattr(event, name) for name in EVENT_CSV_HEADER)


class TestColumnarSimulator:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("n_agents", [2, 10, 50])
    @pytest.mark.parametrize("r1, r2", [(1.0, 1.0), (0.3, 0.7), (0.0, 0.5), (0.0, 0.0)])
    def test_matches_the_per_block_loop_bit_for_bit(self, r1, r2, n_agents, seed):
        config = replace(BASE, horizon=20.0, revert_rate_base=r1, revert_rate_priority=r2,
                         num_arbitrageurs=n_agents, seed=seed)
        events, summary = _reference_simulate(config)
        rep = simulate(config)
        assert rep.executed > 0
        columns = tuple(zip(*map(astuple_event, events)))
        for name, column, expected in zip(EVENT_CSV_HEADER, rep.event_columns, columns):
            assert tuple(column.tolist()) == expected, name
        assert rep.events == events
        for name, expected in summary.items():
            assert getattr(rep, name) == expected, name

    @pytest.mark.parametrize("r1, r2, n_agents", [(0.3, 0.7, 10), (0.0, 0.5, 50)])
    def test_passes_over_bounded_batches_match_the_per_block_loop(
        self, r1, r2, n_agents, monkeypatch
    ):
        # a batch bound of 7 uniforms prices the auctions in small batches
        monkeypatch.setattr(market, "_PASS_DRAWS", 7)
        config = replace(BASE, horizon=20.0, revert_rate_base=r1, revert_rate_priority=r2,
                         num_arbitrageurs=n_agents)
        events, summary = _reference_simulate(config)
        rep = simulate(config)
        assert rep.events == events
        assert {name: getattr(rep, name) for name in summary} == summary

    def test_zero_opportunity_run_matches_the_per_block_loop(self):
        config = replace(BASE, volatility=0.0, horizon=5.0)
        events, summary = _reference_simulate(config)
        rep = simulate(config)
        assert rep.opportunities == 0 and rep.events == events
        assert {name: getattr(rep, name) for name in summary} == summary


@pytest.mark.parametrize("r1, r2", [(1.0, 1.0), (0.3, 0.7)])
def test_execution_compensator_has_mean_zero(r1, r2):
    """Given the opportunity value V, an auction executes with probability
    pi = 1 - p*^N, p* = rho^(1/(N-1)), rho = r1 g / (V - g + r1 g). So
    1{executed} - pi summed over opportunity blocks is a martingale with
    mean zero and variance sum pi (1 - pi). 20 seeds of 10,000 blocks."""
    config = replace(BASE, horizon=100.0, revert_rate_base=r1, revert_rate_priority=r2)
    n, rg = config.num_arbitrageurs, r1 * config.base_fee
    total = variance = 0.0
    auctions = 0
    for seed in range(20):
        events = dict(zip(EVENT_CSV_HEADER, simulate(replace(config, seed=seed)).event_columns))
        for outcome, value in zip(events["outcome"], events["opportunity_value"]):
            if outcome == "no_opportunity":
                continue
            rho = rg / (value - config.base_fee + rg)
            pi = 1.0 - rho ** (n / (n - 1))
            total += (outcome == "executed") - pi
            variance += pi * (1.0 - pi)
            auctions += 1
    assert auctions > 50_000
    assert abs(total) <= 4.0 * math.sqrt(variance)


def test_casl_gross_is_loss_versus_rebalancing():
    """Loss-versus-rebalancing (Milionis, Moallemi, Roughgarden & Zhang 2022,
    arXiv 2208.06046). With mu = 0, f = 0, r1 = r2 = 0 and g below every
    opportunity, every block's auction executes and moves the pool to the CEX
    price, so casl_gross = 1/2 L sum (P_t - P_{t-1})^2, whose mean is
    1/2 L P0^2 expm1(sigma^2 n dt) = 1265.8. Over seeds 0-299 of 1,000 blocks
    the mean reads 1272.4 with a standard error of 15.3."""
    config = MarketSimConfig(0.0, 0.05, 10.0, 0.01, 100.0, 0.0, 10.0, 1e-12, 0.0, 0.0, 10, 0)
    n = config.num_blocks
    losses = []
    for seed in range(300):
        rep = simulate(replace(config, seed=seed))
        assert rep.executed == n
        losses.append(rep.casl_gross)
    exact = 0.5 * config.liquidity_depth * config.initial_price ** 2 * math.expm1(
        config.volatility ** 2 * n * config.block_time)
    mean = float(np.mean(losses))
    stderr = float(np.std(losses, ddof=1)) / math.sqrt(len(losses))
    assert abs(mean - exact) <= 4.0 * stderr


def _winning_bid_law(config: MarketSimConfig, exponent: float) -> np.ndarray:
    """G(w) = (z(w)^m - rho^m) / (1 - rho^m) of each executed block's winning
    bid w at that block's own V, from log z through expm1."""
    events = dict(zip(EVENT_CSV_HEADER, simulate(config).event_columns))
    executed = [i for i, outcome in enumerate(events["outcome"]) if outcome == "executed"]
    vg = np.array(events["opportunity_value"])[executed] - config.base_fee
    bids = np.array(events["winning_bid"])[executed].astype(float)
    rg = config.revert_rate_base * config.base_fee
    with np.errstate(divide="ignore"):  # r1 = 0: rho = 0
        log_rho = exponent * log_ratio(rg, vg, log=np.log)
        log_z = exponent * log_ratio(rg, vg, 0.0, config.revert_rate_priority, bids, np.log)
    return (np.expm1(log_z) - np.expm1(log_rho)) / -np.expm1(log_rho)


def _ks_statistic(u: np.ndarray) -> float:
    """D sqrt(n) of the sample u against U(0, 1)."""
    u = np.sort(u)
    i = np.arange(1, u.size + 1)
    return max((i / u.size - u).max(), (u - (i - 1) / u.size).max()) * math.sqrt(u.size)


def _law_statistic(r1: float, r2: float, n_agents: int, exponent: float) -> float:
    """D sqrt(n) of G at exponent over seeds 0 and 1 of 10,000 blocks."""
    config = replace(BASE, horizon=100.0, revert_rate_base=r1, revert_rate_priority=r2,
                     num_arbitrageurs=n_agents)
    return _ks_statistic(np.concatenate(
        [_winning_bid_law(replace(config, seed=seed), exponent) for seed in (0, 1)]))


@pytest.mark.parametrize("r1, r2, n_agents",
                         [(1.0, 1.0, 10), (0.3, 0.7, 10), (0.1, 0.0, 50), (1.0, 0.5, 2),
                          (0.0, 0.5, 10)])
def test_winning_bid_law(r1, r2, n_agents):
    """Given execution, the winning bid of N arbitrageurs at p* has the CDF
    G(w) = (z(w)^(N/(N-1)) - rho^(N/(N-1))) / (1 - rho^(N/(N-1))), so G of each
    executed block's bid at that block's own V is U(0, 1) across blocks. Over
    seeds 0 and 1 of 10,000 blocks (8,200-9,500 auctions) the KS statistic
    D sqrt(n) reads 0.72, 0.60, 0.36, 0.72 and 0.69 in the order of the cases,
    against the 5 % critical value 1.36.

    This catches wrong laws, not small biases: scaling every bid by 1.003
    reads 0.74-1.38 here."""
    assert _law_statistic(r1, r2, n_agents, n_agents / (n_agents - 1)) < 1.36


def test_winning_bid_law_rejects_a_wrong_exponent():
    # at N = 2 the exponent (N+1)/N in place of N/(N-1) reads 8.98
    assert _law_statistic(1.0, 0.5, 2, 1.5) > 1.36


def test_auction_draw_cap_trips_before_any_uniform(monkeypatch):
    # r1 = 0 makes p* = 0, so all 2^22 + 1 arbitrageurs bid in the first
    # auction: one more uniform than an auction may draw
    calls = []
    generator = np.random.Generator

    class Recording:
        def __init__(self, bit_generator):
            self._rng = generator(bit_generator)

        def __getattr__(self, name):
            return getattr(self._rng, name)

        def random(self, *args, **kwargs):
            calls.append(args)
            return self._rng.random(*args, **kwargs)

    monkeypatch.setattr(np.random, "Generator", Recording)
    config = replace(BASE, horizon=1.0, revert_rate_base=0.0, revert_rate_priority=0.5,
                     num_arbitrageurs=(1 << 22) + 1)
    with pytest.raises(ArgumentOutOfRange, match="4194305 arbitrageurs take part"):
        simulate(config)
    assert calls == []
