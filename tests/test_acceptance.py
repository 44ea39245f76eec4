"""Acceptance suite: every criterion at its stated scale and tolerance,
one printed PASS/FAIL line per criterion (run with -s to see them inline).
"""

import math
from dataclasses import replace
from itertools import product

import numpy as np
import pytest

from pga_lab import (
    AuctionParams,
    MarketSimConfig,
    Winner,
    certify_equilibrium,
    comparative_statics_check,
    compare_schemes,
    find_pure_deviation,
    hillman_samet_check,
    monte_carlo_replay,
    pure_payoff,
    PureProfile,
    revenue_report,
    scheme1_optimal_r1,
    scheme1_optimal_r1_scan,
    simulate,
    solve_equilibrium,
)
from pga_lab import analytics
from pga_lab.cli import run
from pga_lab.equilibrium import Equilibrium
from pga_lab.serialize import csv_text, json_text
from pga_lab.market import EVENT_CSV_HEADER

from _util import in_order, philox, random_params

REF = AuctionParams(10, 1, 0.1, 0.1, 20)


def _criterion(number: int, description: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number:02d} {status}: {description}{suffix}")
    assert passed, f"criterion {number}: {description}{suffix}"


def test_criterion_1_boundary_conditions():
    rng = philox(1001)
    worst = 0.0
    for _ in range(100):
        eq = solve_equilibrium(random_params(rng))
        # the raw formula, as cdf pins both ends; with r1 = 0, rho = 0 and log 0 = -inf
        with np.errstate(divide="ignore"):
            ends = eq._f_star(np.array([0.0, eq.support_max]))
        worst = max(worst, abs(float(ends[0])), abs(float(ends[1]) - 1.0), abs(eq.boundary_gap))
    _criterion(
        1,
        "F*(0)=0 and F*(V-g)=1 within 1e-12 over 100 random draws",
        worst <= 1e-12,
        f"max residue {worst:.2e}",
    )


def test_criterion_1_sees_a_shift_of_f_star_at_zero(monkeypatch, capsys):
    raw = Equilibrium._f_star
    monkeypatch.setattr(Equilibrium, "_f_star", lambda self, b, *xp: raw(self, b, *xp)
                        + np.where(np.asarray(b) == 0.0, 1e-9, 0.0))
    with pytest.raises(AssertionError, match="criterion 1"):
        test_criterion_1_boundary_conditions()
    assert "max residue 1.00e-09" in capsys.readouterr().out  # kept off the PASS/FAIL lines


def test_criterion_2_indifference_certificate():
    rng = philox(1002)
    worst = -math.inf
    ok = True
    for _ in range(100):
        params = random_params(rng)
        cert = certify_equilibrium(params, solve_equilibrium(params).strategy)
        worst = max(worst, cert.max_payoff)
        ok = ok and cert.passed
    _criterion(
        2,
        "best-response scan max <= 1e-9 on 1000-point grids over 100 draws",
        ok and worst <= 1e-9,
        f"max deviation payoff {worst:.2e}",
    )


def test_criterion_3_monte_carlo_agreement():
    rep = monte_carlo_replay(REF, trials=1_000_000, seed=1003)
    closed = revenue_report(REF)
    checks = [
        rep.revenue.within(closed.expected_revenue),
        rep.submitted_txs.within(closed.expected_submitted_txs),
        rep.per_agent_payoff.within(0.0),
    ]
    _criterion(
        3,
        "1e6-trial Monte Carlo within 3 SE of revenue 9.9133, submitted 4.2267, payoff 0",
        all(checks),
        f"revenue {rep.revenue.mean:.5f}, submitted {rep.submitted_txs.mean:.5f}, "
        f"payoff {rep.per_agent_payoff.mean:.2e}",
    )


def test_criterion_4_decomposition():
    rng = philox(1004)
    worst_identity = 0.0
    mc_ok = True
    for i in range(20):
        params = random_params(rng, max_agents=32)
        rep = revenue_report(params)
        worst_identity = max(
            worst_identity,
            abs(rep.base_revenue + rep.priority_revenue - rep.expected_revenue),
        )
        mc = monte_carlo_replay(params, trials=100_000, seed=2000 + i)
        mc_ok = (
            mc_ok
            and mc.base_revenue.within(rep.base_revenue)
            and mc.priority_revenue.within(rep.priority_revenue)
            and mc.revenue.within(rep.expected_revenue)
            and mc.submitted_txs.within(rep.expected_submitted_txs)
            and mc.per_agent_payoff.within(0.0)
        )
    _criterion(
        4,
        "base + priority = total within 1e-9 and Monte Carlo components within 3 SE, 20 draws",
        worst_identity <= 1e-9 and mc_ok,
        f"max identity residue {worst_identity:.2e}",
    )


def test_criterion_5_limits():
    rep = revenue_report(replace(REF, num_agents=10**6))
    lim = rep.limits
    reference_ok = (
        lim.revenue == pytest.approx(90 / 9.1, rel=1e-12)
        and lim.submitted_txs == pytest.approx(math.log(91), rel=1e-12)
    )
    gaps = [
        abs(rep.expected_revenue - lim.revenue) / lim.revenue,
        abs(rep.base_revenue - lim.base_revenue) / lim.base_revenue,
        abs(rep.priority_revenue - lim.priority_revenue) / lim.priority_revenue,
        abs(rep.expected_submitted_txs - lim.submitted_txs) / lim.submitted_txs,
    ]
    _criterion(
        5,
        "finite-N formulas at N=1e6 match the limits (90/9.1, ln 91, ...) within 1e-3",
        reference_ok and max(gaps) <= 1e-3,
        f"max relative gap {max(gaps):.2e}",
    )


def test_criterion_6_comparative_statics():
    # interior base points from the verified region: the bid-distribution
    # response to r1 reverses at high markups (abstention channel dominates),
    # so the full published sign table only holds at low markups; see
    # test_oracle.py::TestComparativeStatics for the documented counterexample
    base_points = [
        AuctionParams(2.0, 1.0, 0.5, 0.05, 20),
        AuctionParams(2.0, 1.5, 0.6, 0.2, 6),
        AuctionParams(3.0, 1.5, 0.5, 0.1, 10),
        AuctionParams(2.5, 1.8, 0.7, 0.3, 12),
        AuctionParams(1.5, 1.0, 0.3, 0.05, 25),
    ]
    total = failed = 0
    for base in base_points:
        checks = comparative_statics_check(base)
        total += len(checks)
        failed += sum(1 for c in checks if not c.passed)
    _criterion(
        6,
        "all direction and pointwise-CDF sign checks pass at 5 interior base points",
        failed == 0,
        f"{total - failed}/{total} checks passed",
    )


def test_criterion_7_r2_invariance():
    # revenue_report never reads r2, so its totals must agree exactly; F* moves
    # with r2, and the priority payments (the winner's bid, and r2 times each
    # loser's) must still add up to the r2-free priority revenue
    points = [replace(REF, revert_rate_priority=r2) for r2 in (0.0, 0.3, 1.0)]
    reports = [revenue_report(p) for p in points]
    identical = all(
        r.expected_revenue == reports[0].expected_revenue
        and r.participation_prob == reports[0].participation_prob
        and r.expected_submitted_txs == reports[0].expected_submitted_txs
        for r in reports
    )
    worst = 0.0
    for p, r in zip(points, reports):
        eq = solve_equilibrium(p)
        r2 = p.revert_rate_priority
        paid = ((1.0 - r2) * analytics.expected_winning_bid(p)
                + r2 * p.num_agents * eq.state.one_minus_p * eq.expected_bid())
        worst = max(worst, abs(paid - r.priority_revenue) / r.priority_revenue)
    _criterion(
        7,
        "revenue, participation, submitted txs exactly identical across r2 in {0, 0.3, 1}, "
        "and the priority payments within 1e-10 relative of the priority revenue",
        identical and worst <= 1e-10,
        f"max priority-payment residue {worst:.2e}",
    )


def test_criterion_7_sees_a_shift_of_the_winning_bid(monkeypatch, capsys):
    raw = analytics.expected_winning_bid
    monkeypatch.setattr(analytics, "expected_winning_bid",
                        lambda *args: raw(*args) * (1.0 + 1e-9))
    with pytest.raises(AssertionError, match="criterion 7"):
        test_criterion_7_r2_invariance()
    assert "max priority-payment residue 1.00e-09" in capsys.readouterr().out


def test_criterion_8_hillman_samet():
    worst = max(hillman_samet_check(1.0, 0.1, n) for n in (2, 5, 10))
    _criterion(
        8,
        "classic all-pay-auction CDF cross-check within 1e-10 for N in {2, 5, 10}",
        worst <= 1e-10,
        f"max deviation {worst:.2e}",
    )


def test_criterion_9_schemes():
    rng = philox(1009)
    scan_ok = True
    for _ in range(20):
        params = random_params(rng, max_agents=16)
        c = float(rng.uniform(0.05, 0.95)) * params.breakeven_bid
        if abs(scheme1_optimal_r1(params, c) - scheme1_optimal_r1_scan(params, c)) > 1e-3:
            scan_ok = False
    small = compare_schemes(REF, 1e-6)
    small_ok = small.winner in (Winner.SCHEME2, Winner.TIE)
    cs = np.linspace(1e-5, REF.breakeven_bid * 0.999, 300)
    gaps = [
        compare_schemes(REF, float(c)).scheme2_revenue_at_r1_zero
        - compare_schemes(REF, float(c)).scheme1_profit_at_optimum
        for c in cs
    ]
    signs = [g > 0 for g in gaps if abs(g) > 1e-12]
    flips = sum(1 for a, b in zip(signs, signs[1:]) if a != b)
    _criterion(
        9,
        "optimal r1 matches grid scan within 1e-3 (20 draws); pass-through wins at tiny cost; "
        "at most one crossing over the cost sweep",
        scan_ok and small_ok and flips <= 1,
        f"winner at c=1e-6: {small.winner.value}, sign flips {flips}",
    )


def test_criterion_10_pure_strategy_theorems():
    v, g = 10.0, 1.0
    step = (v - g) / 20.0
    grid = [None] + [i * step for i in range(21)]
    actions_list = list(product(grid, repeat=3))

    with_penalty = AuctionParams(v, g, 0.1, 0.1, 3)
    all_deviate = True
    for actions in actions_list:
        dev = find_pure_deviation(with_penalty, PureProfile(actions))
        if dev is None or not dev.gain > 0.0:
            all_deviate = False
            break

    free_losing = AuctionParams(v, g, 0.0, 0.0, 3)
    grid_actions = [None] + [i * step for i in range(21)]
    classify_ok = True
    equilibria = 0
    for actions in actions_list:
        profile = PureProfile(actions)
        dev = find_pure_deviation(free_losing, profile)
        bids = sorted((a for a in actions if a is not None), reverse=True)
        is_eq = len(bids) >= 2 and bids[0] == bids[1] == v - g
        if is_eq != (dev is None):
            classify_ok = False
            break
        if is_eq:
            equilibria += 1
            # certify by exhaustive single-agent grid deviations
            for agent in range(3):
                base_payoff = pure_payoff(free_losing, profile, agent)
                for alt in grid_actions:
                    alt_actions = list(actions)
                    alt_actions[agent] = alt
                    alt_payoff = pure_payoff(
                        free_losing, PureProfile(alt_actions), agent
                    )
                    if alt_payoff > base_payoff + 1e-12:
                        classify_ok = False
    _criterion(
        10,
        "N=3 grid enumeration: profitable deviation everywhere under penalties; "
        "breakeven-pair profiles certified as the only equilibria without penalties",
        all_deviate and classify_ok,
        f"{len(actions_list)} profiles, {equilibria} equilibria certified",
    )


_SIM_BASE = MarketSimConfig(
    drift=0.0,
    volatility=0.05,
    horizon=100.0,
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


def test_criterion_11_market_sim_properties():
    quiet = simulate(replace(_SIM_BASE, volatility=0.0, drift=0.0, horizon=10.0))
    zero_ok = quiet.opportunities == 0 and quiet.mad == 0.0 and quiet.csr == 0.0

    wins = 0
    pairs = 100
    identities_ok = True
    for seed in range(pairs):
        no_rp = simulate(replace(_SIM_BASE, seed=seed))
        full_rp = simulate(
            replace(_SIM_BASE, revert_rate_base=0.0, revert_rate_priority=0.0, seed=seed)
        )
        wins += no_rp.mad >= full_rp.mad
        if seed < 5:
            for rep in (no_rp, full_rp):
                identities_ok = identities_ok and (
                    rep.nlp == rep.cfe - rep.casl
                    and rep.csr == in_order(e.sequencer_fees for e in rep.events)
                )
    _criterion(
        11,
        "sigma=0 yields zero events; paired-seed MAD ordering holds in >= 95/100 pairs; "
        "accounting identities exact",
        zero_ok and wins >= 95 and identities_ok,
        f"MAD ordering held in {wins}/100 pairs",
    )


def test_criterion_12_determinism(tmp_path):
    mc_same = monte_carlo_replay(REF, 50_000, seed=12) == monte_carlo_replay(
        REF, 50_000, seed=12
    )
    config = replace(_SIM_BASE, horizon=5.0, seed=12)
    rep_a, rep_b = simulate(config), simulate(config)
    sim_same = rep_a == rep_b
    csv_same = csv_text(EVENT_CSV_HEADER, rep_a.event_columns) == csv_text(
        EVENT_CSV_HEADER, rep_b.event_columns
    )
    json_same = json_text({"mad": rep_a.mad, "era": list(rep_a.era_series)}) == json_text(
        {"mad": rep_b.mad, "era": list(rep_b.era_series)}
    )
    argv = [
        "sweep", "--target", "cdf", "--V", "10", "--g", "1", "--N", "20",
        "--r1", "0.1", "--r2", "0.1", "--grid", "50",
    ]
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(argv + ["--out", str(out_a)]) == 0
    assert run(argv + ["--out", str(out_b)]) == 0
    cli_same = out_a.read_bytes() == out_b.read_bytes()
    _criterion(
        12,
        "fixed seeds reproduce bit-identical reports, CSVs, and JSON",
        mc_same and sim_same and csv_same and json_same and cli_same,
    )
