"""The default verification battery: every closed form checked against an
independent numerical route, at desk scale.

Each check is self-contained and seeded, so the battery is deterministic.
The same checks run at their full published scales in the acceptance test
suite; the battery keeps trial counts small enough for interactive use.
"""

from __future__ import annotations

import functools
import math
import operator
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from itertools import product
from typing import Callable

import numpy as np

from . import analytics, oracle
from .equilibrium import solve_equilibrium
from .errors import ArgumentOutOfRange
from .market import EVENT_CSV_HEADER, MarketSimConfig, simulate
from .model import AuctionParams, PureProfile


def random_params(rng: np.random.Generator, max_agents: int = 64) -> AuctionParams:
    """A valid parameter draw with a mixed equilibrium (r1 > 0 or r2 > 0);
    r1 = 0 in about 15 % of the draws."""
    g = rng.uniform(0.1, 2.0)
    v = g + 10.0 ** rng.uniform(-0.5, 1.5)
    if rng.random() < 0.15:
        r1 = 0.0
        r2 = rng.uniform(0.05, 1.0)
    else:
        r1 = rng.uniform(0.01, 1.0)
        r2 = rng.uniform(0.0, 1.0)
    n = int(rng.integers(2, max_agents + 1))
    return AuctionParams(v, g, r1, r2, n)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float


def _check_boundary_conditions(seed: int) -> tuple[bool, str]:
    rng = np.random.Generator(np.random.Philox(seed))
    worst = 0.0
    for _ in range(25):
        eq = solve_equilibrium(random_params(rng))
        # the raw formula, as cdf pins both ends; with r1 = 0, rho = 0 and log 0 = -inf
        with np.errstate(divide="ignore"):
            ends = eq._f_star(np.array([0.0, eq.support_max]), np)
        worst = max(worst, abs(float(ends[0])), abs(float(ends[1]) - 1.0))
    return worst <= 1e-12, f"max boundary residue {worst:.2e}"


def _check_indifference(seed: int) -> tuple[bool, str]:
    rng = np.random.Generator(np.random.Philox(seed))
    worst = -math.inf
    for _ in range(25):
        params = random_params(rng)
        cert = oracle.certify_equilibrium(params, solve_equilibrium(params))
        if not cert.passed:
            return False, f"certificate failed at {params}"
        worst = max(worst, cert.max_payoff)
    return True, f"max deviation payoff {worst:.2e}"


def _check_monte_carlo(seed: int) -> tuple[bool, str]:
    params = AuctionParams(10.0, 1.0, 0.1, 0.1, 20)
    eq = solve_equilibrium(params)
    rep = oracle.monte_carlo_replay(params, eq, trials=100_000, seed=seed)
    closed = analytics.revenue_report(params)
    ok = (
        rep.revenue.within(closed.expected_revenue)
        and rep.submitted_txs.within(closed.expected_submitted_txs)
        and rep.per_agent_payoff.within(0.0)
    )
    return ok, (
        f"revenue {rep.revenue.mean:.4f} vs {closed.expected_revenue:.4f}, "
        f"payoff {rep.per_agent_payoff.mean:.2e}"
    )


def _check_decomposition(seed: int) -> tuple[bool, str]:
    rng = np.random.Generator(np.random.Philox(seed))
    worst_identity = 0.0
    for i in range(5):
        params = random_params(rng, max_agents=32)
        rep = analytics.revenue_report(params)
        worst_identity = max(
            worst_identity,
            abs(rep.base_revenue + rep.priority_revenue - rep.expected_revenue),
        )
        mc = oracle.monte_carlo_replay(
            params, solve_equilibrium(params), trials=50_000, seed=seed + i + 1
        )
        if not (
            mc.base_revenue.within(rep.base_revenue)
            and mc.priority_revenue.within(rep.priority_revenue)
        ):
            return False, f"decomposition off at {params}"
    return worst_identity <= 1e-9, f"max identity residue {worst_identity:.2e}"


def _check_limits(seed: int) -> tuple[bool, str]:
    params = AuctionParams(10.0, 1.0, 0.1, 0.1, 10**6)
    rep = analytics.revenue_report(params)
    lim = rep.limits
    pairs = [
        (rep.expected_revenue, lim.revenue),
        (rep.base_revenue, lim.base_revenue),
        (rep.priority_revenue, lim.priority_revenue),
        (rep.expected_submitted_txs, lim.submitted_txs),
    ]
    worst = max(abs(a - b) / abs(b) for a, b in pairs)
    return worst <= 1e-3, f"max relative gap to limit {worst:.2e}"


def _check_comparative_statics(seed: int) -> tuple[bool, str]:
    # low-markup base point: the r1 direction of the bid distribution only
    # holds where the abstention response is weaker than the direct cost
    # effect (see oracle.comparative_statics_check)
    base = AuctionParams(2.0, 1.0, 0.5, 0.05, 20)
    checks = oracle.comparative_statics_check(base) + oracle.cdf_sensitivity_check(base)
    bad = [c for c in checks if not c.passed]
    return not bad, f"{len(checks)} sign checks, {len(bad)} failed"


def _check_r2_invariance(seed: int) -> tuple[bool, str]:
    base = AuctionParams(10.0, 1.0, 0.3, 0.0, 12)
    reports = [
        analytics.revenue_report(replace(base, revert_rate_priority=r2))
        for r2 in (0.0, 0.3, 1.0)
    ]
    ok = all(
        r.expected_revenue == reports[0].expected_revenue
        and r.participation_prob == reports[0].participation_prob
        and r.expected_submitted_txs == reports[0].expected_submitted_txs
        for r in reports
    )
    return ok, "revenue/participation/submitted identical across r2 in {0, 0.3, 1}"


def _check_hillman_samet(seed: int) -> tuple[bool, str]:
    worst = max(oracle.hillman_samet_check(1.0, 0.1, n) for n in (2, 5, 10))
    return worst <= 1e-10, f"max CDF deviation {worst:.2e}"


def _check_schemes(seed: int) -> tuple[bool, str]:
    rng = np.random.Generator(np.random.Philox(seed))
    for _ in range(5):
        params = random_params(rng, max_agents=16)
        c = rng.uniform(0.05, 0.9) * params.breakeven_bid
        closed = analytics.scheme1_optimal_r1(params, c)
        scanned = analytics.scheme1_optimal_r1_scan(params, c)
        if abs(closed - scanned) > 1e-3:
            return False, f"optimal r1 {closed:.5f} vs scan {scanned:.5f} at {params}"
    params = AuctionParams(10.0, 1.0, 0.2, 0.1, 6)
    small_c = analytics.compare_schemes(params, 1e-6)
    if small_c.winner is analytics.Winner.SCHEME1:
        return False, "scheme 1 won at negligible cost"
    cs = np.linspace(1e-4, params.breakeven_bid * 0.999, 200)
    diffs = [d.scheme2_revenue_at_r1_zero - d.scheme1_profit_at_optimum
             for d in (analytics.compare_schemes(params, c) for c in cs)]
    signs = [d > 0 for d in diffs if abs(d) > 1e-12]
    flips = sum(1 for a, b in zip(signs, signs[1:]) if a != b)
    return flips <= 1, f"scheme gap sign flips: {flips}"


def _check_pure_deviations(seed: int) -> tuple[bool, str]:
    v, g = 10.0, 1.0
    grid = [None] + [i * (v - g) / 10.0 for i in range(11)]
    with_penalty = AuctionParams(v, g, 0.1, 0.1, 3)
    free_losing = AuctionParams(v, g, 0.0, 0.0, 3)
    checked = 0
    for actions in product(grid, repeat=3):
        profile = PureProfile(actions)
        dev = oracle.find_pure_deviation(with_penalty, profile)
        if dev is None or not dev.gain > 0.0:
            return False, f"no deviation under penalties for {actions}"
        dev0 = oracle.find_pure_deviation(free_losing, profile)
        top_two = sorted((a for a in actions if a is not None), reverse=True)[:2]
        is_eq = len(top_two) == 2 and top_two[0] == top_two[1] == v - g
        if is_eq != (dev0 is None):
            return False, f"pure-equilibrium misclassification for {actions}"
        checked += 1
    return True, f"{checked} profiles enumerated"


def _check_market_accounting(seed: int) -> tuple[bool, str]:
    config = MarketSimConfig(
        drift=0.0,
        volatility=0.05,
        horizon=20.0,
        block_time=0.01,
        initial_price=100.0,
        fee_rate=0.003,
        liquidity_depth=10.0,
        base_fee=0.1,
        revert_rate_base=1.0,
        revert_rate_priority=1.0,
        num_arbitrageurs=10,
        seed=seed,
    )
    rep = simulate(config)
    column = dict(zip(EVENT_CSV_HEADER, rep.event_columns))

    def in_block_order(name: str) -> float:
        # as the totals are added; the builtin sum compensates from Python 3.12 on
        return functools.reduce(operator.add, column[name].tolist(), 0.0)

    ok = (
        rep.csr == in_block_order("sequencer_fees")
        and rep.nlp == rep.cfe - rep.casl
        and rep.cfe == in_block_order("lp_fees")
        and rep.casl == in_block_order("lp_adverse_loss")
        and rep.executed > 0
    )
    band_ok = all(
        abs(abs(after - true) - config.fee_rate * true) <= 1e-12
        for after, true, outcome in zip(
            column["onchain_price_after"], column["true_price"], column["outcome"]
        )
        if outcome == "executed"
    )
    return ok and band_ok, (
        f"{rep.executed} executed, {rep.abstained} abstained; identities exact: {ok}"
    )


def _check_determinism(seed: int) -> tuple[bool, str]:
    params = AuctionParams(10.0, 1.0, 0.1, 0.1, 20)
    eq = solve_equilibrium(params)
    a = oracle.monte_carlo_replay(params, eq, trials=20_000, seed=seed)
    b = oracle.monte_carlo_replay(params, eq, trials=20_000, seed=seed)
    config = MarketSimConfig(0.0, 0.05, 5.0, 0.01, 100.0, 0.003, 10.0, 0.1, 0.5, 0.5, 8, seed)
    ra, rb = simulate(config), simulate(config)
    ok = a == b and ra == rb
    return ok, "bit-identical replay and simulation reports"


_CHECKS: list[tuple[str, Callable[[int], tuple[bool, str]]]] = [
    ("boundary-conditions", _check_boundary_conditions),
    ("indifference-certificate", _check_indifference),
    ("monte-carlo-agreement", _check_monte_carlo),
    ("revenue-decomposition", _check_decomposition),
    ("limit-agreement", _check_limits),
    ("comparative-statics", _check_comparative_statics),
    ("r2-invariance", _check_r2_invariance),
    ("hillman-samet", _check_hillman_samet),
    ("scheme-comparison", _check_schemes),
    ("pure-strategy-deviations", _check_pure_deviations),
    ("market-sim-accounting", _check_market_accounting),
    ("determinism", _check_determinism),
]

BATTERIES = {"default": _CHECKS}


def run_battery(seed: int = 42) -> list[CheckResult]:
    if seed < 0:
        raise ArgumentOutOfRange(f"seed must be non-negative, got {seed}")
    checks = BATTERIES["default"]

    def run_one(item: tuple[str, Callable[[int], tuple[bool, str]]]) -> CheckResult:
        check_name, fn = item
        start = time.perf_counter()
        try:
            passed, detail = fn(seed)
        except Exception as exc:  # a crash is a failure, not an abort
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        return CheckResult(check_name, passed, detail, time.perf_counter() - start)

    # the replay and simulation checks spend most of their time in numpy,
    # which releases the GIL, so the checks overlap on a thread pool
    with ThreadPoolExecutor(max_workers=max(1, min(os.cpu_count() or 1, len(checks)))) as pool:
        return list(pool.map(run_one, checks))
