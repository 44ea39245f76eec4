import math
from dataclasses import replace

import mpmath
import numpy as np
import pytest

from pga_lab import (
    AuctionParams,
    CostTooLarge,
    RateOutOfRange,
    Winner,
    compare_schemes,
    expected_mev_tax,
    expected_winning_bid,
    monte_carlo_replay,
    revenue_report,
    scheme1_optimal_r1,
    scheme1_optimal_r1_scan,
    scheme1_profit,
    scheme2_revenue,
    solve_equilibrium,
)

from pga_lab import analytics

from _util import philox, random_params

REF = AuctionParams(10, 1, 0.1, 0.1, 20)


class TestRevenueReport:
    def test_reference_point(self):
        rep = revenue_report(REF)
        p_star = (0.1 / 9.1) ** (1 / 19)
        assert rep.abstain_prob == pytest.approx(p_star, rel=1e-12)
        assert rep.participation_prob == pytest.approx(1 - p_star**20, rel=1e-12)
        assert rep.expected_revenue == pytest.approx(9.913333518377373, rel=1e-12)
        assert rep.expected_submitted_txs == pytest.approx(4.226700344681891, rel=1e-12)

    def test_full_participation_when_base_penalty_zero(self):
        for n in (2, 7, 500):
            for r2 in (0.0, 0.4, 1.0):
                rep = revenue_report(AuctionParams(10, 1, 0.0, r2, n))
                assert rep.expected_revenue == 10.0
                assert rep.participation_prob == 1.0
                assert rep.base_revenue == 1.0
                assert rep.priority_revenue == 9.0
                assert rep.expected_submitted_txs == float(n)
                assert rep.limits.submitted_unbounded
                assert math.isinf(rep.limits.submitted_txs)

    def test_decomposition_identity(self):
        rng = philox(3)
        for _ in range(50):
            rep = revenue_report(random_params(rng))
            assert rep.base_revenue + rep.priority_revenue == pytest.approx(
                rep.expected_revenue, abs=1e-9
            )

    def test_revenue_is_participation_times_value(self):
        rng = philox(4)
        for _ in range(20):
            params = random_params(rng)
            rep = revenue_report(params)
            assert rep.expected_revenue == rep.participation_prob * params.value

    def test_monotone_decreasing_in_r1(self):
        values = [
            revenue_report(replace(REF, revert_rate_base=r1)).expected_revenue
            for r1 in np.linspace(0.01, 1.0, 25)
        ]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_monotone_decreasing_in_n_when_r1_positive(self):
        values = [
            revenue_report(replace(REF, num_agents=n)).expected_revenue
            for n in (2, 3, 5, 10, 50, 1000)
        ]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_submitted_decreasing_in_r1(self):
        values = [
            revenue_report(replace(REF, revert_rate_base=r1)).expected_submitted_txs
            for r1 in np.linspace(0.01, 1.0, 25)
        ]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_exact_r2_invariance(self):
        base = replace(REF, revert_rate_priority=0.0)
        reports = [
            revenue_report(replace(base, revert_rate_priority=r2)) for r2 in (0.0, 0.3, 1.0)
        ]
        for rep in reports[1:]:
            assert rep.expected_revenue == reports[0].expected_revenue
            assert rep.base_revenue == reports[0].base_revenue
            assert rep.priority_revenue == reports[0].priority_revenue
            assert rep.participation_prob == reports[0].participation_prob
            assert rep.expected_submitted_txs == reports[0].expected_submitted_txs

    def test_limit_values_reference(self):
        rep = revenue_report(REF)
        assert rep.limits.revenue == pytest.approx(90 / 9.1, rel=1e-12)
        assert rep.limits.submitted_txs == pytest.approx(math.log(91), rel=1e-12)

    def test_finite_n_approaches_limits(self):
        big = revenue_report(replace(REF, num_agents=10**6))
        lim = big.limits
        assert big.expected_revenue == pytest.approx(lim.revenue, rel=1e-3)
        assert big.base_revenue == pytest.approx(lim.base_revenue, rel=1e-3)
        assert big.priority_revenue == pytest.approx(lim.priority_revenue, rel=1e-3)
        assert big.expected_submitted_txs == pytest.approx(lim.submitted_txs, rel=1e-3)

    @pytest.mark.parametrize("y", [1e-100, 1e-12, 1e-5, 0.01, 0.2499, 0.25, 0.5, 3.0, 700.0])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_phi_against_mpmath(self, y, sign):
        # expm1(y) - y keeps its digits on both sides of the series switch at
        # |y| = 1/4; 250 digits hold y^2/2 beside y at y = 1e-100
        y *= sign
        with mpmath.workdps(250):
            exact = mpmath.expm1(y) - y
        assert float(abs(analytics._phi(y) / exact - 1)) <= 4e-15

    def test_welfare_loss_identity(self):
        rng = philox(5)
        for _ in range(20):
            params = random_params(rng)
            r1, g, v, n = (
                params.revert_rate_base,
                params.base_fee,
                params.value,
                params.num_agents,
            )
            closed = v * ((r1 * g) / (v - g + r1 * g)) ** (n / (n - 1))
            # V - revenue is the value left unextracted, V p*^N
            unextracted = v - revenue_report(params).expected_revenue
            assert unextracted == pytest.approx(closed, abs=1e-9)


class TestScheme1:
    def test_profit_approaches_revenue_as_cost_vanishes(self):
        rep = revenue_report(REF)
        assert scheme1_profit(REF, 1e-12) == pytest.approx(rep.expected_revenue, abs=1e-9)

    def test_cost_bounds(self):
        with pytest.raises(CostTooLarge):
            scheme1_profit(REF, 9.0)
        with pytest.raises(ValueError):
            scheme1_profit(REF, -0.1)

    def test_optimal_r1_reference(self):
        params = AuctionParams(10, 1, 0.1, 0.1, 2)
        assert scheme1_optimal_r1(params, 0.5) == pytest.approx(0.5 * 9 / 9.5, rel=1e-12)

    def test_first_order_condition_at_optimum(self):
        # at the optimal r1 the abstention probability equals (c/V)^(1/(N-1))
        params = AuctionParams(10, 1, 0.1, 0.1, 2)
        c = 0.5
        r1_opt = scheme1_optimal_r1(params, c)
        eq = solve_equilibrium(replace(params, revert_rate_base=r1_opt))
        assert eq.abstain_prob == pytest.approx((c / 10) ** (1 / 1), rel=1e-12)
        assert eq.abstain_prob == pytest.approx(0.05, rel=1e-12)

    def test_cap_binds_when_cost_exceeds_base_fee(self):
        assert scheme1_optimal_r1(AuctionParams(10, 1, 0.1, 0.1, 5), 2.0) == 1.0

    def test_profit_decreasing_in_cost(self):
        costs = np.linspace(0.1, 5.0, 20)
        profits = [scheme1_profit(REF, float(c)) for c in costs]
        assert all(a > b for a, b in zip(profits, profits[1:]))

    def test_grid_scan_matches_closed_form(self):
        rng = philox(17)
        for _ in range(20):
            params = random_params(rng, max_agents=16)
            c = float(rng.uniform(0.05, 0.95)) * params.breakeven_bid
            assert abs(scheme1_optimal_r1(params, c) - scheme1_optimal_r1_scan(params, c)) <= 1e-3


class TestScheme2:
    def test_zero_cost_full_rp_extracts_everything(self):
        params = AuctionParams(10, 1, 0.0, 0.0, 4)
        assert scheme2_revenue(params, 1e-12) == pytest.approx(10.0, abs=1e-9)

    def test_reference_value_general_form(self):
        # (1 - p*^N) V with p* = (c/(V-g))^(1/(N-1)) at r1 = 0
        params = AuctionParams(10, 1, 0.0, 0.0, 2)
        expected = (1 - (0.5 / 9.0) ** 2) * 10.0
        assert scheme2_revenue(params, 0.5) == pytest.approx(expected, rel=1e-12)

    def test_monte_carlo_confirms_gross_inflow(self):
        # auction payments plus collected entry charges equal (1 - p*^N) V
        params = AuctionParams(10, 1, 0.0, 0.0, 2)
        rep = monte_carlo_replay(params, trials=400_000, seed=21, entry_cost=0.5)
        assert rep.revenue.within(scheme2_revenue(params, 0.5))
        assert rep.per_agent_payoff.within(0.0)

    def test_decreasing_in_r1(self):
        values = [
            scheme2_revenue(AuctionParams(10, 1, r1, 0.1, 6), 0.5)
            for r1 in np.linspace(0.0, 1.0, 21)
        ]
        assert all(a > b for a, b in zip(values, values[1:]))


class TestCompareSchemes:
    def test_tie_at_zero_cost(self):
        result = compare_schemes(REF, 0.0)
        assert result.winner is Winner.TIE
        assert result.scheme1_profit_at_optimum == pytest.approx(10.0, abs=1e-9)
        assert result.scheme2_revenue_at_r1_zero == pytest.approx(10.0, abs=1e-9)

    def test_scheme2_wins_at_negligible_cost(self):
        result = compare_schemes(REF, 1e-6)
        assert result.winner in (Winner.SCHEME2, Winner.TIE)

    def test_at_most_one_sign_change_over_cost_sweep(self):
        for params in (REF, AuctionParams(3, 1, 0.4, 0.2, 4), AuctionParams(50, 2, 0.8, 0.5, 8)):
            cs = np.linspace(1e-5, params.breakeven_bid * 0.999, 400)
            gaps = [
                compare_schemes(params, float(c)).scheme2_revenue_at_r1_zero
                - compare_schemes(params, float(c)).scheme1_profit_at_optimum
                for c in cs
            ]
            signs = [g > 0 for g in gaps if abs(g) > 1e-12]
            flips = sum(1 for a, b in zip(signs, signs[1:]) if a != b)
            assert flips <= 1

    def test_optimal_r1_in_unit_interval(self):
        rng = philox(23)
        for _ in range(20):
            params = random_params(rng, max_agents=16)
            c = float(rng.uniform(0.01, 0.99)) * params.breakeven_bid
            assert 0.0 <= compare_schemes(params, c).optimal_r1 <= 1.0


class TestMevTax:
    def test_reparameterization(self):
        assert expected_mev_tax(REF, 9.0).r2 == pytest.approx(0.01, rel=1e-15)

    def test_zero_tax_reduces_to_plain_priority_fees(self):
        assert expected_mev_tax(replace(REF, revert_rate_base=0.3), 0.0).r2 == 0.3

    def test_revenue_invariant_under_tax_rate(self):
        base = AuctionParams(10, 1, 0.1, 0.1, 20)
        rep0 = revenue_report(base)
        for tau in (0.5, 2.0, 50.0):
            r2 = expected_mev_tax(base, tau).r2
            rep = revenue_report(replace(base, revert_rate_priority=r2))
            assert rep.expected_revenue == rep0.expected_revenue
            assert rep.base_revenue == rep0.base_revenue
            assert rep.priority_revenue == rep0.priority_revenue

    def test_zero_rate_gives_zero_tax(self):
        r2, tax, bound = expected_mev_tax(REF, 0.0)
        assert (r2, tax) == (REF.revert_rate_base, 0.0)
        assert math.isnan(bound)  # tau = 0 computes no winning bid

    @pytest.mark.parametrize("tau", [-1.0, -5e-324, math.nan, math.inf])
    def test_rejects_negative_or_non_finite_rate(self, tau):
        with pytest.raises(RateOutOfRange):
            expected_mev_tax(REF, tau)

    def test_monotone_nondecreasing_in_tau(self):
        taus = [0.0, 0.5, 1.0, 2.0, 5.0, 10.0, 100.0]
        values = [expected_mev_tax(REF, tau).tax for tau in taus]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))
        assert values[-1] > 0.0

    def test_bounded_by_expected_winning_bid(self):
        for tau in (0.5, 2.0, 10.0):
            r2, tax, bound = expected_mev_tax(REF, tau)
            assert r2 == REF.revert_rate_base / (1.0 + tau)
            assert bound == expected_winning_bid(replace(REF, revert_rate_priority=r2))
            assert tax == pytest.approx(tau / (1.0 + tau) * bound, rel=1e-15)
            assert tax <= bound + 1e-12

    def test_converges_to_asymptote(self):
        # tau -> inf drives r2 = r1/(1 + tau) to 0 and the tax share to 1
        target = expected_winning_bid(replace(REF, revert_rate_priority=0.0))
        tax = expected_mev_tax(REF, 1e6).tax
        assert tax == pytest.approx(target, rel=1e-4)
        assert tax <= target + 1e-12

    def test_winning_bid_expectation_against_monte_carlo(self):
        params = AuctionParams(10, 1, 0.2, 0.05, 6)
        closed = expected_winning_bid(params)
        eq = solve_equilibrium(params)
        rng = philox(31)
        trials = 200_000
        part = rng.random((trials, 6)) >= eq.abstain_prob
        bids = eq._quantile_arr(rng.random((trials, 6)))
        winning = np.where(part, bids, 0.0).max(axis=1)
        se = winning.std(ddof=1) / math.sqrt(trials)
        assert abs(winning.mean() - closed) <= 3 * se
