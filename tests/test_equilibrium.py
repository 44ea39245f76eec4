
import math

import numpy as np
import pytest

from pga_lab import (
    AuctionParams,
    CostTooLarge,
    DegenerateNoRevertCost,
    NotApplicable,
    NumericsError,
    OutOfSupport,
    expected_payoff_vs_symmetric,
    pure_equilibrium,
    solve_equilibrium,
)
from pga_lab.equilibrium import _LEGENDRE_NODES, _LEGENDRE_WEIGHTS
from pga_lab.numerics import bisection_inverse
from pga_lab.oracle import bisection_quantile, certify_equilibrium

from _util import philox, random_params


class TestAbstainProbability:
    def test_reference_point(self):
        eq = solve_equilibrium(AuctionParams(10, 1, 0.1, 0.1, 20))
        assert eq.abstain_prob == pytest.approx((0.1 / 9.1) ** (1 / 19), rel=1e-15)
        # cross-checked by the indifference certificate in test_oracle

    def test_zero_base_penalty_means_full_participation(self):
        eq = solve_equilibrium(AuctionParams(10, 1, 0.0, 0.5, 7))
        assert eq.abstain_prob == 0.0

    def test_entry_cost_equilibrium(self):
        eq = solve_equilibrium(AuctionParams(10, 1, 0.0, 0.0, 2), entry_cost=0.5)
        assert eq.abstain_prob == pytest.approx(0.5 / 9.0, rel=1e-15)

    def test_degenerate_regime_refused(self):
        with pytest.raises(DegenerateNoRevertCost):
            solve_equilibrium(AuctionParams(10, 1, 0.0, 0.0, 5))

    def test_cost_at_breakeven_refused(self):
        with pytest.raises(CostTooLarge):
            solve_equilibrium(AuctionParams(10, 1, 0.1, 0.1, 5), entry_cost=9.0)

    def test_abstention_interior_iff_positive_entry_barrier(self):
        rng = philox(101)
        for _ in range(50):
            params = random_params(rng)
            entry_cost = float(rng.uniform(0.0, 0.5)) * params.breakeven_bid
            eq = solve_equilibrium(params, entry_cost)
            barrier = params.revert_rate_base * params.base_fee + entry_cost
            if barrier > 0:
                assert 0.0 < eq.abstain_prob < 1.0
            else:
                assert eq.abstain_prob == 0.0


class TestCdf:
    def test_boundaries_exact(self):
        rng = philox(7)
        for _ in range(50):
            eq = solve_equilibrium(random_params(rng))
            assert eq.cdf(0.0) == 0.0
            assert eq.cdf(eq.support_max) == 1.0

    def test_reference_value_against_indifference_oracle(self):
        # independent route: solve z (V-g-b) = (1-z)(r1 g + r2 b) for z,
        # then F = (z^(1/(N-1)) - p) / (1 - p)
        params = AuctionParams(10, 1, 0.1, 0.1, 2)
        eq = solve_equilibrium(params)
        b = 4.5
        z = bisection_inverse(
            lambda zz: zz * (9.0 - b) - (1 - zz) * (0.1 * 1 + 0.1 * b),
            0.0,
            0.0,
            1.0,
            tol=1e-15,
        )
        oracle_f = (z ** (1 / (params.num_agents - 1)) - eq.abstain_prob) / (
            1 - eq.abstain_prob
        )
        assert oracle_f == pytest.approx(0.09900990099009901, abs=1e-9)
        assert eq.cdf(b) == pytest.approx(oracle_f, abs=1e-9)

    def test_monotone_nondecreasing(self):
        rng = philox(8)
        for _ in range(20):
            eq = solve_equilibrium(random_params(rng))
            values = eq._cdf_arr(np.linspace(0.0, eq.support_max, 300))
            assert np.all(np.diff(values) >= -1e-15)

    def test_clamp_window_is_checked_beside_nan(self, monkeypatch):
        eq = solve_equilibrium(AuctionParams(10, 1, 0.1, 0.1, 5))
        bids = np.array([0.0, 1.0, 2.0, 3.0, 9.0])
        raw = np.array([0.5, np.nan, -1e-9, 1.5, 0.5])
        monkeypatch.setattr(type(eq), "_f_star", lambda self, b, xp: raw.copy())
        with pytest.raises(NumericsError, match="min raw value -1.000e-09"):
            eq._cdf_arr(bids)
        raw[2] = -1e-13  # inside the window: clipped to 0, NaN kept, the ends pinned
        assert eq._cdf_arr(bids).tolist()[1:4] == pytest.approx([np.nan, 0.0, 1.0], nan_ok=True)
        assert eq._cdf_arr(bids)[[0, 4]].tolist() == [0.0, 1.0]

    def test_out_of_support_raises(self):
        eq = solve_equilibrium(AuctionParams(10, 1, 0.1, 0.1, 5))
        with pytest.raises(OutOfSupport):
            eq.cdf(-0.5)
        with pytest.raises(OutOfSupport):
            eq.cdf(9.5)

    def test_converges_to_breakeven_indicator_as_penalties_vanish(self):
        # convergence rate near the top of the support is the (N-1)th root of
        # the penalty scale, so the envelope shrinks slowly there
        bids = np.array([0.0, 2.0, 5.0, 8.0, 8.9])
        previous = None
        for eps in (1e-1, 1e-3, 1e-5, 1e-7):
            eq = solve_equilibrium(AuctionParams(10, 1, eps, eps, 5))
            values = eq._cdf_arr(bids)
            if previous is not None:
                assert np.all(values <= previous + 1e-12)
            previous = values
        n_root = 1.0 / (5 - 1)
        envelope = ((1e-7 * (1 + bids)) / (9.0 - bids)) ** n_root
        assert np.all(previous <= envelope + 1e-12)
        assert np.all(previous[:-1] < 1e-1) and previous[0] == 0.0
        assert eq.cdf(9.0) == 1.0


class TestQuantile:
    def test_endpoints(self):
        eq = solve_equilibrium(AuctionParams(10, 1, 0.1, 0.1, 20))
        assert eq.quantile(0.0) == 0.0
        assert eq.quantile(1.0) == pytest.approx(9.0, abs=1e-12)

    def test_round_trip_against_bisection(self):
        rng = philox(12)
        for _ in range(10):
            eq = solve_equilibrium(random_params(rng, max_agents=32))
            for u in np.linspace(0.1, 0.9, 9):
                b = eq.quantile(float(u))
                assert eq.cdf(b) == pytest.approx(float(u), abs=1e-10)
                assert b == pytest.approx(bisection_quantile(eq, float(u)), abs=1e-7)

    def test_domain_checked(self):
        eq = solve_equilibrium(AuctionParams(10, 1, 0.1, 0.1, 5))
        with pytest.raises(OutOfSupport):
            eq.quantile(1.5)

    def test_undefined_where_one_minus_p_rounds_to_zero(self):
        # c one ulp below V - g: rho rounds to 1, so 1 - p* = 0 and the bid law,
        # like F*, is undefined
        eq = solve_equilibrium(AuctionParams(5, 1, 1, 0, 2), 3.9999999999999996)
        assert eq.state.one_minus_p == 0.0
        for undefined in (lambda: eq.cdf(1.0), lambda: eq.quantile(0.5),
                          lambda: eq.sample_bids(philox(0), 3)):
            with pytest.raises(NumericsError, match="1 - p\\* = 0"):
                undefined()


class TestSampling:
    def test_always_abstains_at_p_one(self):
        # at N = 1e12 and rho = 1 - 1e-5, p* = rho^(1/(N-1)) rounds to exactly 1
        eq = solve_equilibrium(AuctionParams(10, 1, 1.0, 1.0, 10**12), 8.9999)
        assert eq.abstain_prob == 1.0

    def test_empirical_cdf_matches(self):
        # Kolmogorov-Smirnov-style bound at 1e6 samples
        eq = solve_equilibrium(AuctionParams(10, 1, 0.1, 0.1, 20))
        bids = np.sort(eq.sample_bids(philox(99), 1_000_000))
        empirical = np.arange(1, bids.size + 1) / bids.size
        sup_dist = np.abs(empirical - eq._cdf_arr(bids)).max()
        assert sup_dist < 0.002


class TestExpectedBid:
    def test_uniform_special_case(self):
        # r1 = r2 = 1, N = 2 at V = 1, g = 0.1 makes the bid uniform on [0, 0.9]
        eq = solve_equilibrium(AuctionParams(1.0, 0.1, 1.0, 1.0, 2))
        grid = np.linspace(0.0, 0.9, 10)
        assert np.allclose(eq._cdf_arr(grid), grid / 0.9, atol=1e-12)
        assert eq.expected_bid() == pytest.approx(0.45, abs=1e-8)

    def test_increases_in_value(self):
        lo = solve_equilibrium(AuctionParams(5, 1, 0.1, 0.1, 5)).expected_bid()
        hi = solve_equilibrium(AuctionParams(10, 1, 0.1, 0.1, 5)).expected_bid()
        assert hi > lo

    def test_decreases_in_priority_penalty(self):
        lo = solve_equilibrium(AuctionParams(10, 1, 0.1, 0.5, 5)).expected_bid()
        hi = solve_equilibrium(AuctionParams(10, 1, 0.1, 0.1, 5)).expected_bid()
        assert lo < hi

    def test_legendre_table_is_leggauss_bit_for_bit(self):
        from numpy.polynomial.legendre import leggauss

        nodes, weights = leggauss(48)
        assert nodes.tolist() == list(_LEGENDRE_NODES)
        assert weights.tolist() == list(_LEGENDRE_WEIGHTS)


class TestEntryCostSupport:
    def test_support_shrinks_by_entry_cost(self):
        eq = solve_equilibrium(AuctionParams(10, 1, 0.2, 0.3, 6), entry_cost=0.5)
        assert eq.support_max == pytest.approx(8.5, abs=1e-12)
        assert eq.cdf(eq.support_max) == pytest.approx(1.0, abs=1e-12)
        assert eq.quantile(1.0) == pytest.approx(8.5, abs=1e-12)
        assert eq.cdf(9.0) == 1.0  # clamped above the true support end

    def test_boundary_gap_reported_not_renormalized(self):
        params = AuctionParams(10, 1, 0.2, 0.3, 6)
        assert solve_equilibrium(params).boundary_gap == pytest.approx(0.0, abs=1e-15)
        eq = solve_equilibrium(params, entry_cost=0.5)
        assert eq.boundary_gap > 1e-3

    def test_boundary_gap_unbounded_without_penalty_at_breakeven(self):
        # r1 g + r2 (V - g) vanishes or nearly so: z(V - g) is infinite or beyond float range
        for r1 in (0.0, 1e-310):
            eq = solve_equilibrium(AuctionParams(10, 1, r1, 0.0, 2), entry_cost=1.0)
            assert eq.boundary_gap == math.inf

    def test_indifference_holds_on_truncated_support(self):
        params = AuctionParams(10, 1, 0.2, 0.3, 6)
        eq = solve_equilibrium(params, entry_cost=0.5)
        for b in np.linspace(0.0, eq.support_max, 200):
            payoff = expected_payoff_vs_symmetric(params, eq.strategy, float(b), eq.entry_cost)
            assert abs(payoff) <= 1e-9
        # beyond the support bidding is strictly unprofitable
        for b in (8.6, 8.9, 9.0):
            assert expected_payoff_vs_symmetric(params, eq.strategy, b, eq.entry_cost) < 0


class TestPureEquilibrium:
    def test_top_two_bid_breakeven(self):
        assert pure_equilibrium(AuctionParams(10, 1, 0.0, 0.0, 5)) == 9.0

    def test_entry_cost_leaves_only_the_mixed_equilibrium(self):
        # with c = 0.5 a top-two tie at V - g - c = 8.5 would earn
        # (9 - 8.5 - 0.5)/2 - 0.5/2 = -0.25, less than abstaining
        params = AuctionParams(10, 1, 0.0, 0.0, 5)
        eq = solve_equilibrium(params, entry_cost=0.5)
        assert eq.abstain_prob == pytest.approx((0.5 / 9.0) ** 0.25, rel=1e-15)
        assert certify_equilibrium(params, eq).passed

    def test_r1_g_underflow_is_free_losing(self):
        # r1 passes the validators but r1 g rounds to 0: losing is free, as with r1 = 0
        assert pure_equilibrium(AuctionParams(1.5, 0.5, 5e-324, 0.0, 2)) == 1.0

    def test_not_applicable_with_penalties(self):
        with pytest.raises(NotApplicable):
            pure_equilibrium(AuctionParams(10, 1, 0.1, 0.0, 5))


def test_indifference_certificate_battery():
    rng = philox(40)
    for _ in range(25):
        params = random_params(rng)
        eq = solve_equilibrium(params)
        grid = np.linspace(0.0, eq.support_max, 1000)
        payoffs = [
            expected_payoff_vs_symmetric(params, eq.strategy, float(b)) for b in grid
        ]
        assert max(abs(p) for p in payoffs) <= 1e-9
