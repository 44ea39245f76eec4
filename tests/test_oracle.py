import tracemalloc
import warnings
from dataclasses import replace
from itertools import product

import numpy as np
import pytest

from pga_lab import (
    AuctionParams,
    Equilibrium,
    MixedStrategy,
    PureProfile,
    certify_equilibrium,
    comparative_statics_check,
    expected_payoff_vs_symmetric,
    find_pure_deviation,
    hillman_samet_check,
    monte_carlo_replay,
    pure_payoff,
    revenue_report,
    solve_equilibrium,
)

from pga_lab import oracle
from pga_lab.errors import (
    ArgumentOutOfRange,
    DegenerateNoRevertCost,
    NonPositiveFee,
    ValueNotAboveBaseFee,
)
from pga_lab.oracle import _chunk_rows

from _util import philox, random_params

REF = AuctionParams(10, 1, 0.1, 0.1, 20)


def _replay_peak(params, trials):
    """Peak traced bytes of one replay, after a warm-up replay has made the
    one-time imports of numpy's SeedSequence."""
    monte_carlo_replay(params, 1, seed=0)
    tracemalloc.start()
    try:
        monte_carlo_replay(params, trials, seed=1)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMonteCarloReplay:
    def test_zero_standard_error_allows_rounding(self):
        # verify --seed 7 draws this point: with r1 = 0 every trial's base
        # revenue is exactly g, and the mean of 50,000 copies of g is one ulp
        # above g, which an exact match would call a failure
        params = AuctionParams(30.316751640427526, 0.6752489720550474, 0.0, 0.7721985313419948, 17)
        mc = monte_carlo_replay(params, trials=50_000, seed=9)
        closed = revenue_report(params)
        assert mc.base_revenue.std_error == 0.0
        assert mc.base_revenue.mean != closed.base_revenue
        assert mc.base_revenue.within(closed.base_revenue)
        assert mc.priority_revenue.within(closed.priority_revenue)
        assert not mc.base_revenue.within(closed.base_revenue * (1 + 1e-14))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_payoff_rounding_at_a_huge_value_is_allowed(self, seed):
        # each payoff V - g - b is rounded at the ulp of V (1.5e284), and the
        # mean of 20,000 of them sits 5-6 standard errors off 0
        params = AuctionParams(1e300, 1, 1e-100, 0, 2)
        payoff = monte_carlo_replay(params, 20_000, seed).per_agent_payoff
        assert abs(payoff.mean) > 4 * payoff.std_error
        assert payoff.within(0.0)
        assert not payoff.within(1e290)
        assert payoff.max_abs == params.breakeven_bid

    def test_bit_identical_given_seed(self):
        a = monte_carlo_replay(REF, trials=50_000, seed=9)
        b = monte_carlo_replay(REF, trials=50_000, seed=9)
        assert a == b
        c = monte_carlo_replay(REF, trials=50_000, seed=10)
        assert c.revenue.mean != a.revenue.mean

    def test_agreement_with_closed_forms(self):
        rng = philox(77)
        for i in range(5):
            params = random_params(rng, max_agents=24)
            rep = monte_carlo_replay(params, trials=40_000, seed=100 + i)
            closed = revenue_report(params)
            assert rep.revenue.within(closed.expected_revenue)
            assert rep.submitted_txs.within(closed.expected_submitted_txs)
            assert rep.base_revenue.within(closed.base_revenue)
            assert rep.priority_revenue.within(closed.priority_revenue)
            assert rep.per_agent_payoff.within(0.0)

    def test_near_total_abstention_yields_near_zero_revenue(self):
        # value barely above the fee with a full base penalty
        params = AuctionParams(1.0 + 1e-6, 1.0, 1.0, 1.0, 10)
        eq = solve_equilibrium(params)
        assert eq.abstain_prob > 0.999
        rep = monte_carlo_replay(params, trials=20_000, seed=4)
        assert rep.revenue.mean == pytest.approx(0.0, abs=1e-2)

    def test_standard_error_scales(self):
        small = monte_carlo_replay(REF, trials=10_000, seed=5)
        large = monte_carlo_replay(REF, trials=160_000, seed=5)
        assert large.revenue.std_error < small.revenue.std_error / 3

    def test_chunks_hold_at_most_2_22_draws(self):
        assert _chunk_rows(2) == _chunk_rows(64) == 1 << 16
        assert _chunk_rows(65) == (1 << 22) // 65
        assert _chunk_rows(1 << 22) == 1
        assert all(_chunk_rows(n) * n <= 1 << 22 for n in (65, 1000, 12_345, 1 << 21))

    @pytest.mark.parametrize("n", [32, 1000])
    def test_replay_memory_is_bounded_by_its_blocks(self, n):
        # a chunk keeps a 1-byte participation mask of at most 2^22 draws
        # (4 MiB) and six per-row columns of at most 2^16 rows (3 MiB), and
        # its float64 draws live one block of 2^17 at a time (1 MiB an
        # array); float64 arrays over the whole chunk would peak near 29 MiB
        # at N = 32 and 105 MiB at N = 1000
        params = replace(REF, num_agents=n)
        assert _replay_peak(params, 50_000) < 8 * 2**20

    def test_many_chunks_peak_as_one_chunk_does(self):
        # chunk i's columns and sums are freed before chunk i + 1 draws, so a
        # second chunk adds nothing; keeping even one float64 column of
        # chunk i (2^16 rows at N = 20) would add 512 KiB
        rows = _chunk_rows(REF.num_agents)
        one, two = _replay_peak(REF, rows), _replay_peak(REF, 2 * rows)
        assert two < one + 2**19

    @pytest.mark.parametrize("n", [2, 20, 300])
    @pytest.mark.parametrize("cost", [0.0, 0.2])
    def test_reports_do_not_depend_on_the_block_size(self, n, cost, monkeypatch):
        # blocks continue the chunk's one stream and the sums run once per
        # chunk, so 1-, 7- and 1024-draw blocks give the reports of the
        # default 2^17 bit for bit
        params = replace(REF, num_agents=n)
        default = monte_carlo_replay(params, 3_001, seed=n, entry_cost=cost)
        for block in (1, 7, 1 << 10):
            monkeypatch.setattr(oracle, "_BLOCK", block)
            assert monte_carlo_replay(params, 3_001, seed=n, entry_cost=cost) == default

    def test_large_field_replays_in_bounded_chunks(self, monkeypatch):
        spawned = []
        original = oracle._chunk_rngs
        monkeypatch.setattr(oracle, "_chunk_rngs", lambda seed, n: spawned.append(n) or
                            original(seed, n))
        params = replace(REF, num_agents=1000)
        rep = monte_carlo_replay(params, trials=5000, seed=3)
        assert spawned == [2]  # 4194 rows per chunk
        assert rep.revenue.within(revenue_report(params).expected_revenue)

    @pytest.mark.parametrize("seed", [0, 9, 2**40])
    def test_chunk_streams_are_the_spawned_children(self, seed):
        made = list(oracle._chunk_rngs(seed, 1000))
        children = np.random.SeedSequence(seed).spawn(1000)
        for i in (0, 1, 2, 3, 999):
            spawned = np.random.Generator(np.random.Philox(children[i]))
            assert made[i].random(8).tobytes() == spawned.random(8).tobytes()

    def test_chunk_streams_are_made_as_their_chunks_start(self, monkeypatch):
        # 20,000 one-row chunks: a list of every chunk's generator, built
        # before the first draw, would take about 19 MB
        def first_quantile(self, u):
            raise RuntimeError("first quantile")

        monkeypatch.setattr(oracle, "_chunk_rows", lambda n: 1)
        monkeypatch.setattr(Equilibrium, "_quantile_arr", first_quantile)
        tracemalloc.start()
        try:
            with pytest.raises(RuntimeError, match="first quantile"):
                monte_carlo_replay(REF, trials=20_000, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * 2**20

    @pytest.mark.parametrize("params", [AuctionParams(1e300, 1, 1e-100, 0.0, 2),
                                        AuctionParams(3e-300, 1e-300, 0.5, 0.5, 3)])
    def test_standard_errors_are_finite_at_the_ends_of_the_value_scale(self, params):
        # x^2 overflows near V = 1e300 and underflows near V = 3e-300 unless
        # the sums run in units of V
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = monte_carlo_replay(params, trials=20_000, seed=0)
        estimates = (rep.revenue, rep.base_revenue, rep.priority_revenue, rep.submitted_txs,
                     rep.per_agent_payoff)
        assert all(np.isfinite(e.std_error) for e in estimates)
        assert rep.per_agent_payoff.std_error > 0.0

    def test_agreement_with_closed_forms_at_a_tiny_value(self):
        params = AuctionParams(3e-300, 1e-300, 0.5, 0.5, 3)
        rep = monte_carlo_replay(params, trials=20_000, seed=0)
        closed = revenue_report(params)
        assert rep.revenue.std_error > 0.0
        assert rep.revenue.within(closed.expected_revenue)
        assert rep.submitted_txs.within(closed.expected_submitted_txs)
        assert rep.base_revenue.within(closed.base_revenue)
        assert rep.priority_revenue.within(closed.priority_revenue)
        assert rep.per_agent_payoff.within(0.0)

    @pytest.mark.parametrize("trials", [2.5, 1e3, True, 0])
    def test_trials_must_be_an_int_of_at_least_one(self, trials):
        # a float, even a whole one, and a bool are not trial counts
        with pytest.raises(ArgumentOutOfRange, match="trials must be an int >= 1"):
            monte_carlo_replay(REF, trials, seed=0)

    def test_too_many_agents_raise_before_any_draw(self, monkeypatch):
        monkeypatch.setattr(oracle, "_chunk_rngs", None)
        params = replace(REF, num_agents=(1 << 22) + 1)
        with pytest.raises(ArgumentOutOfRange):
            monte_carlo_replay(params, trials=1, seed=0)


def _shifted(delta):
    """REF's equilibrium strategy with its abstention probability moved by delta."""
    eq = solve_equilibrium(REF)
    return MixedStrategy(abstain_prob=eq.abstain_prob + delta, cdf=eq.cdf,
                         support=(0.0, eq.support_max))


class TestBestResponseScan:
    def test_equilibrium_certificate(self):
        rng = philox(55)
        for _ in range(10):
            params = random_params(rng)
            cert = certify_equilibrium(params, solve_equilibrium(params).strategy)
            assert cert.passed
            assert cert.max_payoff <= 1e-9
            assert cert.max_overbid_payoff < 0.0

    @pytest.mark.parametrize("n", [10**9, 10**12])
    def test_certificate_holds_at_large_n(self, n):
        # w = (p* + (1-p*)F)^(N-1) and 1 - w must not cancel as p* -> 1
        params = AuctionParams(10, 1, 0.1, 0.1, n)
        cert = certify_equilibrium(params, solve_equilibrium(params).strategy)
        assert cert.passed
        assert cert.max_payoff <= 1e-14 and cert.min_support_payoff >= -1e-14

    def test_flags_overabstention(self):
        cert = certify_equilibrium(REF, _shifted(+0.05))
        assert cert.max_payoff > 1e-4
        assert not cert.passed

    def test_flags_underabstention_via_support_payoffs(self):
        shifted = _shifted(-1e-3)
        # opponents participate too often: every bid is now strictly losing
        cert = certify_equilibrium(REF, shifted)
        assert cert.max_payoff == 0.0
        assert expected_payoff_vs_symmetric(REF, shifted, 0.0) < -1e-9
        assert cert.min_support_payoff < -1e-9
        assert not cert.passed

    def test_flags_one_mil_shift_either_way(self):
        for delta in (+1e-3, -1e-3):
            shifted = _shifted(delta)
            cert = certify_equilibrium(REF, shifted)
            min_at_zero = expected_payoff_vs_symmetric(REF, shifted, 0.0)
            assert cert.max_payoff > 1e-9 or min_at_zero < -1e-9
            assert not cert.passed
            if delta < 0.0:
                assert cert.min_support_payoff < -1e-9

    def test_flags_micro_underabstention(self):
        # a shift of -1e-6 leaves every deviation unprofitable: only the
        # support side of the certificate sees it
        cert = certify_equilibrium(REF, _shifted(-1e-6))
        assert cert.max_payoff == 0.0
        assert cert.min_support_payoff < -1e-9
        assert not cert.passed

    def test_exact_strategy_passes(self):
        assert certify_equilibrium(REF, _shifted(0.0)).passed

    def test_overbid_probes_strictly_negative(self):
        eq = solve_equilibrium(REF)
        for eps in (1e-9, 1e-3, 0.5):
            payoff = expected_payoff_vs_symmetric(
                REF, eq.strategy, REF.breakeven_bid * (1 + eps)
            )
            assert payoff < 0.0


class TestFindPureDeviation:
    def test_deviation_for_every_grid_profile_with_penalties(self):
        params = AuctionParams(10, 1, 0.1, 0.0, 3)
        grid = [None] + [i * 0.9 for i in range(11)]
        for actions in product(grid, repeat=3):
            dev = find_pure_deviation(params, PureProfile(actions))
            assert dev is not None
            assert dev.gain > 0.0

    def test_breakeven_pair_is_equilibrium_without_penalties(self):
        params = AuctionParams(10, 1, 0.0, 0.0, 3)
        assert find_pure_deviation(params, PureProfile([9, 9, None])) is None
        assert find_pure_deviation(params, PureProfile([9, 9, 3])) is None

    def test_breakeven_pair_is_equilibrium_where_r1_g_underflows(self):
        params = AuctionParams(1.5, 0.5, 5e-324, 0.0, 3)
        assert find_pure_deviation(params, PureProfile([1.0, 1.0, None])) is None

    def test_unique_top_bid_attracts_an_overbid(self):
        params = AuctionParams(10, 1, 0.0, 0.0, 3)
        dev = find_pure_deviation(params, PureProfile([8, 2, None]))
        assert dev is not None
        assert isinstance(dev.action, float)
        assert dev.action == pytest.approx(8.5)
        assert dev.agent != 0

    def test_overbidder_prefers_to_abstain(self):
        params = AuctionParams(10, 1, 0.2, 0.2, 3)
        dev = find_pure_deviation(params, PureProfile([10, 1, None]))
        assert dev is not None
        assert dev.action is None

    def test_constructed_deviations_verified_exhaustively(self):
        # the claimed deviation must beat every grid alternative's guarantee:
        # cross-check gains against an exhaustive scan of grid actions
        params = AuctionParams(10, 1, 0.1, 0.1, 3)
        grid_actions = [None] + [i * 0.9 for i in range(11)]
        rng = philox(14)
        profiles = [
            PureProfile([rng.choice([None, 0.0, 2.7, 5.4, 8.1, 9.0, 9.9]) for _ in range(3)])
            for _ in range(60)
        ]
        for profile in profiles:
            dev = find_pure_deviation(params, profile)
            assert dev is not None
            best_grid_gain = -np.inf
            for alt in grid_actions:
                actions = list(profile.actions)
                actions[dev.agent] = alt
                gain = pure_payoff(params, PureProfile(actions), dev.agent) - dev.original_payoff
                best_grid_gain = max(best_grid_gain, gain)
            # the construction may use off-grid bids, so it can beat the grid,
            # but it must be strictly profitable whenever the grid scan is
            if best_grid_gain > 0:
                assert dev.gain > 0


def _cdf_rows(base):
    """The four F* rows of the sign check."""
    return [c for c in comparative_statics_check(base) if c.quantity == "cdf_pointwise"]


class TestComparativeStatics:
    def test_all_signs_pass_at_low_markup_point(self):
        base = AuctionParams(2.0, 1.0, 0.5, 0.05, 20)
        checks = comparative_statics_check(base)
        assert all(c.passed for c in checks)
        assert len(checks) == 13

    def test_priority_rate_never_moves_abstention(self):
        base = AuctionParams(10, 1, 0.1, 0.1, 5)
        checks = {(c.quantity, c.parameter): c for c in comparative_statics_check(base)}
        entry = checks[("abstain_prob", "revert_rate_priority")]
        assert entry.derivative == 0.0
        assert entry.passed

    def test_known_failure_of_published_r1_direction_at_high_markup(self):
        # documented counterexample: at V=10, g=1, r1=r2=0.1, N=5 the expected
        # bid RISES with r1 (the abstention response dominates), so 7 of the 8
        # published directions hold and the (expected_bid, r1) check fails;
        # verified independently by quadrature and Monte Carlo
        base = AuctionParams(10, 1, 0.1, 0.1, 5)
        checks = {(c.quantity, c.parameter): c for c in comparative_statics_check(base)
                  if c.quantity != "cdf_pointwise"}
        failing = checks[("expected_bid", "revert_rate_base")]
        assert not failing.passed
        assert failing.derivative > 0.0
        others = [c for key, c in checks.items() if key != ("expected_bid", "revert_rate_base")]
        assert all(c.passed for c in others)
        # direct confirmation without finite differences
        lo = solve_equilibrium(replace(base, revert_rate_base=0.05)).expected_bid()
        hi = solve_equilibrium(replace(base, revert_rate_base=0.20)).expected_bid()
        assert hi > lo

    def test_sign_table(self):
        base = AuctionParams(2.0, 1.0, 0.5, 0.05, 20)
        table = [(c.quantity, c.parameter, c.expected)
                 for c in comparative_statics_check(base)]
        assert table == [
            ("abstain_prob", "num_agents", "+"),
            ("abstain_prob", "base_fee", "+"),
            ("abstain_prob", "revert_rate_base", "+"),
            ("abstain_prob", "value", "-"),
            ("abstain_prob", "revert_rate_priority", "0"),
            ("expected_bid", "value", "+"),
            ("expected_bid", "num_agents", "-"),
            ("expected_bid", "revert_rate_base", "-"),
            ("expected_bid", "revert_rate_priority", "-"),
            ("cdf_pointwise", "num_agents", "+"),
            ("cdf_pointwise", "value", "-"),
            ("cdf_pointwise", "revert_rate_base", "+"),
            ("cdf_pointwise", "revert_rate_priority", "+"),
        ]

    @pytest.mark.parametrize("base", [AuctionParams(2.0, 1.0, 0.5, 0.05, 20),
                                      AuctionParams(10, 1, 0.1, 0.1, 5)])
    def test_cdf_pointwise_derivatives_are_derivative_estimates(self, base):
        grid = np.linspace(0.1, 0.9, 9) * solve_equilibrium(base).support_max

        def cdf(**change):
            return solve_equilibrium(replace(base, **change)).cdf(grid)

        for check in _cdf_rows(base):
            field = check.parameter
            if field == "num_agents":
                d = cdf(num_agents=base.num_agents + 1) - cdf()
            else:
                x = getattr(base, field)
                d = (cdf(**{field: x + 1e-5}) - cdf(**{field: x - 1e-5})) / 2e-5
            assert check.derivative == (d.min() if check.expected == "+" else d.max())

    @pytest.mark.parametrize("base", [
        AuctionParams(10, 1, 0.5, 0.0, 5),
        AuctionParams(10, 1, 1.0, 0.3, 5),
        AuctionParams(10, 1, 0.0, 0.3, 5),
        # each stencil end below was once rejected by a validator
        AuctionParams(1 + 5e-6, 1, 0.5, 0.1, 5),  # V - 1e-5 < g and g + 1e-5 > V
        AuctionParams(10, 5e-6, 0.5, 0.1, 5),  # g - 1e-5 < 0
        AuctionParams(10, 1, 3e-6, 0.0, 5),  # r1 - 1e-5 < 0, and r1 = r2 = 0 is free
        AuctionParams(10, 1, 1e-5, 0.0, 5),  # r1 - 1e-5 = r2 = 0 is free
        AuctionParams(10, 1, 0.5, 0.1, 10**12),  # N + 1 > MAX_AGENTS
        AuctionParams(1e-5, 5e-6, 0.5, 0.1, 5),  # g's box is narrower than 1e-5 each way
    ])
    def test_rate_box_edges_take_one_sided_differences(self, base):
        # no sign is asserted: at r1 = 0, p* is identically 0, so its N, g
        # and V differences truly read 0
        rows = comparative_statics_check(base)
        statics = [c for c in rows if c.quantity != "cdf_pointwise"]
        assert len(statics) == 9 and len(rows) == 13
        assert all(np.isfinite(c.derivative) for c in rows)
        if base.revert_rate_priority == 0.0:
            checks = {(c.quantity, c.parameter): c.derivative for c in statics}
            assert checks[("abstain_prob", "revert_rate_priority")] == 0.0
            forward = solve_equilibrium(replace(base, revert_rate_priority=1e-5)).expected_bid()
            assert checks[("expected_bid", "revert_rate_priority")] == (
                (forward - solve_equilibrium(base).expected_bid()) / 1e-5)

    @pytest.mark.parametrize("base, quantity, field, lo, hi, step", [
        # r1 - 1e-5 < 0 though r1 > 0: forward over 1e-5
        (AuctionParams(10, 1, 3e-6, 0.1, 5), "abstain_prob", "revert_rate_base",
         3e-6, 3e-6 + 1e-5, 1e-5),
        (AuctionParams(10, 1, 1.0, 0.3, 5), "abstain_prob", "revert_rate_base",
         1.0 - 1e-5, 1.0, 1e-5),
        # g's box is narrower than 1e-5 each way: central over 2 x 2.5e-6
        (AuctionParams(1e-5, 5e-6, 0.5, 0.1, 5), "abstain_prob", "base_fee",
         5e-6 - 2.5e-6, 5e-6 + 2.5e-6, 5e-6),
        (AuctionParams(10, 1, 0.5, 0.1, 10**12), "expected_bid", "num_agents",
         10**12 - 1, 10**12, 1),
    ])
    def test_stencil_is_the_first_the_validators_admit(self, base, quantity, field, lo, hi,
                                                       step):
        near_one = solve_equilibrium(base).abstain_prob > 0.5

        def f(x):
            eq = solve_equilibrium(replace(base, **{field: x}))
            if quantity == "expected_bid":
                return eq.expected_bid()
            # above p* = 1/2, p* is differenced as -(1 - p*)
            return -eq.state.one_minus_p if near_one else eq.abstain_prob

        checks = {(c.quantity, c.parameter): c.derivative for c in comparative_statics_check(base)}
        assert checks[(quantity, field)] == (f(hi) - f(lo)) / step

    @pytest.mark.parametrize("base", [
        # p* = 1 - 3e-9: a step in p* itself falls below one ulp of 1
        AuctionParams(10, 1, 0.5, 0.1, 10**9),
        AuctionParams(10, 1, 0.5, 0.1, 10**12),
        # p* = 1.1e-13: a step in 1 - p* would fall below one ulp of 1
        AuctionParams(10, 1, 1e-12, 0.1, 2),
    ])
    def test_abstention_signs_hold_where_p_star_nears_0_or_1(self, base):
        checks = [c for c in comparative_statics_check(base) if c.quantity == "abstain_prob"]
        assert len(checks) == 5
        assert all(c.passed for c in checks), checks

    @pytest.mark.parametrize("base", [AuctionParams(10, 1, 0.0, 0.0, 5),
                                      AuctionParams(1.5, 0.5, 5e-324, 0.0, 2)])
    def test_free_losing_base_still_raises(self, base):
        # r1 g = r2 = 0 (the second r1 g rounds to 0): no mixed equilibrium
        with pytest.raises(DegenerateNoRevertCost):
            comparative_statics_check(base)

    def test_cdf_pointwise_signs_at_low_markup_point(self):
        base = AuctionParams(2.0, 1.0, 0.5, 0.05, 20)
        for check in _cdf_rows(base):
            assert check.passed, check


class TestHillmanSamet:
    def test_reference_deviation_bound(self):
        assert hillman_samet_check(1.0, 0.1, 2) <= 1e-10

    def test_holds_for_larger_fields(self):
        for n in (5, 10):
            assert hillman_samet_check(1.0, 0.1, n) <= 1e-10

    def test_outlay_outside_the_box_is_rejected_by_auction_params(self):
        with pytest.raises(NonPositiveFee):
            hillman_samet_check(1.0, 0.0, 2)
        with pytest.raises(ValueNotAboveBaseFee):
            hillman_samet_check(1.0, 1.0, 2)
        with pytest.raises(ValueNotAboveBaseFee):
            hillman_samet_check(1.0, 1.5, 2)

    def test_plateau_below_minimum_outlay(self):
        params = AuctionParams(1.0, 0.1, 1.0, 1.0, 2)
        eq = solve_equilibrium(params)
        assert eq.abstain_prob == pytest.approx((0.1 / 1.0) ** (1 / 1), rel=1e-15)
