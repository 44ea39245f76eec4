import math
import re
from dataclasses import replace
from itertools import product

import numpy as np
import pytest

from pga_lab import (
    ArgumentOutOfRange,
    AuctionParams,
    CostOutOfRange,
    IndexOutOfRange,
    MarketSimConfig,
    MixedStrategy,
    NonPositiveFee,
    OutOfSupport,
    PureProfile,
    RateOutOfRange,
    TooFewAgents,
    TooManyAgents,
    ValueNotAboveBaseFee,
    certify_equilibrium,
    expected_payoff_vs_symmetric,
    monte_carlo_replay,
    pure_payoff,
    solve_equilibrium,
)
from pga_lab.verify import run_battery


class TestValidation:
    def test_accepts_reference_parameters(self):
        p = AuctionParams(10, 1, 0.1, 0.1, 20)
        assert p.value == 10.0 and p.num_agents == 20
        assert p.breakeven_bid == 9.0

    def test_value_must_exceed_base_fee(self):
        with pytest.raises(ValueNotAboveBaseFee):
            AuctionParams(1, 1, 0.1, 0.1, 2)

    def test_rate_bounds(self):
        with pytest.raises(RateOutOfRange):
            AuctionParams(10, 1, 1.2, 0.1, 2)
        with pytest.raises(RateOutOfRange):
            AuctionParams(10, 1, 0.1, -0.01, 2)

    def test_too_few_agents(self):
        with pytest.raises(TooFewAgents):
            AuctionParams(10, 1, 0.1, 0.1, 1)

    # a number is shown as str shows it, anything else by its repr
    @pytest.mark.parametrize("n, error, shown", [
        (2.5, TooFewAgents, "2.5"), (math.nan, TooFewAgents, "nan"),
        (20.0, TooFewAgents, "20.0"), (math.inf, TooManyAgents, "inf"),
        ("5", TooFewAgents, "'5'"), (None, TooFewAgents, "None"),
        (np.int64(1), TooFewAgents, "1"),
    ], ids=["2.5-TooFewAgents", "nan-TooFewAgents", "20.0-TooFewAgents", "inf-TooManyAgents",
            "5-TooFewAgents", "None-TooFewAgents", "int64-1-TooFewAgents"])
    def test_agent_count_must_be_a_whole_number_in_range(self, n, error, shown):
        with pytest.raises(error, match=f"got {re.escape(shown)}$"):
            AuctionParams(10, 1, 0.1, 0.1, n)

    def test_non_positive_fee(self):
        with pytest.raises(NonPositiveFee):
            AuctionParams(10, 0, 0.1, 0.1, 2)
        with pytest.raises(NonPositiveFee):
            AuctionParams(10, -1, 0.1, 0.1, 2)

    def test_bid_rejects_negative_amounts(self):
        with pytest.raises(ValueError):
            PureProfile([-0.5])


REF = AuctionParams(10, 1, 0.1, 0.1, 20)
# a market at REF's g, r1, r2 and N
CONFIG = MarketSimConfig(0.0, 0.05, 1.0, 0.01, 100.0, 0.003, 10.0, 1.0, 0.1, 0.1, 20, 0)
RATES = ("revert_rate_base", "revert_rate_priority")


@pytest.mark.parametrize("field, bad, error", [
    *(("base_fee", g, NonPositiveFee) for g in (0.0, -1.0, math.nan, math.inf)),
    *((rate, r, RateOutOfRange) for rate in RATES for r in (-0.1, 1.5, math.nan)),
    *(("num_agents", n, TooFewAgents) for n in (1, 2.5, "5")),
    ("num_agents", 10**13, TooManyAgents),
    *(("seed", seed, ArgumentOutOfRange) for seed in (-1, 1.5, True, "7")),
])
def test_each_input_has_one_rule(field, bad, error):
    """A bad g, r1, r2 or N raises the same error from AuctionParams and
    MarketSimConfig, and a bad seed the same error from the simulator, the
    replay and the battery; only the name of the N field differs."""
    if field == "seed":
        calls = [lambda: replace(CONFIG, seed=bad), lambda: monte_carlo_replay(REF, 10, bad),
                 lambda: run_battery(bad)]
    else:
        market_field = "num_arbitrageurs" if field == "num_agents" else field
        calls = [lambda: replace(REF, **{field: bad}),
                 lambda: replace(CONFIG, **{market_field: bad})]
    texts = set()
    for call in calls:
        with pytest.raises(error) as raised:
            call()
        assert type(raised.value) is error
        texts.add(str(raised.value).replace("num_arbitrageurs", "num_agents"))
    assert len(texts) == 1, texts


class TestPureProfile:
    def test_bids_are_stored_as_floats(self):
        profile = PureProfile([1, None, np.float64(2.5), True])
        assert profile.actions == (1.0, None, 2.5, 1.0)
        assert all(type(b) is float for b in profile.actions if b is not None)
        (zero,) = PureProfile([-0.0]).actions
        assert zero == 0.0 and math.copysign(1.0, zero) == -1.0

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1e-300])
    def test_rejects_bids_outside_the_support(self, bad):
        with pytest.raises(OutOfSupport):
            PureProfile([1.0, None, bad])

    def test_list_and_tuple_build_equal_profiles(self):
        from_list, from_tuple = PureProfile([1, None, 2.5]), PureProfile((1, None, 2.5))
        assert from_list == from_tuple and hash(from_list) == hash(from_tuple)


class TestPurePayoff:
    def test_sure_loser_pays_revert_cost_only(self):
        params = AuctionParams(10, 1, 0.1, 0.1, 2)
        profile = PureProfile([3, 5])
        assert pure_payoff(params, profile, 0) == pytest.approx(-0.4, abs=1e-15)

    def test_symmetric_tie_without_revert_cost(self):
        params = AuctionParams(10, 1, 0.0, 0.0, 2)
        profile = PureProfile([5, 5])
        for agent in (0, 1):
            assert pure_payoff(params, profile, agent) == pytest.approx(2.0, abs=1e-15)

    def test_breakeven_bid_nets_zero(self):
        params = AuctionParams(10, 1, 0.0, 0.0, 3)
        profile = PureProfile([None, 9, 9])
        assert pure_payoff(params, profile, 1) == 0.0

    def test_abstain_is_exactly_zero(self):
        params = AuctionParams(10, 1, 0.7, 0.3, 3)
        for others in product([None, 0.0, 4.0, 9.0, 12.0], repeat=2):
            profile = PureProfile([None, *others])
            assert pure_payoff(params, profile, 0) == 0.0

    def test_agent_index_checked(self):
        params = AuctionParams(10, 1, 0.1, 0.1, 2)
        profile = PureProfile([1, 2])
        with pytest.raises(IndexOutOfRange):
            pure_payoff(params, profile, 2)
        with pytest.raises(IndexOutOfRange):
            pure_payoff(params, PureProfile([1, 2, 3]), 0)

    def test_conservation_on_enumerated_profiles(self):
        # total payoff == value extracted - expected total payments
        params = AuctionParams(10, 1, 0.3, 0.6, 3)
        v, g = params.value, params.base_fee
        r1, r2 = params.revert_rate_base, params.revert_rate_priority
        grid = [None, 0.0, 2.0, 4.5, 9.0]
        for actions in product(grid, repeat=3):
            profile = PureProfile(actions)
            total = sum(pure_payoff(params, profile, i) for i in range(3))
            bids = [a for a in actions if a is not None]
            if not bids:
                assert total == 0.0
                continue
            b_max = max(bids)
            ties = sum(1 for b in bids if b == b_max)
            payments = 0.0
            for b in bids:
                if b == b_max:
                    win_prob = 1.0 / ties
                    payments += win_prob * (g + b) + (1 - win_prob) * (r1 * g + r2 * b)
                else:
                    payments += r1 * g + r2 * b
            assert total == pytest.approx(v - payments, abs=1e-9)

    def test_never_negative_without_revert_cost(self):
        params = AuctionParams(10, 1, 0.0, 0.0, 3)
        grid = [None, 0.0, 3.0, 6.0, 9.0]
        for actions in product(grid, repeat=3):
            profile = PureProfile(actions)
            for i in range(3):
                assert pure_payoff(params, profile, i) >= 0.0


def _uniform_strategy(abstain_prob: float, hi: float) -> MixedStrategy:
    return MixedStrategy(
        abstain_prob=abstain_prob,
        cdf=lambda b: min(max(b / hi, 0.0), 1.0),
        support=(0.0, hi),
    )


class TestExpectedPayoffVsSymmetric:
    def test_breakeven_bid_is_zero_against_anything(self):
        params = AuctionParams(10, 1, 0.3, 0.8, 7)
        for p in (0.0, 0.4, 1.0):
            strat = _uniform_strategy(p, params.breakeven_bid)
            assert expected_payoff_vs_symmetric(params, strat, 9.0) == 0.0

    def test_uncontested_win_at_zero_bid(self):
        params = AuctionParams(10, 1, 0.5, 0.5, 4)
        strat = _uniform_strategy(1.0, params.breakeven_bid)
        assert expected_payoff_vs_symmetric(params, strat, 0.0) == pytest.approx(9.0)

    def test_strictly_decreasing_on_flat_cdf_stretch(self):
        # win probability constant on the flat part, so cost strictly rises
        params = AuctionParams(10, 1, 0.2, 0.4, 5)

        def flat_cdf(b):
            return min(b, 2.0) / 9.0 if b < 9.0 else 1.0

        strat = MixedStrategy(0.1, flat_cdf, support=(0.0, 9.0))
        bids = np.linspace(2.0, 8.9, 30)
        payoffs = [expected_payoff_vs_symmetric(params, strat, float(b)) for b in bids]
        assert all(a > b for a, b in zip(payoffs, payoffs[1:]))

    def test_rejects_negative_bid(self):
        params = AuctionParams(10, 1, 0.2, 0.4, 5)
        strat = _uniform_strategy(0.5, 9.0)
        with pytest.raises(ValueError):
            expected_payoff_vs_symmetric(params, strat, -1.0)

    @pytest.mark.parametrize("cost", [-5.0, math.nan, math.inf, 9.0],
                             ids=["negative", "nan", "inf", "breakeven"])
    def test_payoff_and_certificate_check_the_entry_cost(self, cost):
        # the rule and the error of solve_equilibrium; c = V - g = 9 is CostTooLarge
        strategy = solve_equilibrium(REF).strategy
        with pytest.raises(CostOutOfRange) as expected:
            solve_equilibrium(REF, cost)
        for call in (lambda: expected_payoff_vs_symmetric(REF, strategy, 1.0, cost),
                     lambda: certify_equilibrium(REF, strategy, cost)):
            with pytest.raises(type(expected.value), match=f"^{re.escape(str(expected.value))}$"):
                call()
