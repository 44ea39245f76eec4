"""Property tests over the validated parameter box (V, g, r1, r2, N, c)."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pga_lab import (
    AuctionParams,
    comparative_statics_check,
    expected_winning_bid,
    revenue_report,
    solve_equilibrium,
)
from pga_lab.equilibrium import check_entry_cost, equilibrium_state
from pga_lab.errors import (
    CostOutOfRange,
    DegenerateNoRevertCost,
    NonPositiveFee,
    OutOfSupport,
    RateOutOfRange,
    TooFewAgents,
    TooManyAgents,
    ValueNotAboveBaseFee,
)
from pga_lab.model import MAX_AGENTS

BOX = settings(max_examples=100, deadline=None, derandomize=True, database=None)
# zero or at least 1e-200, so that r1 g, r2 b and c stay normal
_rate = st.just(0.0) | st.floats(1e-200, 1.0)
_cost_fraction = st.just(0.0) | st.floats(1e-200, 1.0, exclude_max=True)


@st.composite
def points(draw):
    """(params, c) the validators accept, bar the pure regime r1 = r2 = c = 0
    and the subnormal corners that test_known_breakdowns pins."""
    g = draw(st.floats(1e-3, 1e3))
    params = AuctionParams(g + draw(st.floats(1e-3, 1e3)), g, draw(_rate), draw(_rate),
                           draw(st.integers(2, MAX_AGENTS)))
    c = draw(_cost_fraction) * params.breakeven_bid
    assume(params.revert_rate_base + params.revert_rate_priority + c > 0.0)
    # rho = (r1 g + c)/(V - g + r1 g) not subnormal
    lr = _log_rho(params, c)
    assume(lr == -math.inf or -690.0 < lr < 0.0)
    return params, c


def _log_rho(params, c=0.0):
    return equilibrium_state(params.revert_rate_base * params.base_fee, params.breakeven_bid,
                             params.num_agents, c).log_rho


def _grid(eq):
    return np.linspace(0.0, eq.support_max, 33).tolist()


def _check_cdf(point):
    """F* is a distribution function on the support, exactly 0.0 and 1.0 at
    its ends, and an array of bids gives the per-float values bit for bit."""
    eq = solve_equilibrium(*point)
    grid = _grid(eq)
    f = np.array([eq.cdf(b) for b in grid])
    assert np.array_equal(eq.cdf(np.array(grid)), f)
    assert f[0] == 0.0 and f[-1] == 1.0
    assert np.all((f >= 0.0) & (f <= 1.0))
    assert np.all(np.diff(f) >= 0.0)


def _check_round_trip(point):
    """Q(F*(b)) is b within 1e-9 (V - g), or, where F* is flat to rounding
    (near 0 or 1 at extreme N or tiny penalties), a bid F* cannot tell from b."""
    eq = solve_equilibrium(*point)
    tol = 1e-9 * eq.params.breakeven_bid
    for b in _grid(eq):
        u = eq.cdf(b)
        back = eq.quantile(u)
        assert abs(back - b) <= tol or abs(eq.cdf(back) - u) <= 1e-15


@BOX
@given(points())
def test_cdf_is_a_distribution_function_on_the_support(point):
    _check_cdf(point)


@BOX
@given(points())
def test_quantile_inverts_cdf_on_the_support(point):
    _check_round_trip(point)


@BOX
@given(points())
def test_expected_bids_lie_in_the_support(point):
    """0 <= E[B*] <= E[max of 2] <= V - g - c and 0 <= E[winning bid] <= V - g - c,
    up to the rounding of a sum: where F* puts nearly all its mass at V - g - c
    (r1 = r2 = 0, tiny c) the three means agree to a few ulps."""
    eq = solve_equilibrium(*point)
    mean, mean_of_max2 = eq.expected_bid(), eq.expected_max_bid(2)
    winning = expected_winning_bid(*point)
    rounding = 1.0 + 1e-14
    assert all(map(math.isfinite, (mean, mean_of_max2, winning)))
    assert 0.0 <= mean <= mean_of_max2 * rounding
    assert mean_of_max2 <= eq.support_max * rounding
    assert 0.0 <= winning <= eq.support_max * rounding


@BOX
@given(points())
def test_rent_dissipation_ties_the_bid_quadratures_to_priority_revenue(point):
    """At c = 0 the closed-form priority revenue is the sum of the priority
    payments: the winner pays its bid and each losing participant r2 times
    its own, so it equals (1 - r2) E[winning bid] + r2 N (1 - p*) E[B*].

    The bound is 1e-14 of the largest of the three terms, rho -> 1 included:
    over 2,000 examples the worst residue is 2.7e-15. At (596.251, 596.25,
    0.5, 0, 682) the split N (1 - p*) - (1 - p*^N) would leave the priority
    revenue 1.2e-10 off if it were not formed as phi(N x) - N phi(x)."""
    params, _ = point
    r2 = params.revert_rate_priority
    assume(params.revert_rate_base * params.base_fee > 0.0 or r2 > 0.0)
    eq = solve_equilibrium(params)
    priority = revenue_report(params).priority_revenue
    winner = (1.0 - r2) * expected_winning_bid(params)
    losers = r2 * params.num_agents * eq.state.one_minus_p * eq.expected_bid()
    assert abs(priority - (winner + losers)) <= 1e-14 * max(priority, winner, losers)


@BOX
@given(points())
def test_sign_checks_give_a_verdict_on_the_whole_box(point):
    """The sign check returns all 9 + 4 rows with finite derivatives wherever
    losing costs something at c = 0. The verdicts are not asserted: at r1 = 0
    p* is identically 0, above N = 1e9 p*(N + 1) - p*(N) rounds to 0, and the
    r1 rows hold only at low markups."""
    params, _ = point
    assume(params.revert_rate_base * params.base_fee > 0.0 or params.revert_rate_priority > 0.0)
    checks = comparative_statics_check(params)
    assert len(checks) == 13
    assert all(math.isfinite(c.derivative) for c in checks)


@BOX
@given(points())
def test_validators_accept_the_box_and_reject_its_edges(point):
    params, c = point
    check_entry_cost(params, c)
    g = params.base_fee
    outside = [
        (NonPositiveFee, dict(base_fee=0.0)),
        (NonPositiveFee, dict(base_fee=-g)),
        (ValueNotAboveBaseFee, dict(value=g)),
        (RateOutOfRange, dict(revert_rate_base=math.nextafter(1.0, 2.0))),
        (RateOutOfRange, dict(revert_rate_priority=-5e-324)),
        (TooFewAgents, dict(num_agents=1)),
        (TooManyAgents, dict(num_agents=MAX_AGENTS + 1)),
    ]
    for error, change in outside:
        with pytest.raises(error):
            replace(params, **change)
    for cost in (-5e-324, params.breakeven_bid, math.inf):
        with pytest.raises(CostOutOfRange):
            check_entry_cost(params, cost)


# Corners of the box. The first three, where rho nears 1, pass since log z
# keeps its digits there. The properties fail today at the other three: F* and
# Q lose digits or turn to NaN when r1 g, r2 b or c is subnormal, so points()
# keeps its draws clear of those (ROADMAP item 3).
_SUBNORMAL = pytest.mark.xfail(strict=True, raises=(AssertionError, OutOfSupport))


@pytest.mark.parametrize(
    "point",
    [
        pytest.param((AuctionParams(5.0, 1.0, 1.0, 0.0, 2), math.nextafter(4.0, 0.0)),
                     id="c-one-ulp-below"),
        pytest.param((AuctionParams(9.379066628408737, 8.395585068594423, 1.0, 1.0, 2),
                      0.9834815598143035), id="c-1e-14-below"),
        pytest.param((AuctionParams(770.4385, 770.4375, 1.0, 0.5, 2), 0.0),
                     id="rho-1e-6-below-1"),
        pytest.param((AuctionParams(1.0078125, 0.0078125, 2.2250738585e-313, 0.0, 76), 0.0),
                     id="subnormal-r1", marks=_SUBNORMAL),
        pytest.param((AuctionParams(1.001, 1.0, 0.0, 2.2250738585e-313, 58), 0.0),
                     id="subnormal-r2", marks=_SUBNORMAL),
        # (1 - p*)/p* = inf: Q is NaN
        pytest.param((AuctionParams(2.0, 1.0, 0.0, 0.0, 2), 5e-324), id="subnormal-c",
                     marks=_SUBNORMAL),
    ],
)
def test_known_breakdowns(point):
    _check_cdf(point)
    _check_round_trip(point)


def test_r1_g_that_rounds_to_zero_is_the_degenerate_game():
    """r1 = 5e-324 passes the validators, but r1 g rounds to 0: losing is free."""
    with pytest.raises(DegenerateNoRevertCost):
        solve_equilibrium(AuctionParams(1.5, 0.5, 5e-324, 0.0, 2))
