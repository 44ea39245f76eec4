"""Core auction model: parameters, pure profiles, strategies, and exact payoffs.

The game: N agents compete for a single opportunity of common value V in a
block whose base fee is g. Each agent either abstains or submits a bid b >= 0
(a priority fee). The highest participating bid wins, ties broken uniformly at
random; the winner extracts V and pays g + b. Every losing participant pays a
revert penalty r1*g + r2*b on the base and priority components of its fee.
A pure profile holds one action per agent: a bid (a float) or None (abstain).
Every entry checks its inputs by check_auction_box, check_seed, check_entry_cost
and check_tax_rate.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable

from .errors import (
    ArgumentOutOfRange,
    CostOutOfRange,
    CostTooLarge,
    IndexOutOfRange,
    NonPositiveFee,
    OutOfSupport,
    RateOutOfRange,
    TooFewAgents,
    TooManyAgents,
    ValueNotAboveBaseFee,
)

# the largest N at which tests/test_reference.py checks the closed forms
MAX_AGENTS = 10**12
# the most uniforms one draw may ask for: 2^22 float64 are 32 MiB
MAX_DRAWS = 1 << 22


def check_auction_box(g, r1, r2, n, agents: str = "num_agents") -> None:
    """A finite base fee g > 0, revert rates r1 and r2 finite in [0, 1], and an int or numpy
    integer 2 <= N <= MAX_AGENTS; agents names the N field in the error text."""
    if not (math.isfinite(g) and g > 0.0):
        raise NonPositiveFee(f"base_fee must be finite and positive, got {g}")
    for name, r in (("revert_rate_base", r1), ("revert_rate_priority", r2)):
        if not (math.isfinite(r) and 0.0 <= r <= 1.0):
            raise RateOutOfRange(f"{name} must lie in [0, 1], got {r}")
    # a non-number ("5", None) is TooFewAgents, shown by its repr so "5" does not read as 5
    if isinstance(n, numbers.Real) and n > MAX_AGENTS:
        raise TooManyAgents(f"{agents} must be <= {MAX_AGENTS}, got {n}")
    if not (isinstance(n, numbers.Integral) and n >= 2):
        shown = n if isinstance(n, numbers.Real) else repr(n)
        raise TooFewAgents(f"{agents} must be an integer >= 2, got {shown}")


def check_seed(seed) -> None:
    """A seed is an int >= 0; numpy integers pass and bools fail."""
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or seed < 0:
        raise ArgumentOutOfRange(f"seed must be an int >= 0, got {seed!r}")


def check_entry_cost(params: AuctionParams, entry_cost: float) -> None:
    """A flat entry cost must be finite and lie in [0, V - g)."""
    if not (math.isfinite(entry_cost) and entry_cost >= 0.0):
        raise CostOutOfRange(f"entry cost must be finite and non-negative, got {entry_cost}")
    if entry_cost >= params.breakeven_bid:
        raise CostTooLarge(
            f"entry cost {entry_cost} must stay below breakeven bid {params.breakeven_bid}"
        )


def check_tax_rate(tax_rate: float) -> None:
    """An MEV tax rate tau must be finite and non-negative."""
    if not (math.isfinite(tax_rate) and tax_rate >= 0.0):
        raise RateOutOfRange(f"tax rate must be finite and non-negative, got {tax_rate}")


@dataclass(frozen=True)
class AuctionParams:
    """One auction instance: (V, g, r1, r2, N).

    value: common value V of the opportunity.
    base_fee: flat fee g every included transaction pays.
    revert_rate_base: fraction r1 of g paid by a losing participant.
    revert_rate_priority: fraction r2 of the bid paid by a losing participant.
    num_agents: number of competing agents, 2 <= N <= MAX_AGENTS (check_auction_box).
    """

    value: float
    base_fee: float
    revert_rate_base: float
    revert_rate_priority: float
    num_agents: int

    def __post_init__(self) -> None:
        check_auction_box(self.base_fee, self.revert_rate_base, self.revert_rate_priority,
                          self.num_agents)
        if not (math.isfinite(self.value) and self.value > self.base_fee):
            raise ValueNotAboveBaseFee(
                f"value must exceed base_fee, got value={self.value}, base_fee={self.base_fee}"
            )

    @property
    def breakeven_bid(self) -> float:
        """V - g: the largest bid with non-negative payoff on a win."""
        return self.value - self.base_fee


@dataclass(frozen=True)
class PureProfile:
    """One action per agent: a bid amount, or None to abstain.

    Each bid is stored as a float and must be finite and non-negative.
    """

    actions: tuple[float | None, ...]

    def __post_init__(self) -> None:
        actions = tuple(None if a is None else float(a) for a in self.actions)
        for b in actions:
            if b is not None and not (math.isfinite(b) and b >= 0.0):
                raise OutOfSupport(f"bid amount must be finite and non-negative, got {b}")
        object.__setattr__(self, "actions", actions)


@dataclass(frozen=True)
class MixedStrategy:
    """Symmetric randomized strategy: abstain with probability abstain_prob,
    otherwise draw the bid from the distribution with CDF cdf.

    cdf is defined on [support[0], support[1]] and takes an array of bids as
    well as a float (expected_payoff_vs_symmetric passes arrays).
    participation is 1 - abstain_prob, passed separately when the caller
    holds it to full relative accuracy (abstain_prob -> 1 at large N).
    """

    abstain_prob: float
    cdf: Callable
    support: tuple[float, float]
    participation: float | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.abstain_prob <= 1.0:
            raise RateOutOfRange(f"abstain_prob must lie in [0, 1], got {self.abstain_prob}")
        if self.participation is None:
            object.__setattr__(self, "participation", 1.0 - self.abstain_prob)


def pure_payoff(params: AuctionParams, profile: PureProfile, agent: int) -> float:
    """Exact expected payoff of one agent under a pure profile.

    Abstaining pays exactly 0. A participant wins with probability
    1{b_i = b_max} / (1 + #ties among others) and nets V - g - b_i on a win,
    paying r1*g + r2*b_i otherwise.
    """
    if not 0 <= agent < params.num_agents:
        raise IndexOutOfRange(f"agent {agent} out of range for N={params.num_agents}")
    if len(profile.actions) != params.num_agents:
        raise IndexOutOfRange(
            f"profile has {len(profile.actions)} actions, expected {params.num_agents}"
        )
    b = profile.actions[agent]
    if b is None:
        return 0.0
    b_max = max(a for a in profile.actions if a is not None)
    if b < b_max:
        p_win = 0.0
    else:
        ties_among_others = profile.actions.count(b) - 1
        p_win = 1.0 / (1.0 + ties_among_others)
    win_part = (params.value - params.base_fee - b) * p_win
    lose_part = (params.revert_rate_base * params.base_fee + params.revert_rate_priority * b) * (
        1.0 - p_win
    )
    return win_part - lose_part


def expected_payoff_vs_symmetric(
    params: AuctionParams,
    opponents: MixedStrategy,
    own_bid,
    entry_cost: float = 0.0,
):
    """Expected payoff of bidding own_bid against N-1 opponents all playing
    the given symmetric mixed strategy.

    own_bid is one bid or an array of bids; a float in gives a float out,
    an array gives the array of payoffs. opponents.cdf is called once, on
    the array of bids below support[1] (above it every opponent is beaten),
    so it must take an array.

    The win probability is w = (p + (1-p) F(b))^(N-1) = (1 - (1-p)(1-F(b)))^(N-1),
    formed with log1p/expm1 so that w and 1 - w keep their digits as p -> 1
    at large N. Abstaining is worth exactly 0 and is the caller's
    alternative. entry_cost is subtracted when bidding carries a flat
    participation charge, and must pass check_entry_cost.
    """
    import numpy as np

    check_entry_cost(params, entry_cost)
    b = np.asarray(own_bid, dtype=float)
    bad = b[~(np.isfinite(b) & (b >= 0.0))]
    if bad.size:
        raise OutOfSupport(f"own_bid must be finite and non-negative, got {bad[0]}")
    beaten = np.zeros(b.shape)
    below = b < opponents.support[1]
    if below.any():
        beaten[below] = opponents.participation * (1.0 - opponents.cdf(b[below]))
    with np.errstate(divide="ignore", invalid="ignore"):
        log_w = np.where(beaten < 1.0, (params.num_agents - 1) * np.log1p(-beaten), -np.inf)
    gain = (params.value - params.base_fee - b) * np.exp(log_w)
    revert = (
        params.revert_rate_base * params.base_fee
        + params.revert_rate_priority * b
    ) * -np.expm1(log_w)
    payoff = gain - revert - entry_cost
    return float(payoff) if payoff.ndim == 0 else payoff
