"""Closed-form symmetric equilibrium of the auction.

With any positive losing cost (r1 > 0, r2 > 0, or a flat entry cost c > 0)
no pure-strategy equilibrium exists; the unique symmetric mixed equilibrium
abstains with probability

    p* = ((r1*g + c) / (V - g + r1*g)) ** (1/(N-1))

and, conditional on bidding, draws from the CDF

    F*(b) = (z(b)**(1/(N-1)) - p*) / (1 - p*),
    z(b)  = (r1*g + r2*b + c) / (V - g - b + r1*g + r2*b),

the value of z being pinned by indifference: every supported bid earns exactly
the abstention payoff of zero. F* reaches 1 at b = V - g - c, so the support
is [0, V - g - c]; with c = 0 this is the full [0, V - g]. (For c > 0 the
breakeven-bid endpoint V - g carries z > 1; see boundary_gap.)

All of it is evaluated from log rho = log z(0), rho = p*^(N-1), through
log1p/expm1, so 1 - p*, F* and the quantile do not cancel as p* -> 1 at
large N.

With r1 = r2 = 0 and c = 0 losing is free and the game instead has the pure
equilibria characterized by pure_equilibrium: the top two bids both equal the
breakeven bid V - g.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    ArgumentOutOfRange,
    CostOutOfRange,
    CostTooLarge,
    DegenerateNoRevertCost,
    NotApplicable,
    NumericsError,
    OutOfSupport,
)
from .model import ABSTAIN, Action, AuctionParams, Bid, MixedStrategy, PureProfile
from .numerics import adaptive_simpson

_NEG_CLAMP = 1e-12  # residue window treated as float noise, not a formula bug


def _log(x: float) -> float:
    """math.log with log(0) = -inf, as np.log gives."""
    return math.log(x) if x > 0.0 else -math.inf


def log_ratio(rg, vg, c=0.0, r2=0.0, b=0.0, log=_log):
    """log z(b) = log(r1 g + r2 b + c) - log(V - g - b + r1 g + r2 b).

    rg = r1 g and vg = V - g. At b = 0 this is log rho, the one input of the
    closed form; p* and F* both take it from this expression, so F*(0) = 0
    holds exactly. Scalars go through math; pass log=np.log for arrays.
    """
    r2b = r2 * b
    return log(rg + r2b + c) - log(vg - b + rg + r2b)


def log_rho(params: AuctionParams, entry_cost: float = 0.0) -> float:
    """log rho = log((r1 g + c) / (V - g + r1 g)); -inf when r1 = c = 0."""
    return log_ratio(params.revert_rate_base * params.base_fee, params.breakeven_bid, entry_cost)


def abstention(lr, num_agents, xp=math):
    """(p*, 1 - p*, 1 - p*^N) from lr = log rho, with p* = rho^(1/(N-1)).

    The complements come from expm1, so they keep full relative accuracy as
    p* -> 1 at large N. xp is math for scalars or numpy for arrays.
    """
    x = lr / (num_agents - 1)
    return xp.exp(x), -xp.expm1(x), -xp.expm1(lr * num_agents / (num_agents - 1))


def check_entry_cost(params: AuctionParams, entry_cost: float) -> None:
    """A flat entry cost must be finite and lie in [0, V - g)."""
    if not (math.isfinite(entry_cost) and entry_cost >= 0.0):
        raise CostOutOfRange(f"entry cost must be finite and non-negative, got {entry_cost}")
    if entry_cost >= params.breakeven_bid:
        raise CostTooLarge(
            f"entry cost {entry_cost} must stay below breakeven bid {params.breakeven_bid}"
        )


@dataclass(frozen=True)
class Equilibrium:
    """Symmetric mixed equilibrium for given params and flat entry cost.

    abstain_prob is what sample_action draws against; the CDF and quantile
    derive p* and 1 - p* from params and entry_cost.
    """

    params: AuctionParams
    entry_cost: float
    abstain_prob: float

    @property
    def breakeven_bid(self) -> float:
        return self.params.breakeven_bid

    @property
    def support_max(self) -> float:
        """Upper end of the bid support: V - g - c, where the CDF hits 1."""
        return self.params.breakeven_bid - self.entry_cost

    @cached_property
    def _abstention(self) -> tuple[float, float, float]:
        """(log rho, p*, 1 - p*)."""
        lr = log_rho(self.params, self.entry_cost)
        return (lr, *abstention(lr, self.params.num_agents)[:2])

    @property
    def boundary_gap(self) -> float:
        """Raw CDF value at the breakeven bid V - g, minus one.

        Zero when entry_cost = 0. Positive entry cost shrinks the support to
        [0, V - g - c], so the raw formula exceeds 1 on (V - g - c, V - g];
        the gap is reported rather than renormalized away.
        """
        # z(V - g) is unbounded as r1 g + r2 (V - g) -> 0; numpy overflows to inf
        with np.errstate(over="ignore", divide="ignore"):
            return float(self._f_star(self.params.breakeven_bid, np.log, np.expm1)) - 1.0

    def log_z(self, b, log=_log):
        """log of the indifference ratio z(b); see log_ratio."""
        p = self.params
        rg = p.revert_rate_base * p.base_fee
        return log_ratio(rg, p.breakeven_bid, self.entry_cost, p.revert_rate_priority, b, log)

    def _f_star(self, b, log, expm1):
        """Raw F*(b) = (z^(1/(N-1)) - p*) / (1 - p*), written as
        (expm1(log z / (N-1)) + 1 - p*) / (1 - p*) so that it does not cancel
        as p* -> 1. Scalars pass (_log, math.expm1), arrays (np.log, np.expm1)."""
        one_minus_p = self._abstention[2]
        if one_minus_p == 0.0:
            raise NumericsError(
                f"F* is undefined at {self.params} with c = {self.entry_cost!r}: "
                "rho = (r1 g + c)/(V - g + r1 g) rounds to 1, so 1 - p* = 0"
            )
        root = expm1(self.log_z(b, log) / (self.params.num_agents - 1))  # z^(1/(N-1)) - 1
        return (root + one_minus_p) / one_minus_p

    def _cdf_arr(self, b: np.ndarray) -> np.ndarray:
        b = np.minimum(b, self.support_max)
        with np.errstate(divide="ignore"):
            raw = self._f_star(b, np.log, np.expm1)
        bad = raw < -_NEG_CLAMP
        if np.any(bad):
            raise NumericsError(
                f"CDF residue below clamp window: min raw value {raw[bad].min():.3e}"
            )
        return np.clip(raw, 0.0, 1.0)

    def cdf(self, b: float) -> float:
        """F*(b) for b in [0, V - g]. Exactly 1 on [V - g - c, V - g]."""
        if not math.isfinite(b) or b < -_NEG_CLAMP or b > self.breakeven_bid + _NEG_CLAMP:
            raise OutOfSupport(f"bid {b} outside [0, {self.breakeven_bid}]")
        b = min(max(b, 0.0), self.breakeven_bid)
        if b >= self.support_max:
            return 1.0
        raw = self._f_star(b, _log, math.expm1)
        if raw < 0.0:
            if raw < -_NEG_CLAMP:
                raise NumericsError(f"CDF residue below clamp window at b={b}: {raw:.3e}")
            raw = 0.0
        return min(raw, 1.0)

    def _quantile_arr(self, u: np.ndarray) -> np.ndarray:
        """Q(u) for an array of u in [0, 1], on one working copy of u."""
        p = self.params
        r2 = p.revert_rate_priority
        lr, p_star, one_minus_p = self._abstention
        rho = math.exp(lr)
        x = np.array(u, dtype=float)
        if p_star > 0.0:
            # log(q / rho) = (N-1) log1p(u (1-p*)/p*), then x = q - rho
            x *= one_minus_p / p_star
            np.log1p(x, out=x)
            x *= p.num_agents - 1
            np.expm1(x, out=x)
            x *= rho
        else:  # r1 = c = 0, so rho = 0 and x = q = u^(N-1)
            np.power(x, p.num_agents - 1, out=x)
        den = x * (1.0 - r2)
        den += r2 + (1.0 - r2) * rho
        x *= p.breakeven_bid + p.revert_rate_base * p.base_fee
        x /= den
        return np.clip(x, 0.0, self.support_max, out=x)

    def quantile(self, u: float) -> float:
        """Exact algebraic inverse of the CDF.

        With q = (p* + (1-p*)u)^(N-1), the supported bid solving F*(b) = u is
        b = (q (V-g+r1 g) - r1 g - c) / (r2 (1-q) + q)
          = (V-g+r1 g)(q - rho) / (r2 + (1-r2) q),
        the second form free of cancellation.
        """
        if not 0.0 <= u <= 1.0:
            raise OutOfSupport(f"quantile argument {u} outside [0, 1]")
        return float(self._quantile_arr(np.asarray(u, dtype=float)))

    def sample_action(self, rng: np.random.Generator) -> Action:
        """Abstain with probability p*, else bid quantile(U), U uniform."""
        if rng.random() < self.abstain_prob:
            return ABSTAIN
        return Bid(self.quantile(rng.random()))

    def sample_bids(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Vectorized bid draws conditional on participation."""
        return self._quantile_arr(rng.random(size))

    def expected_bid(self) -> float:
        """E[B*] for B* ~ F*."""
        return self.expected_max_bid(1)

    def expected_max_bid(self, k: int) -> float:
        """E[max of k i.i.d. draws from F*], via the tail integral of 1 - F^k."""
        if k < 1:
            raise ArgumentOutOfRange(f"k must be >= 1, got {k}")
        return adaptive_simpson(
            lambda x: 1.0 - self.cdf(x) ** k, 0.0, self.support_max, tol=1e-8, max_depth=20
        )

    @property
    def strategy(self) -> MixedStrategy:
        return MixedStrategy(
            abstain_prob=self.abstain_prob,
            participation=self._abstention[2],
            cdf=self.cdf,
            quantile=self.quantile,
            support=(0.0, self.support_max),
        )


def solve_equilibrium(
    params: AuctionParams, entry_cost: float = 0.0, strict: bool = False
) -> Equilibrium:
    """Solve for the symmetric mixed equilibrium.

    entry_cost = 0 is the baseline game; entry_cost > 0 charges every
    participant a flat fee (paid win or lose) on top of any revert penalty.
    strict=True raises if the CDF does not reach 1 at the breakeven bid V - g,
    i.e. whenever entry_cost > 0 truncates the support to [0, V - g - c].
    """
    check_entry_cost(params, entry_cost)
    if (
        params.revert_rate_base == 0.0
        and params.revert_rate_priority == 0.0
        and entry_cost == 0.0
    ):
        raise DegenerateNoRevertCost(
            "losing is free (r1 = r2 = 0, no entry cost); use pure_equilibrium"
        )
    p_star = abstention(log_rho(params, entry_cost), params.num_agents)[0]
    eq = Equilibrium(params=params, entry_cost=float(entry_cost), abstain_prob=p_star)
    if strict and not eq.boundary_gap <= _NEG_CLAMP:
        raise NumericsError(
            f"CDF at breakeven bid exceeds 1 by {eq.boundary_gap:.3e}; "
            f"support truncates at {eq.support_max}"
        )
    return eq


@dataclass(frozen=True)
class PureEquilibrium:
    """Characterization of the pure equilibria when losing costs nothing:
    the two highest bids both equal top_bid = V - g - c, everything else
    arbitrary (necessarily at or below top_bid once ordered)."""

    params: AuctionParams
    entry_cost: float
    top_bid: float

    def is_equilibrium(self, profile: PureProfile, tol: float = 1e-12) -> bool:
        bids = sorted(
            (a.amount for a in profile.actions if isinstance(a, Bid)), reverse=True
        )
        if len(bids) < 2:
            return False
        return abs(bids[0] - self.top_bid) <= tol and abs(bids[1] - self.top_bid) <= tol


def pure_equilibrium(params: AuctionParams, entry_cost: float = 0.0) -> PureEquilibrium:
    """Pure-strategy equilibrium description, valid only when r1 = r2 = 0.

    Any nonzero revert rate destroys all pure equilibria (some agent always
    has a strictly profitable unilateral deviation).
    """
    if params.revert_rate_base != 0.0 or params.revert_rate_priority != 0.0:
        raise NotApplicable(
            "no pure-strategy equilibrium exists when a revert rate is nonzero"
        )
    check_entry_cost(params, entry_cost)
    return PureEquilibrium(
        params=params,
        entry_cost=float(entry_cost),
        top_bid=params.breakeven_bid - entry_cost,
    )
