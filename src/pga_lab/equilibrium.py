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

With r1 g = r2 = 0 and c = 0 losing is free and the game instead has the pure
equilibria whose top bid pure_equilibrium returns: the top two bids both equal
the breakeven bid V - g.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

from .errors import (
    ArgumentOutOfRange,
    DegenerateNoRevertCost,
    NotApplicable,
    NumericsError,
    OutOfSupport,
)
from .model import AuctionParams, MixedStrategy, check_entry_cost

if TYPE_CHECKING:
    import numpy as np

_NEG_CLAMP = 1e-12  # residue window treated as float noise, not a formula bug
# with rho = 0 the integrand of a tail integral falls like e^t below t = log r2,
# so cutting it off this far below leaves out a share e^-45 < 3e-20
_TAIL_CUTOFF = 45.0
_LOG_MAX = math.log(sys.float_info.max)  # math.exp and math.expm1 overflow above it


def _log(x: float) -> float:
    """math.log with log(0) = -inf, as np.log gives."""
    return math.log(x) if x > 0.0 else -math.inf


def log_ratio(rg, vg, c=0.0, r2=0.0, b=0.0, log=_log):
    """log z(b) = log(r1 g + r2 b + c) - log(V - g - b + r1 g + r2 b).

    rg = r1 g and vg = V - g. At b = 0 this is log rho, the one input of the
    closed form. Scalars go through math (equilibrium_state); pass log=np.log
    for arrays (F*). The two logs can differ in the last bit, so F*(0) = 0 is not
    left to this expression: Equilibrium.cdf pins it.
    """
    r2b = r2 * b
    return log(rg + r2b + c) - log(vg - b + rg + r2b)


class EquilibriumState(NamedTuple):
    """The constants every closed form is built from, at (r1 g, V - g, c, N).

    Fields are floats for one equilibrium, or numpy columns with one
    equilibrium per row (market._price_auctions stacks per-auction states).
    """

    log_rho: float  # log((r1 g + c) / (V - g + r1 g)); -inf when r1 g = c = 0
    rho: float
    p_star: float  # rho^(1/(N-1))
    one_minus_p: float
    one_minus_pn: float  # 1 - p*^N
    scale: float  # K = V - g + r1 g, the scale of the inverse bid b(z)
    top: float  # V - g - c, the top of the bid support


def equilibrium_state(rg, vg, num_agents, c=0.0, xp=math) -> EquilibriumState:
    """The EquilibriumState at rg = r1 g, vg = V - g, N and entry cost c.

    The complements 1 - p* and 1 - p*^N come from expm1, so they keep full
    relative accuracy as p* -> 1 at large N. xp is math for scalars or numpy
    for arrays; the two can differ in the last bit, so a per-row state that
    must match its scalar one is built with math and stacked.
    """
    lr = log_ratio(rg, vg, c, log=_log if xp is math else xp.log)
    x = lr / (num_agents - 1)
    return EquilibriumState(lr, xp.exp(lr), xp.exp(x), -xp.expm1(x),
                            -xp.expm1(lr * num_agents / (num_agents - 1)), vg + rg, vg - c)


# the 48-node Gauss-Legendre rule on [-1, 1]: numpy.polynomial.legendre.leggauss(48),
# bit for bit, written out so that the scalar integrals need neither numpy nor
# its 48x48 eigenproblem
_LEGENDRE_NODES = (
    -0.9987710072524261, -0.9935301722663508, -0.9841245837228269, -0.9705915925462473,
    -0.9529877031604308, -0.9313866907065543, -0.9058791367155696, -0.8765720202742479,
    -0.8435882616243935, -0.8070662040294426, -0.7671590325157404, -0.7240341309238146,
    -0.6778723796326639, -0.6288673967765136, -0.5772247260839727, -0.523160974722233,
    -0.4669029047509584, -0.4086864819907167, -0.3487558862921607, -0.28736248735545555,
    -0.22476379039468905, -0.1612223560688917, -0.0970046992094627, -0.03238017096286937,
    0.03238017096286937, 0.0970046992094627, 0.1612223560688917, 0.22476379039468905,
    0.28736248735545555, 0.3487558862921607, 0.4086864819907167, 0.4669029047509584,
    0.523160974722233, 0.5772247260839727, 0.6288673967765136, 0.6778723796326639,
    0.7240341309238146, 0.7671590325157404, 0.8070662040294426, 0.8435882616243935,
    0.8765720202742479, 0.9058791367155696, 0.9313866907065543, 0.9529877031604308,
    0.9705915925462473, 0.9841245837228269, 0.9935301722663508, 0.9987710072524261,
)
_LEGENDRE_WEIGHTS = (
    0.0031533460523098414, 0.007327553901276135, 0.011477234579234614, 0.015579315722943226,
    0.019616160457356056, 0.023570760839324047, 0.027426509708357034, 0.031167227832798097,
    0.034777222564770394, 0.0382413510658305, 0.04154508294346455, 0.04467456085669423,
    0.04761665849249024, 0.0503590355538542, 0.05289018948519344, 0.05519950369998403,
    0.057277292100402916, 0.059114839698395344, 0.0607044391658936, 0.06203942315989242,
    0.06311419228625373, 0.06392423858464787, 0.06446616443594982, 0.06473769681268365,
    0.06473769681268365, 0.06446616443594982, 0.06392423858464787, 0.06311419228625373,
    0.06203942315989242, 0.0607044391658936, 0.059114839698395344, 0.057277292100402916,
    0.05519950369998403, 0.05289018948519344, 0.0503590355538542, 0.04761665849249024,
    0.04467456085669423, 0.04154508294346455, 0.0382413510658305, 0.034777222564770394,
    0.031167227832798097, 0.027426509708357034, 0.023570760839324047, 0.019616160457356056,
    0.015579315722943226, 0.011477234579234614, 0.007327553901276135, 0.0031533460523098414,
)


def _panel_ends(t_min: float, kink: float, finest: float) -> list[float]:
    """Panel ends on [t_min, 0]: t_min, 0, the kink t* when it lies inside,
    and the points finest, 2 finest, 4 finest, ... away from 0, from t_min
    and from t*.

    The weights peak at t = 0, b(e^t) rises from 0 over a unit of t above
    t_min = log rho, and it bends at t* = log(r2/(1 - r2)), so panels that
    double in width away from these three points keep each panel resolved.
    """
    centres = [0.0, t_min] + ([kink] if t_min < kink < 0.0 else [])
    doublings = max(math.ceil(math.log2(-t_min / finest)), 0) + 1
    offsets = [0.0] + [side * finest * 2.0**j for j in range(doublings) for side in (1.0, -1.0)]
    ends = {t_min} | {c + d for c in centres for d in offsets}
    return sorted(e for e in ends if t_min <= e <= 0.0)


def losing_is_free(rg: float, r2: float, entry_cost: float = 0.0) -> bool:
    """r1 g + c = 0 and r2 = 0: the pure equilibria hold, not the mixed one.

    It takes r1 g, not r1: a subnormal r1 times g can round to 0, leaving rho = 0.
    """
    return rg + entry_cost == 0.0 and r2 == 0.0


def check_losing_cost(rg: float, r2: float, entry_cost: float = 0.0) -> None:
    """The mixed equilibrium needs a positive losing cost: r1 g + c > 0 or r2 > 0."""
    if losing_is_free(rg, r2, entry_cost):
        raise DegenerateNoRevertCost(
            "losing is free (r1 g = r2 = 0, no entry cost), so there is no mixed "
            "equilibrium; pure_equilibrium describes the game at r1 g = r2 = 0"
        )


def _bid(x, offset, scale, r2):
    """scale x / ((1 - r2) x + offset), with scale = K = V - g + r1 g: in
    place on an array x, or a new float for a float x.

    The supported bid at z is b(z) = K (z - rho) / (r2 + (1 - r2) z), the
    algebraic inverse of z(b). With x = z - rho this is the offset
    r2 + (1 - r2) rho; divided through by z it is x = 1 - rho/z and the
    offset (r2 + (1 - r2) rho)/z.
    """
    den = x * (1.0 - r2)
    den += offset
    x *= scale
    x /= den
    return x


def bid_quantile(u, state: EquilibriumState, m, r2):
    """Q(u) on a working copy of u in [0, 1]: the one quantile formula.

    q = (p* + (1-p*)u)^m with m = N - 1, and the bid is b(q) clipped to
    [0, top], top = V - g - c. The state's fields are scalars for one
    equilibrium, or (n, 1) columns with one auction per row that u's rows
    broadcast against. p* must be positive on every row or on none (rho = 0).
    """
    import numpy as np

    x = np.array(u, dtype=float)
    if np.all(state.p_star > 0.0):
        # log(q / rho) = m log1p(u (1-p*)/p*), then x = q - rho
        x *= state.one_minus_p / state.p_star
        np.log1p(x, out=x)
        x *= m
        np.expm1(x, out=x)
        x *= state.rho
    else:  # r1 g + c = 0 or p* underflows, so rho = 0 and x = q = u^m
        np.power(x, m, out=x)
    _bid(x, r2 + (1.0 - r2) * state.rho, state.scale, r2)
    return np.clip(x, 0.0, state.top, out=x)


@dataclass(frozen=True)
class Equilibrium:
    """Symmetric mixed equilibrium for given params and flat entry cost.

    state holds the closed form's constants (equilibrium_state); the CDF, the
    quantile and the tail integrals read them from there.
    """

    params: AuctionParams
    entry_cost: float
    state: EquilibriumState

    @property
    def abstain_prob(self) -> float:
        """p*, the probability that an agent abstains."""
        return self.state.p_star

    @property
    def support_max(self) -> float:
        """Upper end of the bid support: V - g - c, where the CDF hits 1."""
        return self.state.top

    @property
    def boundary_gap(self) -> float:
        """Raw CDF value at the breakeven bid V - g, minus one, reported rather
        than renormalized away: zero when c = 0, positive when c > 0 shrinks
        the support to [0, V - g - c]. As z(V - g) = 1 + c/d, d = r1 g + r2 (V - g),
        it is expm1(log1p(c/d)/(N - 1))/(1 - p*), with log z = log c - log d where
        c/d overflows (the log1p(d/c) it drops is then below an ulp); inf at d = 0
        and where the gap passes the largest double."""
        p, c, one_minus_p = self.params, self.entry_cost, self._one_minus_p()
        d = p.revert_rate_base * p.base_fee + p.revert_rate_priority * p.breakeven_bid
        if d == 0.0:
            return math.inf
        log_z = math.log1p(c / d) if c / d < math.inf else math.log(c) - math.log(d)
        t = log_z / (p.num_agents - 1)
        return math.expm1(t) / one_minus_p if t <= _LOG_MAX else math.inf

    def _one_minus_p(self) -> float:
        """1 - p*, or NumericsError where it rounds to 0 and F* is undefined."""
        one_minus_p = self.state.one_minus_p
        if one_minus_p == 0.0:
            raise NumericsError(
                f"F* is undefined at {self.params} with c = {self.entry_cost!r}: "
                "rho = (r1 g + c)/(V - g + r1 g) rounds to 1, so 1 - p* = 0"
            )
        return one_minus_p

    def _f_of_log_z(self, t, xp=math):
        """F* at t = log z: (e^(t/(N-1)) - p*) / (1 - p*), written as
        (expm1(t/(N-1)) + 1 - p*) / (1 - p*) so that it does not cancel as
        p* -> 1. xp is math for a float t or numpy for an array, as in
        equilibrium_state."""
        one_minus_p = self._one_minus_p()
        return (xp.expm1(t / (self.params.num_agents - 1)) + one_minus_p) / one_minus_p

    def _f_star(self, b: np.ndarray) -> np.ndarray:
        """Raw F*(b) on an array of bids, unclipped, with log z(b) from log_ratio."""
        import numpy as np

        p = self.params
        return self._f_of_log_z(log_ratio(p.revert_rate_base * p.base_fee, p.breakeven_bid,
                                          self.entry_cost, p.revert_rate_priority, b, np.log), np)

    def _cdf_arr(self, b: np.ndarray) -> np.ndarray:
        """F* on an array of bids in [0, V - g]: the raw formula clipped to
        [0, 1] inside the support, and pinned at its ends, exactly 0 at b = 0
        and exactly 1 on [V - g - c, V - g], which the raw formula meets only
        to rounding."""
        import numpy as np

        top = self.support_max
        b = np.clip(b, 0.0, top)
        with np.errstate(divide="ignore"):
            raw = np.asarray(self._f_star(b))  # a 0-d b gives a scalar
        # fmin passes over NaN, where min would return it
        low = np.fmin.reduce(raw, axis=None, initial=np.inf)
        if low < -_NEG_CLAMP:
            raise NumericsError(f"CDF residue below clamp window: min raw value {low:.3e}")
        np.clip(raw, 0.0, 1.0, out=raw)
        raw[~(b > 0.0)] = 0.0
        raw[b >= top] = 1.0
        return raw

    def cdf(self, b):
        """F*(b) for a bid or an array of bids in [0, V - g], through _cdf_arr:
        a float in gives a float out. Exactly 0 at b = 0 and exactly 1 on
        [V - g - c, V - g]."""
        import numpy as np

        bids = np.asarray(b, dtype=float)
        vg = self.params.breakeven_bid
        outside = bids[~((bids >= -_NEG_CLAMP) & (bids <= vg + _NEG_CLAMP))]
        if outside.size:
            raise OutOfSupport(f"bid {outside[0]} outside [0, {vg}]")
        f = self._cdf_arr(bids)
        return float(f) if f.ndim == 0 else f

    def _quantile_arr(self, u: np.ndarray) -> np.ndarray:
        """Q(u) for an array of u in [0, 1]; see bid_quantile."""
        p = self.params
        return bid_quantile(u, self.state, p.num_agents - 1, p.revert_rate_priority)

    def quantile(self, u: float) -> float:
        """Exact algebraic inverse of the CDF.

        With q = (p* + (1-p*)u)^(N-1), the supported bid solving F*(b) = u is
        b = (q (V-g+r1 g) - r1 g - c) / (r2 (1-q) + q)
          = (V-g+r1 g)(q - rho) / (r2 + (1-r2) q),
        the second form free of cancellation.
        """
        if not 0.0 <= u <= 1.0:
            raise OutOfSupport(f"quantile argument {u} outside [0, 1]")
        self._one_minus_p()  # the bid law is undefined where 1 - p* = 0, as F* is
        return float(self._quantile_arr(u))

    def sample_bids(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Vectorized bid draws conditional on participation."""
        self._one_minus_p()
        return self._quantile_arr(rng.random(size))

    def _tail_integral(self, weight, finest: float = 1.0) -> float:
        """The integral of b(e^t) weight(t) dt over t = log z in [log rho, 0].

        b(e^t) is _bid divided through by z = e^t: K x / ((1 - r2) x + offset)
        with x = -expm1(log rho - t) and offset = r2 e^-t + (1 - r2) e^(log rho - t).
        It needs no branch at rho = 0 or r2 = 0, does not cancel as rho -> 1,
        and holds where e^t underflows (log rho < -745); where r2 e^-t
        overflows it gives b = 0, against a true b below K e^-709. A bid whose
        CDF is G(z(b)) has mean E = integral of b dG, which is this integral
        with weight dG/dt.

        weight takes and returns a float. The rule is 48-node Gauss-Legendre
        on the panels of _panel_ends, its terms added by math.fsum;
        finest is the narrowest panel next to t = 0, for weights that peak
        more sharply there than e^t. With rho = 0 the range starts at
        log r2 - _TAIL_CUTOFF; solve_equilibrium rejects rho = r2 = 0.
        """
        self._one_minus_p()  # the bid law is undefined where 1 - p* = 0, as F* is
        r2, lr, scale = self.params.revert_rate_priority, self.state.log_rho, self.state.scale
        log_r2 = _log(r2)
        t_min = lr if lr > -math.inf else log_r2 - _TAIL_CUTOFF
        ends = _panel_ends(t_min, log_r2 - _log(1.0 - r2), finest)
        terms = []
        for start, end in zip(ends, ends[1:]):
            half = (end - start) / 2.0
            for x, w in zip(_LEGENDRE_NODES, _LEGENDRE_WEIGHTS):
                t = (start + half) + half * x
                s = lr - t  # log(rho/z)
                if log_r2 - t > _LOG_MAX:  # r2/z beyond float range, far below log r2: b = 0
                    continue
                offset = math.exp(log_r2 - t) + (1.0 - r2) * math.exp(s)
                terms.append(_bid(-math.expm1(s), offset, scale, r2) * weight(t) * (half * w))
        return math.fsum(terms)

    def expected_bid(self) -> float:
        """E[B*] for B* ~ F*."""
        return self.expected_max_bid(1)

    def expected_max_bid(self, k: int) -> float:
        """E[max of k i.i.d. draws from F*].

        In t = log z, F = (e^(t/(N-1)) - p*)/(1 - p*), so the max of k has
        density k F^(k-1) e^(t/(N-1)) / ((N-1)(1 - p*)) on [log rho, 0], and
        its mean is the integral of b(e^t) against it (see _tail_integral).
        F^(k-1) rises over the last (N-1)(1 - p*)/k of the range, which sets
        the finest panel.
        """
        if k < 1:
            raise ArgumentOutOfRange(f"k must be >= 1, got {k}")
        one_minus_p = self._one_minus_p()
        m = self.params.num_agents - 1
        scale = k / (m * one_minus_p)

        def density(t):
            return scale * self._f_of_log_z(t) ** (k - 1) * math.exp(t / m)

        return self._tail_integral(density, min(1.0, m * one_minus_p / k))

    @property
    def strategy(self) -> MixedStrategy:
        return MixedStrategy(
            abstain_prob=self.abstain_prob,
            participation=self.state.one_minus_p,
            cdf=self.cdf,
            support=(0.0, self.support_max),
        )


def solve_equilibrium(params: AuctionParams, entry_cost: float = 0.0) -> Equilibrium:
    """Solve for the symmetric mixed equilibrium.

    entry_cost = 0 is the baseline game; entry_cost > 0 charges every
    participant a flat fee (paid win or lose) on top of any revert penalty,
    and truncates the support to [0, V - g - c] (see boundary_gap).
    """
    check_entry_cost(params, entry_cost)
    rg = params.revert_rate_base * params.base_fee
    check_losing_cost(rg, params.revert_rate_priority, entry_cost)
    c = float(entry_cost)
    return Equilibrium(params, c, equilibrium_state(rg, params.breakeven_bid, params.num_agents, c))


def pure_equilibrium(params: AuctionParams) -> float:
    """The top bid V - g of the pure equilibria, valid only when losing is free
    (r1 g = r2 = 0): the two highest bids both equal it, and every other bid
    is arbitrary at or below it.

    Any positive revert cost or entry cost destroys all pure equilibria (some
    agent always has a strictly profitable unilateral deviation); there
    solve_equilibrium gives the mixed one.
    """
    if not losing_is_free(params.revert_rate_base * params.base_fee, params.revert_rate_priority):
        raise NotApplicable("no pure-strategy equilibrium exists when r1 g or r2 is nonzero")
    return params.breakeven_bid
