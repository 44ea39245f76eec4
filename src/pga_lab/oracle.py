"""Independent numerical verification of the closed forms.

Nothing here reuses an analytics formula as its own check: revenue and payoffs
are re-derived by replaying auctions draw by draw, a candidate strategy is
certified by one call scoring its deviation payoffs, pure-strategy claims are
checked by explicit deviation construction, the 13 signs of p*, E[B*] and F*
by finite differences, and the quantile by bisection against the CDF.

Randomness comes from numpy's Philox counter-based generator. Work is split
into chunks whose size depends only on N, each driven by a SeedSequence-spawned
child stream made as its chunk starts, so results are reproducible bit for bit
regardless of how chunks are scheduled. A replay chunk holds a 1-byte
participation mask and per-row columns; its float64 draws exist one block of
rows at a time, so memory is bounded in N and trials.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from typing import Callable, Iterator, Optional, Union

import numpy as np

from .equilibrium import Equilibrium, check_losing_cost, losing_is_free, solve_equilibrium
from .model import (
    AuctionParams,
    MAX_DRAWS,
    MixedStrategy,
    PureProfile,
    check_seed,
    expected_payoff_vs_symmetric,
    pure_payoff,
)
from .errors import ArgumentOutOfRange, IndexOutOfRange, NumericsError, PgaLabError
from .numerics import bisection_inverse

_CHUNK = 1 << 16  # replay rows per chunk, at most
_BLOCK = 1 << 17  # agent-draws per replay block, at most (one row where N exceeds it)
_N_SE = 3.0  # standard errors a McEstimate may sit off its target
_CERT_GRID = 1000  # bids in certify_equilibrium's deviation grid, and in its support grid
_CERT_TOL = 1e-9  # how far certify_equilibrium lets a supported bid's payoff sit off 0
_BID_TOL = 1e-12  # bid resolution of find_pure_deviation and bisection_quantile
_STEP = 1e-5  # finite-difference step of comparative_statics_check
_SENSITIVITY_BIDS = 9  # interior bids at which comparative_statics_check's F* rows difference F*
_HILLMAN_SAMET_POINTS = 1001  # effective bids at which hillman_samet_check compares CDFs


def _chunk_rows(num_agents: int) -> int:
    """Replay rows per chunk: 2^16, fewer above N = 64 so a chunk holds at
    most MAX_DRAWS = 2^22 agent-draws (a 4 MiB participation mask)."""
    if num_agents > MAX_DRAWS:
        raise ArgumentOutOfRange(f"replay needs num_agents <= {MAX_DRAWS}, got {num_agents}")
    return min(_CHUNK, MAX_DRAWS // num_agents)


def _chunk_rngs(seed: int, n_chunks: int) -> Iterator[np.random.Generator]:
    """The streams of SeedSequence(seed).spawn(n_chunks), each made only when
    its chunk starts, so the generators alive do not grow with the trials."""
    for i in range(n_chunks):
        child = np.random.SeedSequence(seed, spawn_key=(i,))
        yield np.random.Generator(np.random.Philox(child))


@dataclass(frozen=True)
class McEstimate:
    mean: float
    std_error: float
    trials: int
    seed: int
    max_abs: float = 0.0  # the largest |x| summed, or term an x was a difference of

    def within(self, target: float) -> bool:
        """|mean - target| is at most three standard errors plus four ulps of
        the largest of |mean|, |target| and max_abs.

        The ulps matter where every trial gives the same x, so the standard
        error is 0: the mean of the copies of x can be off x in its last bits.
        Where each x is a difference of larger terms (a payoff V - g - b), x
        carries their rounding, up to an ulp of max_abs each, and at a huge V
        the mean of those roundings can sit several standard errors off.
        """
        size = max(abs(self.mean), abs(target), self.max_abs)
        rounding = 4.0 * sys.float_info.epsilon * size
        return abs(self.mean - target) <= _N_SE * self.std_error + rounding


@dataclass(frozen=True)
class ReplayReport:
    """Monte Carlo estimates from full auction replay."""

    revenue: McEstimate
    base_revenue: McEstimate
    priority_revenue: McEstimate
    submitted_txs: McEstimate
    per_agent_payoff: McEstimate
    trials: int
    seed: int


class _Acc:
    """Streaming mean/variance accumulator (sum and sum of squares) of x / 2^e,
    with the largest |x| / 2^e or term / 2^e that an x was a difference of.

    A power-of-two scale is exact, so the estimate has the bits of the
    unscaled sums wherever those neither overflow nor underflow; with 2^e
    near the size of x they do neither, at any scale the validators accept.
    """

    __slots__ = ("s", "s2", "n", "e", "top")

    def __init__(self, e: int = 0) -> None:
        self.s = 0.0
        self.s2 = 0.0
        self.n = 0
        self.e = e
        self.top = 0.0

    def add(self, x: np.ndarray, term: float = 0.0) -> None:
        """Add the values x, each a difference of terms at most term in size."""
        x = np.ldexp(x, -self.e)
        self.s += float(x.sum())
        self.s2 += float((x * x).sum())
        self.n += x.size
        self.top = max(self.top, float(x.max()), -float(x.min()), math.ldexp(term, -self.e))

    def estimate(self, seed: int) -> McEstimate:
        mean = self.s / self.n
        var = max(self.s2 / self.n - mean * mean, 0.0)
        se = math.sqrt(var / self.n)
        return McEstimate(mean=math.ldexp(mean, self.e), std_error=math.ldexp(se, self.e),
                          trials=self.n, seed=seed, max_abs=math.ldexp(self.top, self.e))


def _chunk_columns(eq: Equilibrium, rng: np.random.Generator, m: int, n: int) -> tuple:
    """Per-row columns of one replay chunk of m auctions among n agents: the
    participant count, agent 0's participation, the winner, the top bid, the
    bid sum and agent 0's bid (0 where it abstains).

    The uniforms come in monte_carlo_replay's order, drawn in blocks of
    max(1, _BLOCK // n) rows that continue the one stream; each block of bid
    uniforms is priced and reduced to its rows' columns before the next is
    drawn.
    """
    step = max(1, _BLOCK // n)
    blocks = [slice(r, min(r + step, m)) for r in range(0, m, step)]
    part = np.empty((m, n), dtype=bool)
    for s in blocks:
        np.greater_equal(rng.random((s.stop - s.start, n)), eq.abstain_prob, out=part[s])
    k = part.sum(axis=1)
    # bids are >= 0, so an abstainer's 0 can tie only a top bid of 0: a row
    # with no tie to draw has one bid at its top, or n zeros if nobody enters
    untied = np.where(k > 0, 1, n)
    winner = np.empty(m, dtype=np.intp)
    b_max, sum_bids, b0 = np.empty(m), np.empty(m), np.empty(m)
    tied = []  # (row, the participants at its top bid) of each tie row
    for s in blocks:
        mask = part[s]
        # only the participants' bid uniforms go through the quantile; flat
        # indices cost a fraction of a boolean mask over a random pattern,
        # and the block's uniforms are freed before the quantile runs
        at = np.flatnonzero(mask)
        priced = eq._quantile_arr(rng.random(mask.shape).reshape(-1).take(at))
        bids = np.zeros(mask.shape)  # an abstainer adds nothing to the bid sums
        bids.reshape(-1)[at] = priced
        w = bids.argmax(axis=1, out=winner[s])
        top = bids[np.arange(len(w)), w]
        b_max[s], b0[s] = top, bids[:, 0]
        bids.sum(axis=1, out=sum_bids[s])
        at_top = bids == top[:, None]
        if np.count_nonzero(at_top) > untied[s].sum():  # a tie, rare: find its rows
            for row in np.nonzero(at_top.sum(axis=1) > untied[s])[0]:
                # the tie draw is among the participants at the top bid
                tied.append((s.start + row, np.nonzero(mask[row] & at_top[row])[0]))
    for row, idxs in tied:
        winner[row] = idxs[rng.integers(len(idxs))] if len(idxs) > 1 else idxs[0]
    return k, part[:, 0].copy(), winner, b_max, sum_bids, b0


def monte_carlo_replay(
    params: AuctionParams, trials: int, seed: int, entry_cost: float = 0.0
) -> ReplayReport:
    """Replay independent auctions under the symmetric equilibrium
    solve_equilibrium(params, entry_cost).

    Each agent independently abstains with probability p* or draws a bid from
    F*. The highest bid wins (ties, a probability-zero event, are broken at
    random); the sequencer collects g + b_w from the winner, r1 g + r2 b_j
    from every losing participant, and the entry cost c from every
    participant. Per-agent payoff is tracked for agent 0; by symmetry its
    mean estimates every agent's payoff.

    Trials run in chunks of min(2^16, 2^22 // N) rows, each on its own child
    stream (the i-th of SeedSequence(seed).spawn, made only as chunk i
    starts), so no generator is made ahead of its chunk. A chunk draws all
    its participation uniforms, then all its bid uniforms, then one tie draw
    per tied row in row order; only the participants' bid uniforms go
    through the quantile. A chunk holds a 1-byte participation mask (at most
    2^22 agent-draws, 4 MiB) and per-row columns; its float64 draws exist one
    block of at most 2^17 agent-draws (1 MiB an array) at a time, or one row
    where N exceeds 2^17. So memory stays bounded in N and trials, and the
    reports do not depend on the block size. A trials that is not an int of
    at least 1, a bad seed or N above 2^22 raises ArgumentOutOfRange first.
    """
    if isinstance(trials, bool) or not isinstance(trials, (int, np.integer)) or trials < 1:
        raise ArgumentOutOfRange(f"trials must be an int >= 1, got {trials!r}")
    check_seed(seed)
    p = params
    n = p.num_agents
    rows = _chunk_rows(n)
    eq = solve_equilibrium(p, entry_cost)
    rg = p.revert_rate_base * p.base_fee
    r2 = p.revert_rate_priority
    c = eq.entry_cost

    # the money sums run in units of V's binary exponent, the count unscaled
    e = math.frexp(p.value)[1]
    acc = {k: _Acc(e) for k in ("rev", "base", "prio", "pay")}
    acc["sub"] = _Acc()
    n_chunks = (trials + rows - 1) // rows
    for i, rng in enumerate(_chunk_rngs(seed, n_chunks)):
        k, part0, winner, b_max, sum_bids, b0 = _chunk_columns(
            eq, rng, min(rows, trials - i * rows), n)
        any_part = k > 0
        base = np.where(any_part, p.base_fee + (k - 1) * rg, 0.0)
        prio = np.where(any_part, b_max + r2 * (sum_bids - b_max), 0.0)
        rev = base + prio + c * k

        win0 = part0 & (winner == 0)
        payoff0 = np.where(
            part0,
            np.where(win0, p.breakeven_bid - b0, -(rg + r2 * b0)) - c,
            0.0,
        )

        # once per chunk: added per block, the pairwise sums would round
        # differently and the reports would depend on the block size
        acc["rev"].add(rev)
        acc["base"].add(base)
        acc["prio"].add(prio)
        acc["sub"].add(k.astype(float))
        acc["pay"].add(payoff0, p.breakeven_bid)  # V - g - b0 at its largest term

    return ReplayReport(
        revenue=acc["rev"].estimate(seed),
        base_revenue=acc["base"].estimate(seed),
        priority_revenue=acc["prio"].estimate(seed),
        submitted_txs=acc["sub"].estimate(seed),
        per_agent_payoff=acc["pay"].estimate(seed),
        trials=trials,
        seed=seed,
    )


@dataclass(frozen=True)
class EquilibriumCertificate:
    max_payoff: float
    min_support_payoff: float
    max_overbid_payoff: float
    passed: bool


def certify_equilibrium(
    params: AuctionParams, strategy: MixedStrategy, entry_cost: float = 0.0
) -> EquilibriumCertificate:
    """Two-sided indifference certificate of a candidate symmetric strategy:
    against N-1 opponents playing it, no bid of a 1,000-bid grid on [0, V - g]
    earns over 1e-9 above the zero abstention payoff, none of 1,000 bids across
    strategy.support earns under -1e-9, and probes above the breakeven bid
    earn strictly less than 0. Too much abstention makes low bids strictly
    profitable; too little makes every supported bid strictly worse than
    abstaining. All 2,004 bids take one payoff call. An equilibrium is
    certified as certify_equilibrium(params, eq.strategy, eq.entry_cost)."""
    probes = params.breakeven_bid * (1.0 + np.array([1e-6, 1e-3, 0.1, 1.0]))
    bids = np.concatenate([np.linspace(0.0, params.breakeven_bid, _CERT_GRID),
                           np.linspace(*strategy.support, _CERT_GRID), probes])
    payoffs = expected_payoff_vs_symmetric(params, strategy, bids, entry_cost)
    deviation, support, probed = np.split(payoffs, [_CERT_GRID, 2 * _CERT_GRID])
    # abstaining is always available and pays exactly zero; a NaN payoff
    # stays NaN, so no certificate passes on it
    max_payoff = max(float(deviation.max()), 0.0)
    min_support, overbid = float(support.min()), float(probed.max())
    return EquilibriumCertificate(
        max_payoff=max_payoff,
        min_support_payoff=min_support,
        max_overbid_payoff=overbid,
        passed=(max_payoff <= _CERT_TOL and min_support >= -_CERT_TOL and overbid < 0.0),
    )


@dataclass(frozen=True)
class PureDeviation:
    agent: int
    action: Optional[float]  # the new bid, or None to abstain
    original_payoff: float
    new_payoff: float

    @property
    def gain(self) -> float:
        return self.new_payoff - self.original_payoff


def _deviation(
    params: AuctionParams, profile: PureProfile, agent: int, action: Optional[float]
) -> PureDeviation:
    original = pure_payoff(params, profile, agent)
    actions = list(profile.actions)
    actions[agent] = action
    new = pure_payoff(params, PureProfile(actions), agent)
    dev = PureDeviation(agent=agent, action=action, original_payoff=original, new_payoff=new)
    if not dev.gain > 0.0:
        raise NumericsError(
            f"constructed deviation is not strictly profitable: agent {agent}, "
            f"{action!r}, gain {dev.gain:.3e}"
        )
    return dev


def find_pure_deviation(params: AuctionParams, profile: PureProfile) -> Optional[PureDeviation]:
    """A strictly profitable unilateral deviation, or None exactly when losing
    is free (r1 g = r2 = 0) and the profile's top two bids equal V - g.

    The construction mirrors the case analysis that rules out pure equilibria
    under any positive losing cost: overbidders abstain, a beatable top bid
    gets overbid below breakeven, a lone breakeven bidder lowers its bid, and
    a breakeven tie abstains (which only breaks even when losing is free).
    """
    b_star = params.breakeven_bid
    free = losing_is_free(params.revert_rate_base * params.base_fee, params.revert_rate_priority)
    n = params.num_agents
    bids = [(b, i) for i, b in enumerate(profile.actions) if b is not None]
    if len(profile.actions) != n:
        raise IndexOutOfRange(f"profile has {len(profile.actions)} actions, expected {n}")

    if not bids:
        # empty auction: any agent wins for sure at half the breakeven bid
        return _deviation(params, profile, 0, 0.5 * b_star)

    b_max = max(amount for amount, _ in bids)
    top = [i for amount, i in bids if amount == b_max]

    if b_max > b_star + _BID_TOL:
        # winning loses money; a top bidder walks away
        return _deviation(params, profile, top[0], None)

    if b_max < b_star - _BID_TOL:
        non_top = [j for j in range(n) if j not in top]
        if non_top:
            # beat the current top at the midpoint toward breakeven
            return _deviation(params, profile, non_top[0], 0.5 * (b_max + b_star))
        # everyone ties at the top: one of them escapes the tie cheaply
        return _deviation(params, profile, top[0], b_max + 0.25 * (b_star - b_max))

    # top bid at breakeven
    if len(top) >= 2:
        if free:
            return None  # exactly the pure equilibria
        return _deviation(params, profile, top[0], None)
    runner_up = max((amount for amount, i in bids if i != top[0]), default=None)
    new_bid = 0.0 if runner_up is None else 0.5 * (runner_up + b_star)
    # the lone breakeven bidder still wins, now at a profit
    return _deviation(params, profile, top[0], new_bid)


@dataclass(frozen=True)
class SignCheck:
    quantity: str
    parameter: str
    derivative: float
    expected: str  # "+", "-", or "0"
    passed: bool


_SIGN = {"+": 1.0, "-": -1.0, "0": 0.0}


def _stencils(x, field: str) -> Iterator[tuple]:
    """(lo, hi, step) of the differences in `field` at x, best first: in N one
    agent up, else one down; in a real parameter central over 2h, else
    forward, else backward over h, halving h from 1e-5 only when none of the
    three fits."""
    if field == "num_agents":
        yield x, x + 1, 1.0
        yield x - 1, x, 1.0
        return
    h = _STEP
    while True:
        yield x - h, x + h, 2.0 * h
        yield x, x + h, h
        yield x - h, x, h
        h *= 0.5


def _admitted(base: AuctionParams, field: str, x) -> Optional[AuctionParams]:
    """base with `field` set to x, or None where solve_equilibrium rejects
    that point at c = 0: AuctionParams refuses it, or losing is free."""
    try:
        p = replace(base, **{field: x})
        check_losing_cost(p.revert_rate_base * p.base_fee, p.revert_rate_priority)
    except PgaLabError:
        return None
    return p


def _difference(base: AuctionParams, field: str,
                fn: Callable[[Equilibrium], Union[float, np.ndarray]], f_base):
    """The finite difference in `field` of fn(solve_equilibrium(p)), where
    f_base is its value at base, over the first stencil of _stencils whose two
    ends solve_equilibrium admits: the validators, not this routine, say where
    a stencil may go. The difference is divided by its nominal step (2h, h or
    one agent)."""
    x = getattr(base, field)
    for lo, hi, step in _stencils(x, field):
        ends = [base if v == x else _admitted(base, field, v) for v in (lo, hi)]
        if None not in ends:
            break
    f_lo, f_hi = (f_base if q is base else fn(solve_equilibrium(q)) for q in ends)
    return (f_hi - f_lo) / step


def comparative_statics_check(base: AuctionParams) -> list[SignCheck]:
    """Finite-difference signs of p* and E[B*] in every parameter, and of F*
    at 9 interior bids in N, V, r1 and r2: 13 SignCheck rows from one table.

    Expected directions: p* rises with N, g, r1, falls with V, and ignores r2
    identically; the expected bid rises with V and falls with N, r1, r2; F*
    rises pointwise with N, r1, r2 and falls with V. An F* row reports its
    extreme against the expected sign: the minimum for "+", else the maximum.

    Caveat established by these very checks: the r1 direction of the bid
    distribution is not global. Raising r1 both shifts the indifference ratio
    up (lower bids) and raises abstention (which pushes the remaining bidders
    toward higher bids); at high markups V - g >> g the abstention channel
    dominates, E[B*] rises with r1 and F* falls with it on part of the
    support. The check reports the true sign either way.

    p* is differenced as p* where it is at most 1/2 at the base, else as
    -(1 - p*): the same derivative, taken from whichever side holds its
    relative accuracy. Above N = 1e9, p* = 1 - 3e-9 and a step in p* itself
    falls below one ulp of 1; at p* = 1e-13 a step in 1 - p* does.
    """
    eq = solve_equilibrium(base)  # raises where the base itself is rejected
    near_one = eq.abstain_prob > 0.5
    grid = np.linspace(0.1, 0.9, _SENSITIVITY_BIDS) * eq.support_max
    table = [
        ("abstain_prob", lambda e: -e.state.one_minus_p if near_one else e.state.p_star,
         {"num_agents": "+", "base_fee": "+", "revert_rate_base": "+", "value": "-",
          "revert_rate_priority": "0"}),
        ("expected_bid", lambda e: e.expected_bid(),
         {"value": "+", "num_agents": "-", "revert_rate_base": "-",
          "revert_rate_priority": "-"}),
        ("cdf_pointwise", lambda e: e._cdf_arr(grid),
         {"num_agents": "+", "value": "-", "revert_rate_base": "+",
          "revert_rate_priority": "+"}),
    ]
    checks = []
    for quantity, fn, expected in table:
        f_base = fn(eq)
        for field, sign in expected.items():
            d = _difference(base, field, fn, f_base)
            extreme = float(np.min(d) if sign == "+" else np.max(d))
            checks.append(SignCheck(quantity=quantity, parameter=field, derivative=extreme,
                                    expected=sign, passed=bool(np.sign(extreme) == _SIGN[sign])))
    return checks


def bisection_quantile(eq: Equilibrium, u: float) -> float:
    """Invert the CDF numerically, to a bid interval of 1e-12; the independent
    check on the algebraic quantile."""
    return bisection_inverse(eq.cdf, u, 0.0, eq.support_max, tol=_BID_TOL)


def hillman_samet_check(value: float, min_outlay: float, num_agents: int) -> float:
    """Cross-check against the classic all-pay auction with a minimum outlay
    and no refunds (Hillman and Samet, 1987).

    That model is the special case r1 = r2 = 1 with base fee g equal to the
    minimum outlay; in terms of the effective bid x = g + b its equilibrium
    CDF is (x/V)^(1/(N-1)) on [g, V]. Returns the maximum absolute deviation
    between our effective-bid CDF and that closed form over the grid.
    AuctionParams rejects a min_outlay outside (0, value).
    """
    params = AuctionParams(value, min_outlay, 1.0, 1.0, num_agents)
    eq = solve_equilibrium(params)
    p = eq.abstain_prob
    xs = np.linspace(min_outlay, value, _HILLMAN_SAMET_POINTS)
    ours = p + (1.0 - p) * eq._cdf_arr(xs - min_outlay)
    reference = (xs / value) ** (1.0 / (num_agents - 1))
    return float(np.abs(ours - reference).max())
