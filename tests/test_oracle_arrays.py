"""The oracle layer on arrays: payoffs over a bid array, the certificate in
one payoff call per grid, and a replay that prices only participants, each
checked with == against the per-point loop it replaces."""

import math
from dataclasses import replace

import numpy as np
import pytest

from pga_lab import (
    AuctionParams,
    Equilibrium,
    MixedStrategy,
    OutOfSupport,
    certify_equilibrium,
    expected_payoff_vs_symmetric,
    monte_carlo_replay,
    solve_equilibrium,
)
from pga_lab import oracle
from pga_lab.oracle import EquilibriumCertificate, ReplayReport

from _util import philox, random_params

# bids across [0, V - g] at V - g = 9, the top itself, overbids and repeats
GRID = np.concatenate([np.linspace(0.0, 9.0, 301), [9.0 * (1 + 1e-6), 18.0, 4.5, 0.0]])


def _assert_array_equals_float_calls(params, array_strategy, float_strategy, bids, cost=0.0):
    payoffs = expected_payoff_vs_symmetric(params, array_strategy, bids, cost)
    assert isinstance(payoffs, np.ndarray) and payoffs.shape == bids.shape
    for b, payoff in zip(bids.tolist(), payoffs.tolist()):
        single = expected_payoff_vs_symmetric(params, float_strategy, b, cost)
        assert type(single) is float and single == payoff


class TestPayoffOnArrays:
    @pytest.mark.parametrize("n", [2, 20, 10**9, 10**12])
    @pytest.mark.parametrize("cost", [0.0, 0.5])
    def test_equilibrium_strategy(self, n, cost):
        params = AuctionParams(10, 1, 0.1, 0.1, n)
        eq = solve_equilibrium(params, cost)
        _assert_array_equals_float_calls(params, eq.strategy, eq.strategy, GRID, cost)
        # a strided view gives the same payoffs as a contiguous copy
        _assert_array_equals_float_calls(params, eq.strategy, eq.strategy, GRID[::3], cost)

    @pytest.mark.parametrize("abstain_prob", [0.0, 0.4, 1.0])
    def test_uniform_lambda_strategy(self, abstain_prob):
        # the float calls go through test_model's scalar lambda, which a
        # one-bid array still passes; the array call needs a numpy cdf
        params = AuctionParams(10, 1, 0.3, 0.8, 7)
        scalar = MixedStrategy(abstain_prob, lambda b: min(max(b / 9.0, 0.0), 1.0),
                               support=(0.0, 9.0))
        array = replace(scalar, cdf=lambda b: np.clip(b / 9.0, 0.0, 1.0))
        _assert_array_equals_float_calls(params, array, scalar, GRID)

    def test_flat_lambda_strategy(self):
        params = AuctionParams(10, 1, 0.2, 0.4, 5)
        scalar = MixedStrategy(0.1, lambda b: min(b, 2.0) / 9.0 if b < 9.0 else 1.0,
                               support=(0.0, 9.0))
        array = replace(scalar, cdf=lambda b: np.where(b < 9.0, np.minimum(b, 2.0) / 9.0, 1.0))
        _assert_array_equals_float_calls(params, array, scalar, GRID)

    def test_cdf_called_once_on_bids_below_support(self):
        seen = []

        def cdf(b):
            seen.append(b.tolist())
            return np.clip(b / 9.0, 0.0, 1.0)

        params = AuctionParams(10, 1, 0.2, 0.4, 5)
        strategy = MixedStrategy(0.5, cdf, support=(0.0, 9.0))
        expected_payoff_vs_symmetric(params, strategy, np.array([1.0, 9.0, 12.0, 3.0]))
        assert seen == [[1.0, 3.0]]
        seen.clear()
        expected_payoff_vs_symmetric(params, strategy, np.array([9.0, 12.0]))
        assert seen == []

    @pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf])
    def test_rejects_any_bad_bid(self, bad):
        params = AuctionParams(10, 1, 0.2, 0.4, 5)
        eq = solve_equilibrium(params)
        with pytest.raises(OutOfSupport):
            expected_payoff_vs_symmetric(params, eq.strategy, np.array([1.0, bad, 2.0]))

    def test_equilibrium_cdf_takes_arrays(self):
        eq = solve_equilibrium(AuctionParams(10, 1, 0.1, 0.1, 20), 0.5)
        bids = np.linspace(0.0, 9.0, 101)
        assert np.array_equal(eq.cdf(bids), eq._cdf_arr(bids))
        scalar = np.array([eq.cdf(b) for b in bids.tolist()])
        assert np.array_equal(eq.cdf(bids), scalar)
        for outside in (-1e-9, 9.0 + 1e-9, math.nan):
            with pytest.raises(OutOfSupport):
                eq.cdf(np.array([1.0, outside]))


def _certify_per_point(params, eq, grid_points=1000, tol=1e-9):
    """certify_equilibrium with one float payoff call per bid, as it was
    written before it took arrays: the reference for the array version."""
    strategy, cost = eq.strategy, eq.entry_cost
    max_payoff = 0.0
    for b in np.linspace(0.0, params.breakeven_bid, grid_points):
        max_payoff = max(max_payoff,
                         expected_payoff_vs_symmetric(params, strategy, float(b), cost))
    min_support = min(
        expected_payoff_vs_symmetric(params, strategy, float(b), cost)
        for b in np.linspace(0.0, eq.support_max, grid_points)
    )
    overbid = max(
        expected_payoff_vs_symmetric(params, strategy, params.breakeven_bid * (1.0 + eps), cost)
        for eps in (1e-6, 1e-3, 0.1, 1.0)
    )
    return EquilibriumCertificate(
        max_payoff=max_payoff,
        min_support_payoff=min_support,
        max_overbid_payoff=overbid,
        passed=(max_payoff <= tol and min_support >= -tol and overbid < 0.0),
    )


def test_certificate_equals_per_point_loop():
    rng = philox(8)
    for i in range(10):
        params = random_params(rng)
        cost = rng.uniform(0.0, 0.5) * params.breakeven_bid if i % 2 else 0.0
        eq = solve_equilibrium(params, cost)
        assert (certify_equilibrium(params, eq.strategy, eq.entry_cost)
                == _certify_per_point(params, eq))


def _replay_reference(params, eq, trials, seed):
    """monte_carlo_replay as it was written before it priced only the
    participants: the quantile on every uniform, masked afterwards."""
    p = params
    n = p.num_agents
    rows = oracle._chunk_rows(n)
    rg = p.revert_rate_base * p.base_fee
    r2 = p.revert_rate_priority
    c = eq.entry_cost
    acc = {k: oracle._Acc() for k in ("rev", "base", "prio", "sub", "pay")}
    n_chunks = (trials + rows - 1) // rows
    for i, rng in enumerate(oracle._chunk_rngs(seed, n_chunks)):
        m = min(rows, trials - i * rows)
        part = rng.random((m, n)) >= eq.abstain_prob
        bids = eq._quantile_arr(rng.random((m, n)))
        masked = np.where(part, bids, -1.0)
        k = part.sum(axis=1)
        any_part = k > 0
        b_max = masked.max(axis=1)
        sum_bids = np.where(part, bids, 0.0).sum(axis=1)
        winner = np.argmax(masked, axis=1)
        ties = (masked == b_max[:, None]).sum(axis=1)
        for row in np.nonzero(any_part & (ties > 1))[0]:
            idxs = np.nonzero(masked[row] == b_max[row])[0]
            winner[row] = idxs[rng.integers(len(idxs))]
        base = np.where(any_part, p.base_fee + (k - 1) * rg, 0.0)
        prio = np.where(any_part, b_max + r2 * (sum_bids - b_max), 0.0)
        rev = base + prio + c * k
        b0 = bids[:, 0]
        part0 = part[:, 0]
        win0 = part0 & (winner == 0)
        payoff0 = np.where(part0, np.where(win0, p.breakeven_bid - b0, -(rg + r2 * b0)) - c, 0.0)
        acc["rev"].add(rev)
        acc["base"].add(base)
        acc["prio"].add(prio)
        acc["sub"].add(k.astype(float))
        acc["pay"].add(payoff0, p.breakeven_bid)
    return ReplayReport(*(acc[k].estimate(seed) for k in ("rev", "base", "prio", "sub", "pay")),
                        trials=trials, seed=seed)


@pytest.mark.parametrize(
    "n, cost, trials",
    [
        (2, 0.2, 70_001),
        (5, 0.2, 70_001),  # 2^16-row chunks in blocks of 26,214, 26,214 and 13,108 rows
        (20, 0.2, 70_001),
        (64, 0.2, 70_001),  # 2^16-row chunks
        (65, 0.2, 70_001),  # 64,527-row chunks
        (1000, 0.2, 9_001),  # 4,194-row chunks
        (300_000, 0.2, 50),  # 13-row chunks, one row a block (N > 2^17 draws)
        # r1 = c = 0: p* = 0, everyone bids, and the quantile runs on the bid
        # uniforms in place, with no gather or scatter
        (8, 0.0, 70_001),
        (20, 0.0, 70_001),
        (64, 0.0, 70_001),
    ],
)
def test_replay_equals_reference_loop(n, cost, trials):
    params = AuctionParams(10.0, 1.0, 0.0, 0.3, n)
    eq = solve_equilibrium(params, cost)
    assert monte_carlo_replay(params, trials, seed=n, entry_cost=cost) == _replay_reference(
        params, eq, trials, seed=n)


@pytest.mark.parametrize("bid", [1.5, 0.0])
def test_replay_equals_reference_loop_on_forced_ties(bid, monkeypatch):
    # every participant bids the same, so every row with two or more
    # participants draws its winner; at a top bid of 0 the abstainers' zeros
    # must not join the draw, and at cost 0 (p* = 0) every agent is in it
    monkeypatch.setattr(Equilibrium, "_quantile_arr", lambda self, u: np.full_like(u, bid))
    params = AuctionParams(10.0, 1.0, 0.0, 0.3, 20)
    for cost in (0.2, 0.0):
        eq = solve_equilibrium(params, cost)
        report = monte_carlo_replay(params, 70_001, seed=3, entry_cost=cost)
        assert report == _replay_reference(params, eq, 70_001, seed=3)
        assert report.per_agent_payoff.std_error > 0.0


@pytest.mark.parametrize("seed", [3, 4, 5, 6])
def test_replay_equals_reference_loop_on_a_single_tie(seed, monkeypatch):
    # at cost 0 (p* = 0) everyone bids, and agents 0 and 1 of the first
    # auction bid the same top bid: the first block holds one bid at the top
    # more than a block without a tie, and that row alone draws its winner
    first = []

    def quantile(self, u):
        x = np.array(u, dtype=float)
        if not first:
            x.reshape(-1)[:2] = 2.0
        first.append(False)
        return x

    monkeypatch.setattr(Equilibrium, "_quantile_arr", quantile)
    params = AuctionParams(10.0, 1.0, 0.0, 0.3, 20)
    eq = solve_equilibrium(params, 0.0)
    report = monte_carlo_replay(params, 20_000, seed=seed)
    first.clear()
    assert report == _replay_reference(params, eq, 20_000, seed=seed)
