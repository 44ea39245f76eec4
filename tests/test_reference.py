"""The closed forms against an independent mpmath reference, N = 2 to 1e12.

The reference evaluates the textbook expressions (p* = rho^(1/(N-1)),
F* = (z^(1/(N-1)) - p*)/(1 - p*), the algebraic quantile, the tail
integrals over b) at 40 significant digits, so their cancellation at large N
costs it nothing. The grid reaches r1 -> 0 and c -> V - g. p*, F* and Q are
also checked at c = (1 - 1e-14)(V - g), and the revenue at a point where
1 - rho is about 1e-14. The expected bids also reach r1 = 0, r2 in {0, 1},
r2 = 1e-300 and r1 = 1e-310 at r2 = 1, and at r2 in {0, 1} they are checked
against closed forms instead of quadrature.
The gap of the raw F* at V - g is checked for c down to 1e-15 (V - g), and
where r1 g + r2 (V - g) is subnormal.
"""

import itertools
import math

import numpy as np
import pytest
from mpmath import mp, mpf

from pga_lab import AuctionParams, expected_winning_bid, revenue_report, scheme2_revenue
from pga_lab.equilibrium import equilibrium_state, solve_equilibrium

V, G, R2 = 10.0, 1.0, 0.1
NS = (2, 20, 10**6, 10**9, 10**12)
R1S = (1e-6, 0.1, 1.0)
CS = (0.0, 0.999 * (V - G))
# p*, F* and Q also at c = (1 - 1e-14)(V - g), where 1 - rho is about 1e-14
C_NEAR_TOP = (1 - 1e-14) * (V - G)
GRID = list(itertools.product(NS, R1S, (*CS, C_NEAR_TOP)))
IDS = [f"N={n:g}-r1={r1:g}-c=" + ("(1-1e-14)(V-g)" if c == C_NEAR_TOP else f"{c:g}")
       for n, r1, c in GRID]
# the expected bids also at r1 = 0 and r2 at its ends, bar the pure game r1 = r2 = c = 0
INTEGRAL_GRID = [
    pytest.param(n, r1, r2, c, id=f"N={n:g}-r1={r1:g}" + (f"-r2={r2:g}" if r2 != R2 else "")
                 + f"-c={c:g}")
    for n, r1, r2, c in itertools.product(NS, (0.0, *R1S), (R2, 0.0, 1.0), CS)
    if r1 + r2 + c > 0.0
] + [pytest.param(n, 0.0, 1e-300, c, id=f"N={n:g}-r1=0-r2=1e-300-c={c:g}")
     for n, c in itertools.product(NS, CS)
] + [
    # log rho = -716 lies below log r2 - 709.78, so r2 e^-t overflows at the
    # lowest nodes of the tail integral, where b = 0
    pytest.param(n, 1e-310, 1.0, 0.0, id=f"N={n:g}-r1=1e-310-r2=1-c=0") for n in NS
]
MAX_OF_K_GRID = list(itertools.product((2, 10**6, 10**12), (0.0, 0.1), (2, 5)))
# the gap at the breakeven bid: rates at 0, tiny and large, and c from 1e-15 (V - g) up,
# where r1 g + r2 (V - g) > 0 (else the gap is inf) and rho <= 1/2
GAP_RATES = (0.0, 1e-6, 0.1, 1.0)
GAP_GRID = [
    pytest.param(n, r1, r2, f * (V - G), id=f"N={n:g}-r1={r1:g}-r2={r2:g}-c={f:g}(V-g)")
    for n, r1, r2, f in itertools.product(NS, GAP_RATES, GAP_RATES, (1e-15, 1e-12, 1e-6, 0.01, 0.4))
    if r1 * G + r2 * (V - G) > 0.0 and (r1 * G + f * (V - G)) / (V - G + r1 * G) <= 0.5
] + [
    # a subnormal r1 g + r2 (V - g): c over it passes the largest double at the
    # larger c, while from N = 20 on the gap stays finite
    pytest.param(n, r1, r2, f * (V - G), id=f"N={n:g}-r1={r1:g}-r2={r2:g}-c={f:g}(V-g)")
    for n, (r1, r2), f in itertools.product(NS[1:], ((1e-310, 0.0), (0.0, 1e-310)),
                                            (1e-15, 1e-12, 1e-6, 0.01, 0.4))
]

CLOSED_REL = 1e-12
PROB_ABS = 1e-12  # on F* and on Q
INTEGRAL_REL = 1e-12
BID_FRACTIONS = (0.0, 1e-6, 1e-3, 0.1, 0.5, 0.9, 0.999)
QUANTILE_POINTS = (0.0, 1e-6, 0.01, 0.3, 0.5, 0.7, 0.99, 1.0)


class Reference:
    """Textbook closed forms in mpmath, at the float inputs of the model."""

    def __init__(self, n: int, r1: float, c: float, r2: float = R2, v: float = V, g: float = G):
        self.n = n
        self.rg = mpf(r1) * g
        self.vg = mpf(v) - g
        self.c = mpf(c)
        self.r2 = mpf(r2)
        self.rho = (self.rg + self.c) / (self.vg + self.rg)
        self.p = self.rho ** (mpf(1) / (n - 1))

    def z(self, b):
        return (self.rg + self.r2 * b + self.c) / (self.vg - b + self.rg + self.r2 * b)

    def cdf(self, b):
        return (self.z(b) ** (mpf(1) / (self.n - 1)) - self.p) / (1 - self.p)

    def quantile(self, u):
        q = (self.p + (1 - self.p) * u) ** (self.n - 1)
        return (q * (self.vg + self.rg) - self.rg - self.c) / (self.r2 * (1 - q) + q)

    def closed_expected_bids(self):
        """E[B*] and E[W] at r2 = 0 or r2 = 1, with no quadrature.

        G = p* + (1 - p*) F* is uniform on [p*, 1], z = G^(N-1), and the bid
        is b = (K z - a)/(r2 + (1 - r2) z) with a = r1 g + c, K = V - g + r1 g:
        K - a/z at r2 = 0 and K z - a at r2 = 1. The winning bid is b(H^(N-1))
        for the top H of N such draws, with CDF H^N, and 0 where H < p*.
        """
        n, p, a, k = self.n, self.p, self.rg + self.c, self.vg + self.rg
        if self.r2 == 0:
            if n == 2:
                bid = k + a * mp.log(p) / (1 - p)
            else:
                bid = k - a * (p ** -(n - 2) - 1) / ((n - 2) * (1 - p))
            return bid, k * (1 - p**n) - a * n * (1 - p)
        assert self.r2 == 1
        return (k * (1 - p**n) / (n * (1 - p)) - a,
                k * n * (1 - p ** (2 * n - 1)) / (2 * n - 1) - a * (1 - p**n))

    def tail_integral(self, f):
        smax = self.vg - self.c
        # breakpoints resolve the log-scale rise of F* near b = 0 when r1 -> 0
        points = [mpf(0)] + [mpf(x) for x in (1e-12, 1e-9, 1e-6, 1e-4, 1e-2, 1.0)
                             if x < smax] + [smax]
        with mp.workdps(30):
            return mp.quad(f, points)


def _rel(actual: float, expected) -> float:
    return abs(mpf(actual) - expected) / abs(expected)


@pytest.fixture(autouse=True)
def _precision():
    with mp.workdps(40):
        yield


@pytest.mark.parametrize("n, r1, c", GRID, ids=IDS)
def test_abstention_probabilities(n, r1, c):
    params = AuctionParams(V, G, r1, R2, n)
    ref = Reference(n, r1, c)
    _, _, p_star, one_minus_p, one_minus_pn, _, _ = equilibrium_state(r1 * G, V - G, n, c)
    assert _rel(solve_equilibrium(params, c).abstain_prob, ref.p) <= CLOSED_REL
    assert _rel(p_star, ref.p) <= CLOSED_REL
    assert _rel(one_minus_p, 1 - ref.p) <= CLOSED_REL
    assert _rel(one_minus_pn, 1 - ref.p**n) <= CLOSED_REL
    assert _rel(scheme2_revenue(params, c), (1 - ref.p**n) * V) <= CLOSED_REL


@pytest.mark.parametrize("n, r1, c", GRID, ids=IDS)
def test_cdf_and_quantile(n, r1, c):
    eq = solve_equilibrium(AuctionParams(V, G, r1, R2, n), c)
    ref = Reference(n, r1, c)
    bids = np.array([f * eq.support_max for f in BID_FRACTIONS])
    from_array = eq._cdf_arr(bids)
    for b, f_arr in zip(bids, from_array):
        expected = ref.cdf(mpf(float(b)))
        assert abs(mpf(eq.cdf(float(b))) - expected) <= PROB_ABS
        assert abs(mpf(float(f_arr)) - expected) <= PROB_ABS
    assert eq.cdf(0.0) == 0.0
    from_array = eq._quantile_arr(np.array(QUANTILE_POINTS))
    for u, b_arr in zip(QUANTILE_POINTS, from_array):
        expected = ref.quantile(mpf(u))
        assert abs(mpf(eq.quantile(u)) - expected) <= PROB_ABS
        assert abs(mpf(float(b_arr)) - expected) <= PROB_ABS
    assert eq.quantile(0.0) == 0.0


@pytest.mark.parametrize("n, r1, r2, c", INTEGRAL_GRID)
def test_expected_bids(n, r1, r2, c):
    """Against the closed forms at r2 in {0, 1}, else against quadrature."""
    params = AuctionParams(V, G, r1, r2, n)
    ref = Reference(n, r1, c, r2)
    if r2 in (0.0, 1.0):
        expected_bid, winning_bid = ref.closed_expected_bids()
    else:
        expected_bid = ref.tail_integral(lambda b: 1 - ref.cdf(b))
        winning_bid = ref.tail_integral(lambda b: 1 - ref.z(b) ** (mpf(n) / (n - 1)))
    assert _rel(solve_equilibrium(params, c).expected_bid(), expected_bid) <= INTEGRAL_REL
    assert _rel(expected_winning_bid(params, c), winning_bid) <= INTEGRAL_REL


@pytest.mark.parametrize("n, r1, r2, c", GAP_GRID)
def test_boundary_gap(n, r1, r2, c):
    """The raw F* at V - g, minus 1: (z(V - g)^(1/(N-1)) - 1)/(1 - p*). At
    c = 1e-15 (V - g), z(V - g) = 1 + c/(r1 g + r2 (V - g)) can lie within
    1e-15 of 1."""
    ref = Reference(n, r1, c, r2)
    expected = (ref.z(ref.vg) ** (mpf(1) / (n - 1)) - 1) / (1 - ref.p)
    assert _rel(solve_equilibrium(AuctionParams(V, G, r1, r2, n), c).boundary_gap, expected) \
        <= CLOSED_REL


@pytest.mark.parametrize("n, r1, k", MAX_OF_K_GRID)
def test_expected_max_of_k_bids(n, r1, k):
    eq = solve_equilibrium(AuctionParams(V, G, r1, R2, n))
    ref = Reference(n, r1, 0.0)
    expected = ref.tail_integral(lambda b: 1 - ref.cdf(b) ** k)
    assert _rel(eq.expected_max_bid(k), expected) <= INTEGRAL_REL


@pytest.mark.parametrize("n", (2, 20, 10**6))
def test_expected_bids_where_e_to_the_log_rho_underflows(n):
    """V = 1e300, r1 = 1e-100, r2 = 0: log rho = -921, so e^t underflows over
    the low end of t = log z. With r2 = c = 0, z(b) = rho / x for
    x = 1 - b/K, K = V - g + r1 g, so the reference integrates over x in
    [rho, 1], where 40 digits hold b = K (1 - x) near the top of the support."""
    params = AuctionParams(1e300, G, 1e-100, 0.0, n)
    eq = solve_equilibrium(params)
    rg = mpf(params.revert_rate_base) * G
    big_k = mpf(params.value) - G + rg
    rho = rg / big_k
    p = rho ** (mpf(1) / (n - 1))

    def mean(survival):
        points = [rho] + [mpf(10) ** -j for j in (12, 6, 3, 2, 1)] + [mpf(1)]
        with mp.workdps(30):
            return big_k * mp.quad(lambda x: survival(rho / x), points)

    def cdf(z):
        return (z ** (mpf(1) / (n - 1)) - p) / (1 - p)

    assert _rel(eq.expected_bid(), mean(lambda z: 1 - cdf(z))) <= INTEGRAL_REL
    assert _rel(eq.expected_max_bid(2), mean(lambda z: 1 - cdf(z) ** 2)) <= INTEGRAL_REL
    assert _rel(expected_winning_bid(params), mean(lambda z: 1 - z ** (mpf(n) / (n - 1)))) \
        <= INTEGRAL_REL


@pytest.mark.parametrize(
    "n, r1, v, g, r2",
    [pytest.param(n, r1, V, G, R2, id=f"{n}-{r1}") for n, r1 in itertools.product(NS, R1S)]
    # r1 g is about 1e14 (V - g), so 1 - rho is about 1e-14: log rho as a difference of two
    # logs leaves 1 - p*^N 4.6 % off here
    + [pytest.param(1809, 0.21537769972266538, 88253291.42257224, 88253291.42257205, 4.449e-7,
                    id="rho-1e-14-below-1")],
)
def test_revenue_report(n, r1, v, g, r2):
    """Every field, the priority split and its limit included: both cancel as
    rho -> 1 unless they are formed from expm1(y) - y."""
    rep = revenue_report(AuctionParams(v, g, r1, r2, n))
    ref = Reference(n, r1, 0.0, r2, v, g)
    participation = 1 - ref.p**n
    excess_losers = (1 - ref.p) * n - participation
    expected = {
        "abstain_prob": ref.p,
        "participation_prob": participation,
        "expected_revenue": participation * v,
        "base_revenue": participation * g + excess_losers * ref.rg,
        "expected_submitted_txs": (1 - ref.p) * n,
        "priority_revenue": participation * ref.vg - excess_losers * ref.rg,
    }
    for field, value in expected.items():
        assert _rel(getattr(rep, field), value) <= CLOSED_REL, field
    s_inf = mp.log(1 + ref.vg / ref.rg)
    p_inf = ref.vg / (ref.vg + ref.rg)
    limits = {
        "revenue": v * p_inf,
        "base_revenue": g * p_inf * (1 - mpf(r1)) + ref.rg * s_inf,
        "submitted_txs": s_inf,
        "priority_revenue": ref.vg - ref.rg * s_inf,
    }
    for field, value in limits.items():
        assert _rel(getattr(rep.limits, field), value) <= CLOSED_REL, field


@pytest.mark.parametrize("g", [1e-300, 1e-10], ids=["r1-g-underflows", "V-g-over-r1-g-overflows"])
def test_revenue_limits_where_r1_g_is_tiny(g):
    """The N -> infinity limits p_inf = (V - g)/(V - g + r1 g) and
    s_inf = log1p((V - g)/(r1 g)) at r1 = 1e-300. With g = 1e-300, r1 g
    rounds to 0, so the float game is the full-participation one and the
    submitted count is unbounded; with g = 1e-10, (V - g)/(r1 g) overflows
    while s_inf = -log rho = 716.1 does not."""
    r1 = 1e-300
    limits = revenue_report(AuctionParams(V, g, r1, 0.5, 5)).limits
    rg, vg = mpf(r1) * g, mpf(V) - g
    p_inf, s_inf = vg / (vg + rg), mp.log1p(vg / rg)
    assert _rel(limits.revenue, V * p_inf) <= CLOSED_REL
    assert _rel(limits.base_revenue, g * p_inf * (1 - r1) + rg * s_inf) <= CLOSED_REL
    assert _rel(limits.priority_revenue, vg - rg * s_inf) <= CLOSED_REL
    if r1 * g == 0.0:
        assert limits.submitted_unbounded and limits.submitted_txs == math.inf
    else:
        assert not limits.submitted_unbounded
        assert _rel(limits.submitted_txs, s_inf) <= CLOSED_REL
