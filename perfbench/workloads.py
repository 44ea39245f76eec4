"""The benchmark's workloads: the pga-lab CLI invocation of each, its size,
and the checks that decide whether one invocation's output is correct.

Every check compares against tolerances or an independent reference, never
against frozen bytes, so a change that makes the numerics more accurate still
passes. Byte-for-byte reproducibility is checked separately, by comparing the
digest of each invocation's output with the first one of the same run.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
from mpmath import mp, mpf

# Auction parameters shared by both sweeps.
V, G, R1, R2 = 10.0, 1.0, 0.1, 0.1
AUCTION_FLAGS = ["--V", "10", "--g", "1", "--r1", "0.1", "--r2", "0.1"]

# N = 2..500 makes 99,800 rows (4.3 MB). At N = 2..2000 (400k rows, 17 MB) too
# few invocations fit in one run to give a steady median on a shared machine.
CDF_N = range(2, 501)
CDF_GRID = 200
CDF_MPMATH_ROWS = 64  # rows per check compared with the mpmath reference
CDF_ABS_TOL = 1e-9

TAX_TAUS = (0.5, 2.0, 10.0)
TAX_NS = (2, 5, 20, 100, 1000, 10000, 100000)
TAX_REL_TOL = 1e-7

SIM = {"sigma": 0.05, "T": 100.0, "block-time": 0.01, "p0": 100.0, "f": 0.003,
       "L": 10.0, "g": 0.1, "r1": 1.0, "r2": 1.0, "N": 10}
SIM_BLOCKS = 10_000
SIM_REL_TOL = 1e-9
FEE_BAND_TOL = 1e-12

VERIFY_SEED = 42
VERIFY_CHECKS = 12


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    items: int  # rows written, blocks simulated or checks run per invocation
    item_unit: str
    outputs: tuple[str, ...]  # file names the invocation writes into its output dir
    argv: Callable[[int, Path], list[str]]  # (seed, out dir) -> pga-lab arguments
    check: Callable[[Path, str, int], list[str]]  # (out dir, stdout, seed) -> problems
    digest: Callable[[Path, str], str]  # (out dir, stdout) -> reproducibility digest


def files_digest(names: tuple[str, ...]) -> Callable[[Path, str], str]:
    def digest(out: Path, stdout: str) -> str:
        h = hashlib.sha256()
        for name in names:
            h.update(name.encode() + b"\0")
            h.update((out / name).read_bytes())
        return h.hexdigest()

    return digest


def _rel_err(value: float, ref: float) -> float:
    return abs(value - ref) / abs(ref) if ref else abs(value)


# ---------------------------------------------------------------- cdf-sweep

def cdf_reference_f64(n: np.ndarray, b: np.ndarray) -> np.ndarray:
    """F*(b) in float64 through expm1, which avoids the cancellation of
    z^(1/(N-1)) - p* for large N."""
    rg = R1 * G
    log_rho = math.log(rg / (V - G + rg))
    z = (rg + R2 * b) / (V - G - b + rg + R2 * b)
    c = np.expm1(log_rho / (n - 1))
    a = np.expm1(np.log(z) / (n - 1))
    return (a - c) / -c


def cdf_reference_mp(n: int, b: float) -> mpf:
    rg = mpf(R1) * G
    rho = rg / (V - G + rg)
    p = rho ** (mpf(1) / (n - 1))
    bb = mpf(b)
    z = (rg + mpf(R2) * bb) / (V - G - bb + rg + mpf(R2) * bb)
    return (z ** (mpf(1) / (n - 1)) - p) / (1 - p)


def check_cdf(out: Path, stdout: str, seed: int) -> list[str]:
    path = out / "cdf.csv"
    with path.open(encoding="utf-8") as fh:
        header = fh.readline().strip()
    if header != "N,b,F":
        return [f"cdf header {header!r}"]
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    rows = len(CDF_N) * CDF_GRID
    if data.shape != (rows, 3):
        return [f"cdf shape {data.shape}, expected {(rows, 3)}"]
    n, b, f = data.T
    problems = []
    if not np.array_equal(n, np.repeat(np.array(CDF_N, dtype=float), CDF_GRID)):
        problems.append("cdf N column out of order")
    grid = np.arange(CDF_GRID) * ((V - G) / (CDF_GRID - 1))
    if np.abs(b - np.tile(grid, len(CDF_N))).max() > 1e-12 * (V - G):
        problems.append("cdf bid grid off linspace(0, V - g)")
    worst = float(np.abs(f - cdf_reference_f64(n, b)).max())
    if not worst <= CDF_ABS_TOL:
        problems.append(f"cdf off float64 reference by {worst:.3e}")
    rng = random.Random(seed)
    mp.dps = 40
    for i in rng.sample(range(rows), CDF_MPMATH_ROWS):
        ref = cdf_reference_mp(int(n[i]), float(b[i]))
        if not abs(f[i] - ref) <= CDF_ABS_TOL:
            problems.append(f"cdf row {i} off mpmath reference: {f[i]!r} vs {float(ref)!r}")
    return problems


def cdf_argv(seed: int, out: Path) -> list[str]:
    return ["sweep", "--target", "cdf", *AUCTION_FLAGS,
            "--vary", f"N={CDF_N.start}:{CDF_N.stop - 1}", "--grid", str(CDF_GRID),
            "--out", str(out / "cdf.csv")]


# ---------------------------------------------------------------- tax-sweep

def winning_bid_reference(n: int, r2: mpf) -> mpf:
    """E[winning bid] = int_0^(V-g) (1 - z(b)^(N/(N-1))) db: the winning bid
    has CDF (p* + (1 - p*) F*)^N = z^(N/(N-1))."""
    rg = mpf(R1) * G
    expo = mpf(n) / (n - 1)

    def tail(b):
        return 1 - ((rg + r2 * b) / (V - G - b + rg + r2 * b)) ** expo

    return mp.quad(tail, [0, V - G])


def check_tax(out: Path, stdout: str, seed: int) -> list[str]:
    with (out / "tax.csv").open(encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if rows[0] != ["tau", "N", "r1", "r2", "mev_tax", "winning_bid_bound"]:
        return [f"tax header {rows[0]!r}"]
    expected = [(tau, n) for tau in TAX_TAUS for n in TAX_NS]
    if len(rows) - 1 != len(expected):
        return [f"tax has {len(rows) - 1} rows, expected {len(expected)}"]
    mp.dps = 30
    problems = []
    for (tau, n), row in zip(expected, rows[1:]):
        if float(row[0]) != tau or int(row[1]) != n:
            problems.append(f"tax axes {row[:2]}, expected {tau}, {n}")
            continue
        r1, r2, tax, bound = map(float, row[2:])
        r2_ref = mpf(R1) / (1 + mpf(tau))  # the tax reparameterizes r2 = r1 / (1 + tau)
        ref = winning_bid_reference(n, r2_ref)
        errs = {
            "r1": _rel_err(r1, R1),
            "r2": _rel_err(r2, float(r2_ref)),
            "winning_bid_bound": _rel_err(bound, float(ref)),
            "mev_tax": _rel_err(tax, float(mpf(tau) / (1 + tau) * ref)),
        }
        problems += [
            f"tax tau={tau} N={n} {col} off reference by {err:.3e}"
            for col, err in errs.items()
            if not err <= TAX_REL_TOL
        ]
    return problems


def tax_argv(seed: int, out: Path) -> list[str]:
    return ["sweep", "--target", "mev_tax", *AUCTION_FLAGS,
            "--vary2", "tau=" + ",".join(f"{t:g}" for t in TAX_TAUS),
            "--vary", "N=" + ",".join(str(n) for n in TAX_NS),
            "--out", str(out / "tax.csv")]


# ---------------------------------------------------------------- market-sim

_EVENT_INTS = {"block_index", "participants"}


def _csv_event(row: dict) -> dict:
    event = {}
    for key, cell in row.items():
        if key in _EVENT_INTS:
            event[key] = int(cell)
        elif key == "outcome":
            event[key] = cell
        elif key == "winning_bid" and cell == "":
            event[key] = None
        else:
            event[key] = float(cell)
    return event


def check_market(out: Path, stdout: str, seed: int) -> list[str]:
    with (out / "events.csv").open(encoding="utf-8", newline="") as fh:
        events = [_csv_event(row) for row in csv.DictReader(fh)]
    with (out / "report.json").open(encoding="utf-8") as fh:
        report = json.load(fh)
    problems = []
    if len(events) != SIM_BLOCKS:
        return [f"events CSV has {len(events)} rows, expected {SIM_BLOCKS}"]
    if report["config"]["seed"] != seed:
        problems.append(f"report seed {report['config']['seed']}, expected {seed}")
    if report["events"] != events:
        bad = next(i for i, (a, b) in enumerate(zip(report["events"], events)) if a != b)
        problems.append(f"JSON event {bad} differs from CSV row {bad}")
    if [e["block_index"] for e in events] != list(range(1, SIM_BLOCKS + 1)):
        problems.append("block_index is not 1..num_blocks")

    summary = report["summary"]
    executed = [e for e in events if e["outcome"] == "executed"]
    abstained = sum(e["outcome"] == "all_abstained" for e in events)
    counts = {"executed": len(executed), "abstained": abstained,
              "opportunities": len(executed) + abstained}
    problems += [f"summary {k} {summary[k]}, events say {v}"
                 for k, v in counts.items() if summary[k] != v]
    sums = {
        "csr": math.fsum(e["sequencer_fees"] for e in events),
        "cfe": math.fsum(e["lp_fees"] for e in events),
        "casl": math.fsum(e["lp_adverse_loss"] for e in events),
        "casl_gross": math.fsum(e["lp_adverse_loss_gross"] for e in events),
        "nlp": summary["cfe"] - summary["casl"],
    }
    problems += [f"summary {k} {summary[k]!r} off {v!r}"
                 for k, v in sums.items() if not _rel_err(summary[k], v) <= SIM_REL_TOL]
    f, g, n = SIM["f"], SIM["g"], SIM["N"]
    for e in executed:
        band = abs(e["onchain_price_after"] - e["true_price"]) - f * e["true_price"]
        if not abs(band) <= FEE_BAND_TOL:
            problems.append(f"block {e['block_index']} executed off the fee band by {band:.3e}")
            break
    for e in executed:
        if not (1 <= e["participants"] <= n
                and 0.0 <= e["winning_bid"] <= e["opportunity_value"] - g):
            problems.append(f"block {e['block_index']} executed with an impossible auction")
            break
    era = report["era_series"]
    if len(era) != len(executed) or any(
        not _rel_err(x, g + e["winning_bid"]) <= SIM_REL_TOL for x, e in zip(era, executed)
    ):
        problems.append("era_series differs from g + winning_bid of the executed blocks")
    if sum(report["revenue_histogram"]["counts"]) != len(executed):
        problems.append("revenue histogram does not count every executed block")
    return problems


def market_argv(seed: int, out: Path) -> list[str]:
    flags = [x for key, value in SIM.items() for x in (f"--{key}", f"{value:g}")]
    return ["simulate", *flags, "--seed", str(seed),
            "--out-events", str(out / "events.csv"), "--out-report", str(out / "report.json")]


# ---------------------------------------------------------------- verify-battery

_SUMMARY = re.compile(r"^(\d+)/(\d+) checks passed$", re.MULTILINE)


def check_verify(out: Path, stdout: str, seed: int) -> list[str]:
    problems = []
    summary = _SUMMARY.search(stdout)
    if summary is None or summary.groups() != (str(VERIFY_CHECKS), str(VERIFY_CHECKS)):
        problems.append(f"stdout does not say {VERIFY_CHECKS}/{VERIFY_CHECKS} checks passed")
    with (out / "verify.json").open(encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc["seed"] != VERIFY_SEED or doc["battery"] != "default":
        problems.append(f"report is for battery {doc['battery']!r}, seed {doc['seed']}")
    results = doc["results"]
    failed = [r["name"] for r in results if r["passed"] is not True]
    if len(results) != VERIFY_CHECKS or failed:
        problems.append(f"{len(results)} checks reported, failed: {failed}")
    return problems


def verify_digest(out: Path, stdout: str) -> str:
    """The battery's report without its run times, which vary by design."""
    doc = json.loads((out / "verify.json").read_text(encoding="utf-8"))
    for result in doc["results"]:
        result.pop("seconds", None)
    lines = re.sub(r" \[[0-9.]+s\]$", "", stdout, flags=re.MULTILINE)
    return hashlib.sha256((json.dumps(doc, sort_keys=True) + lines).encode()).hexdigest()


def verify_argv(seed: int, out: Path) -> list[str]:
    return ["verify", "--seed", str(VERIFY_SEED), "--json", str(out / "verify.json")]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="cdf-sweep",
            why="100k-row CDF sweep: serialize and the cli row and pool path dominate; "
                "equilibrium runs only as array calls",
            items=len(CDF_N) * CDF_GRID,
            item_unit="rows",
            outputs=("cdf.csv",),
            argv=cdf_argv,
            check=check_cdf,
            digest=files_digest(("cdf.csv",)),
        ),
        Workload(
            name="market-sim",
            why="10k-block simulation: the market per-block loop of scalar solves and "
                "tiny samples, then nested JSON and CSV output",
            items=SIM_BLOCKS,
            item_unit="blocks",
            outputs=("events.csv", "report.json"),
            argv=market_argv,
            check=check_market,
            digest=files_digest(("events.csv", "report.json")),
        ),
        Workload(
            name="tax-sweep",
            why="21-row MEV-tax sweep: analytics winning-bid sums over numerics "
                "quadrature of scalar equilibrium CDFs; almost no output",
            items=len(TAX_TAUS) * len(TAX_NS),
            item_unit="rows",
            outputs=("tax.csv",),
            argv=tax_argv,
            check=check_tax,
            digest=files_digest(("tax.csv",)),
        ),
        Workload(
            name="verify-battery",
            why="the 12-check battery: the only workload that runs oracle replay and "
                "certificates, model payoffs and the verify thread pool",
            items=VERIFY_CHECKS,
            item_unit="checks",
            outputs=("verify.json",),
            argv=verify_argv,
            check=check_verify,
            digest=verify_digest,
        ),
    )
}
