"""Command-line surface.

Subcommands:
  equilibrium      solve one auction instance and print the strategy
  revenue          closed-form revenue report for one instance
  sweep            parameter sweeps emitted as CSV (figure data)
  verify           run a verification battery (exit 3 on failure)
  simulate         CEX-DEX market simulation with CSV/JSON output
  compare-schemes  cost-internalization versus cost-pass-through

Flag values override config-file values (--config, a flat JSON object keyed
by flag name), which override defaults. All emitted floats carry 17
significant digits, so identical invocations are byte-identical.

Sweep CSVs prepend any --vary2/--vary axis columns to the target's columns:
b,F (cdf); p_star (abstention); p_star,revenue,submitted (revenue/submitted);
optimal_r1,scheme1_profit,scheme2_revenue,winner (scheme_compare);
r1,r2,mev_tax,winning_bid_bound (mev_tax). The simulate event CSV has one
row per block with the columns in market.EVENT_CSV_HEADER; the simulate JSON
report carries config, summary metrics, the per-event revenue series and
histogram, and the full event list, all under a schema_version field.

Exit codes: 0 success, 1 validation error, 2 usage error, 3 verification
failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, replace
from typing import Optional, Sequence

import numpy as np

from . import analytics, verify
from .equilibrium import pure_equilibrium, solve_equilibrium
from .errors import PgaLabError
from .market import EVENT_CSV_HEADER, MarketSimConfig, event_csv_rows, simulate
from .model import AuctionParams
from .serialize import SCHEMA_VERSION, fmt_float, write_csv, write_json

SWEEP_TARGETS = ("cdf", "abstention", "revenue", "submitted", "scheme_compare", "mev_tax")

_INT_AXES = {"N"}
_AXES = {"V", "g", "r1", "r2", "N", "c", "tau"}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pga-lab", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_auction_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--V", type=float, default=None, help="opportunity value")
        p.add_argument("--g", type=float, default=None, help="base fee")
        p.add_argument("--r1", type=float, default=None, help="base-fee revert rate")
        p.add_argument("--r2", type=float, default=None, help="priority-fee revert rate")
        p.add_argument("--N", type=int, default=None, help="number of agents")
        p.add_argument("--config", default=None, help="flat JSON file of flag defaults")

    p_eq = sub.add_parser("equilibrium", help="solve one auction instance")
    add_auction_flags(p_eq)
    p_eq.add_argument("--c", type=float, default=None, help="flat entry cost (default 0)")
    p_eq.add_argument("--json", default=None, help="write the result as JSON")

    p_rev = sub.add_parser("revenue", help="closed-form revenue report")
    add_auction_flags(p_rev)
    p_rev.add_argument("--json", default=None)

    p_sweep = sub.add_parser("sweep", help="emit sweep data as CSV")
    add_auction_flags(p_sweep)
    p_sweep.add_argument("--target", choices=SWEEP_TARGETS, required=True)
    p_sweep.add_argument("--c", type=float, default=None, help="entry cost (scheme sweeps)")
    p_sweep.add_argument("--tau", type=float, default=None, help="tax rate (mev_tax sweeps)")
    p_sweep.add_argument(
        "--vary",
        default=None,
        help="axis, e.g. r1=0.01,0.1,1.0 or N=2:100 or c=0.01:8:50 (linspace)",
    )
    p_sweep.add_argument("--vary2", default=None, help="optional secondary axis")
    p_sweep.add_argument("--grid", type=int, default=200, help="bid grid points (cdf target)")
    p_sweep.add_argument("--out", required=True, help="output CSV path")

    p_verify = sub.add_parser("verify", help="run a verification battery")
    p_verify.add_argument("--battery", default="default", choices=sorted(verify.BATTERIES))
    p_verify.add_argument("--seed", type=int, default=42)
    p_verify.add_argument("--json", default=None)

    p_sim = sub.add_parser("simulate", help="CEX-DEX market simulation")
    p_sim.add_argument("--config", default=None)
    p_sim.add_argument("--mu", type=float, default=None, help="price drift")
    p_sim.add_argument("--sigma", type=float, default=None, help="price volatility")
    p_sim.add_argument("--T", type=float, default=None, help="horizon")
    p_sim.add_argument("--block-time", type=float, default=None)
    p_sim.add_argument("--p0", type=float, default=None, help="initial price")
    p_sim.add_argument("--f", type=float, default=None, help="DEX fee rate")
    p_sim.add_argument("--L", type=float, default=None, help="liquidity depth")
    p_sim.add_argument("--g", type=float, default=None, help="base fee")
    p_sim.add_argument("--r1", type=float, default=None)
    p_sim.add_argument("--r2", type=float, default=None)
    p_sim.add_argument("--N", type=int, default=None, help="number of arbitrageurs")
    p_sim.add_argument("--seed", type=int, default=None)
    p_sim.add_argument("--out-events", default=None, help="per-block CSV path")
    p_sim.add_argument("--out-report", default=None, help="full JSON report path")

    p_cmp = sub.add_parser("compare-schemes", help="cost handling comparison")
    add_auction_flags(p_cmp)
    p_cmp.add_argument("--c", type=float, default=None, help="processing cost (required)")
    p_cmp.add_argument("--json", default=None)
    return parser


def _merge_config(args: argparse.Namespace, keys: Sequence[str], defaults: dict) -> dict:
    merged = dict(defaults)
    config_path = getattr(args, "config", None)
    if config_path:
        with open(config_path, "r", encoding="utf-8") as fh:
            file_values = json.load(fh)
        unknown = set(file_values) - set(keys)
        if unknown:
            raise PgaLabError(f"unknown config keys: {sorted(unknown)}")
        merged.update(file_values)
    for key in keys:
        flag = getattr(args, key.replace("-", "_"), None)
        if flag is not None:
            merged[key] = flag
    return merged


def _require(merged: dict, keys: Sequence[str]) -> Optional[str]:
    missing = [k for k in keys if merged.get(k) is None]
    if missing:
        return f"missing required parameters: {', '.join('--' + k for k in missing)}"
    return None


def _params_from(merged: dict) -> AuctionParams:
    return AuctionParams(
        value=float(merged["V"]),
        base_fee=float(merged["g"]),
        revert_rate_base=float(merged["r1"]),
        revert_rate_priority=float(merged["r2"]),
        num_agents=int(merged["N"]),
    )


def _parse_axis(spec: str) -> tuple[str, list[float]]:
    name, _, raw = spec.partition("=")
    name = name.strip()
    if name not in _AXES or not raw:
        raise PgaLabError(f"cannot parse sweep axis {spec!r}")
    raw = raw.strip()
    try:
        if ":" in raw:
            parts = raw.split(":")
            if name in _INT_AXES:
                lo, hi = int(parts[0]), int(parts[1])
                step = int(parts[2]) if len(parts) > 2 else 1
                if step < 1:
                    raise PgaLabError(f"sweep axis step must be >= 1, got {step}")
                values = [float(x) for x in range(lo, hi + 1, step)]
            else:  # lo:hi:count
                lo, hi, count = parts
                values = [float(x) for x in np.linspace(float(lo), float(hi), int(count))]
        else:
            values = [float(x) for x in raw.split(",")]
        if name in _INT_AXES:
            values = [float(int(v)) for v in values]
    except (ValueError, OverflowError):
        raise PgaLabError(f"cannot parse sweep axis {spec!r}; see pga-lab sweep --help") from None
    if not values:
        raise PgaLabError(f"sweep axis {spec!r} has no values")
    return name, values


def _axis_cell(name: str, value: float):
    return int(value) if name in _INT_AXES else value


def _sweep_rows(target: str, merged: dict, axis_values: dict, grid: int) -> list[tuple]:
    """Rows for one sweep point (one combination of axis values)."""
    point = dict(merged)
    point.update(axis_values)
    prefix = tuple(_axis_cell(k, v) for k, v in axis_values.items())
    if target == "cdf":
        params = _params_from(point)
        eq = solve_equilibrium(params, float(point.get("c") or 0.0))
        bids = np.linspace(0.0, eq.support_max, grid)
        values = eq._cdf_arr(bids)
        return [prefix + (float(b), float(f)) for b, f in zip(bids, values)]
    if target == "abstention":
        eq = solve_equilibrium(_params_from(point), float(point.get("c") or 0.0))
        return [prefix + (eq.abstain_prob,)]
    if target in ("revenue", "submitted"):
        rep = analytics.revenue_report(_params_from(point))
        return [
            prefix
            + (rep.abstain_prob, rep.expected_revenue, rep.expected_submitted_txs)
        ]
    if target == "scheme_compare":
        params = _params_from(point)
        comparison = analytics.compare_schemes(params, float(point["c"]))
        return [
            prefix
            + (
                comparison.optimal_r1,
                comparison.scheme1_profit_at_optimum,
                comparison.scheme2_revenue_at_r1_zero,
                comparison.winner.value,
            )
        ]
    if target == "mev_tax":
        params = _params_from(point)
        tau = float(point["tau"])
        reparam = analytics.mev_tax_reparameterize(params.revert_rate_base, tau)
        taxed = replace(params, revert_rate_priority=reparam.r2)
        tax = analytics.expected_mev_tax(params, tau)
        bound = analytics.expected_winning_bid(taxed) if tau > 0 else float("nan")
        return [prefix + (reparam.r1, reparam.r2, tax, bound)]
    raise PgaLabError(f"unknown sweep target {target!r}")


_SWEEP_COLUMNS = {
    "cdf": ["b", "F"],
    "abstention": ["p_star"],
    "revenue": ["p_star", "revenue", "submitted"],
    "submitted": ["p_star", "revenue", "submitted"],
    "scheme_compare": ["optimal_r1", "scheme1_profit", "scheme2_revenue", "winner"],
    "mev_tax": ["r1", "r2", "mev_tax", "winning_bid_bound"],
}


def _cmd_sweep(args: argparse.Namespace) -> int:
    if args.grid < 1:
        raise PgaLabError(f"--grid must be >= 1, got {args.grid}")
    keys = ["V", "g", "r1", "r2", "N", "c", "tau"]
    merged = _merge_config(args, keys, defaults={"c": None, "tau": None})
    axes: list[tuple[str, list[float]]] = []
    if args.vary2:
        axes.append(_parse_axis(args.vary2))
    if args.vary:
        axes.append(_parse_axis(args.vary))
    axis_names = [name for name, _ in axes]

    required = {"V", "g", "N", "r1", "r2"}
    if args.target == "scheme_compare":
        required = {"V", "g", "N", "r1", "r2", "c"}
    if args.target == "mev_tax":
        required = {"V", "g", "N", "r1", "r2", "tau"}
    missing = _require(merged, sorted(required - set(axis_names)))
    if missing:
        print(missing, file=sys.stderr)
        return 2
    # a varied parameter still needs a placeholder for validation
    for name in axis_names:
        merged.setdefault(name, None)

    combos: list[dict] = [{}]
    for name, values in axes:
        combos = [dict(c, **{name: v}) for c in combos for v in values]

    rows = [row for combo in combos for row in _sweep_rows(args.target, merged, combo, args.grid)]
    header = axis_names + _SWEEP_COLUMNS[args.target]
    write_csv(args.out, header, rows)
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def _cmd_equilibrium(args: argparse.Namespace) -> int:
    merged = _merge_config(args, ["V", "g", "r1", "r2", "N", "c"], defaults={"c": 0.0})
    missing = _require(merged, ["V", "g", "r1", "r2"])
    if missing:
        print(missing, file=sys.stderr)
        return 2
    entry_cost = float(merged["c"] or 0.0)
    pure_case = (
        float(merged["r1"]) == 0.0 and float(merged["r2"]) == 0.0 and entry_cost == 0.0
    )
    if merged.get("N") is None:
        if not pure_case:
            print(_require(merged, ["N"]), file=sys.stderr)
            return 2
        merged["N"] = 2  # the pure characterization does not depend on N
    params = _params_from(merged)
    if pure_case:
        pure = pure_equilibrium(params)
        print(
            f"pure-strategy equilibrium: top two bids = {fmt_float(pure.top_bid)}"
            " (remaining bids arbitrary at or below)"
        )
        doc = {
            "schema_version": SCHEMA_VERSION,
            "type": "pure",
            "top_bid": pure.top_bid,
            "params": asdict(params),
        }
    else:
        eq = solve_equilibrium(params, entry_cost)
        expected_bid = eq.expected_bid()
        print(f"abstain probability p* = {fmt_float(eq.abstain_prob)}")
        print(f"bid support            = [0, {fmt_float(eq.support_max)}]")
        print(f"expected bid E[B*]     = {fmt_float(expected_bid)}")
        print(f"cdf boundary gap at V-g = {fmt_float(eq.boundary_gap)}")
        doc = {
            "schema_version": SCHEMA_VERSION,
            "type": "mixed",
            "abstain_prob": eq.abstain_prob,
            "support": [0.0, eq.support_max],
            "expected_bid": expected_bid,
            "boundary_gap": eq.boundary_gap,
            "entry_cost": entry_cost,
            "params": asdict(params),
        }
    if args.json:
        write_json(args.json, doc)
    return 0


def _cmd_revenue(args: argparse.Namespace) -> int:
    merged = _merge_config(args, ["V", "g", "r1", "r2", "N"], defaults={})
    missing = _require(merged, ["V", "g", "r1", "r2", "N"])
    if missing:
        print(missing, file=sys.stderr)
        return 2
    params = _params_from(merged)
    rep = analytics.revenue_report(params)
    print(f"participation probability = {fmt_float(rep.participation_prob)}")
    print(f"expected revenue          = {fmt_float(rep.expected_revenue)}")
    print(f"  base component          = {fmt_float(rep.base_revenue)}")
    print(f"  priority component      = {fmt_float(rep.priority_revenue)}")
    print(f"expected submitted txs    = {fmt_float(rep.expected_submitted_txs)}")
    print(
        "large-N limits: revenue "
        f"{fmt_float(rep.limits.revenue)}, submitted "
        + ("unbounded" if rep.limits.submitted_unbounded else fmt_float(rep.limits.submitted_txs))
    )
    if args.json:
        doc = {"schema_version": SCHEMA_VERSION, "params": asdict(params), "report": asdict(rep)}
        write_json(args.json, doc)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    results = verify.run_battery(args.battery, seed=args.seed)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status} {r.name} ({r.detail}) [{r.seconds:.2f}s]")
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    if args.json:
        doc = {
            "schema_version": SCHEMA_VERSION,
            "battery": args.battery,
            "seed": args.seed,
            "results": [asdict(r) for r in results],
        }
        write_json(args.json, doc)
    return 3 if failed else 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    keys = ["mu", "sigma", "T", "block-time", "p0", "f", "L", "g", "r1", "r2", "N", "seed"]
    merged = _merge_config(args, keys, defaults={"mu": 0.0, "seed": 0})
    missing = _require(merged, ["sigma", "T", "block-time", "p0", "f", "L", "g", "r1", "r2", "N"])
    if missing:
        print(missing, file=sys.stderr)
        return 2
    config = MarketSimConfig(
        drift=float(merged["mu"]),
        volatility=float(merged["sigma"]),
        horizon=float(merged["T"]),
        block_time=float(merged["block-time"]),
        initial_price=float(merged["p0"]),
        fee_rate=float(merged["f"]),
        liquidity_depth=float(merged["L"]),
        base_fee=float(merged["g"]),
        revert_rate_base=float(merged["r1"]),
        revert_rate_priority=float(merged["r2"]),
        num_arbitrageurs=int(merged["N"]),
        seed=int(merged["seed"]),
    )
    report = simulate(config)
    print(
        f"{config.num_blocks} blocks: {report.opportunities} opportunities, "
        f"{report.executed} executed, {report.abstained} abstained"
    )
    print(f"MAD {fmt_float(report.mad)}  DBF {fmt_float(report.dbf)}  "
          f"MD {fmt_float(report.max_deviation)}")
    print(f"CFE {fmt_float(report.cfe)}  CASL {fmt_float(report.casl)}  "
          f"NLP {fmt_float(report.nlp)}  CSR {fmt_float(report.csr)}")
    if args.out_events:
        write_csv(args.out_events, EVENT_CSV_HEADER, event_csv_rows(report))
        print(f"wrote events to {args.out_events}")
    if args.out_report:
        doc = {
            "schema_version": SCHEMA_VERSION,
            "config": asdict(config),
            "summary": {
                "opportunities": report.opportunities,
                "executed": report.executed,
                "abstained": report.abstained,
                "mad": report.mad,
                "dbf": report.dbf,
                "max_deviation": report.max_deviation,
                "cfe": report.cfe,
                "casl": report.casl,
                "casl_gross": report.casl_gross,
                "nlp": report.nlp,
                "csr": report.csr,
            },
            "era_series": list(report.era_series),
            "revenue_histogram": {
                "counts": list(report.revenue_histogram[0]),
                "bin_edges": list(report.revenue_histogram[1]),
            },
            "events": [asdict(e) for e in report.events],
        }
        write_json(args.out_report, doc)
        print(f"wrote report to {args.out_report}")
    return 0


def _cmd_compare_schemes(args: argparse.Namespace) -> int:
    merged = _merge_config(args, ["V", "g", "r1", "r2", "N", "c"], defaults={})
    missing = _require(merged, ["V", "g", "r1", "r2", "N", "c"])
    if missing:
        print(missing, file=sys.stderr)
        return 2
    params = _params_from(merged)
    comparison = analytics.compare_schemes(params, float(merged["c"]))
    print(f"optimal r1 under internalized costs = {fmt_float(comparison.optimal_r1)}")
    print(f"scheme 1 profit at optimum          = {fmt_float(comparison.scheme1_profit_at_optimum)}")
    print(f"scheme 2 revenue at r1 = 0          = {fmt_float(comparison.scheme2_revenue_at_r1_zero)}")
    print(f"winner: {comparison.winner.value}")
    if args.json:
        doc = {
            "schema_version": SCHEMA_VERSION,
            "params": asdict(params),
            "comparison": {
                "c": comparison.c,
                "optimal_r1": comparison.optimal_r1,
                "scheme1_profit_at_optimum": comparison.scheme1_profit_at_optimum,
                "scheme2_revenue_at_r1_zero": comparison.scheme2_revenue_at_r1_zero,
                "winner": comparison.winner.value,
            },
        }
        write_json(args.json, doc)
    return 0


_COMMANDS = {
    "equilibrium": _cmd_equilibrium,
    "revenue": _cmd_revenue,
    "sweep": _cmd_sweep,
    "verify": _cmd_verify,
    "simulate": _cmd_simulate,
    "compare-schemes": _cmd_compare_schemes,
}


def run(argv: Sequence[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except PgaLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
