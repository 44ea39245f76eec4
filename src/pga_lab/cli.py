"""Command-line surface.

Subcommands:
  equilibrium      solve one auction instance and print the strategy
  revenue          closed-form revenue report for one instance
  sweep            parameter sweeps emitted as CSV (figure data)
  verify           run the verification battery (exit 3 on failure)
  simulate         CEX-DEX market simulation with CSV/JSON output
  compare-schemes  cost-internalization versus cost-pass-through

Each model parameter is declared once, in PARAMETERS, with its converter and
help text. Flags, --config values and every --vary/--vary2 axis value are read
by that converter: reals take numbers or numeric strings, integers (N, seed)
take whole numbers only. Flag values override config-file values (--config, a
flat JSON object keyed by flag name, where null means unset), which override
defaults. Ranges are checked by the library validators. All emitted floats
carry 17 significant digits, so identical invocations are byte-identical.

Sweep CSVs prepend any --vary2/--vary axis columns to the target's columns:
b,F (cdf); p_star (abstention); p_star,revenue,submitted (revenue);
optimal_r1,scheme1_profit,scheme2_revenue,winner (scheme_compare);
r1,r2,mev_tax,winning_bid_bound (mev_tax). The simulate event CSV has one
row per block with the columns in market.EVENT_CSV_HEADER; the simulate JSON
report carries config, summary metrics, the per-event revenue series and
histogram, and the full event list, all under a schema_version field.

Exit codes: 0 success, 1 validation error (a malformed config file or axis
value, or a value out of range), 2 usage error (a malformed flag or a missing
parameter), 3 verification failure.

Only the standard library and pga_lab.errors load with this module: each
command imports the modules it runs when it runs, and only code that holds an
array imports numpy. So --help, usage errors, equilibrium, revenue,
compare-schemes and the abstention, revenue, scheme_compare and mev_tax sweeps
load no numpy; simulate, verify, the cdf sweep and a lo:hi:count real axis
do. main() (the pga-lab script and python -m pga_lab.cli) runs OpenBLAS on
one thread unless OPENBLAS_NUM_THREADS is set; run() leaves the environment
alone.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from itertools import product
from typing import TYPE_CHECKING, Sequence

from .errors import ArgumentOutOfRange, PgaLabError

if TYPE_CHECKING:
    from .model import AuctionParams


def real(value) -> float:
    """A number or a numeric string, as a float."""
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise TypeError(f"not a real: {value!r}")
    return float(value)


def integer(value) -> int:
    """A whole number or a string of one, as an int; 2.5, "2.5" and booleans fail."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise TypeError(f"not an integer: {value!r}")
    return int(value)


# The one place that knows each parameter: its converter and its help text.
# Converters check the type only; the library validators check the range.
PARAMETERS = {
    "V": (real, "opportunity value"),
    "g": (real, "base fee"),
    "r1": (real, "base-fee revert rate"),
    "r2": (real, "priority-fee revert rate"),
    "N": (integer, "number of agents (arbitrageurs in simulate)"),
    "c": (real, "flat entry or processing cost"),
    "tau": (real, "tax rate (mev_tax sweeps)"),
    "mu": (real, "price drift"),
    "sigma": (real, "price volatility"),
    "T": (real, "horizon"),
    "block-time": (real, "block interval"),
    "p0": (real, "initial price"),
    "f": (real, "DEX fee rate"),
    "L": (real, "liquidity depth"),
    "seed": (integer, "random seed"),
}

# parameter name -> keyword of the library constructor it feeds
AUCTION = {"V": "value", "g": "base_fee", "r1": "revert_rate_base",
           "r2": "revert_rate_priority", "N": "num_agents"}
MARKET = {"mu": "drift", "sigma": "volatility", "T": "horizon", "block-time": "block_time",
          "p0": "initial_price", "f": "fee_rate", "L": "liquidity_depth", "g": "base_fee",
          "r1": "revert_rate_base", "r2": "revert_rate_priority", "N": "num_arbitrageurs",
          "seed": "seed"}


class MissingParameters(Exception):
    """Required parameters left unset: a usage error (exit 2)."""

    def __init__(self, names: Sequence[str]) -> None:
        super().__init__("missing required parameters: " + ", ".join("--" + k for k in names))


def _add_parameter(p: argparse.ArgumentParser, name: str, default=None) -> None:
    convert, text = PARAMETERS[name]
    p.add_argument(f"--{name}", type=convert, default=default, help=text)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pga-lab", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, text: str, handler, parameters: Sequence[str]):
        p = sub.add_parser(name, help=text)
        p.set_defaults(handler=handler, parameters=tuple(parameters))
        for key in parameters:
            _add_parameter(p, key)
        p.add_argument("--config", default=None, help="flat JSON object of parameter values")
        return p

    p_eq = command("equilibrium", "solve one auction instance", _cmd_equilibrium, [*AUCTION, "c"])
    p_eq.add_argument("--json", default=None, help="write the result as JSON")

    p_rev = command("revenue", "closed-form revenue report", _cmd_revenue, AUCTION)
    p_rev.add_argument("--json", default=None)

    p_sweep = command("sweep", "emit sweep data as CSV", _cmd_sweep, [*AUCTION, "c", "tau"])
    p_sweep.add_argument("--target", choices=SWEEPS, required=True)
    p_sweep.add_argument(
        "--vary",
        default=None,
        help="axis, e.g. r1=0.01,0.1,1.0 or N=2:100 or c=0.01:8:50 (linspace)",
    )
    p_sweep.add_argument("--vary2", default=None, help="optional secondary axis")
    p_sweep.add_argument("--grid", type=int, default=200, help="bid grid points (cdf target)")
    p_sweep.add_argument("--out", required=True, help="output CSV path")

    p_verify = sub.add_parser("verify", help="run the verification battery")
    p_verify.set_defaults(handler=_cmd_verify)
    _add_parameter(p_verify, "seed", default=42)
    p_verify.add_argument("--json", default=None)

    p_sim = command("simulate", "CEX-DEX market simulation", _cmd_simulate, MARKET)
    p_sim.add_argument("--out-events", default=None, help="per-block CSV path")
    p_sim.add_argument("--out-report", default=None, help="full JSON report path")

    p_cmp = command(
        "compare-schemes", "cost handling comparison", _cmd_compare_schemes, [*AUCTION, "c"]
    )
    p_cmp.add_argument("--json", default=None)
    return parser


def _convert(name: str, raw):
    convert = PARAMETERS[name][0]
    try:
        return convert(raw)
    except (TypeError, ValueError, OverflowError):
        raise PgaLabError(f"invalid {convert.__name__} value for {name}: {raw!r}") from None


def _read_config(path: str, names: Sequence[str]) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:  # malformed JSON or bad UTF-8
            raise PgaLabError(f"config file {path} is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise PgaLabError(f"config file {path} must hold a JSON object")
    unknown = set(doc) - set(names)
    if unknown:
        raise PgaLabError(f"unknown config keys: {sorted(unknown)}")
    return doc


def _values(args: argparse.Namespace, defaults=None, optional=()) -> dict:
    """The command's parameters: defaults, then the --config file, then flags.

    Config values go through the same converters as flags; null means unset.
    Raises MissingParameters for unset names that are not optional.
    """
    values = dict.fromkeys(args.parameters)
    values.update(defaults or {})
    if args.config:
        for key, raw in _read_config(args.config, args.parameters).items():
            if raw is not None:
                values[key] = _convert(key, raw)
    for key in args.parameters:
        flag = getattr(args, key.replace("-", "_"))
        if flag is not None:
            values[key] = flag
    missing = [k for k, v in values.items() if v is None and k not in optional]
    if missing:
        raise MissingParameters(missing)
    return values


def _build(cls, fields: dict, values: dict):
    """cls called by keyword with the values of the parameters in fields."""
    return cls(**{field: values[name] for name, field in fields.items()})


# The most rows one sweep may write: the product of its axis lengths, times
# --grid for the cdf target.
MAX_SWEEP_ROWS = 2**22


def _check_rows(rows: int) -> None:
    if rows > MAX_SWEEP_ROWS:
        raise ArgumentOutOfRange(
            f"the sweep would write at least {rows} rows, more than {MAX_SWEEP_ROWS}")


def _parse_axis(spec: str, names: Sequence[str]) -> tuple[str, Sequence]:
    """The axis name and its values. lo:hi[:step] stays a range, and
    lo:hi:count is counted before np.linspace makes it, so an axis longer
    than MAX_SWEEP_ROWS raises before it takes memory."""
    name, _, raw = spec.partition("=")
    name, raw = name.strip(), raw.strip()
    if name not in names or not raw:
        raise PgaLabError(f"cannot parse sweep axis {spec!r}")
    convert = PARAMETERS[name][0]
    parts = raw.split(":")
    try:
        if len(parts) == 1:
            values = [convert(x) for x in raw.split(",")]
        elif convert is integer:  # lo:hi[:step], hi included
            lo, hi, step = map(integer, parts if len(parts) == 3 else parts + ["1"])
            if step < 1:
                raise PgaLabError(f"sweep axis step must be >= 1, got {step}")
            _check_rows((hi - lo) // step + 1)  # len(range) overflows past sys.maxsize
            values = range(lo, hi + 1, step)
        else:  # lo:hi:count, as np.linspace
            lo, hi, count = parts
            count = integer(count)
            _check_rows(count)
            import numpy as np

            with np.errstate(all="ignore"):  # a non-finite span fails below, not here
                values = np.linspace(real(lo), real(hi), count).tolist()
    except ArgumentOutOfRange:
        raise
    except (TypeError, ValueError, OverflowError):
        raise PgaLabError(f"cannot parse sweep axis {spec!r}; see pga-lab sweep --help") from None
    if not values:
        raise PgaLabError(f"sweep axis {spec!r} has no values")
    return name, values


def _cdf_columns(points: list[tuple[AuctionParams, dict]], grid: int):
    import numpy as np

    from .equilibrium import solve_equilibrium

    grids = {}  # one bid grid per support top: with c = 0 every point shares one
    bids, cdf = [], []
    for params, point in points:
        eq = solve_equilibrium(params, point["c"] or 0.0)
        top = eq.support_max
        if top not in grids:
            grids[top] = np.linspace(0.0, top, grid)
        bids.append(grids[top])
        cdf.append(eq._cdf_arr(bids[-1]))
    return np.concatenate(bids), np.concatenate(cdf)


def _abstention_columns(points: list[tuple[AuctionParams, dict]], grid: int):
    from .equilibrium import solve_equilibrium

    return [solve_equilibrium(params, point["c"] or 0.0).abstain_prob for params, point in points],


def _revenue_columns(points: list[tuple[AuctionParams, dict]], grid: int):
    from . import analytics

    reps = [analytics.revenue_report(params) for params, _ in points]
    return ([rep.abstain_prob for rep in reps], [rep.expected_revenue for rep in reps],
            [rep.expected_submitted_txs for rep in reps])


def _scheme_columns(points: list[tuple[AuctionParams, dict]], grid: int):
    from . import analytics

    cmps = [analytics.compare_schemes(params, point["c"]) for params, point in points]
    return ([cmp.optimal_r1 for cmp in cmps], [cmp.scheme1_profit_at_optimum for cmp in cmps],
            [cmp.scheme2_revenue_at_r1_zero for cmp in cmps], [cmp.winner.value for cmp in cmps])


def _mev_tax_columns(points: list[tuple[AuctionParams, dict]], grid: int):
    from . import analytics

    taxes = [analytics.expected_mev_tax(params, point["tau"]) for params, point in points]
    return [params.revert_rate_base for params, _ in points], *zip(*taxes)  # r2, tax, bound


# target -> (columns, parameters it needs beyond the auction, the function of
# every (params, point) and the grid that returns the columns in their own type)
SWEEPS = {
    "cdf": (["b", "F"], (), _cdf_columns),
    "abstention": (["p_star"], (), _abstention_columns),
    "revenue": (["p_star", "revenue", "submitted"], (), _revenue_columns),
    "scheme_compare": (
        ["optimal_r1", "scheme1_profit", "scheme2_revenue", "winner"], ("c",), _scheme_columns
    ),
    "mev_tax": (["r1", "r2", "mev_tax", "winning_bid_bound"], ("tau",), _mev_tax_columns),
}


def _cmd_sweep(args: argparse.Namespace) -> int:
    from .model import AuctionParams, check_entry_cost, check_tax_rate
    from .serialize import write_csv

    if args.grid < 1:
        raise PgaLabError(f"--grid must be >= 1, got {args.grid}")
    columns, needs, target_columns = SWEEPS[args.target]
    axes = [_parse_axis(spec, args.parameters) for spec in (args.vary2, args.vary) if spec]
    axis_names = [name for name, _ in axes]
    if len(set(axis_names)) < len(axis_names):
        raise PgaLabError(f"--vary and --vary2 both vary {axis_names[0]}")
    rows_per_point = args.grid if args.target == "cdf" else 1
    _check_rows(math.prod(len(axis) for _, axis in axes) * rows_per_point)
    unneeded = set(args.parameters) - set(AUCTION) - set(needs)
    values = _values(args, optional=unneeded | set(axis_names))

    combos = list(product(*(axis for _, axis in axes)))
    points = []
    for combo in combos:
        point = {**values, **dict(zip(axis_names, combo))}
        params = _build(AuctionParams, AUCTION, point)
        # a given c or tau is range-checked at each point, read by the target or not
        if point["c"] is not None:
            check_entry_cost(params, point["c"])
        if point["tau"] is not None:
            check_tax_rate(point["tau"])
        points.append((params, point))
    target = list(target_columns(points, args.grid))  # cdf loads numpy
    np = sys.modules.get("numpy")
    # each axis column repeats a point's value once per row of that point: an array
    # for cdf's many rows, and for an int range's many points once numpy is loaded
    arrays = np is not None and (rows_per_point > 1 or any(isinstance(a, range) for _, a in axes))
    axis_columns = [np.repeat(axis, rows_per_point) if arrays else list(axis)
                    for axis in zip(*combos)]
    write_csv(args.out, axis_names + columns, axis_columns + target)
    print(f"wrote {rows_per_point * len(points)} rows to {args.out}")
    return 0


def _cmd_equilibrium(args: argparse.Namespace) -> int:
    from .equilibrium import losing_is_free, pure_equilibrium, solve_equilibrium
    from .model import AuctionParams, check_entry_cost
    from .serialize import fmt_float, write_json

    values = _values(args, defaults={"c": 0.0}, optional=("N",))
    entry_cost, n_given = values["c"], values["N"] is not None
    if not n_given:
        values["N"] = 2  # the pure characterization does not depend on N
    # g, r1, r2 and c are range-checked first: the pure case is decided on accepted values
    params = _build(AuctionParams, AUCTION, values)
    check_entry_cost(params, entry_cost)
    pure_case = losing_is_free(values["r1"] * values["g"], values["r2"], entry_cost)
    if not (pure_case or n_given):
        raise MissingParameters(["N"])
    if pure_case:
        top_bid = pure_equilibrium(params)
        print(
            f"pure-strategy equilibrium: top two bids = {fmt_float(top_bid)}"
            " (remaining bids arbitrary at or below)"
        )
        doc = {"type": "pure", "top_bid": top_bid, "params": params}
    else:
        eq = solve_equilibrium(params, entry_cost)
        expected_bid = eq.expected_bid()
        print(f"abstain probability p* = {fmt_float(eq.abstain_prob)}")
        print(f"bid support            = [0, {fmt_float(eq.support_max)}]")
        print(f"expected bid E[B*]     = {fmt_float(expected_bid)}")
        print(f"cdf boundary gap at V-g = {fmt_float(eq.boundary_gap)}")
        doc = {
            "type": "mixed",
            "abstain_prob": eq.abstain_prob,
            "support": [0.0, eq.support_max],
            "expected_bid": expected_bid,
            "boundary_gap": eq.boundary_gap,
            "entry_cost": entry_cost,
            "params": params,
        }
    if args.json:
        write_json(args.json, doc)
    return 0


def _cmd_revenue(args: argparse.Namespace) -> int:
    from . import analytics
    from .model import AuctionParams
    from .serialize import fmt_float, write_json

    params = _build(AuctionParams, AUCTION, _values(args))
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
        write_json(args.json, {"params": params, "report": rep})
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from . import verify
    from .serialize import write_json

    results = verify.run_battery(args.seed)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status} {r.name} ({r.detail}) [{r.seconds:.2f}s]")
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    if args.json:
        write_json(args.json, {"battery": "default", "seed": args.seed, "results": results})
    return 3 if failed else 0


_SUMMARY_FIELDS = ("opportunities", "executed", "abstained", "mad", "dbf", "max_deviation",
                   "cfe", "casl", "casl_gross", "nlp", "csr")


def _cmd_simulate(args: argparse.Namespace) -> int:
    from .market import EVENT_CSV_HEADER, MarketSimConfig, simulate
    from .serialize import Records, fmt_float, write_csv, write_json

    config = _build(MarketSimConfig, MARKET, _values(args, defaults={"mu": 0.0, "seed": 0}))
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
        write_csv(args.out_events, EVENT_CSV_HEADER, report.event_columns)
        print(f"wrote events to {args.out_events}")
    if args.out_report:
        counts, bin_edges = report.revenue_histogram
        write_json(args.out_report, {
            "config": config,
            "summary": {k: getattr(report, k) for k in _SUMMARY_FIELDS},
            "era_series": report.era_series,
            "revenue_histogram": {"counts": counts, "bin_edges": bin_edges},
            "events": Records(EVENT_CSV_HEADER, report.event_columns),
        })
        print(f"wrote report to {args.out_report}")
    return 0


def _cmd_compare_schemes(args: argparse.Namespace) -> int:
    from . import analytics
    from .model import AuctionParams
    from .serialize import fmt_float, write_json

    values = _values(args)
    params = _build(AuctionParams, AUCTION, values)
    comparison = analytics.compare_schemes(params, values["c"])
    print(f"optimal r1 under internalized costs = {fmt_float(comparison.optimal_r1)}")
    print(f"scheme 1 profit at optimum          = {fmt_float(comparison.scheme1_profit_at_optimum)}")
    print(f"scheme 2 revenue at r1 = 0          = {fmt_float(comparison.scheme2_revenue_at_r1_zero)}")
    print(f"winner: {comparison.winner.value}")
    if args.json:
        write_json(args.json, {"params": params, "comparison": comparison})
    return 0


def run(argv: Sequence[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except MissingParameters as exc:
        print(exc, file=sys.stderr)
        return 2
    except (PgaLabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    # numpy starts OpenBLAS's thread pool when it loads, and pga_lab makes no
    # BLAS call: the commands that hold arrays would pay for a pool they never use
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
