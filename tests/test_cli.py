import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pga_lab import analytics, verify
from pga_lab.cli import run
from pga_lab.equilibrium import Equilibrium, solve_equilibrium
from pga_lab.model import AuctionParams
from pga_lab.serialize import csv_text, fmt_float, json_text

from _util import philox


def test_equilibrium_pure_case_without_agent_count(capsys):
    assert run(["equilibrium", "--V", "10", "--g", "1", "--r1", "0", "--r2", "0"]) == 0
    out = capsys.readouterr().out
    assert "top two bids = 9.0" in out


def test_equilibrium_mixed_case_writes_json(tmp_path, capsys):
    out_file = tmp_path / "eq.json"
    rc = run(
        ["equilibrium", "--V", "10", "--g", "1", "--r1", "0.1", "--r2", "0.1",
         "--N", "20", "--json", str(out_file)]
    )
    assert rc == 0
    doc = json.loads(out_file.read_text())
    assert doc["schema_version"] == "1"
    assert doc["type"] == "mixed"
    assert doc["abstain_prob"] == pytest.approx((0.1 / 9.1) ** (1 / 19), rel=1e-15)
    assert "p*" in capsys.readouterr().out


def test_usage_error_is_exit_2(capsys):
    assert run(["equilibrium", "--V", "10", "--g", "1", "--r1", "0.1", "--r2", "0.1"]) == 2
    assert run(["no-such-command"]) == 2
    capsys.readouterr()


def test_validation_error_is_exit_1(capsys):
    rc = run(["revenue", "--V", "1", "--g", "1", "--r1", "0.1", "--r2", "0.1", "--N", "5"])
    assert rc == 1
    assert "error" in capsys.readouterr().err


AUCTION = ["--V", "10", "--g", "1", "--r1", "0.1", "--r2", "0.1", "--N", "5"]


def _assert_one_line_error(capsys):
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "Traceback" not in captured.out + captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["equilibrium", *AUCTION, "--c", "-1"],
        ["compare-schemes", *AUCTION, "--c", "-0.5"],
        ["sweep", "--target", "mev_tax", *AUCTION, "--vary", "tau=-1,1"],
        # a target that does not read c or tau still range-checks a given one
        ["sweep", "--target", "revenue", *AUCTION[:-2], "--c", "-5", "--vary", "N=2,3"],
        ["sweep", "--target", "revenue", *AUCTION[:-2], "--tau", "-1", "--vary", "N=2,3"],
        ["sweep", "--target", "revenue", *AUCTION[:-2], "--tau", "nan", "--vary", "N=2,3"],
        ["sweep", "--target", "mev_tax", *AUCTION, "--c", "9", "--tau", "1"],
        ["sweep", "--target", "abstention", *AUCTION, "--vary", "c=0,9"],
    ],
    ids=["negative-entry-cost", "negative-processing-cost", "negative-tax-rate",
         "unread-negative-cost", "unread-negative-tax-rate", "unread-nan-tax-rate",
         "unread-cost-at-breakeven", "cost-axis-at-breakeven"],
)
def test_out_of_range_cost_or_tax_is_exit_1(argv, tmp_path, capsys):
    if argv[0] == "sweep":
        argv = argv + ["--out", str(tmp_path / "x.csv")]
    assert run(argv) == 1
    _assert_one_line_error(capsys)


@pytest.mark.parametrize(
    "extra",
    [["--vary", "N=a:5"], ["--vary", "N=2:5:0"], ["--grid", "-1"], ["--grid", "0"],
     # more rows than MAX_SWEEP_ROWS, refused before any axis or grid is made
     ["--vary", "N=2:3", "--grid", "1000000000000"],
     ["--vary", "N=2:100000000000", "--grid", "2"],
     ["--vary", "c=0:1:100000000000"],
     ["--vary2", "r1=0:1:3000", "--vary", "N=2:3000", "--grid", "1"],
     ["--vary", "c=0:1:-2"]],
    ids=["non-integer-bound", "zero-step", "negative-grid", "zero-grid", "huge-grid",
         "huge-range-axis", "huge-linspace-axis", "huge-axis-product", "negative-linspace-count"],
)
def test_malformed_sweep_is_exit_1(extra, tmp_path, capsys):
    out = tmp_path / "x.csv"
    argv = ["sweep", "--target", "cdf", *AUCTION, *extra, "--out", str(out)]
    assert run(argv) == 1
    _assert_one_line_error(capsys)
    assert not out.exists()


def test_range_axis_past_sys_maxsize_gets_the_row_cap(tmp_path, capsys):
    """An integer range longer than sys.maxsize is counted, not refused as unparseable."""
    out = tmp_path / "x.csv"
    argv = ["sweep", "--target", "abstention", *AUCTION,
            "--vary", "N=2:99999999999999999999999999", "--out", str(out)]
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: the sweep would write") and err.count("\n") == 1
    assert not out.exists()


def test_cdf_sweep_ends_are_exact_over_an_entry_cost_axis(tmp_path, capsys):
    """F is 0.0 in every point's first row and 1.0 in its last, at each c."""
    out = tmp_path / "cdf.csv"
    argv = ["sweep", "--target", "cdf", "--V", "10", "--g", "1", "--r1", "0.1", "--r2", "0.1",
            "--N", "20", "--vary", "c=0.01:8:37", "--out", str(out)]
    assert run(argv) == 0
    capsys.readouterr()
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert len(rows) == 37 * 200
    for start in range(0, len(rows), 200):
        assert rows[start][2] == "0.0" and rows[start + 199][2] == "1.0", rows[start][0]


def test_cdf_sweep_reproduces_fixed_point(tmp_path, capsys):
    out = tmp_path / "cdf.csv"
    argv = [
        "sweep", "--target", "cdf", "--V", "10", "--g", "1", "--N", "20",
        "--r2", "0.1", "--vary", "r1=0.01,0.05,0.1,0.5,1.0", "--grid", "200",
        "--out", str(out),
    ]
    assert run(argv) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "r1,b,F"
    assert len(lines) == 1 + 5 * 200
    # boundary rows carry the exact CDF endpoints
    first_curve = [l for l in lines[1:] if l.startswith("0.01,")]
    assert first_curve[0].endswith(",0.0")
    assert first_curve[-1].endswith(",1.0")
    capsys.readouterr()


def test_sweep_golden_bytes(tmp_path, capsys):
    argv_base = [
        "sweep", "--target", "revenue", "--V", "10", "--g", "1", "--r1", "0.1",
        "--r2", "0.1", "--vary", "N=2:40:2",
    ]
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(argv_base + ["--out", str(out_a)]) == 0
    assert run(argv_base + ["--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    lines = out_a.read_text().splitlines()
    assert lines[0] == "N,p_star,revenue,submitted"
    assert len(lines) == 1 + 20
    capsys.readouterr()


def test_abstention_sweep_over_field_size(tmp_path, capsys):
    out = tmp_path / "p.csv"
    argv = [
        "sweep", "--target", "abstention", "--V", "10", "--g", "1", "--r1", "0.1",
        "--r2", "0.1", "--vary", "N=2:30", "--out", str(out),
    ]
    assert run(argv) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "N,p_star"
    p_values = [float(l.split(",")[1]) for l in lines[1:]]
    assert all(a < b for a, b in zip(p_values, p_values[1:]))  # rises with N
    capsys.readouterr()


def test_scheme_compare_sweep(tmp_path, capsys):
    out = tmp_path / "schemes.csv"
    argv = [
        "sweep", "--target", "scheme_compare", "--V", "10", "--g", "1", "--r1", "0.1",
        "--r2", "0.1", "--N", "6", "--vary", "c=0.01:8.9:25", "--out", str(out),
    ]
    assert run(argv) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "c,optimal_r1,scheme1_profit,scheme2_revenue,winner"
    winners = [l.split(",")[-1] for l in lines[1:]]
    assert set(winners) <= {"scheme1", "scheme2", "tie"}
    flips = sum(1 for a, b in zip(winners, winners[1:]) if a != b)
    assert flips <= 2  # one crossing, possibly passing through a tie row
    capsys.readouterr()


def test_mev_tax_sweep_emits_bound_alongside(tmp_path, capsys):
    out = tmp_path / "tax.csv"
    argv = [
        "sweep", "--target", "mev_tax", "--V", "10", "--g", "1", "--r1", "0.1",
        "--r2", "0.1", "--N", "6", "--vary", "tau=0.5,1,2,5,10", "--out", str(out),
    ]
    assert run(argv) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "tau,r1,r2,mev_tax,winning_bid_bound"
    taxes = [float(l.split(",")[3]) for l in lines[1:]]
    bounds = [float(l.split(",")[4]) for l in lines[1:]]
    assert all(t <= b for t, b in zip(taxes, bounds))
    assert all(a <= b + 1e-12 for a, b in zip(taxes, taxes[1:]))
    capsys.readouterr()


def test_sweep_missing_axis_value_is_usage_error(tmp_path, capsys):
    argv = [
        "sweep", "--target", "cdf", "--V", "10", "--g", "1",
        "--r2", "0.1", "--out", str(tmp_path / "x.csv"),
    ]
    assert run(argv) == 2  # r1 and N neither fixed nor varied
    capsys.readouterr()


def _reference_cdf_rows(params, point, grid):
    eq = solve_equilibrium(params, point["c"] or 0.0)
    bids = np.linspace(0.0, eq.support_max, grid)
    return zip(bids.tolist(), eq._cdf_arr(bids).tolist())


def _reference_revenue_rows(params, point, grid):
    rep = analytics.revenue_report(params)
    return [(rep.abstain_prob, rep.expected_revenue, rep.expected_submitted_txs)]


def _reference_scheme_rows(params, point, grid):
    cmp = analytics.compare_schemes(params, point["c"])
    return [(cmp.optimal_r1, cmp.scheme1_profit_at_optimum, cmp.scheme2_revenue_at_r1_zero,
             cmp.winner.value)]


def _reference_mev_tax_rows(params, point, grid):
    # the reparameterization r2 = r1/(1 + tau) and the tax share tau/(1 + tau),
    # formed here rather than read from analytics.expected_mev_tax
    tau, r1 = point["tau"], params.revert_rate_base
    r2 = r1 / (1.0 + tau)
    if tau == 0.0:
        return [(r1, r2, 0.0, float("nan"))]
    bound = analytics.expected_winning_bid(replace(params, revert_rate_priority=r2))
    return [(r1, r2, tau / (1.0 + tau) * bound, bound)]


_REFERENCE_SWEEPS = {
    "cdf": (["b", "F"], _reference_cdf_rows),
    "abstention": (["p_star"], lambda params, point, grid: [
        (solve_equilibrium(params, point["c"] or 0.0).abstain_prob,)]),
    "revenue": (["p_star", "revenue", "submitted"], _reference_revenue_rows),
    "scheme_compare": (["optimal_r1", "scheme1_profit", "scheme2_revenue", "winner"],
                       _reference_scheme_rows),
    "mev_tax": (["r1", "r2", "mev_tax", "winning_bid_bound"], _reference_mev_tax_rows),
}


def _reference_sweep(target: str, fixed: dict, axes: list, grid: int) -> str:
    """The sweep as the row loop it was before the columnar one, kept as its
    oracle: every point's rows are tuples behind the point's axis values."""
    header, row_fn = _REFERENCE_SWEEPS[target]
    combos: list[dict] = [{}]
    for name, axis in axes:
        combos = [dict(c, **{name: v}) for c in combos for v in axis]
    rows = []
    for combo in combos:
        point = {"c": None, "tau": None, **fixed, **combo}
        params = AuctionParams(point["V"], point["g"], point["r1"], point["r2"], point["N"])
        rows.extend(tuple(combo.values()) + row for row in row_fn(params, point, grid))
    return csv_text([name for name, _ in axes] + header, list(zip(*rows)))


# (--vary2, --vary) specs with their values; an int axis, a float axis, both,
# and c, over which the cdf's bid support changes from point to point
SWEEP_AXES = {
    "int-axis": [("N", "2:9", range(2, 10))],
    "float-axis": [("r1", "0.05,0.5,1", [0.05, 0.5, 1.0])],
    "two-axes": [("N", "2,5,40", [2, 5, 40]), ("r2", "0:1:4", np.linspace(0, 1, 4).tolist())],
    "c-axis": [("c", "0:8.5:6", np.linspace(0, 8.5, 6).tolist())],
}


@pytest.mark.parametrize(
    "target, axes, grid",
    [pytest.param(target, axes, 200, id=f"{target}-{name}")
     for target in _REFERENCE_SWEEPS for name, axes in SWEEP_AXES.items()]
    + [pytest.param("cdf", axes, 1, id=f"cdf-{name}-grid-1") for name, axes in SWEEP_AXES.items()],
)
def test_sweep_matches_the_row_loop_byte_for_byte(target, axes, grid, tmp_path, capsys):
    fixed = {"V": 10.0, "g": 1.0, "r1": 0.1, "r2": 0.1, "N": 7, "c": 0.5, "tau": 0.5}
    if target in ("cdf", "abstention") and axes[0][0] != "c":
        del fixed["c"]  # optional there: unset means no entry cost
    varied = {name for name, _, _ in axes}
    out = tmp_path / "s.csv"
    argv = ["sweep", "--target", target, "--grid", str(grid), "--out", str(out)]
    for key, value in fixed.items():
        if key not in varied:
            argv += [f"--{key}", repr(value)]
    for flag, (name, spec, _) in zip(["--vary2", "--vary"][2 - len(axes):], axes):
        argv += [flag, f"{name}={spec}"]
    assert run(argv) == 0
    expected = _reference_sweep(target, fixed, [(name, values) for name, _, values in axes], grid)
    assert out.read_text(encoding="utf-8") == expected
    assert capsys.readouterr().out == f"wrote {expected.count(chr(10)) - 1} rows to {out}\n"


def _written_columns(monkeypatch, argv) -> dict:
    """The columns that one sweep hands write_csv, by header name."""
    from pga_lab import serialize

    written = {}
    monkeypatch.setattr(serialize, "write_csv",
                        lambda path, header, columns: written.update(zip(header, columns)))
    assert run(argv) == 0
    return written


SWEEP_TWO_AXES = ["--V", "10", "--g", "1", "--r2", "0.1", "--c", "0.5", "--tau", "0.5",
                  "--vary2", "N=2,5", "--vary", "r1=0.05,0.5,1", "--out", "unused.csv"]


def test_cdf_sweep_hands_the_writer_float64_arrays(monkeypatch, capsys):
    columns = _written_columns(monkeypatch, ["sweep", "--target", "cdf", "--grid", "7",
                                             *SWEEP_TWO_AXES])
    assert list(columns) == ["N", "r1", "b", "F"]
    for name in ("b", "F"):
        assert isinstance(columns[name], np.ndarray) and columns[name].dtype == np.float64
        assert columns[name].shape == (6 * 7,)
    assert columns["N"].dtype == np.int64 and columns["N"].tolist() == [2] * 21 + [5] * 21
    assert capsys.readouterr().out == "wrote 42 rows to unused.csv\n"


def test_cdf_sweep_points_that_share_a_support_top_get_its_grid(monkeypatch, capsys):
    """N = 2 and 5 share the top V - g - c at each c: each point's rows are
    still its own _cdf_arr over linspace(0, V - g - c, 7), bit for bit."""
    columns = _written_columns(monkeypatch, [
        "sweep", "--target", "cdf", *AUCTION[:-2], "--vary2", "c=0,0.5", "--vary", "N=2,5",
        "--grid", "7", "--out", "unused.csv"])
    assert columns["c"].dtype == np.float64 and columns["c"].tolist() == [0.0] * 14 + [0.5] * 14
    assert columns["N"].dtype == np.int64 and columns["N"].tolist() == ([2] * 7 + [5] * 7) * 2
    for i, (c, n) in enumerate([(0.0, 2), (0.0, 5), (0.5, 2), (0.5, 5)]):
        eq = solve_equilibrium(AuctionParams(10, 1, 0.1, 0.1, n), c)
        bids = np.linspace(0.0, eq.support_max, 7)
        rows = slice(7 * i, 7 * i + 7)
        assert columns["b"][rows].tobytes() == bids.tobytes()
        assert columns["F"][rows].tobytes() == eq._cdf_arr(bids).tobytes()
    capsys.readouterr()


@pytest.mark.parametrize("target", ["abstention", "revenue", "scheme_compare", "mev_tax"])
def test_scalar_sweep_hands_the_writer_no_array(target, monkeypatch, capsys):
    columns = _written_columns(monkeypatch, ["sweep", "--target", target, *SWEEP_TWO_AXES])
    for name, column in columns.items():
        assert not isinstance(column, np.ndarray), name
        assert len(column) == 6, name
    capsys.readouterr()


@pytest.mark.parametrize("axis", ["r1=0:inf:3", "V=1e308:-1e308:3"],
                         ids=["infinite-span", "overflowing-span"])
def test_non_finite_linspace_axis_prints_one_error_line(axis, tmp_path):
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    out = tmp_path / "x.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "pga_lab.cli", "sweep", "--target", "abstention", *AUCTION,
         "--vary", axis, "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 1
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr
    assert not out.exists()


def test_config_file_precedence(tmp_path, capsys):
    config = tmp_path / "conf.json"
    config.write_text(json.dumps({"V": 10, "g": 1, "r1": 0.1, "r2": 0.1, "N": 20}))
    out_file = tmp_path / "eq.json"
    rc = run(["equilibrium", "--config", str(config), "--N", "2", "--json", str(out_file)])
    assert rc == 0
    doc = json.loads(out_file.read_text())
    assert doc["params"]["num_agents"] == 2  # flag wins over config file
    assert doc["params"]["value"] == 10.0
    capsys.readouterr()


def test_simulate_outputs_are_deterministic(tmp_path, capsys):
    common = [
        "simulate", "--sigma", "0.05", "--T", "5", "--block-time", "0.01",
        "--p0", "100", "--f", "0.003", "--L", "10", "--g", "0.1",
        "--r1", "1", "--r2", "1", "--N", "10", "--seed", "7",
    ]
    a_csv, a_json = tmp_path / "a.csv", tmp_path / "a.json"
    b_csv, b_json = tmp_path / "b.csv", tmp_path / "b.json"
    assert run(common + ["--out-events", str(a_csv), "--out-report", str(a_json)]) == 0
    assert run(common + ["--out-events", str(b_csv), "--out-report", str(b_json)]) == 0
    assert a_csv.read_bytes() == b_csv.read_bytes()
    assert a_json.read_bytes() == b_json.read_bytes()
    doc = json.loads(a_json.read_text())
    assert doc["schema_version"] == "1"
    assert doc["summary"]["nlp"] == doc["summary"]["cfe"] - doc["summary"]["casl"]
    assert len(doc["events"]) == 500
    capsys.readouterr()


def test_compare_schemes_command(tmp_path, capsys):
    out_file = tmp_path / "cmp.json"
    rc = run(
        ["compare-schemes", "--V", "10", "--g", "1", "--r1", "0.1", "--r2", "0.1",
         "--N", "2", "--c", "0.5", "--json", str(out_file)]
    )
    assert rc == 0
    doc = json.loads(out_file.read_text())
    assert doc["comparison"]["winner"] == "scheme2"
    assert doc["comparison"]["optimal_r1"] == pytest.approx(0.5 * 9 / 9.5)
    capsys.readouterr()


def test_verify_failure_exit_code(monkeypatch, capsys):
    monkeypatch.setitem(
        verify.BATTERIES, "default", [("always-fails", lambda seed: (False, "forced"))]
    )
    assert run(["verify", "--seed", "1"]) == 3
    out = capsys.readouterr().out
    assert "FAIL always-fails" in out


def test_verify_json_report(monkeypatch, tmp_path, capsys):
    monkeypatch.setitem(
        verify.BATTERIES, "default", [("always-passes", lambda seed: (True, "ok"))]
    )
    out_file = tmp_path / "verify.json"
    assert run(["verify", "--seed", "1", "--json", str(out_file)]) == 0
    doc = json.loads(out_file.read_text())
    assert doc["results"][0]["passed"] is True
    assert doc["battery"] == "default" and doc["seed"] == 1
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["verify", "--battery", "default"],
    ["sweep", "--target", "submitted", *AUCTION[:-2], "--vary", "N=2:4", "--out", "x.csv"],
], ids=["verify-battery", "sweep-submitted"])
def test_retired_options_are_usage_errors(argv, capsys):
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and err.splitlines()[0].startswith("usage: pga-lab")


def test_verify_boundary_check_reads_the_raw_formula(monkeypatch):
    # cdf pins F*(0) = 0 and F*(V - g - c) = 1, so the check reads _f_star
    assert verify._check_boundary_conditions(42) == (True, "max boundary residue 2.41e-16")
    raw = Equilibrium._f_star
    monkeypatch.setattr(Equilibrium, "_f_star", lambda self, b, *xp: raw(self, b, *xp) + 1e-9)
    passed, detail = verify._check_boundary_conditions(42)
    assert not passed and detail.startswith("max boundary residue 1.00e-09")


def test_verify_r2_invariance_checks_the_priority_payments(monkeypatch):
    # revenue_report never reads r2, but F* moves with it: at each r2 the
    # winner's bid and r2 times each loser's must add up to the same revenue
    passed, detail = verify._check_r2_invariance(42)
    assert passed, detail
    winning = analytics.expected_winning_bid
    monkeypatch.setattr(analytics, "expected_winning_bid",
                        lambda params, c=0.0: winning(params, c) * (1 + 1e-9))
    passed, detail = verify._check_r2_invariance(42)
    assert not passed and detail.endswith("max priority-payment residue 1.00e-09")


def _compensated_sum(values, start=0):
    """The builtin sum of floats from Python 3.12 on: Neumaier's compensated
    summation, which a block-order running total need not match."""
    total, compensation = float(start), 0.0
    for x in values:
        t = total + x
        compensation += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
        total = t
    return total + compensation


def test_verify_market_accounting_holds_under_a_compensated_sum(monkeypatch):
    assert _compensated_sum([0.1] * 10 + [1e16, 1.0, -1e16]) == 2.0
    monkeypatch.setattr(verify, "sum", _compensated_sum, raising=False)
    passed, detail = verify._check_market_accounting(42)
    assert passed, detail


class TestFloatSerialization:
    def test_round_trip_17_digits(self):
        rng = philox(2)
        samples = list(rng.uniform(-1e6, 1e6, 200)) + [
            0.1, 1 / 3, 1e-300, 1e300, 9.913333518377373, math.pi
        ]
        for x in samples:
            assert float(fmt_float(float(x))) == float(x)

    def test_integral_floats_stay_floats(self):
        assert fmt_float(10.0) == "10.0"
        assert json.loads(json_text({"x": 10.0}))["x"] == 10.0

    def test_infinities(self):
        assert fmt_float(math.inf) == "Infinity"
        assert json.loads(json_text({"x": math.inf}))["x"] == math.inf


def _config(tmp_path, text):
    path = tmp_path / "conf.json"
    path.write_text(text)
    return ["revenue", "--config", str(path)]


SIMULATE = [
    "simulate", "--sigma", "0.05", "--T", "1", "--block-time", "0.01", "--p0", "100",
    "--f", "0.003", "--L", "10", "--g", "0.1", "--r1", "1", "--r2", "1", "--N", "10",
]
CONFIG_BASE = {"V": 10, "g": 1, "r1": 0.1, "r2": 0.1, "N": 5}
# c one ulp below V - g: 1 - rho = 8.9e-17, which log z's log1p route keeps
C_ONE_ULP_BELOW = ["--V", "5", "--g", "1", "--r1", "1", "--r2", "0", "--c", "3.9999999999999996",
                   "--N", "2"]
# r1 passes the validators but r1 g rounds to 0: losing is free, as with r1 = 0
R1_G_UNDERFLOWS = ["--V", "1.5", "--g", "0.5", "--r1", "5e-324", "--r2", "0", "--N", "2"]


@pytest.mark.parametrize(
    "make_argv",
    [
        lambda t: _config(t, json.dumps({**CONFIG_BASE, "N": "abc"})),
        lambda t: _config(t, json.dumps({**CONFIG_BASE, "V": "ten"})),
        lambda t: _config(t, json.dumps({**CONFIG_BASE, "N": 2.5})),
        lambda t: _config(t, '{"V": 10, "g": 1,'),
        lambda t: _config(t, json.dumps([CONFIG_BASE])),
        lambda t: ["sweep", "--target", "revenue", *AUCTION[:-2], "--vary", "N=2,3.5",
                   "--out", str(t / "x.csv")],
        lambda t: ["sweep", "--target", "revenue", *AUCTION[:-2], "--vary", "N=2:4",
                   "--vary2", "N=5,6", "--out", str(t / "x.csv")],
        lambda t: [*SIMULATE, "--seed", "-1"],
        lambda t: ["verify", "--seed", "-1"],
        lambda t: ["revenue", *AUCTION[:-1], "1" + "0" * 400],
        lambda t: [*SIMULATE, "--r1", "0.5", "--r2", "0.5", "--N", "100000000000000000000"],
        # without --N, the ranges are checked before the pure case is decided
        lambda t: ["equilibrium", "--V", "10", "--g", "1", "--r1", "-1", "--r2", "0"],
        lambda t: ["equilibrium", "--V", "10", "--g", "1", "--r1", "nan", "--r2", "0"],
        lambda t: ["equilibrium", "--V", "10", "--g", "1", "--r1", "0", "--r2", "0", "--c", "-1"],
        lambda t: ["equilibrium", "--V", "10", "--g", "0", "--r1", "0", "--r2", "0"],
    ],
    ids=["config-N-text", "config-V-text", "config-N-fraction", "config-malformed-json",
         "config-list", "axis-N-fraction", "axis-varied-twice", "simulate-negative-seed",
         "verify-negative-seed", "N-400-digits", "simulate-N-1e20", "equilibrium-no-N-negative-r1",
         "equilibrium-no-N-nan-r1", "equilibrium-no-N-negative-c", "equilibrium-no-N-zero-g"],
)
def test_malformed_parameter_is_exit_1(make_argv, tmp_path, capsys):
    assert run(make_argv(tmp_path)) == 1
    _assert_one_line_error(capsys)
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("cdf_sweep", [False, True],
                         ids=["equilibrium-c-one-ulp-below", "cdf-sweep-c-one-ulp-below"])
def test_c_one_ulp_below_breakeven_is_solved(cdf_sweep, tmp_path, capsys):
    out_file = tmp_path / "x.csv"
    if cdf_sweep:
        argv = ["sweep", "--target", "cdf", *C_ONE_ULP_BELOW[:-2], "--vary", "N=2,3",
                "--out", str(out_file)]
    else:
        argv = ["equilibrium", *C_ONE_ULP_BELOW]
    assert run(argv) == 0
    out = capsys.readouterr().out
    if cdf_sweep:
        rows = out_file.read_text().splitlines()
        assert len(rows) == 401 and rows[-1] == "3,4.4408920985006262e-16,1.0"
    else:
        assert out.startswith("abstain probability p* = 0.99999999999999989\n")


def test_equilibrium_where_r1_g_underflows_is_pure(tmp_path, capsys):
    assert run(["equilibrium", *R1_G_UNDERFLOWS, "--json", str(tmp_path / "eq.json")]) == 0
    out = capsys.readouterr().out
    assert out.startswith("pure-strategy equilibrium: top two bids = 1.0 ")
    doc = json.loads((tmp_path / "eq.json").read_text())
    assert doc["type"] == "pure" and doc["top_bid"] == 1.0


@pytest.mark.parametrize(
    "extra, message",
    [
        (["--L", "inf"], "liquidity_depth must be finite"),
        (["--g", "inf"], "base_fee must be finite"),
        (["--L", "1e308"], "non-finite winning bid"),  # the bid kernel overflows
        (["--r1", "1e-320", "--r2", "0"], "non-finite winning bid"),  # Q(u) is 0/0
        # gbm_path draws one normal per block in one call, up to model.MAX_DRAWS
        (["--T", "1e300", "--block-time", "1e-300"], "must not exceed 4194304 blocks"),
        (["--block-time", "5e-324"], "must not exceed 4194304 blocks"),
        (["--T", "1e12", "--block-time", "0.01"], "must not exceed 4194304 blocks"),
        (["--sigma", "1e200"], "log-price drift per block"),  # sigma^2 overflows
        # each block's log step is finite, but the path's running sum overflows
        (["--mu", "1e308"], "non-finite winning bid"),
    ],
    ids=["L-inf", "g-inf", "bids-overflow", "r1-g-subnormal", "blocks-overflow",
         "block-time-subnormal", "blocks-past-draw-cap", "sigma-squared-inf", "path-overflows"],
)
def test_simulate_bad_inputs_are_exit_1(extra, message, tmp_path, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy warning would print below the error
        assert run([*SIMULATE, *extra, "--out-events", str(tmp_path / "x.csv")]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ") and message in err
    assert not (tmp_path / "x.csv").exists()


def _csv_cell_matches(cell: str, value) -> bool:
    """A CSV cell read back against its JSON value; a blank cell is null."""
    if value is None or isinstance(value, str):
        return cell == ("" if value is None else value)
    kind = float if isinstance(value, float) else int
    return cell != "" and kind(cell) == value and type(value) is kind


def test_simulate_csv_rows_are_the_json_events(tmp_path, capsys):
    """The event CSV and the report's events list are two views of one table."""
    events, report = tmp_path / "events.csv", tmp_path / "report.json"
    argv = [*SIMULATE, "--r1", "0.3", "--r2", "0.7", "--seed", "3",
            "--out-events", str(events), "--out-report", str(report)]
    assert run(argv) == 0
    capsys.readouterr()
    with events.open(encoding="utf-8", newline="") as fh:
        header, *rows = list(csv.reader(fh))
    records = json.loads(report.read_text(encoding="utf-8"))["events"]
    assert len(rows) == len(records) == 100
    assert any(r["winning_bid"] is None for r in records)
    for row, record in zip(rows, records):
        assert list(record) == header
        assert all(_csv_cell_matches(cell, value) for cell, value in zip(row, record.values()))


def test_simulate_writes_the_same_files_with_one_output_or_both(tmp_path, capsys):
    """Each output formats the event columns on its own, with the other
    output written or not: the bytes are the same either way."""
    argv = [*SIMULATE, "--r1", "0.5", "--r2", "0.5", "--N", "50", "--seed", "3"]
    both, alone = tmp_path / "both", tmp_path / "alone"
    both.mkdir(), alone.mkdir()
    assert run([*argv, "--out-events", str(both / "e.csv"),
                "--out-report", str(both / "r.json")]) == 0
    assert run([*argv, "--out-events", str(alone / "e.csv")]) == 0
    assert run([*argv, "--out-report", str(alone / "r.json")]) == 0
    capsys.readouterr()
    assert '"winning_bid": null' in (both / "r.json").read_text()
    for name in ("e.csv", "r.json"):
        assert (both / name).read_bytes() == (alone / name).read_bytes()


def test_simulate_path_falling_to_zero_is_quiet(tmp_path, capsys):
    """A drift of -1e308 per unit time: the log path's running sum overflows
    to -inf and the price falls to 0, a valid run with no numpy warning."""
    argv = [*SIMULATE, "--T", "2", "--block-time", "1", "--mu=-1e308",
            "--out-events", str(tmp_path / "x.csv")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(argv) == 0
    assert capsys.readouterr().err == ""


def test_expected_bid_at_r1_zero_and_large_n(tmp_path, capsys):
    """With r1 = 0, E[B*] is about (V - g) ln(1/r2) / ((1 - r2) N): here
    1.2e-5, so an absolute error of 1e-8 would be visible. The reference is
    mpmath at 30 digits."""
    out = tmp_path / "eq.json"
    argv = ["equilibrium", "--V", "10", "--g", "1", "--r1", "0", "--r2", "0.5",
            "--N", "1000000", "--json", str(out)]
    assert run(argv) == 0
    capsys.readouterr()
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert doc["expected_bid"] == pytest.approx(1.24766469223208e-05, rel=1e-12, abs=0.0)


def test_json_to_stdout_through_a_pipe():
    """--json /dev/stdout writes into the pipe, which is no regular file."""
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from pga_lab.cli import run; sys.exit(run(sys.argv[1:]))",
         "equilibrium", *AUCTION, "--json", "/dev/stdout"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert '"schema_version": "1"' in proc.stdout


@pytest.mark.parametrize(
    "argv",
    [
        ["equilibrium", *AUCTION, "--json"],
        ["revenue", *AUCTION, "--json"],
        ["compare-schemes", *AUCTION, "--c", "0.5", "--json"],
        ["verify", "--json"],
        [*SIMULATE, "--out-report"],
    ],
    ids=["equilibrium", "revenue", "compare-schemes", "verify", "simulate"],
)
def test_every_json_document_starts_with_schema_version(argv, tmp_path, capsys):
    out = tmp_path / "doc.json"
    assert run([*argv, str(out)]) == 0
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert next(iter(doc.items())) == ("schema_version", "1")
    capsys.readouterr()


def test_fractional_agent_flag_is_usage_error(capsys):
    assert run(["revenue", *AUCTION[:-1], "2.5"]) == 2
    assert "invalid integer value: '2.5'" in capsys.readouterr().err


def test_config_null_means_unset(tmp_path, capsys):
    assert run(_config(tmp_path, json.dumps({**CONFIG_BASE, "N": None}))) == 2
    assert capsys.readouterr().err.strip() == "missing required parameters: --N"


def test_config_values_read_like_flags(tmp_path, capsys):
    conf = {"V": "10", "g": 1, "r1": "0.1", "r2": 0.1, "N": 5.0}
    out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
    assert run([*_config(tmp_path, json.dumps(conf)), "--json", str(out_a)]) == 0
    assert run(["revenue", *AUCTION, "--json", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    capsys.readouterr()


def test_mev_tax_sweep_integrates_once_per_taxed_row(monkeypatch, tmp_path, capsys):
    from pga_lab import analytics

    calls = []
    original = analytics.expected_winning_bid

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(analytics, "expected_winning_bid", counted)
    argv = ["sweep", "--target", "mev_tax", *AUCTION, "--vary", "tau=0,0.5,1,2,5,10",
            "--out", str(tmp_path / "tax.csv")]
    assert run(argv) == 0
    assert len(calls) == 5  # tau = 0 needs no integral
    capsys.readouterr()


_JSON_SCALARS = (
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8)
)
_JSON_VALUES = _JSON_SCALARS | st.lists(_JSON_SCALARS, max_size=3)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.dictionaries(st.sampled_from(sorted(CONFIG_BASE)), _JSON_VALUES))
def test_arbitrary_config_values_never_raise(overrides):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "conf.json"
        path.write_text(json.dumps({**CONFIG_BASE, **overrides}))
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            assert run(["revenue", "--config", str(path)]) in (0, 1, 2)


def test_simulate_total_overflow_is_exit_1(tmp_path, capsys):
    # every per-block value is finite, but the LP adverse-selection loss
    # summed over the blocks overflows
    argv = [*SIMULATE, "--L", "1e308", "--r1", "0", "--r2", "0", "--N", "10",
            "--out-events", str(tmp_path / "x.csv")]
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ") and "total casl" in err
    assert not (tmp_path / "x.csv").exists()
