"""The per-layer tracer still finds every function it wraps.

perfbench/tracer.py looks up the layer-boundary functions and methods of
pga_lab by name; a rename breaks the per-layer benchmark, not the library.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
AUCTION = ["--V", "10", "--g", "1", "--r1", "0.1", "--r2", "0.1"]


def _traced(argv, tmp_path) -> dict:
    """The tracer's metrics of one pga-lab run."""
    result = tmp_path / "trace.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "tracer.py"), str(result),
                           "--", *argv], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(result.read_text())
    assert doc["exit"] == 0
    assert doc["metrics"]
    return doc["metrics"]


@pytest.mark.parametrize(
    "sweep, counts",
    [
        # the sweep imports analytics and serialize inside its handler, and
        # still calls the tracer's wrappers: one winning-bid sum per taxed row
        (["--target", "mev_tax", "--vary2", "tau=0.5,2", "--vary", "N=2,5"],
         {"analytics.winning_bid_calls": 4}),
        # Equilibrium.cdf and _cdf_arr are wrapped by name; the sweep prices its
        # two 50-bid grids through _cdf_arr
        (["--target", "cdf", "--vary", "N=2,5", "--grid", "50"],
         {"equilibrium.cdf_points": 100}),
    ],
    ids=["mev_tax", "cdf"],
)
def test_traced_sweep(sweep, counts, tmp_path):
    out = tmp_path / "sweep.csv"
    metrics = _traced(["sweep", *sweep, *AUCTION, "--out", str(out)], tmp_path)
    for name, expected in counts.items():
        assert metrics[name] == expected
    assert metrics["serialize.bytes"] == out.stat().st_size


def test_traced_simulate(tmp_path):
    """The tracer reads market.simulate's report, 200 blocks, 98 of them
    with an auction, and the arguments of write_csv and write_json."""
    events, report = tmp_path / "events.csv", tmp_path / "report.json"
    metrics = _traced([
        "simulate", "--sigma", "0.05", "--T", "2", "--block-time", "0.01", "--p0", "100",
        "--f", "0.003", "--L", "10", "--g", "0.1", "--r1", "0.3", "--r2", "0.7", "--N", "10",
        "--seed", "3", "--out-events", str(events), "--out-report", str(report),
    ], tmp_path)
    assert metrics["market.blocks"] == 200
    assert metrics["market.auctions"] == 98
    assert metrics["serialize.cells"] == 2743
    assert metrics["serialize.bytes"] == events.stat().st_size + report.stat().st_size == 135_423


def test_traced_verify(tmp_path):
    """The tracer wraps verify.run_battery and the oracle replays it runs on
    the pool threads."""
    metrics = _traced(["verify"], tmp_path)
    assert metrics["verify.checks"] == 12
    assert metrics["verify.checks_failed"] == 0
    assert metrics["oracle.replay_draws"] == 6_950_000
