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


@pytest.mark.parametrize(
    "sweep, counts",
    [
        (["--target", "mev_tax", "--vary2", "tau=0.5,2", "--vary", "N=2,5"], {}),
        # Equilibrium.cdf and _cdf_arr are wrapped by name; the sweep prices its
        # two 50-bid grids through _cdf_arr
        (["--target", "cdf", "--vary", "N=2,5", "--grid", "50"],
         {"equilibrium.cdf_points": 100}),
    ],
    ids=["mev_tax", "cdf"],
)
def test_traced_sweep(sweep, counts, tmp_path):
    result = tmp_path / "trace.json"
    argv = [
        sys.executable, str(ROOT / "perfbench" / "tracer.py"), str(result), "--",
        "sweep", *sweep, *AUCTION, "--out", str(tmp_path / "sweep.csv"),
    ]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(result.read_text())
    assert doc["exit"] == 0
    assert doc["metrics"]
    for name, expected in counts.items():
        assert doc["metrics"][name] == expected
