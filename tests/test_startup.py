"""Start-up: the package and the CLI module load no numpy until a command
runs, every public name still resolves from the package, and the CLI process
runs OpenBLAS on one thread unless the user says otherwise."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pga_lab

ROOT = Path(__file__).resolve().parent.parent

# the package's public names, by the module that defines each
EXPORTS = {
    "analytics": [
        "RevenueLimits", "RevenueReport", "SchemeComparison", "Winner", "compare_schemes",
        "expected_mev_tax", "expected_winning_bid", "revenue_report", "scheme1_optimal_r1",
        "scheme1_optimal_r1_scan", "scheme1_profit", "scheme2_revenue",
    ],
    "equilibrium": ["Equilibrium", "pure_equilibrium", "solve_equilibrium"],
    "errors": [
        "ArgumentOutOfRange", "ConfigInvalid", "CostOutOfRange", "CostTooLarge",
        "DegenerateNoRevertCost", "IndexOutOfRange", "NonPositiveFee", "NotApplicable",
        "NumericsError", "OutOfSupport", "PgaLabError", "RateOutOfRange", "TooFewAgents",
        "TooManyAgents", "ValueNotAboveBaseFee",
    ],
    "market": [
        "BlockEvent", "MarketSimConfig", "MarketSimReport", "Opportunity", "gbm_path",
        "opportunity_value", "simulate",
    ],
    "model": [
        "AuctionParams", "MixedStrategy", "PureProfile", "expected_payoff_vs_symmetric",
        "pure_payoff",
    ],
    "oracle": [
        "EquilibriumCertificate", "McEstimate", "PureDeviation", "ReplayReport", "SignCheck",
        "best_response_scan", "bisection_quantile", "cdf_sensitivity_check",
        "certify_equilibrium", "comparative_statics_check", "find_pure_deviation",
        "hillman_samet_check", "monte_carlo_replay",
    ],
}
NAMES = [(module, name) for module, names in EXPORTS.items() for name in names]


def _python(*argv: str, env_update=None, unset=()) -> subprocess.CompletedProcess:
    """A fresh interpreter run with src on its path; it must exit 0."""
    env = {k: v for k, v in os.environ.items() if k not in unset}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env.update(env_update or {})
    proc = subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc


@pytest.mark.parametrize("statement", ["import pga_lab", "import pga_lab.cli"])
def test_import_loads_no_numpy(statement):
    proc = _python("-c", f"import sys; {statement}; print('numpy' in sys.modules)")
    assert proc.stdout.split() == ["False"]


def _imported(proc: subprocess.CompletedProcess) -> list[str]:
    """The modules a run imported: -X importtime lists each on stderr."""
    return [line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()]


def test_cli_help_loads_no_numpy():
    proc = _python("-X", "importtime", "-m", "pga_lab.cli", "--help")
    assert proc.stdout.startswith("usage: pga-lab")
    imported = _imported(proc)
    assert "pga_lab.errors" in imported
    assert not [name for name in imported if name.split(".")[0] == "numpy"]


AUCTION = ["--V", "10", "--g", "1", "--r1", "0.1", "--r2", "0.1"]
SCALAR_COMMANDS = {
    "equilibrium": ["equilibrium", *AUCTION, "--N", "5"],
    "equilibrium-json-entry-cost": ["equilibrium", *AUCTION, "--N", "5", "--c", "0.5",
                                    "--json", "{out}.json"],
    "revenue-json": ["revenue", *AUCTION, "--N", "5", "--json", "{out}.json"],
    "compare-schemes-json": ["compare-schemes", *AUCTION, "--N", "5", "--c", "0.5",
                             "--json", "{out}.json"],
    "sweep-abstention": ["sweep", "--target", "abstention", *AUCTION, "--vary", "N=2,5",
                         "--vary2", "c=0,0.5", "--out", "{out}.csv"],
    "sweep-revenue": ["sweep", "--target", "revenue", *AUCTION, "--vary", "N=2,5",
                      "--vary2", "r1=0.01,0.1", "--out", "{out}.csv"],
    "sweep-scheme-compare": ["sweep", "--target", "scheme_compare", *AUCTION, "--N", "5",
                             "--vary", "c=0.1,0.5", "--out", "{out}.csv"],
    "sweep-mev-tax": ["sweep", "--target", "mev_tax", *AUCTION, "--vary2", "tau=0,0.5,2",
                      "--vary", "N=2,5,100000", "--out", "{out}.csv"],
}


@pytest.mark.parametrize("argv", SCALAR_COMMANDS.values(), ids=SCALAR_COMMANDS.keys())
def test_scalar_commands_load_no_numpy(argv, tmp_path):
    # these commands compute a handful of scalars, all in math
    out = str(tmp_path / "out")
    proc = _python("-X", "importtime", "-m", "pga_lab.cli",
                   *(arg.format(out=out) for arg in argv))
    assert proc.stdout
    imported = _imported(proc)
    assert "pga_lab.serialize" in imported
    assert not [name for name in imported if name.split(".")[0] == "numpy"]


def test_public_names_are_the_module_objects():
    for module, name in NAMES:
        assert getattr(pga_lab, name) is getattr(importlib.import_module(f"pga_lab.{module}"),
                                                 name), name


def test_star_import_gives_the_public_names():
    namespace = {}
    exec("from pga_lab import *", namespace)
    assert {name for _, name in NAMES} <= set(namespace)
    assert sorted(pga_lab.__all__) == sorted(name for _, name in NAMES)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        pga_lab.no_such_name


def test_submodule_import_from_package():
    from pga_lab import analytics

    assert analytics is sys.modules["pga_lab.analytics"]
    assert analytics.revenue_report is pga_lab.revenue_report


_MAIN_PROBE = (
    "import os, sys\n"
    "from pga_lab import cli\n"
    "print(os.environ.get('OPENBLAS_NUM_THREADS'))\n"
    "def probe(argv):\n"
    "    print(os.environ.get('OPENBLAS_NUM_THREADS'), 'numpy' in sys.modules)\n"
    "    return 0\n"
    "cli.run = probe\n"
    "sys.argv = ['pga-lab']\n"
    "cli.main()\n"
)


def test_cli_main_defaults_blas_threads_to_one():
    # importing the CLI sets nothing; main() sets the default before numpy loads
    out = _python("-c", _MAIN_PROBE, unset=("OPENBLAS_NUM_THREADS",)).stdout
    assert out.splitlines() == ["None", "1 False"]


def test_cli_main_keeps_the_users_blas_threads():
    out = _python("-c", _MAIN_PROBE, env_update={"OPENBLAS_NUM_THREADS": "2"}).stdout
    assert out.splitlines() == ["2", "2 False"]


def test_importing_the_library_sets_no_blas_threads():
    out = _python("-c", "import os, pga_lab, pga_lab.cli\n"
                  "pga_lab.solve_equilibrium\n"
                  "from pga_lab.cli import run\n"
                  "run(['equilibrium', '--V', '10', '--g', '1', '--r1', '0.1', '--r2', '0.1',"
                  " '--N', '5'])\n"
                  "print(os.environ.get('OPENBLAS_NUM_THREADS'))\n",
                  unset=("OPENBLAS_NUM_THREADS",)).stdout
    assert out.splitlines()[-1] == "None"
