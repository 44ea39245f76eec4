"""Tests of the benchmark itself: python3 -m pytest perfbench"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from run import END_TO_END_UNITS, ROOT, child_env
from tracer import Tracer, layer_metrics
from workloads import WORKLOADS

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def run_cli(workload: str, seed: int, out: Path) -> str:
    out.mkdir(parents=True, exist_ok=True)
    argv = WORKLOADS[workload].argv(seed, out)
    proc = subprocess.run([sys.executable, "-m", "pga_lab.cli", *argv], env=child_env(),
                          capture_output=True, text=True, check=True)
    return proc.stdout


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """Each workload's output at seed 1, made once and copied per test."""
    made = {}
    for name in WORKLOADS:
        out = tmp_path_factory.mktemp(name)
        made[name] = (out, run_cli(name, 1, out))
    return made


def fresh_copy(outputs, name: str, tmp_path: Path) -> tuple[Path, str]:
    src, stdout = outputs[name]
    dst = tmp_path / name
    shutil.copytree(src, dst)
    return dst, stdout


def flip_digit(text: str, line: int, cell: int) -> str:
    """Change the leading significant digit of one CSV cell."""
    lines = text.split("\n")
    cells = lines[line].split(",")
    match = re.search(r"[1-9]", cells[cell])
    digit = cells[cell][match.start()]
    cells[cell] = cells[cell][: match.start()] + str(int(digit) % 9 + 1) + cells[cell][match.end():]
    lines[line] = ",".join(cells)
    return "\n".join(lines)


def flip_json_value(text: str, key: str) -> str:
    """Change the leading significant digit of the first value stored under key."""
    match = re.search(rf'"{key}": -?0?\.?0*([1-9])', text)
    digit = match.group(1)
    return text[: match.start(1)] + str(int(digit) % 9 + 1) + text[match.end(1):]


CORRUPTIONS = {
    # workload: (file, corrupt(text) -> text); the rows are mid-file
    "cdf-sweep": ("cdf.csv", lambda t: flip_digit(t, t.count("\n") // 2 + 150, 2)),
    "tax-sweep": ("tax.csv", lambda t: flip_digit(t, 11, 4)),
    "market-sim/csv": ("events.csv", lambda t: flip_digit(t, 5000, 1)),
    "market-sim/json": ("report.json", lambda t: flip_json_value(t, "csr")),
    "verify-battery": ("verify.json", lambda t: flip_json_value(t, "seed")),
}


@pytest.mark.parametrize("case", sorted(CORRUPTIONS))
def test_one_flipped_digit_fails_the_check(outputs, tmp_path, case):
    name = case.split("/")[0]
    workload = WORKLOADS[name]
    out, stdout = fresh_copy(outputs, name, tmp_path)
    assert workload.check(out, stdout, 1) == []
    file, corrupt = CORRUPTIONS[case]
    path = out / file
    text = path.read_text(encoding="utf-8")
    corrupted = corrupt(text)
    assert sum(a != b for a, b in zip(text, corrupted)) == 1
    path.write_text(corrupted, encoding="utf-8")
    assert workload.check(out, stdout, 1) != []


def test_verify_stdout_must_report_every_check_passed(outputs, tmp_path):
    out, stdout = fresh_copy(outputs, "verify-battery", tmp_path)
    assert "12/12 checks passed" in stdout
    assert WORKLOADS["verify-battery"].check(out, stdout.replace("12/12", "11/12"), 1) != []


def test_market_sim_seed_reaches_the_program(tmp_path):
    workload = WORKLOADS["market-sim"]
    digests = {}
    for run, seed in (("a", 1), ("b", 1), ("c", 2)):
        stdout = run_cli("market-sim", seed, tmp_path / run)
        assert workload.check(tmp_path / run, stdout, seed) == []
        digests[run] = workload.digest(tmp_path / run, stdout)
    assert digests["a"] == digests["b"]
    assert digests["a"] != digests["c"]


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    traced, _ = layer_metrics(Tracer(), 0.0, 1.0)
    assert end_to_end == set(END_TO_END_UNITS)
    assert per_layer == set(traced) | {"trace.wall_s", "trace.overhead_s"}
    for name in end_to_end | per_layer | {w["name"] for w in spec["workloads"]}:
        assert NAME.fullmatch(name), name
    assert set(WORKLOADS) == {w["name"] for w in spec["workloads"]}


def test_result_line_follows_the_contract():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tax-sweep", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == set(END_TO_END_UNITS)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "market-sim", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
