"""End-to-end and per-layer benchmark of the pga-lab CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

    # every end-to-end metric of every workload
    for w in cdf-sweep market-sim tax-sweep verify-battery; do
        python3 perfbench/run.py --workload $w --seed 1 --seconds 28 --trace 0
    done

Run from anywhere inside a source checkout; the program under test is the
checkout's own ``src/pga_lab``. For S seconds the benchmark launches the
workload's ``pga-lab`` invocation again and again, each in a fresh
interpreter, one at a time, and times it from spawn to exit. The first few
times it also times a bare ``import pga_lab.cli``: every invocation pays that
set-up cost. The environment passed to the CLI is the caller's, less
PGA_LAB_THREADS, so the CLI's pools run at their defaults.

On a shared machine the speed of the whole machine drifts by tens of
percent within minutes, so raw times from two runs cannot be compared.
Before and after each invocation the benchmark therefore runs calibrate.py,
a fixed task that touches no pga_lab code, and reports every time in
reference seconds: the invocation's time divided by the mean time of the two
reference runs around it, times REFERENCE_S. On a quiet machine of the kind the baseline was
recorded on, reference seconds are plain seconds. The raw medians are
printed too.

Each invocation's output is checked for correctness against tolerances and
independent references, outside the timed region, and its digest must match
the run's first invocation. An invocation that exits nonzero, fails its
check or differs from the first counts as failed.

--trace 0 reports the end-to-end metrics: median wall and CPU time and peak
RSS of one invocation, items per wall second, and set-up time. --trace 1
alternates plain invocations with traced ones (tracer.py) and reports the
per-layer metrics of the traced ones, in raw seconds, plus the tracing
overhead; the spans of the last traced invocation are kept in
.perfbench-spans/NAME.json. The last line of standard output is one JSON object: correct,
attempted, failed and metrics. Exits 2 without a result when the checkout
has no pga_lab sources.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from workloads import WORKLOADS, Workload

ROOT = Path(__file__).resolve().parent.parent
TRACER = Path(__file__).resolve().parent / "tracer.py"
CALIBRATE = Path(__file__).resolve().parent / "calibrate.py"
# Typical wall time of calibrate.py on the 2-vCPU KVM Xeon the baseline was
# recorded on; converts time ratios back into seconds.
REFERENCE_S = 0.30
WORK_DIR = ROOT / ".perfbench-work"
SPANS_DIR = ROOT / ".perfbench-spans"  # the last traced invocation's spans, per workload
SETUP_REPEATS = 5
INVOCATION_TIMEOUT = 60  # seconds
TAIL_BEYOND = 10  # samples that must lie beyond a reported tail percentile

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
                    "items_per_s": "1/s", "setup_s": "s"}


def per_layer_unit(name: str) -> str:
    suffixes = {"_s": "s", "_s_sum": "s", "ns_per_cell": "ns", "ns_per_draw": "ns",
                "us_per_block": "us", "bytes": "B", "_ratio": "ratio", "_terms": "ratio"}
    return next((unit for sfx, unit in suffixes.items() if name.endswith(sfx)), "count")


@dataclass
class Invocation:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    exit_code: int
    stdout: str


@dataclass
class Results:
    setup: list[Invocation] = field(default_factory=list)  # in the first cycles
    reference: list[Invocation] = field(default_factory=list)  # around each plain invocation
    plain: list[Invocation] = field(default_factory=list)
    traced: list[Invocation] = field(default_factory=list)
    layer_metrics: list[dict] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    failed: int = 0


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PGA_LAB_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


class _TimedOut(Exception):
    pass


def _alarm(signum, frame):
    raise _TimedOut


def invoke(cmd: list[str], env: dict, log: Path) -> Invocation:
    """Run cmd to completion; wall time from spawn to exit, rusage of the child.
    A child still running after INVOCATION_TIMEOUT seconds is killed."""
    with log.open("wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=out, stderr=subprocess.STDOUT)
        signal.alarm(INVOCATION_TIMEOUT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except _TimedOut:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            signal.alarm(0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Invocation(
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,  # Linux reports KiB
        exit_code=proc.returncode,
        stdout=log.read_text(encoding="utf-8", errors="replace"),
    )


class Checker:
    """Judges invocations: exit code, output check, digest equal to the first."""

    def __init__(self, workload: Workload, seed: int, out: Path) -> None:
        self.workload, self.seed, self.out = workload, seed, out
        self.first_digest: str | None = None
        self.verdicts: dict[str, list[str]] = {}  # digest -> problems of that output

    def problems(self, inv: Invocation) -> list[str]:
        if inv.exit_code != 0:
            return [f"exit code {inv.exit_code}: {inv.stdout.strip()[-300:]}"]
        try:
            digest = self.workload.digest(self.out, inv.stdout)
        except (OSError, ValueError, KeyError) as exc:
            return [f"unreadable output: {exc!r}"]
        if digest not in self.verdicts:
            try:
                self.verdicts[digest] = self.workload.check(self.out, inv.stdout, self.seed)
            except Exception as exc:  # malformed output of any kind fails the check
                self.verdicts[digest] = [f"check raised {exc!r}"]
        if self.first_digest is None:
            self.first_digest = digest
        found = list(self.verdicts[digest])
        if digest != self.first_digest:
            found.append("output differs from the first invocation of this run")
        return found


def run(workload: Workload, seed: int, seconds: float, trace: bool) -> Results:
    env = child_env()
    shutil.rmtree(WORK_DIR, ignore_errors=True)
    out = WORK_DIR / "out"
    out.mkdir(parents=True)
    log = WORK_DIR / "stdout.txt"
    traced_result = WORK_DIR / "trace.json"
    res = Results()

    def must_succeed(cmd: list[str]) -> Invocation:
        inv = invoke(cmd, env, log)
        if inv.exit_code != 0:
            raise RuntimeError(f"{' '.join(cmd[1:])} failed: {inv.stdout.strip()[-300:]}")
        return inv

    reference = [sys.executable, str(CALIBRATE)]
    setup = [sys.executable, "-c", "import pga_lab.cli"]
    argv = workload.argv(seed, out)
    commands = {"plain": [sys.executable, "-m", "pga_lab.cli", *argv]}
    if trace:
        commands["traced"] = [sys.executable, str(TRACER), str(traced_result), "--", *argv]
    checker = Checker(workload, seed, out)
    cycles: list[float] = []
    deadline = time.perf_counter() + seconds
    # start another cycle only if a typical one ends before the deadline
    while not cycles or time.perf_counter() + statistics.median(cycles) <= deadline:
        cycle_start = time.perf_counter()
        if not trace:
            res.reference.append(must_succeed(reference))
            if len(res.setup) < SETUP_REPEATS:
                res.setup.append(must_succeed(setup))
        for kind, cmd in commands.items():
            for name in workload.outputs:
                (out / name).unlink(missing_ok=True)
            traced_result.unlink(missing_ok=True)
            inv = invoke(cmd, env, log)
            samples = getattr(res, kind)
            samples.append(inv)
            found = checker.problems(inv)
            if kind == "traced" and not found:
                res.layer_metrics.append(
                    json.loads(traced_result.read_text(encoding="utf-8"))["metrics"]
                )
                SPANS_DIR.mkdir(exist_ok=True)
                shutil.copy(traced_result, SPANS_DIR / f"{workload.name}.json")
            if found:
                res.failed += 1
                res.problems += [f"{kind} #{len(samples)}: {p}" for p in found]
        cycles.append(time.perf_counter() - cycle_start)
    if not trace:
        res.reference.append(must_succeed(reference))  # closes the last pair
    return res


def calibrated(values: list[float], references: list[Invocation]) -> list[float]:
    """Each value in reference seconds: divided by the mean wall time of the
    reference task runs just before and just after it, times REFERENCE_S."""
    around = [(a.wall_s + b.wall_s) / 2 for a, b in zip(references, references[1:])]
    return [v / r * REFERENCE_S for v, r in zip(values, around)]


def tail(values: list[float]) -> tuple[int, float] | None:
    """The highest whole percentile with at least TAIL_BEYOND samples above it."""
    n = len(values)
    if n < 2 * TAIL_BEYOND:
        return None
    pct = (100 * (n - TAIL_BEYOND)) // n
    return pct, statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def end_to_end(workload: Workload, res: Results) -> dict[str, float]:
    wall = statistics.median(calibrated([s.wall_s for s in res.plain], res.reference))
    return {
        "wall_s": wall,
        "cpu_s": statistics.median(calibrated([s.cpu_s for s in res.plain], res.reference)),
        "peak_rss_mb": statistics.median(s.peak_rss_mb for s in res.plain),
        "items_per_s": workload.items / wall,
        "setup_s": statistics.median(
            calibrated([s.wall_s for s in res.setup], res.reference[: len(res.setup) + 1])
        ),
    }


def per_layer(res: Results) -> dict[str, float]:
    if not res.layer_metrics:
        return {}
    names = res.layer_metrics[0]
    metrics = {k: statistics.median(m[k] for m in res.layer_metrics) for k in names}
    metrics["trace.wall_s"] = statistics.median(s.wall_s for s in res.traced)
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - statistics.median(
        s.wall_s for s in res.plain
    )
    return metrics


def report(workload: Workload, seed: int, trace: bool, res: Results) -> dict:
    attempted = len(res.plain) + len(res.traced)
    print(f"workload {workload.name} (seed {seed}): {workload.why}")
    print(f"invocations: {len(res.plain)} plain, {len(res.traced)} traced, {res.failed} failed")
    for problem in res.problems[:10]:
        print(f"  FAILED {problem}")
    if trace:
        metrics = per_layer(res)
        units = {k: per_layer_unit(k) for k in metrics}
    else:
        metrics = end_to_end(workload, res)
        units = dict(END_TO_END_UNITS)
        walls = calibrated([s.wall_s for s in res.plain], res.reference)
        t = tail(walls)
        raw = {
            "wall_s": statistics.median(s.wall_s for s in res.plain),
            "cpu_s": statistics.median(s.cpu_s for s in res.plain),
            "setup_s": statistics.median(s.wall_s for s in res.setup),
            "reference task": statistics.median(s.wall_s for s in res.reference),
        }
        print(f"  samples: {len(walls)} invocations, {len(res.setup)} set-up imports; "
              f"times below are in reference seconds (REFERENCE_S = {REFERENCE_S} s)")
        print("  raw medians: " + ", ".join(f"{k} {v:.4g} s" for k, v in raw.items()))
        print(f"  {'wall_s tail':<32} "
              + (f"p{t[0]} {t[1]:.6g} s" if t else f"n/a, fewer than {2 * TAIL_BEYOND} samples"))
        print(f"  {'fail_rate':<32} {res.failed / attempted:.6g} ratio")
        print(f"  {'items':<32} {workload.items} {workload.item_unit} per invocation")
    for name, value in metrics.items():
        print(f"  {name:<32} {value:.6g} {units[name]}")
    return {
        "correct": res.failed == 0,
        "attempted": attempted,
        "failed": res.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "pga_lab" / "cli.py").is_file():
        print(f"no pga_lab sources under {ROOT / 'src'}; run inside a source checkout",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    signal.signal(signal.SIGALRM, _alarm)
    try:
        res = run(workload, args.seed, args.seconds, bool(args.trace))
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(WORK_DIR, ignore_errors=True)
    result = report(workload, args.seed, bool(args.trace), res)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
