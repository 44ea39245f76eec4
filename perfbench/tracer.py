"""Traced pga-lab CLI run: per-layer times and counts.

    python3 perfbench/tracer.py RESULT.json -- CLI_ARGS...

Runs ``pga_lab.cli.run(CLI_ARGS)`` in this process after wrapping the
functions at each layer boundary, then writes the per-layer metrics and the
recorded spans to RESULT.json and exits with the CLI's exit code. A span is
[thread, name, start, end, parent], where parent indexes the spans of the
same thread, or is -1 for a call made by no wrapped function. The
modules import each other with ``from .x import y``, so every binding of a
wrapped function is patched, in every pga_lab module that holds it.

Each thread keeps its own call stack, spans and counters, so pool workers
record without locks and no update is lost; the threads' records are merged
at the end. A call's self time is its duration minus the calls it made into
other wrapped functions on the same thread. The cli layer is the root: its
self time is the CLI run minus the union of the top-level calls of every
thread, which leaves argument parsing, row building, printing and pool
overhead. verify.run_battery only waits for its pool, so its self time is
likewise its duration minus the union of the pool threads' calls.
"""

from __future__ import annotations

import inspect
import json
import os
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Optional

import numpy as np

LAYERS = ("cli", "serialize", "market", "equilibrium", "analytics", "numerics",
          "oracle", "model", "verify")


class _ThreadState:
    __slots__ = ("stack", "open", "spans", "top", "stats", "counts")

    def __init__(self) -> None:
        self.stack: list[float] = []  # time spent in wrapped callees, per open call
        self.open: list[int] = []  # indices into spans of the open spanned calls
        self.spans: list[list] = []  # [name, start, end, parent span index or -1]
        self.top: list[tuple[float, float]] = []  # intervals of calls with no wrapped caller
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counts: dict[str, float] = defaultdict(float)


class Tracer:
    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[_ThreadState] = []

    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            state = self._local.state = _ThreadState()
            with self._lock:
                self._threads.append(state)
            return state

    def wrap(
        self,
        name: str,
        fn: Callable,
        span: bool = True,
        prepare: Optional[Callable] = None,
        observe: Optional[Callable] = None,
    ) -> Callable:
        """Time and count calls of fn under name ("layer.function").

        span=False keeps only the aggregate, for functions called hundreds
        of thousands of times. prepare(args, kwargs, counts) may replace the
        arguments; observe(args, kwargs, result, seconds, counts) takes
        counts after the call, and its own cost is charged to no layer.
        """
        clock = time.perf_counter
        state = self._state

        def wrapper(*args, **kwargs):
            st = state()
            if prepare is not None:
                args, kwargs = prepare(args, kwargs, st.counts)
            rec = None
            if span:
                rec = [name, 0.0, 0.0, st.open[-1] if st.open else -1]
                st.open.append(len(st.spans))
                st.spans.append(rec)
            st.stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                _close(st, name, rec, t0, clock(), clock())
                raise
            t1 = clock()
            if observe is not None:
                observe(args, kwargs, result, t1 - t0, st.counts)
            _close(st, name, rec, t0, t1, clock())
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def merged(self) -> tuple[dict, dict, list, list]:
        stats: dict[str, list] = {}
        counts: dict[str, float] = defaultdict(float)
        spans, top = [], []
        for i, st in enumerate(self._threads):
            for name, (calls, total, own) in st.stats.items():
                acc = stats.setdefault(name, [0, 0.0, 0.0])
                acc[0] += calls
                acc[1] += total
                acc[2] += own
            for key, value in st.counts.items():
                counts[key] += value
            spans += [[i, *rec] for rec in st.spans]
            top += [(i, a, b) for a, b in st.top]
        return stats, counts, spans, top


def _close(st: _ThreadState, name: str, rec, t0: float, t1: float, t_end: float) -> None:
    dt = t1 - t0
    child = st.stack.pop()
    stat = st.stats.get(name)
    if stat is None:
        stat = st.stats[name] = [0, 0.0, 0.0]
    stat[0] += 1
    stat[1] += dt
    stat[2] += dt - child
    # the observer's cost (t1..t_end) is hidden from the caller as well
    if st.stack:
        st.stack[-1] += t_end - t0
    else:
        st.top.append((t0, t_end))
    if rec is not None:
        rec[1], rec[2] = t0, t1
        st.open.pop()


def union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= reach:
            continue
        total += b - max(a, reach)
        reach = b
    return total


def _count_cells(obj: Any) -> int:
    if isinstance(obj, dict):
        return sum(_count_cells(v) for v in obj.values())
    if isinstance(obj, (list, tuple)):
        return sum(_count_cells(v) for v in obj)
    return 1


def _observe_csv(args, kwargs, result, seconds, counts) -> None:
    path, header, rows = args[:3]
    counts["serialize.bytes"] += os.path.getsize(path)
    counts["serialize.cells"] += len(header) + sum(map(len, rows))


def _observe_json(args, kwargs, result, seconds, counts) -> None:
    counts["serialize.bytes"] += os.path.getsize(args[0])
    counts["serialize.cells"] += _count_cells(args[1])


def _observe_simulate(args, kwargs, result, seconds, counts) -> None:
    counts["market.blocks"] += len(result.events)
    counts["market.auctions"] += result.opportunities


def _observe_points(key: str) -> Callable:
    def observe(args, kwargs, result, seconds, counts) -> None:
        counts[key] += np.size(args[1])

    return observe


def _prepare_simpson(args, kwargs, counts):
    integrand = args[0]

    def counted(x):
        counts["numerics.integrand_evals"] += 1
        return integrand(x)

    return (counted, *args[1:]), kwargs


def _observe_replay(signature: inspect.Signature) -> Callable:
    def observe(args, kwargs, result, seconds, counts) -> None:
        bound = signature.bind(*args, **kwargs).arguments
        counts["oracle.replay_draws"] += bound["trials"] * bound["params"].num_agents

    return observe


def _observe_battery(args, kwargs, result, seconds, counts) -> None:
    counts["verify.checks"] += len(result)
    counts["verify.checks_failed"] += sum(not r.passed for r in result)
    counts["verify.check_s_sum"] += sum(r.seconds for r in result)
    counts["verify.slowest_check_s"] = max(
        [counts["verify.slowest_check_s"], *(r.seconds for r in result)]
    )
    counts["verify.battery_s"] += seconds


def install(tracer: Tracer) -> None:
    """Wrap the layer-boundary functions of every pga_lab module."""
    from pga_lab import (analytics, cli, equilibrium, market, model, numerics, oracle,
                         serialize, verify)

    modules = [analytics, cli, equilibrium, market, model, numerics, oracle, serialize,
               verify]
    Equilibrium = equilibrium.Equilibrium
    hot = dict(span=False)
    functions = {
        (serialize, "write_csv"): dict(observe=_observe_csv),
        (serialize, "write_json"): dict(observe=_observe_json),
        (market, "simulate"): dict(observe=_observe_simulate),
        (market, "event_csv_rows"): {},
        (market, "gbm_path"): {},
        (market, "opportunity_value"): hot,
        (equilibrium, "solve_equilibrium"): {},
        (equilibrium, "pure_equilibrium"): {},
        (numerics, "adaptive_simpson"): dict(prepare=_prepare_simpson),
        (numerics, "bisection_inverse"): {},
        (model, "expected_payoff_vs_symmetric"): hot,
        (model, "pure_payoff"): hot,
        (oracle, "monte_carlo_replay"): dict(
            observe=_observe_replay(inspect.signature(oracle.monte_carlo_replay))),
        (verify, "run_battery"): dict(observe=_observe_battery),
        (verify, "random_params"): hot,
    }
    for mod in (analytics, oracle):
        for attr, fn in vars(mod).items():
            if inspect.isfunction(fn) and fn.__module__ == mod.__name__ and attr[0] != "_":
                functions.setdefault((mod, attr), {})
    for (mod, attr), options in functions.items():
        original = getattr(mod, attr)
        layer = mod.__name__.rsplit(".", 1)[-1]
        wrapper = tracer.wrap(f"{layer}.{attr}", original, **options)
        for holder in modules:
            for key, value in list(vars(holder).items()):
                if value is original:
                    setattr(holder, key, wrapper)

    methods = {
        "cdf": hot,
        "quantile": hot,
        "sample_bids": hot,
        "_quantile_arr": dict(span=False, observe=_observe_points("equilibrium.quantile_points")),
        "_cdf_arr": dict(observe=_observe_points("equilibrium.cdf_points")),
        "expected_bid": {},
        "expected_max_bid": {},
    }
    for attr, options in methods.items():
        setattr(Equilibrium, attr,
                tracer.wrap(f"equilibrium.{attr}", getattr(Equilibrium, attr), **options))

    for checks in verify.BATTERIES.values():
        checks[:] = [(name, tracer.wrap(f"verify.{fn.__name__}", fn)) for name, fn in checks]


def layer_metrics(tracer: Tracer, run_start: float, run_end: float) -> tuple[dict, list]:
    stats, counts, spans, top = tracer.merged()

    def calls(name: str) -> int:
        return stats.get(name, (0, 0.0, 0.0))[0]

    def total(name: str) -> float:
        return stats.get(name, (0, 0.0, 0.0))[1]

    def ratio(a: float, b: float, scale: float = 1.0) -> float:
        return a / b * scale if b else 0.0

    run_s = run_end - run_start
    own = defaultdict(float)
    for name, (_, _, self_s) in stats.items():
        own[name.split(".", 1)[0]] += self_s
    for thread, name, start, end, _ in spans:
        if name == "verify.run_battery":
            others = [(a, b) for t, a, b in top if t != thread]
            own["verify"] += (end - start) - union_length(others, start, end) - stats[name][2]
    own["cli"] = run_s - union_length([(a, b) for _, a, b in top], run_start, run_end)

    write_s = total("serialize.write_csv") + total("serialize.write_json")
    simulate_s = total("market.simulate")
    replay_s = total("oracle.monte_carlo_replay")
    metrics = {
        "trace.run_s": run_s,
        "serialize.write_s": write_s,
        "serialize.bytes": counts["serialize.bytes"],
        "serialize.cells": counts["serialize.cells"],
        "serialize.ns_per_cell": ratio(write_s, counts["serialize.cells"], 1e9),
        "market.simulate_s": simulate_s,
        "market.blocks": counts["market.blocks"],
        "market.auctions": counts["market.auctions"],
        "market.us_per_block": ratio(simulate_s, counts["market.blocks"], 1e6),
        "equilibrium.solve_calls": calls("equilibrium.solve_equilibrium"),
        "equilibrium.solve_s": total("equilibrium.solve_equilibrium"),
        "equilibrium.cdf_calls": calls("equilibrium.cdf"),
        "equilibrium.cdf_s": total("equilibrium.cdf"),
        "equilibrium.cdf_points": counts["equilibrium.cdf_points"],
        "equilibrium.quantile_points": counts["equilibrium.quantile_points"],
        "numerics.simpson_calls": calls("numerics.adaptive_simpson"),
        "numerics.integrand_evals": counts["numerics.integrand_evals"],
        "numerics.simpson_s": total("numerics.adaptive_simpson"),
        "analytics.winning_bid_calls": calls("analytics.expected_winning_bid"),
        "analytics.winning_bid_s": total("analytics.expected_winning_bid"),
        "analytics.max_bid_terms": ratio(calls("equilibrium.expected_max_bid"),
                                         calls("analytics.expected_winning_bid")),
        "analytics.revenue_report_s": total("analytics.revenue_report"),
        "oracle.replay_s": replay_s,
        "oracle.replay_draws": counts["oracle.replay_draws"],
        "oracle.ns_per_draw": ratio(replay_s, counts["oracle.replay_draws"], 1e9),
        "oracle.certify_s": total("oracle.certify_equilibrium"),
        "model.payoff_vs_symmetric_calls": calls("model.expected_payoff_vs_symmetric"),
        "model.payoff_vs_symmetric_s": total("model.expected_payoff_vs_symmetric"),
        "verify.checks": counts["verify.checks"],
        "verify.checks_failed": counts["verify.checks_failed"],
        "verify.slowest_check_s": counts["verify.slowest_check_s"],
        "verify.check_s_sum": counts["verify.check_s_sum"],
        "verify.parallel_ratio": ratio(counts["verify.check_s_sum"], counts["verify.battery_s"]),
    }
    metrics.update({f"{layer}.self_s": own[layer] for layer in LAYERS})
    return metrics, spans


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py RESULT.json -- CLI_ARGS...", file=sys.stderr)
        return 2
    from pga_lab import cli

    tracer = Tracer()
    install(tracer)
    start = time.perf_counter()
    code = cli.run(argv[2:])
    end = time.perf_counter()
    metrics, spans = layer_metrics(tracer, start, end)
    with open(argv[0], "w", encoding="utf-8") as fh:
        json.dump({"exit": code, "metrics": metrics, "spans": spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
