"""Slacker benchmark: one workload, one seed, one JSON line of metrics.

Usage (from the repository root)::

    python3 slackbench/run.py --workload slacker-pid --seed 42 --seconds 30 --trace 0

``--trace 0`` runs the workload's sub-seed simulations untraced,
repeats them while ``--seconds`` allow, checks every output and prints
the end-to-end metrics.  ``--trace 1`` runs the first sub-seed once
untraced and twice under the profiler and prints the per-layer metrics.
The metric names and units come from ``BENCHMARK.json``; a report
table with every metric and its sample count precedes the JSON line,
and the full record (with the profiles of a traced run) is written
under ``.slackbench_out/``.  Exit status: 0 when every output check passed,
1 when one failed (the JSON line still prints, with ``correct`` false),
2 when the program or ``BENCHMARK.json`` is missing.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".slackbench_out"

#: Seed when ``--seed`` is not given; the figures in NOTES.md use it.
DEFAULT_SEED = 42
#: Measuring time when ``--seconds`` is not given.
DEFAULT_SECONDS = 30.0


def _lower_quartile(values: list[float]) -> float:
    return statistics.quantiles(values, n=4)[0] if len(values) > 1 else values[0]


def _percentile(ordered: list[float], pct: float) -> float:
    """Nearest-rank percentile of a sorted sample."""
    return ordered[max(1, math.ceil(pct / 100.0 * len(ordered))) - 1]


class ReplayLog:
    """Sim metrics of every (code, workload, seed) this checkout has run.

    Sim metrics are a pure function of the code and the seed, so a
    second run of one seed must reproduce the first exactly, in this
    process or in an earlier one.
    """

    def __init__(self, path: Path, code: str, workload: str):
        self.path = path
        self.prefix = f"{code}:{workload}:"
        self.entries = json.loads(path.read_text()) if path.exists() else {}

    def check(self, seed: int, sim_metrics: tuple) -> list[str]:
        key = self.prefix + str(seed)
        value = json.loads(json.dumps(sim_metrics))
        known = self.entries.setdefault(key, value)
        if known != value:
            return [f"seed {seed} did not replay: {known} != {value}"]
        return []

    def save(self) -> None:
        tmp = self.path.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(self.entries, indent=0, sort_keys=True))
        os.replace(tmp, self.path)


def measure(workload, seed: int, seconds: float, replay: ReplayLog) -> tuple[dict, dict]:
    """The untraced run: returns (metrics as (value, unit, n), outcome)."""
    import workloads as W

    seeds = W.sub_seeds(seed, workload.sub_seeds)
    deadline = time.perf_counter() + seconds
    first, wall, host, setup, failures = {}, {}, {}, [], []

    def one(s: int):
        # A set-up-only sample before each simulation spreads the set-up
        # samples over the run like the simulations.
        setup.append(W.time_setup(workload, s))
        began = time.perf_counter()
        result = W.simulate(workload, s)
        wall.setdefault(s, time.perf_counter() - began)
        setup.append(result.setup_s)
        host.setdefault(s, []).append(result.host_s)
        return result

    for s in seeds:
        first[s] = result = one(s)
        failures += [f"seed {s}: {v}" for v in result.violations]
        failures += replay.check(s, result.sim_metrics())
    # Repeat sub-seeds while time allows: more host samples, and every
    # repeat must reproduce its first run exactly.
    index = 0
    while time.perf_counter() + wall[seeds[index]] < deadline:
        s = seeds[index]
        if one(s).sim_metrics() != first[s].sim_metrics():
            failures.append(f"seed {s} did not repeat within the run")
        index = (index + 1) % len(seeds)

    runs = list(first.values())
    latencies = sorted(v for r in runs for v in r.latencies)
    n = len(latencies)
    arrived = sum(r.arrived for r in runs)
    unfinished = sum(r.unfinished for r in runs)
    # The host is shared and neighbours slow it by up to 2x for seconds
    # at a time, so host cost is the lower quartile, over every
    # simulation of the run, of host seconds per kernel event, scaled to
    # the mean events of one sub-seed's simulation.
    per_event = [t / first[s].events for s in seeds for t in host[s]]
    host_s = _lower_quartile(per_event) * statistics.fmean(r.events for r in runs)
    over_sla = sum(1 for v in latencies if v > W.SLA_BOUND_S) + unfinished
    k = len(seeds)
    metrics = {
        "host_s": (host_s, "s", len(per_event)),
        "sim_s_per_host_s": (statistics.fmean(r.sim_s for r in runs) / host_s, "s/s", len(per_event)),
        "setup_s": (statistics.median(setup), "s", len(setup)),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "MB",
            1,
        ),
        "migration_s": (statistics.fmean(r.migration_s for r in runs), "s", k),
        "downtime_ms": (max(r.downtime_s for r in runs) * 1e3, "ms", k),
        "txn_p50_ms": (_percentile(latencies, 50) * 1e3, "ms", n),
        "txn_p99_ms": (_percentile(latencies, 99) * 1e3, "ms", n),
        "sla_miss_ratio": (over_sla / (n + unfinished), "ratio", n + unfinished),
        "txn_failed_ratio": (unfinished / arrived, "ratio", arrived),
    }
    if workload.setpoint_s is not None:
        mean = statistics.fmean(latencies)
        err = abs(mean - workload.setpoint_s) / workload.setpoint_s * 100.0
        metrics["setpoint_err_pct"] = (err, "%", n)
    outcome = {
        "sub_seeds": seeds,
        "fingerprints": {str(s): first[s].fingerprint for s in seeds},
        "host_samples": {str(s): host[s] for s in seeds},
        "events": {str(s): first[s].events for s in seeds},
        "attempted": arrived,
        "unfinished": unfinished,
        "failures": failures,
    }
    return metrics, outcome


def trace(workload, seed: int, replay: ReplayLog) -> tuple[dict, dict]:
    """The traced run: per-layer metrics of the first sub-seed."""
    import cProfile
    import pstats

    import tracing
    import workloads as W

    untraced = W.simulate(workload, seed)
    failures = [f"seed {seed}: {v}" for v in untraced.violations]
    failures += replay.check(seed, untraced.sim_metrics())
    runs = []
    for attempt in range(2):
        profiler = cProfile.Profile()
        counts = {}
        result = W.simulate(
            workload,
            seed,
            around=lambda: tracing.profiling(profiler),
            before_drain=lambda obs: counts.update(tracing.stats_counts(obs)),
        )
        stats = pstats.Stats(profiler)
        counts.update(tracing.profile_counts(stats))
        path = OUT_DIR / f"{workload.name}-seed{seed}-trace{attempt}.pstats"
        runs.append((result, stats, counts, path))
        failures += [f"traced seed {seed}: {v}" for v in result.violations]
        if result.sim_metrics() != untraced.sim_metrics():
            failures.append(f"traced run {attempt} changed the trajectory")
    if runs[0][2] != runs[1][2]:
        diff = sorted(k for k in runs[0][2] if runs[0][2][k] != runs[1][2][k])
        failures.append(f"per-layer counts did not repeat: {diff}")

    metrics = {}
    rollups = [tracing.rollup(stats) for _, stats, _, _ in runs]
    for layer in tracing.LAYERS:
        metrics[f"{layer}.self_s"] = (statistics.fmean(r[layer] for r in rollups), "s", 2)
    for rollup, (_, stats, _, path) in zip(rollups, runs):
        layer_sum = sum(rollup.values())
        if abs(layer_sum - stats.total_tt) > tracing.RECONCILE_TOLERANCE * stats.total_tt:
            failures.append(
                f"layer self times sum to {layer_sum} s, profiler total {stats.total_tt} s"
            )
        stats.dump_stats(str(path))
    for name, value in runs[0][2].items():
        metrics[name] = (value, tracing.UNITS.get(name, "count"), 1)
    metrics["simulation.core.host_us_per_event"] = (
        untraced.host_s / untraced.events * 1e6,
        "us",
        untraced.events,
    )
    traced_host = statistics.fmean(r.host_s for r, _, _, _ in runs)
    metrics["trace.overhead_x"] = (traced_host / untraced.host_s, "x", 2)
    metrics["trace.profiled_s"] = (
        statistics.fmean(stats.total_tt for _, stats, _, _ in runs),
        "s",
        2,
    )
    outcome = {
        "sub_seeds": [seed],
        "fingerprints": {str(seed): untraced.fingerprint},
        "attempted": untraced.arrived + sum(r.arrived for r, _, _, _ in runs),
        "unfinished": untraced.unfinished + sum(r.unfinished for r, _, _, _ in runs),
        "failures": failures,
        "profiles": [str(path.relative_to(ROOT)) for _, _, _, path in runs],
    }
    return metrics, outcome


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro").is_dir() or not spec_path.is_file():
        print(f"no program to benchmark under {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    sys.path.insert(0, str(ROOT / "src"))

    import workloads as W

    from repro.parallel.cache import code_fingerprint

    if args.workload not in W.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(W.WORKLOADS)}")
    workload = W.WORKLOADS[args.workload]
    seed = args.seed if args.seed is not None else DEFAULT_SEED
    seconds = args.seconds if args.seconds is not None else DEFAULT_SECONDS

    OUT_DIR.mkdir(exist_ok=True)
    replay = ReplayLog(OUT_DIR / "replay.json", code_fingerprint(), workload.name)
    if args.trace:
        metrics, outcome = trace(workload, seed, replay)
        declared = spec["per_layer"]
    else:
        metrics, outcome = measure(workload, seed, seconds, replay)
        declared = spec["end_to_end"]
    replay.save()

    failures = outcome["failures"]
    for entry in declared:
        _, unit, _ = metrics.get(entry["name"], (None, None, None))
        if unit != entry["unit"]:
            failures.append(f"metric {entry['name']}: got unit {unit}, declared {entry['unit']}")
    correct = not failures
    attempted = outcome["attempted"]

    print(f"workload {workload.name}  seed {seed}  trace {args.trace}  "
          f"sub-seeds {outcome['sub_seeds']}")
    print(f"{'metric':40} {'value':>16} {'unit':>8} {'n':>8}")
    for name, (value, unit, n) in metrics.items():
        print(f"{name:40} {value:16.6g} {unit:>8} {n:8d}")
    for failure in failures:
        print(f"CHECK FAILED: {failure}")
    record = {
        "workload": workload.name,
        "seed": seed,
        "trace": args.trace,
        "correct": correct,
        **outcome,
        "metrics": {k: {"value": v, "unit": u, "n": n} for k, (v, u, n) in metrics.items()},
    }
    (OUT_DIR / f"{workload.name}-seed{seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1)
    )
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": outcome["unfinished"] if correct else attempted,
        "metrics": {
            e["name"]: {"value": metrics[e["name"]][0], "unit": e["unit"]}
            for e in declared
            if e["name"] in metrics
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
