"""qdd benchmark: one workload, one seed, one set of runs.

    python3 perfbench/run.py --workload ghz --seed 1 --seconds 55 --trace 0

Run from the repository root. Each run is a fresh interpreter
(perfbench/child.py) that imports qdd from src/, generates the seeded
workload, simulates it through the public `simulate_*` API and checks the
result against an analytic oracle. A set starts with a few set-up-only
runs, then runs follow one another in a closed loop until --seconds
seconds have passed (at least MIN_RUNS of them). Set-up time and peak RSS
are medians over the runs; simulation time is the mean over the runs of
their simulate calls' wall time, summed over the inputs of the batch.

With --trace 0 the set reports the end-to-end metrics. With --trace 1
it also makes one run under span tracing and one under cProfile (see
tracing.py) and reports the per-layer metrics. Both print every metric
by name with its unit, write a results record to perfbench/results/,
and end with one JSON line:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.

A set is incorrect if any run raised or failed its oracle, or if the
store counters of one input differ between runs, traced runs included.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
RESULTS = os.path.join(HERE, "results")

MIN_RUNS = 3
# Set-up is short and noisy, so it gets extra set-up-only runs.
SETUP_RUNS = 8
CHILD_TIMEOUT_S = 150

# Metrics a user sees, reported on every set, and the units they carry.
END_TO_END = {
    "setup_s": "s",
    "sim_s": "s",
    "peak_rss_mb": "MB",
    "peak_live_nodes": "count",
    "matrix_nodes_created": "count",
    "vector_nodes_created": "count",
    "final_nodes": "count",
    "max_err": "rel",
    "fail_rate": "ratio",
}
# End-to-end metrics that every workload moves steadily across seeds; the
# node counts of the QFT statevector workloads depend on the input, and
# max_err and fail_rate are correctness figures.
END_TO_END_JSON = ("setup_s", "sim_s", "peak_rss_mb")

PER_LAYER = {
    "setup.import_s": "s",
    "setup.generate_s": "s",
    "sim.driver_self_s": "s",
    "sim.gate.p50_ms": "ms",
    "sim.gate.tail_ms": "ms",
    "sim.gate.tail_pct": "%",
    "circuit.self_s": "s",
    "mdd.self_s": "s",
    "mdd.make_gate_dd_s": "s",
    "vdd.self_s": "s",
    "arith.self_s": "s",
    "arith.calls": "count",
    "store.self_s": "s",
    "store.refcount_s": "s",
    "store.gc_s": "s",
    "store.gc_runs": "count",
    "store.gc_reclaimed": "count",
    "store.ct.lookups": "count",
    "store.ct.hit_ratio": "ratio",
    "store.ut_v.lookups": "count",
    "store.ut_v.hit_ratio": "ratio",
    "store.ut_m.lookups": "count",
    "store.ut_m.hit_ratio": "ratio",
    "weights.self_s": "s",
    "weights.intern_calls": "count",
    "weights.values": "count",
    "weights.exact_keys": "count",
    "pygc.s": "s",
    "pygc.collections": "count",
    "trace.overhead": "ratio",
    "profile.overhead": "ratio",
    "peak_live_nodes": "count",
    "matrix_nodes_created": "count",
    "vector_nodes_created": "count",
    "final_nodes": "count",
    "max_err": "rel",
}


class BenchError(RuntimeError):
    """The benchmark itself could not run (not a failed simulation)."""


def spawn(workload: str, seed: int, mode: str) -> dict:
    """One fresh-interpreter run; adds its set-up time, measured from here."""
    t_spawn = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, CHILD, SRC, workload, str(seed), mode],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} run exceeded {CHILD_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{mode} run exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["setup_s"] = out["t_ready"] - t_spawn
    return out


def sim_seconds(run: dict) -> float | None:
    """Simulation wall time of a run, summed over its cases."""
    times = [case["sim_s"] for case in run["cases"]]
    return None if None in times else sum(times)


def case_ok(case: dict, tolerance: float) -> bool:
    return case["error"] is None and "max_err" in case and case["max_err"] <= tolerance


def plain_runs(workload: str, seed: int, seconds: float) -> tuple[list[dict], list[dict]]:
    """SETUP_RUNS set-up-only runs, then a closed loop of plain runs until
    `seconds` have passed since the first (at least MIN_RUNS of them)."""
    start = time.perf_counter()
    setups = [spawn(workload, seed, "setup") for _ in range(SETUP_RUNS)]
    runs: list[dict] = []
    durations: list[float] = []
    while len(runs) < MIN_RUNS or (
        time.perf_counter() - start + statistics.median(durations) <= seconds
    ):
        t = time.perf_counter()
        runs.append(spawn(workload, seed, "plain"))
        durations.append(time.perf_counter() - t)
    return runs, setups


def summarize(runs: list[dict], setups: list[dict], tolerance: float) -> dict:
    """End-to-end metrics of a set of plain runs."""
    cases = [case for run in runs for case in run["cases"]]
    first = runs[0]["cases"]
    counts = [case.get("counts", {}) for case in first]
    sim_s = None
    if all(case["sim_s"] is not None for case in cases):
        # A mean, not a median: on a shared 2-vCPU VM host speed drifts over
        # tens of seconds rather than spiking, and there the mean over the
        # whole measuring window varied less from seed to seed than the median.
        sim_s = statistics.mean(sim_seconds(run) for run in runs)
    every_setup = runs + setups
    return {
        "setup_s": statistics.median(r["setup_s"] for r in every_setup),
        "sim_s": sim_s,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
        "peak_live_nodes": max(c.get("peak_live_nodes", 0) for c in counts),
        "matrix_nodes_created": sum(c.get("matrix_nodes_created", 0) for c in counts),
        "vector_nodes_created": sum(c.get("vector_nodes_created", 0) for c in counts),
        "final_nodes": sum(c.get("final_nodes", 0) for c in counts),
        "max_err": max((c.get("max_err", float("inf")) for c in cases), default=float("inf")),
        "fail_rate": sum(not case_ok(c, tolerance) for c in cases) / len(cases),
        "setup.import_s": statistics.median(r["import_s"] for r in every_setup),
        "setup.generate_s": statistics.median(r["generate_s"] for r in every_setup),
    }


def count_mismatches(reference: list[dict], others: list[dict]) -> list[str]:
    """Runs whose per-case store counters differ from the reference run."""
    want = [case.get("counts") for case in reference[0]["cases"]]
    bad = []
    for i, run in enumerate(reference[1:] + others, start=1):
        got = [case.get("counts") for case in run["cases"]]
        if got != want:
            bad.append(f"run {i} ({run.get('mode', 'plain')}) counters differ from run 0")
    return bad


def tail(values: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten values beyond it, and its value."""
    ordered = sorted(values)
    if len(ordered) <= 10:
        return 100.0, ordered[-1]
    rank = len(ordered) - 10
    return 100.0 * rank / len(ordered), ordered[rank - 1]


def layer_metrics(plain: dict, spans_run: dict, profile_run: dict) -> dict:
    """Per-layer metrics from the plain summary and the two traced runs."""
    counts = [case["counts"] for case in spans_run["cases"]]

    def total(key: str) -> int:
        return sum(c[key] for c in counts)

    def ratio(hits: float, lookups: float) -> float:
        return hits / lookups if lookups else 0.0

    spans = spans_run["spans"]
    prof = profile_run["profile"]
    self_s = prof["self_s"]
    gates = spans["gate_s"]
    tail_pct, tail_s = tail(gates)
    ct_lookups = total("ct_hits") + total("ct_misses")
    ut_v, ut_m = total("ut_v_lookups"), total("ut_m_lookups")
    exact = [c["weights_exact_keys"] for c in counts]
    out = {
        "setup.import_s": plain["setup.import_s"],
        "setup.generate_s": plain["setup.generate_s"],
        "sim.driver_self_s": self_s["sim"],
        "sim.gate.p50_ms": 1e3 * statistics.median(gates),
        "sim.gate.tail_ms": 1e3 * tail_s,
        "sim.gate.tail_pct": tail_pct,
        "mdd.make_gate_dd_s": spans["make_gate_dd_s"],
        "arith.calls": prof["arith_calls"],
        "store.refcount_s": spans["refcount_s"],
        "store.gc_s": spans["gc_s"],
        "store.gc_runs": total("gc_runs"),
        "store.gc_reclaimed": spans["gc_reclaimed"],
        "store.ct.lookups": ct_lookups,
        "store.ct.hit_ratio": ratio(total("ct_hits"), ct_lookups),
        "store.ut_v.lookups": ut_v,
        "store.ut_v.hit_ratio": ratio(ut_v - total("vector_nodes_created"), ut_v),
        "store.ut_m.lookups": ut_m,
        "store.ut_m.hit_ratio": ratio(ut_m - total("matrix_nodes_created"), ut_m),
        "weights.intern_calls": prof["intern_calls"],
        "weights.values": total("weights_values"),
        "weights.exact_keys": None if None in exact else sum(exact),
        "pygc.s": spans["pygc_s"],
        "pygc.collections": spans["pygc_collections"],
        "trace.overhead": sim_seconds(spans_run) / plain["sim_s"],
        "profile.overhead": sim_seconds(profile_run) / plain["sim_s"],
    }
    for mod in ("circuit", "mdd", "vdd", "arith", "store", "weights"):
        out[f"{mod}.self_s"] = self_s[mod]
    for key in ("peak_live_nodes", "matrix_nodes_created", "vector_nodes_created",
                "final_nodes", "max_err"):
        out[key] = plain[key]
    return out


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_sha() -> str | None:
    """HEAD of the checkout, if the checkout itself is a git repository
    (never that of a repository it happens to sit inside)."""
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def run_set(wl, seed: int, seconds: float, trace: int, tolerance: float) -> dict:
    """Run one workload's set, print its metrics, write its results record
    and return the result object."""
    runs, setups = plain_runs(wl.name, seed, seconds)
    traced = []
    for mode in ("spans", "profile") if trace else ():
        traced.append(spawn(wl.name, seed, mode))
        traced[-1]["mode"] = mode

    summary = summarize(runs, setups, tolerance)
    problems = count_mismatches(runs, traced)
    cases = [case for run in runs + traced for case in run["cases"]]
    failed = sum(not case_ok(case, tolerance) for case in cases)
    problems += [case["error"] for case in cases if case["error"]]
    metrics = {name: (summary[name], unit) for name, unit in END_TO_END.items()}
    shown = END_TO_END_JSON
    if trace and not failed:
        layers = layer_metrics(summary, *traced)
        metrics.update((name, (layers[name], unit)) for name, unit in PER_LAYER.items())
        shown = [name for name in PER_LAYER if layers[name] is not None]

    for name, (value, unit) in metrics.items():
        if value is None:  # only weights.exact_keys, which reads a private attribute
            print(f"{wl.name} {name} = missing {unit}")
        else:
            print(f"{wl.name} {name} = {value} {unit}")
    for problem in problems:
        print(f"problem: {problem}")

    record = {
        "workload": wl.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "n": wl.n,
        "mode": wl.mode,
        "kind": wl.kind,
        "batch": wl.batch,
        "rationale": wl.rationale,
        "environment": {
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "cpu_model": cpu_model(),
            "platform": platform.platform(),
            "git_sha": git_sha(),
        },
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        "samples": {
            "sim_s": [[case["sim_s"] for case in r["cases"]] for r in runs],
            "setup_s": [r["setup_s"] for r in runs + setups],
            "peak_rss_mb": [r["peak_rss_mb"] for r in runs],
        },
        "counts": [case.get("counts") for case in runs[0]["cases"]],
        "problems": problems,
    }
    os.makedirs(RESULTS, exist_ok=True)
    path = os.path.join(RESULTS, f"{wl.name}-seed{seed}-trace{trace}.json")
    with open(path, "w") as f:
        json.dump(record, f, indent=1)
    print(f"results record: {os.path.relpath(path, ROOT)}")

    return {
        "correct": not problems and not failed,
        "attempted": len(cases),
        "failed": failed,
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]} for name in shown},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name, or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "qdd", "__init__.py")):
        print(f"qdd sources not found under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import TOLERANCE, WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [name for name in names if name not in WORKLOADS]
    if unknown:
        parser.error(f"unknown workload {unknown[0]!r}; choose from all, {', '.join(WORKLOADS)}")

    results = {}
    try:
        for name in names:
            results[name] = run_set(WORKLOADS[name], args.seed, args.seconds, args.trace, TOLERANCE)
    except BenchError as exc:
        print(f"benchmark could not run: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        result = results[names[0]]
    else:  # metric names are prefixed with their workload's
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{key}": metric for name, r in results.items()
                        for key, metric in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
