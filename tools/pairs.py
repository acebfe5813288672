"""Alternating benchmark runs of two source trees, with an A/A control.

    python3 tools/pairs.py PARENT_SRC CHANGE_SRC [--workload W] [--seeds 1-10]

For every seed of the range (`--seeds 4` is one seed) and every workload
(`--workload` may repeat; ghz and qft-legacy, the workloads
BENCHMARK.json gates, by default) it runs
`perfbench/child.py <src> <workload> <seed> plain` three times, each in
a fresh interpreter: the parent tree, the change tree and the parent
tree again. The order of the three rotates from seed to seed, so no tree
always runs first. It prints one JSON line per workload with, for
`sim_s` (summed over the cases of a run), `setup_s` (from before the
interpreter started until its stores were built) and `peak_rss_mb`:

    parent, change, parent_again -- median, q1 and q3 over the seeds
    change_lower -- seeds in which the change read lower than the parent
    aa_lower     -- seeds in which parent_again read lower than the parent

parent_again runs the parent's code, so aa_lower and its distance from
the parent show what the host's drift alone does to the same count; a
parent/change difference inside that spread is unresolved. Exits 1 if a
run failed or a case of it reported an error.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CHILD = ROOT / "perfbench" / "child.py"
TREES = ("parent", "change", "parent_again")
METRICS = ("sim_s", "setup_s", "peak_rss_mb")


def seed_range(text: str) -> range:
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def run(src: str, workload: str, seed: int) -> dict[str, float]:
    """One plain child run: its summed sim_s, its set-up time measured from
    before the interpreter started (as perfbench/run.py does) and its peak
    RSS."""
    t_spawn = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(CHILD), src, workload, str(seed), "plain"],
        capture_output=True, text=True, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{src} {workload} seed {seed} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    out = json.loads(proc.stdout.splitlines()[-1])
    for case in out["cases"]:
        if case["error"]:
            raise RuntimeError(f"{src} {workload} seed {seed}: {case['error']}")
    return {"sim_s": sum(case["sim_s"] for case in out["cases"]),
            "setup_s": out["t_ready"] - t_spawn, "peak_rss_mb": out["peak_rss_mb"]}


def spread(values: list[float]) -> dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4)}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_src")
    parser.add_argument("change_src")
    parser.add_argument("--workload", action="append", dest="workloads")
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    args = parser.parse_args(argv)
    srcs = {"parent": args.parent_src, "change": args.change_src,
            "parent_again": args.parent_src}
    for workload in args.workloads or ("ghz", "qft-legacy"):
        runs: dict[str, list[dict[str, float]]] = {tree: [] for tree in TREES}
        for i, seed in enumerate(args.seeds):
            for tree in TREES[i % 3:] + TREES[: i % 3]:
                try:
                    runs[tree].append(run(srcs[tree], workload, seed))
                except RuntimeError as exc:
                    print(f"error: {exc}", file=sys.stderr)
                    return 1
        line = {"workload": workload, "seeds": f"{args.seeds[0]}-{args.seeds[-1]}"}
        for metric in METRICS:
            values = {tree: [r[metric] for r in runs[tree]] for tree in TREES}
            parent = values["parent"]
            line[metric] = {tree: spread(values[tree]) for tree in TREES}
            line[metric]["change_lower"] = sum(c < p for c, p in zip(values["change"], parent))
            line[metric]["aa_lower"] = sum(a < p for a, p in zip(values["parent_again"], parent))
        print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
