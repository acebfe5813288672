"""Print the store counters and oracle errors of the benchmark workloads.

    python3 tools/counts.py [src-dir] [--seeds 1-3] [--against FILE]

Runs `perfbench/child.py <src-dir> <workload> <seed> plain` for the ghz,
qft-sv, qft-legacy and qft-unitary workloads and every seed of the range
(`--seeds 2` is one seed), one fresh interpreter at a time. Prints one
JSON line with sorted keys per (workload, seed, case): the case's
`counts` (nodes created, peak live and final nodes, node-GC runs,
compute-table hits and misses, unique-table lookups, weight values) and
its `max_err`, or its `error`. The source directory defaults to src next
to this script's parent. Diffing the output of two source trees checks
that a change leaves every counter as it was. Exits 1 if a case failed.

--against FILE compares each case's counts, not its max_err, with the
lines of an earlier output (tools/counts_seed1.jsonl holds seed 1), for
the seeds run. It prints every case whose counts differ or that only one
side has, and exits 1 if there is one. A change that moves the counters
on purpose regenerates the file:

    python3 tools/counts.py --seeds 1 > tools/counts_seed1.jsonl
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CHILD = ROOT / "perfbench" / "child.py"
WORKLOADS = ("ghz", "qft-sv", "qft-legacy", "qft-unitary")


def seed_range(text: str) -> range:
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", nargs="?", default=str(ROOT / "src"))
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-3"))
    parser.add_argument("--against", type=Path)
    args = parser.parse_args(argv)
    failed = False
    got = {}
    for name in WORKLOADS:
        for seed in args.seeds:
            run = subprocess.run(
                [sys.executable, str(CHILD), args.src, name, str(seed), "plain"],
                capture_output=True,
                text=True,
                check=True,
            )
            out = json.loads(run.stdout.splitlines()[-1])
            for case, rec in enumerate(out["cases"]):
                line = {"workload": name, "seed": seed, "case": case}
                if rec["error"]:
                    failed = True
                    line["error"] = rec["error"].strip().splitlines()[-1]
                else:
                    line["counts"] = rec["counts"]
                    line["max_err"] = rec["max_err"]
                print(json.dumps(line, sort_keys=True), flush=True)
                got[name, seed, case] = line.get("counts")
    if args.against:
        want = {}
        for text in args.against.read_text().splitlines():
            line = json.loads(text)
            if line["seed"] in args.seeds:
                want[line["workload"], line["seed"], line["case"]] = line.get("counts")
        drift = sorted(k for k in want.keys() | got.keys() if want.get(k) != got.get(k))
        for k in drift:
            a, b = want.get(k), got.get(k)
            if a and b:
                moved = (c for c in sorted(a | b) if a.get(c) != b.get(c))
                what = ", ".join(f"{c} {a.get(c)} -> {b.get(c)}" for c in moved)
            else:
                what = f"expected {a}, got {b}"
            print(f"counts differ: {k[0]} seed {k[1]} case {k[2]}: {what}", file=sys.stderr)
        failed = failed or bool(drift)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
