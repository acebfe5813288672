"""One benchmark run in a fresh interpreter.

    python3 perfbench/child.py <src-dir> <workload> <seed> <plain|spans|profile|setup>

Imports qdd from <src-dir>, generates the workload's cases from the seed
and builds one NodeStore per case. That is set-up; the moment it ends is
printed as an absolute `time.perf_counter` reading, so the parent can
time set-up from before it started this interpreter. Unless the mode is
"setup", it then simulates every case through the public API, reads the
store counters and checks the result against the workload's oracle,
releasing each case's store before the next, and records the peak RSS.
The "spans" and "profile" modes add the layer instruments of `tracing`.
The last line of stdout is one JSON object.
"""

from __future__ import annotations

import contextlib
import json
import resource
import sys
import time
import traceback


def counts(wl, store, root) -> dict:
    """Store counters after a run; identical across runs of one input."""
    weights = store.weights
    exact = getattr(weights, "_exact", None)
    return {
        "peak_live_nodes": store.peak_live,
        "matrix_nodes_created": store.created_m,
        "vector_nodes_created": store.created_v,
        "final_nodes": wl.final_nodes(store, root),
        "gc_runs": store.gc_runs,
        "ct_hits": store.ct_hits,
        "ct_misses": store.ct_misses,
        "ut_v_lookups": sum(store.ut_lookups_v),
        "ut_m_lookups": sum(store.ut_lookups_m),
        "weights_values": len(weights),
        "weights_exact_keys": None if exact is None else len(exact),
    }


def main(argv: list[str]) -> int:
    src, name, seed, mode = argv[0], argv[1], int(argv[2]), argv[3]
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import qdd

    t1 = time.perf_counter()
    from workloads import WORKLOADS

    wl = WORKLOADS[name]
    cases = wl.make_cases(seed)
    t2 = time.perf_counter()
    stores = [qdd.NodeStore(wl.n) for _ in cases]
    t_ready = time.perf_counter()
    out = {"t_ready": t_ready, "import_s": t1 - t0, "generate_s": t2 - t1, "cases": []}
    if mode == "setup":
        print(json.dumps(out))
        return 0

    if mode != "plain":
        import tracing

        tracer = tracing.SpanTracer()
    profilers: list = []
    for i, case in enumerate(cases):
        store = stores[i]
        rec = {"sim_s": None, "error": None}
        out["cases"].append(rec)
        if mode == "spans":
            instrument = tracer.installed(store)
        elif mode == "profile":
            instrument = tracing.profiled()
        else:
            instrument = contextlib.nullcontext()
        try:
            with instrument as handle:
                start = time.perf_counter()
                root, _report = wl.simulate(case, store)
                rec["sim_s"] = time.perf_counter() - start
            if mode == "profile":
                profilers.extend(handle)
            rec["counts"] = counts(wl, store, root)
            rec["max_err"] = wl.check(store, root, case, seed)
        except Exception:  # a failed run is counted, not fatal
            rec["error"] = traceback.format_exc(limit=3)
        stores[i] = store = None  # one case's nodes at a time, as in a single run
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if mode == "spans":
        gates = sorted(tracer.gate_times())
        out["spans"] = {
            "make_gate_dd_s": tracer.total("make_gate_dd"),
            "refcount_s": tracer.total("inc_ref", "dec_ref"),
            "gc_s": tracer.total("collect_garbage"),
            "gc_reclaimed": tracer.gc_reclaimed,
            "gate_s": gates,
            "pygc_s": tracer.pygc_s,
            "pygc_collections": tracer.pygc_collections,
        }
    elif mode == "profile" and profilers:
        out["profile"] = tracing.profile_summary(profilers)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
