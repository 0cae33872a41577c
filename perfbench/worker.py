"""Run one workload in this process and print its raw results as one JSON line.

Started by run.py from the root of a checkout.  ``--t0`` is the parent's
``time.monotonic()`` just before this process was spawned, so that set-up
time includes interpreter start.  With ``--setup-only`` the process stops
after set-up; otherwise it runs the timed loop, then (with ``--trace 1``)
one traced pass, then checks every answer outside the timed region.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import sys
import time

sys.path.insert(0, os.path.abspath("src"))

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

#: a run always makes at least this many passes over its request list
MIN_PASSES = 3


def make_workload(name: str):
    return {
        "finite-models": workloads.FiniteModels,
        "exact-arithmetic": workloads.ExactArithmetic,
    }[name]()


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run_pass(wl):
    """One pass over the request list: (outputs, seconds per request, errors, wall)."""
    wl.reset_memos()
    outs, secs, errors = [], [], {}
    clock = time.perf_counter
    p0 = clock()
    for i, req in enumerate(wl.requests):
        t0 = clock()
        try:
            out = wl.execute(req)
        except Exception as exc:  # a failed request is a measured outcome
            out = None
            errors[i] = ("%s: %s" % (type(exc).__name__, exc))[:300]
        secs.append(clock() - t0)
        outs.append(out)
    return outs, secs, errors, clock() - p0


def timed_loop(wl, seconds: float):
    """Whole passes until ``seconds`` have passed, at least MIN_PASSES of them.

    Returns the first pass's outputs, their digests, and per pass (seconds per
    request, errors, indices whose answer differs from the first pass).
    Later passes' outputs are compared and dropped between passes, and every
    pass starts from a collected heap, so that no pass pays for collecting
    what the passes before it kept alive."""
    first, digests, passes = None, None, []
    t_end = time.perf_counter() + seconds
    while len(passes) < MIN_PASSES or time.perf_counter() < t_end:
        gc.collect()
        outs, secs, errors, _ = run_pass(wl)
        if first is None:
            first, digests = outs, [workloads.dumps(o) for o in outs]
            changed = set()
        else:
            changed = {i for i, out in enumerate(outs) if workloads.dumps(out) != digests[i]}
        passes.append((secs, errors, changed))
        del outs
    return first, digests, passes


def hit_ratios(fns) -> dict:
    """Hits over lookups of each memo table since its last reset."""
    out = {}
    for fn in fns:
        info = getattr(fn, "cache_info", None)
        if info is not None:
            stats = info()
            lookups = stats.hits + stats.misses
            out[fn.__name__] = stats.hits / lookups if lookups else 0.0
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    result = measure(make_workload(args.workload), args.seed, args.seconds, args.trace, args.t0,
                     args.setup_only)
    print(json.dumps(result))
    return 0


def measure(wl, seed: int, seconds: float, trace: int, t0: float, setup_only=False) -> dict:
    """Set up, run the timed loop (and a traced pass), check every answer."""
    tr = tracing.Tracer() if trace else None
    wl.setup(seed)
    if tr is not None:
        tr.install()
    wl.warm_up()
    if tr is not None:
        tr.uninstall()
    setup_s = time.monotonic() - t0
    if setup_only:
        return {"setup_s": setup_s}

    first, digests, passes = timed_loop(wl, seconds)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    n = len(wl.requests)
    failures = {}
    for _, errors, changed in passes:
        for i, reason in errors.items():
            failures.setdefault(i, reason)
        for i in changed:
            failures.setdefault(i, "answer changed between passes")

    result = {"setup_s": setup_s, "n": n, "passes": len(passes), "peak_rss_mb": rss_kb / 1024.0,
              "requests_sha256": sha256(workloads.dumps(wl.requests))}

    if tr is not None:
        gc.collect()
        tr.install()
        traced_outs, _, traced_errors, traced_wall = run_pass(wl)
        tr.uninstall()
        for i, out in enumerate(traced_outs):
            if i not in failures and (i in traced_errors or workloads.dumps(out) != digests[i]):
                failures[i] = "traced answer differs: %s" % traced_errors.get(i, "output")
        result["trace"] = trace_stats(wl, tr, traced_wall)
        result["edge"] = wl.edge_slice()

    for i, (req, out) in enumerate(zip(wl.requests, first)):
        if i not in failures:
            reason = wl.check(req, out)
            if reason:
                failures[i] = reason

    ok = [i for i in range(n) if i not in failures]
    result["output_sha256"] = sha256("\n".join(digests))
    result["failures"] = {str(i): failures[i] for i in sorted(failures)}
    result["latency_s"] = [min(p[0][i] for p in passes) for i in ok]
    result["kinds"] = [wl.requests[i]["kind"] for i in ok]
    return result


def trace_stats(wl, tr, traced_wall) -> dict:
    """Span totals of the traced set-up and pass, with the memo hit ratios of the pass."""
    snap = tr.snapshot()
    snap["hit_ratio"] = hit_ratios(wl.memos)
    from torsionlab import integers

    snap["sieve_limit"] = getattr(integers, "_SIEVE_LIMIT", 0)
    snap["traced_wall_s"] = traced_wall
    expected = workloads.EXPECTED_SPANS[wl.name]
    snap["missing_spans"] = sorted(set(tr.missing) | {s for s in expected if not tr.calls.get(s)})
    return snap


if __name__ == "__main__":
    sys.exit(main())
