"""torsionlab benchmark: two seeded closed-loop workloads, one client each.

Run from the root of a checkout:

    python3 perfbench/run.py --workload finite-models --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 40

Each run builds a fixed request list from ``--seed``, sets up (interpreter
start, import, request generation, warm-up), then runs whole passes over the
list until ``--seconds`` have passed (at least three passes), and checks
every answer outside the timed region.  With ``--trace 0`` the last line of
stdout holds the end-to-end metrics; with ``--trace 1`` it holds the
per-layer metrics of one extra traced pass (and, on exact-arithmetic, the
edge slice).  The lines above it name every metric with its unit, the output
and request digests, and the edge-slice outcomes.

Every pass runs the same requests from a freshly collected heap and cleared
memo tables, so every pass starts in the same state.  The shared host this
was tuned on changes speed by up to 1.7x for one to three minutes at a time,
and medians over a run's passes follow those swings.  So a request's latency
is its fastest time over the passes, and percentiles are taken over those
per-request times (the sample count is the request count).  With one client
in a closed loop, throughput is the reciprocal of the mean latency: the
number of requests answered correctly divided by the sum of their times.
Set-up is measured in several processes, some before and some after the
timed run, and reported as the median.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracer  # noqa: E402

WORKLOADS = ["finite-models", "exact-arithmetic"]
#: set-up is measured in at least SETUP_MIN_SAMPLES processes, and in more,
#: up to SETUP_MAX_SAMPLES, while their summed time stays within SETUP_BUDGET_S;
#: up to half of them run before the timed run and the rest after it
SETUP_MIN_SAMPLES = 3
SETUP_MAX_SAMPLES = 5
SETUP_BUDGET_S = 6.0
#: every process of one workload's run ends within this many seconds
RUN_BUDGET_S = 175

#: request kinds per workload, for the ``kind.<kind>.p50_ms`` metrics; the
#: edge slice runs on exact-arithmetic
KINDS = {
    "finite-models": ["orbit_density", "special_closure", "keyprop_witness"],
    "exact-arithmetic": ["lift", "lift_central", "membership", "user_rep", "bound_report",
                         "jacobsthal", "coprime_shift", "factorize", "threshold_check", "cli",
                         "edge"],
}

END_TO_END = [
    ("setup_s", "s"), ("ops_per_s", "1/s"), ("op_p50_ms", "ms"), ("op_tail_ms", "ms"),
    ("success_rate", "ratio"), ("peak_rss_mb", "MB"),
]


def per_layer_specs() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []
    for name in tracer.SPANS:
        out.append((name + ".calls", "count", "lower"))
        out.append((name + ".self_s", "s", "lower"))
    out += [
        ("integers.factorize.cache_hit_ratio", "ratio", "higher"),
        ("integers.jacobsthal.cache_hit_ratio", "ratio", "higher"),
        ("integers.sieve_limit", "count", "lower"),
        ("cosets.catalog_summands", "count", "lower"),
        ("glorbits.group_order_sum", "count", "lower"),
        ("glorbits.lattice_subspaces", "count", "lower"),
    ]
    out += [(layer + ".errors", "count", "lower") for layer in tracer.LAYERS]
    out += [("kind.%s.p50_ms" % kind, "ms", "lower") for kinds in KINDS.values() for kind in kinds]
    out += [
        ("trace.overhead_ratio", "ratio", "lower"),
        ("trace.missing_spans", "count", "lower"),
        ("edge.failures", "count", "lower"),
    ]
    return out


def tail_rank(n: int) -> tuple[float, int]:
    """The highest percentile that leaves at least ten samples above it (fewer
    when there are not twenty samples); returns (percentile, nearest rank)."""
    rank = max(n - 10, n // 2 + 1, 1) if n > 1 else 1
    return 100.0 * rank / n, rank


def spawn_worker(workload, seed, seconds, trace, deadline, setup_only=False) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    cmd += ["--t0", repr(time.monotonic())]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit("error: %s worker exited with %d" % (workload, proc.returncode))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(res: dict, setup_samples: list) -> dict:
    lat = sorted(res["latency_s"])
    _, rank = tail_rank(len(lat))
    return {
        "setup_s": statistics.median(setup_samples),
        "ops_per_s": len(lat) / sum(lat),
        "op_p50_ms": 1000.0 * statistics.median(lat) if lat else 0.0,
        "op_tail_ms": 1000.0 * lat[rank - 1] if lat else 0.0,
        "success_rate": (res["n"] - len(res["failures"])) / res["n"],
        "peak_rss_mb": res["peak_rss_mb"],
    }


def per_layer(res: dict) -> dict:
    tr = res["trace"]
    values = {}
    for name in tracer.SPANS:
        values[name + ".calls"] = tr["calls"].get(name, 0)
        values[name + ".self_s"] = tr["self_s"].get(name, 0.0)
    values["integers.factorize.cache_hit_ratio"] = tr["hit_ratio"].get("factorize", 0.0)
    values["integers.jacobsthal.cache_hit_ratio"] = tr["hit_ratio"].get("jacobsthal", 0.0)
    values["integers.sieve_limit"] = tr["sieve_limit"]
    for name in ("cosets.catalog_summands", "glorbits.group_order_sum",
                 "glorbits.lattice_subspaces"):
        values[name] = tr["counts"].get(name, 0)
    for layer in tracer.LAYERS:
        values[layer + ".errors"] = tr["errors"].get(layer, 0)
    by_kind = {}
    for kind, secs in zip(res["kinds"], res["latency_s"]):
        by_kind.setdefault(kind, []).append(secs)
    if res["edge"]:
        by_kind["edge"] = [row["seconds"] for row in res["edge"]]
    for kinds in KINDS.values():
        for kind in kinds:
            secs = by_kind.get(kind)
            values["kind.%s.p50_ms" % kind] = 1000.0 * statistics.median(secs) if secs else 0.0
    values["trace.overhead_ratio"] = tr["traced_wall_s"] / sum(res["latency_s"])
    values["trace.missing_spans"] = len(tr["missing_spans"])
    values["edge.failures"] = sum(1 for row in res["edge"] if not row["ok"])
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in per_layer_specs()}


def run_workload(workload: str, seed: int, seconds: float, trace: int):
    deadline = time.monotonic() + RUN_BUDGET_S
    if trace:
        res = spawn_worker(workload, seed, seconds, trace, deadline)
        return res, per_layer(res)

    def setup_sample():
        return spawn_worker(workload, seed, seconds, 0, deadline, setup_only=True)["setup_s"]

    def sample_until(samples, least, most, budget):
        while len(samples) < least or (
                len(samples) < most and sum(samples) + statistics.median(samples) <= budget):
            samples.append(setup_sample())

    samples = []
    sample_until(samples, SETUP_MIN_SAMPLES // 2, SETUP_MAX_SAMPLES // 2, SETUP_BUDGET_S / 2)
    res = spawn_worker(workload, seed, seconds, 0, deadline)
    samples.append(res["setup_s"])
    sample_until(samples, SETUP_MIN_SAMPLES, SETUP_MAX_SAMPLES, SETUP_BUDGET_S)
    e2e = end_to_end(res, samples)
    units = dict(END_TO_END)
    return res, {name: {"value": e2e[name], "unit": units[name]} for name, _ in END_TO_END}


def describe(workload: str, res: dict, metrics: dict, trace: int):
    pct, rank = tail_rank(len(res["latency_s"]))
    print("workload %s: %d requests, %d passes, tail = p%.4g over %d samples (%d above it)"
          % (workload, res["n"], res["passes"], pct, len(res["latency_s"]),
             len(res["latency_s"]) - rank))
    print("output_sha256 %s" % res["output_sha256"])
    print("requests_sha256 %s" % res["requests_sha256"])
    for name, m in metrics.items():
        print("  %-44s %14.6g %s" % (name, m["value"], m["unit"]))
    for i, reason in res["failures"].items():
        print("  FAILED request %s: %s" % (i, reason))
    for row in res.get("edge", []):
        print("  edge %-22s exit %4s %6.2f s %s %s" % (
            row["name"], row["exit"], row["seconds"], "ok" if row["ok"] else "FAIL",
            row["stderr_tail"]))
    if trace and res["trace"]["missing_spans"]:
        print("  spans without calls: %s" % ", ".join(res["trace"]["missing_spans"]))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "torsionlab", "__init__.py")):
        print("error: run from the root of a torsionlab checkout (src/torsionlab not found)",
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else [args.workload]
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        res, metrics = run_workload(name, args.seed, args.seconds, args.trace)
        describe(name, res, metrics, args.trace)
        summary["correct"] = summary["correct"] and not res["failures"]
        summary["attempted"] += res["n"]
        summary["failed"] += len(res["failures"])
        prefix = "" if len(names) == 1 else name + "."
        summary["metrics"].update({prefix + k: v for k, v in metrics.items()})
        sys.stdout.flush()
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
